import copy
import math
import pickle
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from curvint import (AngularSingularityError, DomainError, PhaseState,
                     PoleError, SystemKind, SystemSpec, hamiltonian,
                     k_constant, potential)
from curvint.systems import angular_sin_cos_for, m_rate
from conftest import (REFERENCE_ANGULAR_EPS, assert_same_bits, kepler_spec,
                      pw_spec, random_interior_states,
                      reference_angular_sin_cos, reference_cos_k,
                      reference_sin_k)


def angular_F_m(phi, k_a, k_b, m):
    """F_m(phi) of the float closures of a PW spec."""
    return pw_spec(m=m, k_a=k_a, k_b=k_b).formulas(phi).F(phi)


def profile_of(spec):
    """The float phi -> (F, F') of spec."""
    return spec.formulas(0.0).profile


def angle_of(phi, m):
    """(sin m phi, cos m phi) from a PW spec's closures for phi's type."""
    return pw_spec(m=m).formulas(phi).angle(phi)


class TestAngularProfile:
    def test_pure_ka_at_right_angle(self):
        assert angular_F_m(math.pi / 2, 2.0, 5.0, Fraction(1)) \
            == pytest.approx(2.0, rel=1e-15, abs=0)

    def test_m2_diagonal_matches_cartesian_form(self):
        # at phi = pi/4 the m = 2 profile equals the Cartesian
        # (k_a-k_b)/(4x^2) + (k_a+k_b)/(4y^2) at x = y, scaled by r^2
        k_a, k_b, r = 1.3, 0.4, 1.7
        x = y = r / math.sqrt(2.0)
        cart = (k_a - k_b) / (4 * x * x) + (k_a + k_b) / (4 * y * y)
        got = angular_F_m(math.pi / 4, k_a, k_b, Fraction(2)) / r ** 2
        assert got == pytest.approx(cart, rel=1e-13, abs=0)

    def test_unit_coefficients(self):
        assert angular_F_m(math.pi / 8, 1.0, 1.0, Fraction(2)) \
            == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14, abs=0)

    def test_singularity_raises(self):
        with pytest.raises(AngularSingularityError):
            angular_F_m(math.pi, 1.0, 0.0, Fraction(1))
        profile = profile_of(pw_spec(m=Fraction(1, 2), k_a=1.0, k_b=0.0))
        with pytest.raises(AngularSingularityError):
            profile(2 * math.pi)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for m in (Fraction(1), Fraction(2), Fraction(3, 2)):
            profile = profile_of(pw_spec(m=m, k_a=0.8, k_b=0.3))
            for phi in np.linspace(0.3, 1.4, 7):
                fd = (profile(phi + h)[0] - profile(phi - h)[0]) / (2 * h)
                assert profile(phi)[1] == pytest.approx(fd, rel=1e-7,
                                                        abs=1e-7)


def alpha_beta_profile(alpha, beta, m):
    """The profile of index 2m with k_a = 2(alpha + beta) and
    k_b = 2(beta - alpha), which is alpha/cos^2(m phi) + beta/sin^2(m phi)."""
    spec = pw_spec(m=2 * m, k_a=2.0 * (alpha + beta), k_b=2.0 * (beta - alpha))
    return profile_of(spec)


class TestReparam:
    def test_alpha_only(self):
        F = alpha_beta_profile(1.0, 0.0, Fraction(1))(math.pi / 4)[0]
        assert F == pytest.approx(2.0, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.3, 0.9),
                                            (-0.2, 0.7)])
    @pytest.mark.parametrize("m", [Fraction(1), Fraction(2), Fraction(1, 2)])
    def test_trig_equality_on_grid(self, alpha, beta, m):
        # F_{2m}(phi; k_a, k_b) == alpha/cos^2(m phi) + beta/sin^2(m phi)
        profile = alpha_beta_profile(alpha, beta, m)
        mf = float(m)
        for phi in np.linspace(0.011, 3.1, 1000):
            s, c = math.sin(mf * phi), math.cos(mf * phi)
            if min(abs(s), abs(c), abs(math.sin(2 * mf * phi))) < 1e-2:
                continue
            rhs = alpha / c ** 2 + beta / s ** 2
            lhs = profile(phi)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPotentialAndHamiltonian:
    def test_kepler_sphere(self):
        s = PhaseState(math.pi / 4, 0.0, 0.0, 0.0)
        assert potential(s, kepler_spec(kappa=1.0)) == pytest.approx(-1.0)
        assert hamiltonian(s, kepler_spec(kappa=1.0)) == pytest.approx(-1.0)

    def test_kepler_flat(self):
        s = PhaseState(2.0, 0.0, 0.0, 0.0)
        assert potential(s, kepler_spec(g=3.0)) == pytest.approx(-1.5)

    def test_pw_flat_cancellation(self):
        spec = pw_spec(k_a=1.0, k_b=0.0, m=1)
        s = PhaseState(1.0, math.pi / 2, 0.0, 0.0)
        assert potential(s, spec) == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_energy(self, standard_pw_state):
        spec = pw_spec(k_a=1.0, k_b=0.0, m=1)
        assert hamiltonian(standard_pw_state, spec) == pytest.approx(0.5)

    def test_free_geodesic(self):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=0.0)
        assert hamiltonian(PhaseState(1.0, 0.0, 0.0, 2.0), spec) \
            == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_flat_limit_matches_euclidean_formulas(self, kind):
        if kind is SystemKind.GENERIC_F:
            F = (lambda p: 0.5 * math.cos(p), lambda p: -0.5 * math.sin(p))
            spec = SystemSpec(kind=kind, kappa=0.0, g=1.0, generic_F=F)
        else:
            spec = SystemSpec(kind=kind, kappa=0.0, g=1.0, k_a=0.8,
                              k_b=0.3, m=Fraction(1))
        for s in random_interior_states(spec, 20, seed=3):
            T = 0.5 * (s.p_r ** 2 + (s.p_phi / s.r) ** 2)
            if kind is SystemKind.FREE_GEODESIC:
                U = 0.0
            elif kind is SystemKind.KEPLER:
                U = -1.0 / s.r
            elif kind is SystemKind.GENERIC_F:
                U = -1.0 / s.r + 0.5 * math.cos(s.phi) / s.r ** 2
            else:
                F = (0.8 + 0.3 * math.cos(s.phi)) / math.sin(s.phi) ** 2
                U = -1.0 / s.r + F / s.r ** 2
            assert hamiltonian(s, spec) == pytest.approx(T + U, rel=1e-12,
                                                         abs=0)

    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("kappa,r", [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0),
                                         (1.0, math.pi)])
    def test_radial_pole_raises_pole_error(self, kind, kappa, r):
        # r = 0 and the antipode: PoleError for every kind, never
        # ZeroDivisionError or a huge finite energy (the free kind)
        spec = SystemSpec(kind=kind, kappa=kappa, g=1.0, k_a=0.8, k_b=0.3,
                          generic_F=(math.cos, math.sin))
        with pytest.raises(PoleError):
            hamiltonian(PhaseState(r, 1.0, 0.1, 0.5), spec)

    def test_potential_ordering_across_curvatures(self):
        # sphere above plane above hyperbolic on (0, pi/2), attractive g
        for r in np.linspace(0.05, math.pi / 2 - 0.05, 200):
            s = PhaseState(r, 0.0, 0.0, 0.0)
            u1 = potential(s, kepler_spec(kappa=1.0))
            u0 = potential(s, kepler_spec(kappa=0.0))
            um = potential(s, kepler_spec(kappa=-1.0))
            assert u1 > u0 > um
        # only the flat branch vanishes at long range
        far = PhaseState(60.0, 0.0, 0.0, 0.0)
        assert abs(potential(far, kepler_spec(kappa=0.0))) < 0.02
        assert potential(far, kepler_spec(kappa=-1.0)) == pytest.approx(-1.0)


class TestSpecValidation:
    def test_m_stored_exactly(self):
        spec = pw_spec(m=Fraction(3, 2))
        assert spec.m_num == 3 and spec.m_den == 2
        assert isinstance(spec.m, Fraction)

    def test_vc_fixes_m(self):
        with pytest.raises(DomainError):
            SystemSpec(kind=SystemKind.VC, kappa=0.0, g=1.0, m=Fraction(2))

    def test_generic_requires_callables(self):
        with pytest.raises(DomainError):
            SystemSpec(kind=SystemKind.GENERIC_F, kappa=0.0, g=1.0)

    def test_non_finite_curvature_rejected(self):
        with pytest.raises(DomainError):
            pw_spec(kappa=math.nan)


class TestArrayPath:
    @pytest.mark.parametrize("kappa", [-1.0, -1e-9, 0.0, 1e-9, 1.0])
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_hamiltonian_matches_float_path(self, kind, kappa):
        m = Fraction(1) if kind is SystemKind.VC else Fraction(3, 2)
        spec = SystemSpec(kind=kind, kappa=kappa, g=1.0, k_a=0.8, k_b=0.3,
                          m=m,
                          generic_F=(lambda p: 0.5 * np.cos(p),
                                     lambda p: -0.5 * np.sin(p)))
        states = random_interior_states(spec, 40, seed=5)
        # the radial pole, and the angular singularity sin(m phi) = 0
        states += [PhaseState(1e-13, 1.0, 0.1, 0.5),
                   PhaseState(0.0, 1.0, 0.1, 0.5),
                   PhaseState(1.0, math.pi / m, 0.1, 0.5)]
        if kappa == 1.0:
            states += [PhaseState(math.pi - 1e-13, 1.0, 0.1, 0.5),
                       PhaseState(math.pi, 1.0, 0.1, 0.5)]
        batch = PhaseState(*(np.array(field) for field in
                             zip(*(s.as_tuple() for s in states))))
        got = hamiltonian(batch, spec)
        assert got.shape == (len(states),)
        for s, value in zip(states, got):
            try:
                expected = hamiltonian(s, spec)
            except (PoleError, AngularSingularityError):
                assert math.isnan(value), s
            else:
                assert abs(value - expected) <= 1e-14 * (1.0 + abs(expected)), s


# --- the angle m phi: the factory and a spec's closures, against the
# frozen angular_sin_cos ---

FACTORY_MS = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
              Fraction(3, 2)]


def bits(values):
    """The IEEE bytes of floats or arrays (so -0.0 differs from 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


def factory_phis(m):
    """phi across [-7, 7], signed zeros, and sin(m phi) = 0 (k pi / m) with
    its neighbours one ulp away."""
    phis = [0.0, -0.0, 1e-300, 0.1, -2.0]
    phis += list(np.random.default_rng(11).uniform(-7.0, 7.0, 60))
    for k in range(-2, 3):
        phi = k * math.pi * m.denominator / m.numerator
        phis += [phi, math.nextafter(phi, -math.inf),
                 math.nextafter(phi, math.inf)]
    return [float(phi) for phi in phis]


class TestAngularFactory:
    def test_epsilon_is_frozen(self):
        from curvint.systems import _ANGULAR_EPS
        assert _ANGULAR_EPS == REFERENCE_ANGULAR_EPS

    @pytest.mark.parametrize("m", FACTORY_MS, ids=str)
    def test_float_bit_for_bit(self, m):
        sin_cos = angular_sin_cos_for(m)
        raised = 0
        for phi in factory_phis(m):
            try:
                expected = reference_angular_sin_cos(phi, m)
            except AngularSingularityError:
                raised += 1
                with pytest.raises(AngularSingularityError):
                    sin_cos(phi)
                with pytest.raises(AngularSingularityError):
                    angle_of(phi, m)
            else:
                assert bits(sin_cos(phi)) == bits(expected), phi
                assert bits(angle_of(phi, m)) == bits(expected), phi
        assert raised >= 10

    @pytest.mark.parametrize("m", FACTORY_MS, ids=str)
    def test_array_bit_for_bit(self, m):
        phis = np.array(factory_phis(m))
        expected = reference_angular_sin_cos(phis, m)
        assert np.isnan(expected[0]).sum() >= 10
        assert bits(angular_sin_cos_for(m, True)(phis)) == bits(expected)
        assert bits(angle_of(phis, m)) == bits(expected)

    @pytest.mark.parametrize("m", FACTORY_MS, ids=str)
    def test_non_finite_phi(self, m):
        # nan propagates; an infinite angle was math's ValueError and is
        # now a DomainError
        assert np.isnan(angular_sin_cos_for(m)(math.nan)).all()
        assert np.isnan(reference_angular_sin_cos(math.nan, m)).all()
        for phi in (math.inf, -math.inf):
            with pytest.raises(ValueError):
                reference_angular_sin_cos(phi, m)
            with pytest.raises(DomainError):
                angular_sin_cos_for(m)(phi)
        phis = np.array([math.nan, math.inf, -math.inf, 0.5])
        with np.errstate(invalid="ignore"):
            assert bits(angular_sin_cos_for(m, True)(phis)) == bits(
                reference_angular_sin_cos(phis, m))


def frozen_array_angular_sin_cos(m, eps):
    """angular_sin_cos_for(m, True, eps) as it was before its nan mask was
    applied only where set: np.where at every call.  Keep it frozen."""
    p, q = m.numerator, m.denominator

    def sin_cos(phi):
        u = (p * phi) / q
        s = np.sin(u)
        s = np.where(abs(s) < eps, np.nan, s)
        return s, np.cos(u)
    return sin_cos


class TestAngularMaskOnlyWhereSet:
    @pytest.mark.parametrize("eps", [REFERENCE_ANGULAR_EPS, 0.0])
    @pytest.mark.parametrize("m", FACTORY_MS, ids=str)
    def test_bit_for_bit(self, m, eps):
        # phi with sin(m phi) masked at some, all and no elements, 0-d and
        # empty arrays
        zeros = [k * math.pi * m.denominator / m.numerator
                 for k in range(-2, 3)]
        cases = {"mixed": np.array(factory_phis(m)),
                 "mixed-2d": np.array(factory_phis(m)[:60]).reshape(5, 12),
                 "all": np.array([0.0, -0.0, 1e-300] + zeros),
                 "none": np.array([0.1, -2.0, 0.5]) * m.denominator
                 / m.numerator,
                 "0-d-masked": np.array(0.0), "0-d": np.array(0.7),
                 "empty": np.array([]), "empty-2d": np.empty((0, 2))}
        sin_cos = angular_sin_cos_for(m, True, eps)
        frozen = frozen_array_angular_sin_cos(m, eps)
        for name, phi in cases.items():
            assert_same_bits(sin_cos(phi), frozen(phi), name)
        if eps:
            masked = {name: abs(np.sin((m.numerator * phi) / m.denominator))
                      < eps for name, phi in cases.items()}
            assert masked["mixed"].any() and not masked["mixed"].all()
            assert masked["all"].all() and not masked["none"].any()


class TestAngleHelpers:
    def test_angle_is_p_phi_over_q(self):
        phis = np.random.default_rng(2).uniform(0.1, 1.4, 50)
        for p, q in ((1, 1), (3, 2), (1, 2), (7, 3), (10 ** 12, 1)):
            m = Fraction(p, q)
            s, c = angular_sin_cos_for(m, True)(phis)
            assert bits(s) == bits(np.sin((p * phis) / q))
            assert bits(c) == bits(np.cos((p * phis) / q))
            for phi in map(float, phis[:10]):
                s, c = angular_sin_cos_for(m, eps=0.0)(phi)
                assert bits((s, c)) == bits((math.sin((p * phi) / q),
                                             math.cos((p * phi) / q)))

    @pytest.mark.parametrize("phi", [1.0, 0.0, np.ones(3)],
                             ids=["float", "zero", "array"])
    def test_p_or_q_beyond_the_float_range(self, phi):
        for p, q in ((10 ** 400, 1), (1, 10 ** 400), (3 * 10 ** 400, 2)):
            with pytest.raises(DomainError, match="float range"):
                angular_sin_cos_for(Fraction(p, q),
                                    isinstance(phi, np.ndarray))(phi)

    def test_infinite_float_angle_raises_domain_error(self):
        # (p phi)/q overflows to inf for a float phi: the factory, with or
        # without its singularity test, and N_phi raise DomainError where
        # math.sin would raise ValueError
        m = Fraction(10 ** 300)
        for eps in (REFERENCE_ANGULAR_EPS, 0.0):
            with pytest.raises(DomainError, match="float range"):
                angular_sin_cos_for(m, eps=eps)(1e300)
        spec = SystemSpec(kind=SystemKind.PW, kappa=0.0, g=1.0, m=m)
        from curvint import n_phi
        with pytest.raises(DomainError):
            n_phi(PhaseState(1.0, 1e300, 0.1, 0.5), spec)

    def test_m_rate(self):
        assert m_rate(3, 2) == 1.5
        assert m_rate(1, 10 ** 400) == 0.0
        with pytest.raises(DomainError, match="float range"):
            m_rate(10 ** 400, 1)

    def test_profile_derivative_rate(self):
        m = Fraction(7, 3)
        s, c = reference_angular_sin_cos(0.4, m)
        expected = -(7 / 3) * (2.0 * 0.8 * c + 0.3 * (1.0 + c * c)) / (s ** 3)
        dF = profile_of(pw_spec(m=m, k_a=0.8, k_b=0.3))(0.4)[1]
        assert dF == pytest.approx(expected, rel=1e-15, abs=0)


# --- potential and Hamiltonian from one (S, C) evaluation, against the
# frozen bodies that took S and C from separate sin_k and cos_k calls ---

def reference_off_pole(S):
    if abs(S) < 1e-12:
        raise PoleError(f"pole: sin_k = {S}")
    return S


def reference_potential(state, spec):
    if spec.kind is SystemKind.FREE_GEODESIC:
        return 0.0
    S = reference_off_pole(reference_sin_k(spec.kappa, state.r))
    return (-spec.g * (reference_cos_k(spec.kappa, state.r) / S)
            + spec.formulas(state.phi).F(state.phi) / (S * S))


def reference_hamiltonian(state, spec):
    S = reference_off_pole(reference_sin_k(spec.kappa, state.r))
    T = 0.5 * (state.p_r ** 2 + (state.p_phi / S) ** 2)
    return T + reference_potential(state, spec)


class TestOneRadialEvaluation:
    @pytest.mark.parametrize("kappa", [-1.0, -1e-9, 0.0, 1e-9, 1.0])
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_float_bit_for_bit(self, kind, kappa):
        m = Fraction(1) if kind is SystemKind.VC else Fraction(3, 2)
        spec = SystemSpec(kind=kind, kappa=kappa, g=1.0, k_a=0.8, k_b=0.3,
                          m=m, generic_F=(math.cos, math.sin))
        states = random_interior_states(spec, 30, seed=13)
        states += [PhaseState(r, 0.35 * math.pi / float(m), -0.2, 0.4)
                   for r in (1e-5, -0.4, 3.2, 1e-12, 0.0)]
        for s in states:
            for f, ref in ((potential, reference_potential),
                           (hamiltonian, reference_hamiltonian)):
                try:
                    expected = ref(s, spec)
                except PoleError:
                    with pytest.raises(PoleError):
                        f(s, spec)
                else:
                    assert bits(f(s, spec)) == bits(expected), (f, s)


# --- a spec's closures: built once per spec, invisible to its value ---

def table_specs(kappa=1.0):
    return [pw_spec(kappa=kappa, m=Fraction(3, 2)),
            SystemSpec(kind=SystemKind.VC, kappa=kappa, g=1.0, k_a=0.8,
                       k_b=0.3),
            kepler_spec(kappa=kappa),
            SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=kappa),
            SystemSpec(kind=SystemKind.GENERIC_F, kappa=kappa, g=1.0,
                       generic_F=(math.cos, math.sin))]


def evaluations(spec):
    """The IEEE bytes of H and K (H alone for kinds without K) at float
    states and at the same states as one array batch."""
    states = random_interior_states(spec, 8, seed=21)
    batch = PhaseState(*np.array([s.as_tuple() for s in states]).T)
    fns = [hamiltonian]
    if spec.kind in (SystemKind.PW, SystemKind.VC):
        fns.append(k_constant)
    return [np.asarray(fn(s, spec)).tobytes()
            for fn in fns for s in states + [batch]]


class TestSpecTables:
    def test_table_picked_by_type(self):
        spec = pw_spec(kappa=1.0, m=Fraction(3, 2))
        floats, arrays = spec.float_formulas, spec.array_formulas
        assert spec.formulas(0.5) is floats
        assert spec.formulas(np.float64(0.5)) is floats
        assert spec.formulas(np.ones(3)) is arrays
        # each built once per spec
        assert spec.float_formulas is floats
        assert spec.array_formulas is arrays

    def test_each_table_is_built_at_its_first_use(self):
        spec = pw_spec(kappa=1.0, m=Fraction(3, 2))
        hamiltonian(PhaseState(1.0, 1.0, 0.1, 0.5), spec)
        assert "float_formulas" in vars(spec)
        assert "array_formulas" not in vars(spec)
        spec = pw_spec(kappa=1.0, m=Fraction(3, 2))
        hamiltonian(PhaseState(*np.ones((4, 3))), spec)
        assert "array_formulas" in vars(spec)
        assert "float_formulas" not in vars(spec)

    def test_equality_and_hash_ignore_the_tables(self):
        tables = {"float_formulas", "array_formulas"}
        for used, fresh in zip(table_specs(), table_specs()):
            evaluations(used)
            assert tables <= set(vars(used))
            assert not tables & set(vars(fresh))
            assert used == fresh and hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)

    @pytest.mark.parametrize("clone", [
        lambda spec: pickle.loads(pickle.dumps(spec)), copy.deepcopy,
        copy.copy], ids=["pickle", "deepcopy", "copy"])
    def test_clone_evaluates_bit_for_bit(self, clone):
        for spec in table_specs():
            expected = evaluations(spec)        # the tables are built
            twin = clone(spec)
            assert twin == spec and hash(twin) == hash(spec)
            assert evaluations(twin) == expected

    @pytest.mark.parametrize("kappa", [-1.0, -1e-9, 0.0, 1e-9, 0.5])
    def test_replace_evaluates_like_a_new_spec(self, kappa):
        for spec, fresh in zip(table_specs(1.0), table_specs(kappa)):
            evaluations(spec)
            moved = replace(spec, kappa=kappa)
            assert moved == fresh
            assert evaluations(moved) == evaluations(fresh)
            assert evaluations(moved) != evaluations(spec)
