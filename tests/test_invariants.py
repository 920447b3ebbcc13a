import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvint import (CurvintError, NegativeCasimirError, PhaseState,
                     PoleError, SystemKind, SystemSpec, hamiltonian,
                     integrate, j2, k_constant, lambda_k, m_r, n_phi,
                     noether_p1, noether_p2, radial_period, runge_lenz,
                     vc_integrals)
from curvint.cli import RunConfig
from curvint.invariants import _ipow, evaluators_for
from curvint.verify import drift, rotation_check
from conftest import kepler_spec, pw_spec, random_interior_states

STANDARD = pw_spec(k_a=1.0, k_b=0.0, m=1)    # flat, hand-checked system


def invariant_drift(traj, fn, tol):
    return drift(traj, "x", lambda s, t: fn(s), tol)


class TestQuadraticLayer:
    def test_noether_flat_tangential(self):
        spec = kepler_spec()
        s = PhaseState(1.0, 0.0, 0.0, 1.0)
        assert noether_p1(s, spec) == pytest.approx(0.0, abs=1e-15)
        assert noether_p2(s, spec) == pytest.approx(1.0)

    def test_noether_flat_radial(self):
        spec = kepler_spec()
        s = PhaseState(1.7, 0.0, 1.0, 0.0)
        assert noether_p1(s, spec) == pytest.approx(1.0)
        assert noether_p2(s, spec) == pytest.approx(0.0, abs=1e-15)

    def test_noether_conserved_on_flat_geodesics(self):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=0.0)
        traj = integrate(PhaseState(1.0, 0.2, 0.3, 0.8), spec, 50.0)
        for fn in (noether_p1, noether_p2):
            rep = invariant_drift(traj, lambda s, fn=fn: fn(s, spec), 1e-9)
            assert rep.passed, rep

    def test_angular_momentum(self):
        assert PhaseState(1.0, 0.0, 0.0, 2.0).p_phi == 2.0

    def test_angular_momentum_flat_cartesian(self):
        # kappa = 0: p_phi equals x v_y - y v_x of the mapped state
        s = PhaseState(1.4, 0.6, 0.3, 0.9)
        x, y = s.r * math.cos(s.phi), s.r * math.sin(s.phi)
        v_r, v_phi = s.p_r, s.p_phi / s.r ** 2
        vx = v_r * math.cos(s.phi) - s.r * math.sin(s.phi) * v_phi
        vy = v_r * math.sin(s.phi) + s.r * math.cos(s.phi) * v_phi
        assert s.p_phi == pytest.approx(x * vy - y * vx, rel=1e-13, abs=0)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_angular_momentum_conserved_central(self, kappa):
        spec = kepler_spec(kappa=kappa)
        s0 = PhaseState(1.0, 0.3, 0.05, 0.7) if kappa >= 0 \
            else PhaseState(0.8, 0.3, 0.05, 0.5)
        traj = integrate(s0, spec, 100.0)
        rep = invariant_drift(traj, lambda s: s.p_phi, 1e-10)
        assert rep.passed, rep

    def test_j2_hand_value(self, standard_pw_state):
        assert j2(standard_pw_state, STANDARD) == pytest.approx(3.0)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_j2_drift(self, kappa):
        spec = pw_spec(kappa=kappa, m=Fraction(2))
        s0 = PhaseState(1.1, 0.4, 0.1, 0.55)
        traj = integrate(s0, spec, 100.0)
        rep = invariant_drift(traj, lambda s: j2(s, spec), 1e-8)
        assert rep.passed, rep


class TestRungeLenz:
    def test_circular_orbit_zero_eccentricity(self):
        i3, _ = runge_lenz(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec())
        assert i3 == pytest.approx(0.0, abs=1e-15)

    def test_free_motion_products_conserved(self):
        spec = kepler_spec(g=0.0)
        traj = integrate(PhaseState(1.0, 0.2, 0.3, 0.8), spec, 50.0)
        for i in (0, 1):
            rep = invariant_drift(traj, lambda s: runge_lenz(s, spec)[i],
                                  1e-8)
            assert rep.passed, rep

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_curved_drift(self, kappa):
        spec = kepler_spec(kappa=kappa)
        s0 = PhaseState(0.9, 0.3, 0.1, 0.7) if kappa > 0 \
            else PhaseState(0.8, 0.3, 0.05, 0.5)
        traj = integrate(s0, spec, 100.0)
        for i in (0, 1):
            rep = invariant_drift(traj, lambda s: runge_lenz(s, spec)[i],
                                  1e-8)
            assert rep.passed, (kappa, rep)


class TestVcIntegrals:
    def test_reduces_to_kepler(self):
        vc = SystemSpec(kind=SystemKind.VC, kappa=1.0, g=1.0)
        kep = kepler_spec(kappa=1.0)
        s = PhaseState(0.9, 0.7, 0.2, 0.6)
        i2, i3 = vc_integrals(s, vc)
        assert i2 == pytest.approx(s.p_phi ** 2)
        assert i3 == pytest.approx(runge_lenz(s, kep)[0], rel=1e-13, abs=0)

    def test_i2_equals_j2(self):
        vc = SystemSpec(kind=SystemKind.VC, kappa=-1.0, g=1.0, k_a=0.5,
                        k_b=0.2)
        for s in random_interior_states(vc, 50, seed=4):
            assert vc_integrals(s, vc)[0] == pytest.approx(j2(s, vc),
                                                           rel=1e-13, abs=0)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_drift(self, kappa):
        vc = SystemSpec(kind=SystemKind.VC, kappa=kappa, g=1.0, k_a=0.5,
                        k_b=0.2)
        s0 = PhaseState(1.1, 1.0, 0.05, 0.5)
        traj = integrate(s0, vc, 100.0)
        for i in (0, 1):
            rep = invariant_drift(traj, lambda s: vc_integrals(s, vc)[i],
                                  1e-8)
            assert rep.passed, (kappa, rep)


class TestComplexFactors:
    def test_m_r_hand_value(self, standard_pw_state):
        assert m_r(standard_pw_state, STANDARD) \
            == pytest.approx(complex(0.0, -2.0), abs=1e-14)

    def test_m_r_vanishes_at_turning_point(self):
        # p_r = 0 and Tan_k(r) = J2/g kill both components
        spec = kepler_spec(g=2.0)
        s = PhaseState(0.5, 0.3, 0.0, 1.0)    # flat: tan_k(r) = r = J2/g
        assert m_r(s, spec) == pytest.approx(0.0 + 0.0j, abs=1e-14)

    def test_n_phi_hand_value(self, standard_pw_state):
        assert n_phi(standard_pw_state, STANDARD) \
            == pytest.approx(complex(0.0, math.sqrt(3.0)), abs=1e-14)

    def test_n_phi_at_angular_turning_point(self):
        spec = pw_spec(k_a=1.0, k_b=0.7, m=1)
        s = PhaseState(1.0, math.pi / 2, 0.4, 0.0)
        got = n_phi(s, spec)
        assert got.real == pytest.approx(0.7, rel=1e-13, abs=0)
        assert got.imag == pytest.approx(0.0, abs=1e-14)

    def test_lambda_hand_value(self, standard_pw_state):
        assert lambda_k(standard_pw_state, STANDARD) \
            == pytest.approx(math.sqrt(3.0))

    def test_lambda_on_equator(self):
        spec = pw_spec(kappa=1.0, m=1)
        s = PhaseState(math.pi / 2, 0.9, 0.1, 0.8)
        assert lambda_k(s, spec) == pytest.approx(math.sqrt(j2(s, spec)))

    def test_k_hand_value(self, standard_pw_state):
        K = k_constant(standard_pw_state, STANDARD)
        assert K == pytest.approx(complex(-2.0 * math.sqrt(3.0), 0.0),
                                  abs=1e-13)
        assert abs(K) ** 2 == pytest.approx(12.0, rel=1e-13, abs=0)

    def test_modulus_multiplicative(self):
        spec = pw_spec(kappa=1.0, m=Fraction(3, 2))
        for s in random_interior_states(spec, 30, seed=8):
            expected = abs(m_r(s, spec)) ** 3 * abs(n_phi(s, spec)) ** 2
            assert abs(k_constant(s, spec)) == pytest.approx(expected,
                                                             rel=1e-12, abs=0)

    def test_negative_casimir_rejected(self):
        spec = pw_spec(k_a=-2.0, k_b=0.0, m=1)
        s = PhaseState(1.0, math.pi / 2, 0.1, 0.5)   # J2 = 0.25 - 4 < 0
        for fn in (m_r, n_phi, lambda_k, k_constant):
            with pytest.raises(NegativeCasimirError):
                fn(s, spec)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_moduli_identities(self, kappa):
        spec = pw_spec(kappa=kappa, m=Fraction(2))
        for s in random_interior_states(spec, 500, seed=13):
            J2 = j2(s, spec)
            H = hamiltonian(s, spec)
            lhs = abs(m_r(s, spec)) ** 2
            rhs = (2 * H - kappa * J2) * J2 + spec.g ** 2
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
            lhs = abs(n_phi(s, spec)) ** 2
            rhs = J2 ** 2 - 2 * spec.k_a * J2 + spec.k_b ** 2
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("m", [Fraction(1), Fraction(2), Fraction(3),
                                   Fraction(1, 2), Fraction(3, 2)])
    def test_k_drift(self, kappa, m):
        spec = pw_spec(kappa=kappa, m=m)
        u0 = 0.45 * math.pi
        s0 = PhaseState(1.1, u0 * m.denominator / m.numerator, 0.1, 0.5)
        traj = integrate(s0, spec, 100.0)
        for part in (lambda z: z.real, lambda z: z.imag):
            rep = invariant_drift(
                traj, lambda s, p=part: p(k_constant(s, spec)), 1e-7)
            assert rep.passed, (kappa, m, rep)

    def test_rotation_relations(self):
        spec = pw_spec(kappa=1.0, m=Fraction(3, 2))
        s0 = PhaseState(1.1, 0.3 * math.pi * 2 / 3, 0.1, 0.5)
        traj = integrate(s0, spec, 20.0)
        rep = rotation_check(traj, spec)
        assert rep.passed, rep

    def test_rotation_relations_free_limit(self):
        # g = 0, zero angular profile: M_r2 = -J2 Cot_k(r), law still holds
        spec = SystemSpec(kind=SystemKind.PW, kappa=-1.0, g=0.0, k_a=0.0,
                          k_b=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.0, 0.4, -0.2, 0.8), spec, 10.0)
        rep = rotation_check(traj, spec)
        assert rep.passed, rep

    def test_kepler_reduction_conserved(self):
        # zero angular profile, g != 0: K built from Runge-Lenz material
        spec = SystemSpec(kind=SystemKind.PW, kappa=0.0, g=1.0, k_a=0.0,
                          k_b=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.2, 0.3, 0.1, 0.9), spec, 50.0)
        for part in (lambda z: z.real, lambda z: z.imag):
            rep = invariant_drift(
                traj, lambda s, p=part: p(k_constant(s, spec)), 1e-7)
            assert rep.passed, rep


class TestArrayPath:
    """Each invariant on a PhaseState of arrays against its float path."""

    INVARIANTS = {
        "P1": noether_p1, "P2": noether_p2, "J2": j2,
        "I3_kepler": lambda s, spec: runge_lenz(s, spec)[0],
        "I4_kepler": lambda s, spec: runge_lenz(s, spec)[1],
        "I2_vc": lambda s, spec: vc_integrals(s, spec)[0],
        "I3_vc": lambda s, spec: vc_integrals(s, spec)[1],
        "M_r": m_r, "N_phi": n_phi, "lambda": lambda_k, "K": k_constant,
    }

    @pytest.mark.parametrize("k_a", [0.8, -0.8])
    @pytest.mark.parametrize("kappa", [-1.0, -1e-9, 0.0, 1e-9, 1.0])
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_matches_float_path(self, kind, kappa, k_a):
        m = Fraction(1) if kind is SystemKind.VC else Fraction(3, 2)
        # a scalar-only generic profile: the array path maps it elementwise
        spec = SystemSpec(kind=kind, kappa=kappa, g=1.0, k_a=k_a, k_b=0.3,
                          m=m, generic_F=(lambda p: 0.5 * math.cos(p),
                                          lambda p: -0.5 * math.sin(p)))
        states = random_interior_states(spec, 40, seed=6)
        # radial pole, angular singularities, and J2 <= 0 (p_phi = 0 with
        # a vanishing or attractive profile)
        states += [PhaseState(1e-13, 1.0, 0.1, 0.5),
                   PhaseState(0.0, 1.0, 0.1, 0.5),
                   PhaseState(1.0, math.pi / m, 0.1, 0.5),
                   PhaseState(1.0, 0.0, 0.1, 0.5),
                   PhaseState(1.0, 1.0, 0.1, 0.0)]
        if kappa == 1.0:
            states += [PhaseState(math.pi - 1e-13, 1.0, 0.1, 0.5),
                       PhaseState(math.pi, 1.0, 0.1, 0.5)]
        batch = PhaseState(*(np.array(field) for field in
                             zip(*(s.as_tuple() for s in states))))
        raised = set()
        for name, fn in self.INVARIANTS.items():
            got = fn(batch, spec)
            assert np.shape(got) == (len(states),), name
            for s, value in zip(states, got):
                try:
                    expected = fn(s, spec)
                except CurvintError as exc:
                    raised.add(type(exc))
                    assert np.isnan(value), (name, s)
                else:
                    assert abs(value - expected) \
                        <= 1e-14 * (1.0 + abs(expected)), (name, s)
        assert PoleError in raised
        if k_a < 0.0 or not spec.has_angular_term:
            assert NegativeCasimirError in raised


# --- integer powers by squaring ---

def repeated_multiplication(z, n):
    """z**n as _ipow first computed it: n products from 1.  Keep it frozen."""
    out = complex(1.0, 0.0)
    for _ in range(n):
        out *= z
    return out


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


class TestIpow:
    def test_small_exponents_equal_repeated_multiplication(self):
        # every m = p/q of the tests and the benchmark has p, q <= 3
        rng = np.random.default_rng(17)
        zs = rng.normal(0.0, 10.0, 400) + 1j * rng.normal(0.0, 10.0, 400)
        zs = np.concatenate([zs, [2.5j, -1.5j, 3.0 + 0j, 1e-5 + 7j]])
        for n in range(4):
            assert bits(_ipow(zs, n)) == bits(repeated_multiplication(zs, n))
            for z in zs:
                z = complex(z)
                assert bits(_ipow(z, n)) == bits(
                    repeated_multiplication(z, n)), (z, n)

    def test_exponents_up_to_64_agree_within_1e_13(self):
        rng = np.random.default_rng(19)
        zs = (np.exp(1j * rng.uniform(-math.pi, math.pi, 100))
              * rng.uniform(0.8, 1.25, 100))
        for n in range(65):
            expected = repeated_multiplication(zs, n)
            assert np.all(np.abs(_ipow(zs, n) - expected)
                          <= 1e-13 * np.abs(expected)), n

    def test_huge_exponent_takes_log_n_products(self):
        z = complex(math.cos(0.3), math.sin(0.3))
        got = _ipow(z, 10 ** 12)
        assert abs(got) == pytest.approx(1.0, abs=1e-3)
        assert isinstance(_ipow(z, 10 ** 400), complex)     # returns


# --- every finite float: a value or a CurvintError ---

ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
ANY_INT = st.one_of(st.integers(-4, 4), st.integers(-10 ** 400, 10 ** 400))


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["free", "kepler", "vc", "pw"]),
       numbers=st.tuples(*[ANY_FLOAT] * 8), m_num=ANY_INT, m_den=ANY_INT)
def test_any_float_state_returns_or_raises_curvint_error(kind, numbers,
                                                         m_num, m_den):
    # no integration: the config's spec, then H and every evaluator of the
    # CSV columns at the start state
    kappa, g, k_a, k_b, r0, phi0, p_r0, p_phi0 = numbers
    cfg = RunConfig(kind=kind, kappa=kappa, g=g, k_a=k_a, k_b=k_b,
                    m_num=m_num, m_den=m_den)
    try:
        spec = cfg.system_spec()
    except CurvintError:
        return
    state = PhaseState(r0, phi0, p_r0, p_phi0)
    for fn in [lambda s: hamiltonian(s, spec), *evaluators_for(spec).values()]:
        try:
            value = fn(state)
        except CurvintError:
            continue
        assert isinstance(value, float)


# --- radial_period against a 50-digit quadrature of the radial cycle ---

def mp_radial_period(state, spec, g):
    """dt over one radial cycle, by mpmath at 50 digits from the float state:
    with u = Cot_k(r) = c + d cos(theta), p_r^2 = (2H - kappa J2) + 2 g u
    - J2 u^2 turns dt = dr / p_r into dtheta / ((kappa + u^2) sqrt(J2))."""
    with mpmath.workdps(50):
        k, r = mpmath.mpf(spec.kappa), mpmath.mpf(state.r)
        if k > 0:
            S, C = mpmath.sin(mpmath.sqrt(k) * r) / mpmath.sqrt(k), \
                mpmath.cos(mpmath.sqrt(k) * r)
        elif k < 0:
            S, C = mpmath.sinh(mpmath.sqrt(-k) * r) / mpmath.sqrt(-k), \
                mpmath.cosh(mpmath.sqrt(-k) * r)
        else:
            S, C = r, mpmath.mpf(1)
        J2 = mpmath.mpf(state.p_phi) ** 2
        if spec.kind in (SystemKind.PW, SystemKind.VC):
            mphi = spec.m_num * mpmath.mpf(state.phi) / spec.m_den
            J2 += 2 * ((spec.k_a + spec.k_b * mpmath.cos(mphi))
                       / mpmath.sin(mphi) ** 2)
        u0 = C / S
        H = mpmath.mpf(state.p_r) ** 2 / 2 + J2 / (2 * S * S) - g * u0
        c = g / J2
        d = mpmath.sqrt(g * g + (2 * H - k * J2) * J2) / J2
        f = lambda th: 1 / ((k + (c + d * mpmath.cos(th)) ** 2)
                            * mpmath.sqrt(J2))
        # the integrand peaks at u = 0, the equator, when the orbit crosses it
        cuts = [0, mpmath.acos(-c / d), mpmath.pi] if abs(c) < d \
            else [0, mpmath.pi]
        return float(2 * mpmath.quad(f, cuts)), float(H)


PERIOD_KAPPAS = [1.0, -1.0, 1e-3, -1e-3, 1e-6, -1e-6, 1e-12, -1e-12, 0.0]


def period_cases():
    """(spec, state) of bounded orbits: Kepler, VC and PW m = 3/2 on every
    kappa of PERIOD_KAPPAS, and at kappa > 0 also H > 0 and g < 0."""
    cases = []
    for kappa in PERIOD_KAPPAS:
        for kind, m in ((SystemKind.KEPLER, 1), (SystemKind.VC, 1),
                        (SystemKind.PW, Fraction(3, 2))):
            phi0 = 0.6 * math.pi / m
            states = [(1.0, PhaseState(1.0, phi0, 0.1, 0.5))]
            if kappa > 0:
                states += [(1.0, PhaseState(1.0, phi0, 2.0, 0.5)),
                           (-1.0, PhaseState(1.0, phi0, 0.1, 0.5))]
            for g, s0 in states:
                spec = SystemSpec(kind=kind, kappa=kappa, g=g, k_a=0.05,
                                  k_b=0.01, m=m)
                cases.append(pytest.param(spec, s0, id=f"{kind.value}-"
                                          f"{kappa:g}-g{g:g}-pr{s0.p_r:g}"))
    return cases


class TestRadialPeriod:
    @pytest.mark.parametrize("spec, s0", period_cases())
    def test_matches_50_digit_quadrature(self, spec, s0):
        expected, H = mp_radial_period(s0, spec, spec.g)
        assert H == pytest.approx(hamiltonian(s0, spec), rel=1e-14, abs=0)
        assert radial_period(s0, spec) == pytest.approx(expected, rel=1e-14,
                                                        abs=0)

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_huge_coupling(self, kappa):
        # H ~ -1e160, where a^2 and rho^1.5 overflow and T_r is ~1e-80;
        # against the residue forms 2 pi g a^-3/2 and, at kappa = -1,
        # pi ((a - 2g)^-1/2 - (a + 2g)^-1/2), which cancel little here
        spec = kepler_spec(kappa=kappa, g=1e160)
        s0 = PhaseState(1.0, 0.3, 0.1, 1.0)
        with mpmath.workdps(50):
            a, g = -2 * mpmath.mpf(hamiltonian(s0, spec)), mpmath.mpf(spec.g)
            if kappa == 0.0:
                expected = 2 * mpmath.pi * g / a ** 1.5
            else:
                expected = mpmath.pi * (1 / mpmath.sqrt(a - 2 * g)
                                        - 1 / mpmath.sqrt(a + 2 * g))
            expected = float(expected)
        assert radial_period(s0, spec) == pytest.approx(expected, rel=1e-14,
                                                        abs=0)

    def test_free_geodesic_ignores_g(self):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=1.0, g=1.0)
        s0 = PhaseState(1.0, 0.3, 0.2, 0.5)
        expected, _ = mp_radial_period(s0, spec, 0.0)
        assert expected == pytest.approx(10.0217719207, abs=1e-10)
        assert radial_period(s0, spec) == pytest.approx(expected, rel=1e-14,
                                                        abs=0)

    @pytest.mark.parametrize("spec, s0", [
        pytest.param(SystemSpec(kind=SystemKind.GENERIC_F, kappa=1.0, g=1.0,
                                generic_F=(lambda phi: 0.1,
                                           lambda phi: 0.0)),
                     PhaseState(1.0, 0.3, 0.1, 0.5), id="generic"),
        pytest.param(pw_spec(kappa=1.0, k_a=-0.3, k_b=0.0),
                     PhaseState(1.0, math.pi / 2, 0.1, 0.1), id="J2<0"),
        pytest.param(kepler_spec(kappa=1.0), PhaseState(1.0, 0.3, 0.1, 0.0),
                     id="J2=0"),
        pytest.param(kepler_spec(), PhaseState(1.0, 0.0, 0.0, math.sqrt(2)),
                     id="flat-H=0"),
        pytest.param(kepler_spec(kappa=-1.0), PhaseState(1.0, 0.0, 0.0, 1.5),
                     id="hyperbolic-above-escape"),
        pytest.param(kepler_spec(kappa=-1.0, g=-1.0),
                     PhaseState(1.0, 0.3, 0.1, 0.5), id="hyperbolic-g<0"),
        pytest.param(kepler_spec(g=0.0), PhaseState(1.0, 0.3, 0.1, 0.5),
                     id="flat-g=0"),
        pytest.param(SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=-1.0,
                                g=1.0),
                     PhaseState(1.0, 0.3, 0.1, 0.5), id="free-hyperbolic"),
        # J2 = 5e-324 > 0 but H rounds to 0: a free particle all but at rest
        pytest.param(SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=1.0,
                                g=1.0),
                     PhaseState(1.0, 0.5, 0.0, 2e-162), id="rho=0"),
    ])
    def test_none(self, spec, s0):
        assert radial_period(s0, spec) is None
