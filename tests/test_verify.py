import math
from fractions import Fraction

import numpy as np
import pytest

from curvint import (CurvintError, NegativeCasimirError, PhaseState,
                     StencilError, SystemKind, SystemSpec, closure_detect,
                     evaluators_for, hamiltonian, integrate, j2, k_constant,
                     euclidean_limit_scan, lambda_k, m_r, n_phi,
                     poisson_bracket_fd, random_bounded_state,
                     rotation_check, tan_k)
from curvint.verify import bracket_with_scale, drift
from conftest import kepler_spec, pw_spec, random_interior_states


class TestPoissonBracket:
    def test_canonical_pair(self):
        s = PhaseState(1.3, 0.7, 0.4, 0.9)
        pb = poisson_bracket_fd(lambda x: x.r, lambda x: x.p_r, s)
        assert pb == pytest.approx(1.0, abs=1e-10)

    def test_antisymmetry_exact(self):
        spec = pw_spec(kappa=1.0, m=Fraction(2))
        f = lambda s: j2(s, spec)
        g = lambda s: hamiltonian(s, spec)
        s = PhaseState(1.1, 0.4, 0.2, 0.6)
        assert poisson_bracket_fd(f, g, s) == -poisson_bracket_fd(g, f, s)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_angular_momentum_central(self, kappa):
        spec = kepler_spec(kappa=kappa)
        H = lambda s: hamiltonian(s, spec)
        for s in random_interior_states(spec, 20, seed=2):
            pb = poisson_bracket_fd(lambda x: x.p_phi, H, s)
            assert abs(pb) < 1e-8

    def test_h_convergence_second_order(self):
        # {r^3, p_r^3} = 9 r^2 p_r^2; cubic truncation error scales as h^2
        s = PhaseState(1.0, 0.5, 1.0, 0.7)
        f = lambda x: x.r ** 3
        g = lambda x: x.p_r ** 3
        errs = [abs(poisson_bracket_fd(f, g, s, h=h) - 9.0)
                for h in (1e-3, 5e-4)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("m", [Fraction(1), Fraction(2), Fraction(1, 2)])
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_higher_order_integrals_commute(self, kappa, m):
        spec = pw_spec(kappa=kappa, m=m)
        H = lambda s: hamiltonian(s, spec)
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = random_bounded_state(spec, rng)
            for fn in (lambda x: j2(x, spec),
                       lambda x: k_constant(x, spec).real,
                       lambda x: k_constant(x, spec).imag):
                value, scale = bracket_with_scale(fn, H, s)
                assert abs(value) <= 1e-6 * (1.0 + scale)

    def test_corrupted_invariant_detected(self):
        spec = pw_spec(kappa=1.0, m=Fraction(1))
        H = lambda s: hamiltonian(s, spec)
        s = PhaseState(1.1, 0.8, 0.2, 0.6)
        value, scale = bracket_with_scale(lambda x: j2(x, spec) + x.r, H, s)
        assert abs(value) > 1e-6 * (1.0 + scale)

    def test_stencil_error(self):
        def spiky(s):
            if s.r > 1.0:
                raise CurvintError("pole")
            return s.r
        with pytest.raises(StencilError):
            poisson_bracket_fd(spiky, lambda s: s.p_r,
                               PhaseState(1.0, 0.0, 0.0, 0.0))


class TestDrift:
    def test_energy_on_completed_trajectory(self):
        spec = pw_spec(kappa=1.0, m=Fraction(2))
        traj = integrate(PhaseState(1.1, 0.4, 0.1, 0.55), spec, 100.0)
        rep = drift(traj, "H", lambda s, t: hamiltonian(s, spec), 1e-8)
        assert rep.passed and rep.rel_drift >= 0.0

    def test_report_fields(self):
        spec = kepler_spec()
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), spec, 5.0)
        rep = drift(traj, "H", lambda s, t: hamiltonian(s, spec), 1e-8)
        assert rep.name == "H"
        assert rep.rel_drift == rep.max_abs_dev / (1.0 + abs(rep.initial))

    def test_corrupted_invariant_fails(self):
        spec = pw_spec(kappa=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.1, 1.2, 0.1, 0.5), spec, 10.0)
        rep = drift(traj, "bad", lambda s, t: j2(s, spec) + t, 1e-8)
        assert not rep.passed


class TestRotation:
    def test_sign_flip_fails(self):
        spec = pw_spec(kappa=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.1, 1.2, 0.1, 0.5), spec, 10.0)
        assert rotation_check(traj, spec).passed
        assert not rotation_check(traj, spec, flip_sign=True).passed


def reference_drift(traj, fn):
    """(initial value, max deviation) of fn evaluated state by state."""
    v0 = fn(traj.state(0), float(traj.times[0]))
    return v0, max(abs(fn(traj.state(i), float(traj.times[i])) - v0)
                   for i in range(len(traj)))


def reference_rotation(traj, spec, n_samples=200, dt=2e-4, flip_sign=False):
    """rotation_check's two maximum errors, evaluated sample by sample."""
    mf = spec.m_num / spec.m_den
    sgn = -1.0 if flip_sign else 1.0
    err_m = err_n = 0.0
    for t in np.linspace(float(traj.times[0]) + dt,
                         float(traj.times[-1]) - dt, n_samples):
        sm, sc, sp = (PhaseState.from_tuple(traj.dense(t + h))
                      for h in (-dt, 0.0, dt))
        lam = sgn * lambda_k(sc, spec)
        M, N = m_r(sc, spec), n_phi(sc, spec)
        dM = (m_r(sp, spec) - m_r(sm, spec)) / (2.0 * dt)
        dN = (n_phi(sp, spec) - n_phi(sm, spec)) / (2.0 * dt)
        err_m = max(err_m, abs(dM - 1j * lam * M)
                    / max(1.0, abs(lam) * abs(M)))
        err_n = max(err_n, abs(dN - 1j * mf * lam * N)
                    / max(1.0, mf * abs(lam) * abs(N)))
    return err_m, err_n


GENERIC = (lambda p: 0.5 * math.cos(p), lambda p: -0.5 * math.sin(p))


class TestWholeTrajectory:
    """drift and rotation_check evaluate a trajectory in one array call."""

    @pytest.mark.parametrize("spec,s0", [
        (pw_spec(kappa=1.0, m=Fraction(3, 2)),
         PhaseState(1.1, 0.2 * math.pi, 0.1, 0.5)),
        (pw_spec(kappa=-1.0, m=Fraction(2)),
         PhaseState(1.0, 0.45 * math.pi / 2, 0.05, 0.6)),
        (SystemSpec(kind=SystemKind.VC, kappa=0.0, g=1.0, k_a=0.5, k_b=0.2),
         PhaseState(1.2, 1.3, 0.1, 0.7)),
        (kepler_spec(kappa=1.0), PhaseState(0.9, 0.3, 0.1, 0.7)),
        (SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=-1.0),
         PhaseState(1.0, 0.2, 0.3, 0.8)),
        (SystemSpec(kind=SystemKind.GENERIC_F, kappa=0.0, g=1.0,
                    generic_F=GENERIC), PhaseState(1.1, 0.8, 0.1, 0.55)),
    ])
    def test_drift_matches_state_by_state(self, spec, s0):
        traj = integrate(s0, spec, 20.0)
        fns = {name: lambda s, t, fn=fn: fn(s)
               for name, fn in evaluators_for(spec).items()}
        fns["J2_plus_t"] = lambda s, t: j2(s, spec) + t
        for name, fn in fns.items():
            rep = drift(traj, name, fn, 1e-8)
            v0, dev = reference_drift(traj, fn)
            bound = 1e-14 * (1.0 + abs(v0))
            assert abs(rep.initial - v0) <= bound, name
            assert abs(rep.max_abs_dev - dev) <= bound, (name, rep, dev)
            assert rep.passed == (name != "J2_plus_t"), rep

    def test_negative_casimir_start_raises(self):
        spec = pw_spec(k_a=-2.0, k_b=0.0, m=1)
        traj = integrate(PhaseState(1.0, math.pi / 2, 0.1, 0.5), spec, 1.0)
        assert len(traj) >= 3
        with pytest.raises(NegativeCasimirError):
            drift(traj, "K_re", lambda s, t: k_constant(s, spec).real)
        with pytest.raises(NegativeCasimirError):
            rotation_check(traj, spec)
        # J2 itself is regular there
        rep = drift(traj, "J2", lambda s, t: j2(s, spec))
        assert rep.initial == pytest.approx(0.25 - 4.0)

    def test_nan_value_fails_the_report(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(), 5.0)
        late = traj.times[len(traj) // 2]
        assert drift(traj, "r", lambda s, t: s.r).passed
        rep = drift(traj, "r", lambda s, t: np.where(t > late, np.nan, s.r))
        assert not rep.passed and math.isnan(rep.max_abs_dev)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("m", [Fraction(1), Fraction(2), Fraction(1, 2)])
    def test_rotation_matches_sample_by_sample(self, kappa, m):
        # the grid of acceptance criterion 3
        spec = pw_spec(kappa=kappa, m=m)
        rng = np.random.default_rng(33)
        traj = integrate(random_bounded_state(spec, rng), spec, 20.0)
        for flip in (False, True):
            rep = rotation_check(traj, spec, tolerance=1e-5, flip_sign=flip)
            ref_m, ref_n = reference_rotation(traj, spec, flip_sign=flip)
            assert abs(rep.max_rel_err_m - ref_m) <= 1e-10 * (1.0 + ref_m)
            assert abs(rep.max_rel_err_n - ref_n) <= 1e-10 * (1.0 + ref_n)
            assert rep.passed == (ref_m < 1e-5 and ref_n < 1e-5)
            assert rep.passed is not flip


class TestClosure:
    def test_circular_kepler_period(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(), 20.0)
        T = closure_detect(traj)
        assert T == pytest.approx(2 * math.pi, abs=1e-6)

    def test_closure_repeats_at_double_period(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(), 20.0)
        T = closure_detect(traj)
        y0 = traj.states[0]
        for mult in (1, 2):
            y = traj.dense(traj.times[0] + mult * T)
            dphi = (y[1] - y0[1] + math.pi) % (2 * math.pi) - math.pi
            mismatch = math.sqrt((y[0] - y0[0]) ** 2 + dphi ** 2
                                 + (y[2] - y0[2]) ** 2 + (y[3] - y0[3]) ** 2)
            assert mismatch < 1e-6

    def test_spherical_pw_closed(self):
        spec = pw_spec(kappa=1.0, m=Fraction(2))
        rng = np.random.default_rng(11)
        traj = integrate(random_bounded_state(spec, rng), spec, 200.0)
        assert closure_detect(traj) is not None

    def test_unbounded_geodesic_none(self):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=-1.0)
        traj = integrate(PhaseState(1.0, 0.0, 0.5, 0.3), spec, 50.0)
        assert closure_detect(traj) is None


class TestEuclideanLimit:
    def make_spec(self, kappa):
        return pw_spec(kappa=kappa, m=Fraction(2))

    def test_scan_passes(self):
        state = PhaseState(1.1, 0.6, 0.2, 0.9)
        for rep in euclidean_limit_scan(self.make_spec, state):
            assert rep.passed, rep
            dev8 = max(d for k, d in rep.deviations if abs(k) < 5e-8)
            assert dev8 <= 1e-7 * (1.0 + abs(rep.flat_value))

    def test_tan_k_linear_convergence(self):
        for k in range(4, 10):
            kap = 10.0 ** (-k)
            assert abs(tan_k(kap, 1.0) - 1.0) <= 10.0 * kap
            assert abs(tan_k(-kap, 1.0) - 1.0) <= 10.0 * kap


class TestStateSampling:
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_interior_and_reproducible(self, kappa):
        spec = pw_spec(kappa=kappa, m=Fraction(3, 2))
        a = random_bounded_state(spec, np.random.default_rng(123))
        b = random_bounded_state(spec, np.random.default_rng(123))
        assert a == b
        assert 0.0 < a.r
        assert math.sin(1.5 * a.phi) > 0.0

    def test_flat_states_are_bound(self):
        spec = pw_spec(kappa=0.0, m=Fraction(1))
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_bounded_state(spec, rng)
            assert hamiltonian(s, spec) < 0.0


def per_try_sampler(spec, rng, max_tries=2000):
    """random_bounded_state as first written, one candidate per try: the
    oracle of the chunked sampler.  Keep it frozen."""
    kap = spec.kappa
    best = None
    best_H = math.inf
    for _ in range(max_tries):
        if kap > 0:
            r_max = math.pi / math.sqrt(kap)
            r = rng.uniform(0.25, 0.75) * r_max
        else:
            r = rng.uniform(0.6, 2.2)
        if spec.has_angular_term:
            u = rng.uniform(0.3 * math.pi, 0.7 * math.pi)
            phi = u * spec.m_den / spec.m_num
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
        p_r = rng.uniform(-0.35, 0.35)
        p_phi = rng.uniform(0.15, 0.7) * rng.choice((-1.0, 1.0))
        state = PhaseState(r, phi, p_r, p_phi)
        try:
            H = hamiltonian(state, spec)
        except CurvintError:
            continue
        if kap > 0:
            if H < 0.65 * (1.0 + abs(spec.g)):
                return state
            continue
        escape = 0.0 if kap == 0 else -spec.g * math.sqrt(-kap)
        if H < escape - 0.02:
            return state
        if H < best_H:
            best, best_H = state, H
    if best is None:
        raise RuntimeError("could not sample an interior state")
    return PhaseState(best.r, best.phi, -abs(best.p_r), best.p_phi)


def sampler_specs():
    scalar_profile = (lambda p: 0.5 * math.cos(p), lambda p: -0.5 * math.sin(p))
    for kappa in (-1.0, -0.3, 0.0, 0.4, 1.0):
        yield f"free-{kappa}", SystemSpec(
            kind=SystemKind.FREE_GEODESIC, kappa=kappa, g=1.0)
        yield f"kepler-{kappa}", kepler_spec(kappa=kappa)
        yield f"vc-{kappa}", SystemSpec(kind=SystemKind.VC, kappa=kappa,
                                        g=1.0, k_a=0.5, k_b=0.2)
        for m in ("1", "2", "3", "1/2", "3/2"):
            yield f"pw-{kappa}-m{m}", pw_spec(kappa=kappa, m=Fraction(m))
        yield f"generic-{kappa}", SystemSpec(
            kind=SystemKind.GENERIC_F, kappa=kappa, g=1.0,
            generic_F=scalar_profile)
    # every candidate rejected, and every candidate on the radial pole
    yield "pw-stiff", pw_spec(kappa=1.0, k_a=50.0)
    yield "kepler-pole", kepler_spec(kappa=1e30)


SAMPLER_SPECS = dict(sampler_specs())


class TestChunkedSampler:
    """random_bounded_state against the per-try loop it replaced."""

    @staticmethod
    def assert_same_draws(spec, seed, max_tries, draws):
        oracle_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            try:
                expected = per_try_sampler(spec, oracle_rng, max_tries)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    random_bounded_state(spec, rng, max_tries)
            else:
                got = random_bounded_state(spec, rng, max_tries)
                assert got == expected
                assert all(type(v) is float for v in got.as_tuple())
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("name", SAMPLER_SPECS)
    def test_same_draws_as_per_try_loop(self, name):
        self.assert_same_draws(SAMPLER_SPECS[name], 11, 2000, 2)

    # 1, 5 and 21 end the first three chunks; 17 ends inside the third
    # and 40 inside the first screened one
    @pytest.mark.parametrize("max_tries", [1, 5, 17, 40])
    def test_same_draws_at_chunk_boundaries(self, max_tries):
        for spec in SAMPLER_SPECS.values():
            self.assert_same_draws(spec, max_tries, max_tries, 6)
