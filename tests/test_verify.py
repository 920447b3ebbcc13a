import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from curvint import (CheckResult, CurvintError, NegativeCasimirError,
                     PhaseState, SamplingError, SpanError, StencilError,
                     SystemKind, SystemSpec, closure_detect, evaluators_for,
                     hamiltonian, integrate, j2, k_constant,
                     euclidean_limit_scan, lambda_k, m_r, n_phi,
                     random_bounded_state, random_bounded_states,
                     rotation_check, run_suite, tan_k)
from curvint import verify
from curvint.cli import main, parse_config
from curvint.dynamics import SolverStats, Termination, Trajectory
from curvint.verify import bracket_with_scale, drift
from conftest import (closure_mismatch, kepler_spec, pw_spec,
                      random_interior_states)
from test_cli import PW_SPHERE, write


def reference_bracket(f, g, state, h=1e-5):
    """bracket_with_scale as first written, one point and one float call
    per stencil point: the oracle of the grid stencil.  Keep it frozen."""
    def partials(fn):
        y = list(state.as_tuple())
        grad = []
        for i in range(4):
            hi = h * (1.0 + abs(y[i]))
            yp = y.copy()
            ym = y.copy()
            yp[i] += hi
            ym[i] -= hi
            grad.append((fn(PhaseState.from_tuple(yp))
                         - fn(PhaseState.from_tuple(ym))) / (2.0 * hi))
        return grad
    fr, fphi, fpr, fpphi = partials(f)
    gr, gphi, gpr, gpphi = partials(g)
    terms = (fr * gpr, -fpr * gr, fphi * gpphi, -fpphi * gphi)
    return (sum(terms), sum(abs(t) for t in terms))


def frozen_bracket_with_scale(f, g, state, h=1e-5):
    """bracket_with_scale before its stencil and gradient were factored
    out, one stencil built per call: the oracle of run_suite's shared
    stencil and H gradient.  Keep it frozen."""
    y = np.array(state.as_tuple(), dtype=float)
    step = h * (1.0 + np.abs(y))
    points = np.repeat(y[:, np.newaxis], 8, axis=1)
    i = np.arange(4)
    points[i, i] += step
    points[i, i + 4] -= step

    def gradient(fn):
        values = fn(PhaseState(*points))
        try:
            verify._float_recheck(values, lambda i: fn(
                PhaseState.from_tuple(points.reshape(4, -1)[:, i])))
        except CurvintError as exc:
            raise StencilError(f"pole inside stencil: {exc}") from exc
        return (values[:4] - values[4:]) / (2.0 * step)

    df, dg = gradient(f), gradient(g)
    plus, minus = df[:2] * dg[2:], df[2:] * dg[:2]
    value = (plus[0] - minus[0]) + (plus[1] - minus[1])
    scale = (abs(plus[0]) + abs(minus[0])) + (abs(plus[1]) + abs(minus[1]))
    return (value, scale) if value.ndim else (float(value), float(scale))


class TestPoissonBracket:
    def test_canonical_pair(self):
        s = PhaseState(1.3, 0.7, 0.4, 0.9)
        pb, scale = bracket_with_scale(lambda x: x.r, lambda x: x.p_r, s)
        assert pb == pytest.approx(1.0, abs=1e-10)
        assert type(pb) is float and type(scale) is float

    def test_antisymmetry_exact(self):
        spec = pw_spec(kappa=1.0, m=Fraction(2))
        f = lambda s: j2(s, spec)
        g = lambda s: hamiltonian(s, spec)
        s = PhaseState(1.1, 0.4, 0.2, 0.6)
        assert bracket_with_scale(f, g, s)[0] \
            == -bracket_with_scale(g, f, s)[0]

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_angular_momentum_central(self, kappa):
        spec = kepler_spec(kappa=kappa)
        H = lambda s: hamiltonian(s, spec)
        for s in random_interior_states(spec, 20, seed=2):
            pb = bracket_with_scale(lambda x: x.p_phi, H, s)[0]
            assert abs(pb) < 1e-8

    def test_h_convergence_second_order(self):
        # {r^3, p_r^3} = 9 r^2 p_r^2; cubic truncation error scales as h^2
        s = PhaseState(1.0, 0.5, 1.0, 0.7)
        f = lambda x: x.r ** 3
        g = lambda x: x.p_r ** 3
        errs = []
        for h in (1e-3, 5e-4):
            gradient = verify._stencil_gradient(s, h)[1]
            errs.append(abs(verify._bracket(gradient(f), gradient(g))[0]
                            - 9.0))
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

    def test_grid_matches_per_state_loop_exactly(self):
        # pure arithmetic: numpy and floats give the same stencil values,
        # so only the order of the final sums may differ
        f = lambda x: x.r * x.r * x.p_phi - x.phi * x.p_r * x.p_r
        g = lambda x: x.p_r * x.phi * x.phi + x.r * x.p_phi
        states = random_interior_states(pw_spec(kappa=-1.0), 20, seed=9)
        grid = PhaseState(*np.array([s.as_tuple() for s in states]).T)
        values, scales = bracket_with_scale(f, g, grid)
        assert values.shape == scales.shape == (20,)
        for value, scale, s in zip(values, scales, states):
            ref_value, ref_scale = reference_bracket(f, g, s)
            assert abs(value - ref_value) <= 4e-16 * ref_scale
            assert abs(scale - ref_scale) <= 4e-16 * ref_scale
            assert (value, scale) == bracket_with_scale(f, g, s)

    def test_stencil_error(self):
        # the library's convention: raise on floats, nan in an array
        def spiky(s):
            if isinstance(s.r, np.ndarray):
                return np.where(s.r > 1.0, np.nan, s.r)
            if s.r > 1.0:
                raise CurvintError("pole")
            return s.r
        with pytest.raises(StencilError):
            bracket_with_scale(spiky, lambda s: s.p_r,
                               PhaseState(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("v", [math.inf, -math.inf])
    def test_infinite_coordinate_is_a_silent_nan_bracket(self, k, v):
        # the stencil's inf - inf and the differences warned outside any
        # np.errstate, an exception under this suite's warning filter
        f = lambda s: s.r * s.p_phi
        g = lambda s: s.p_r * s.phi
        y = [1.1, 0.8, 0.2, 0.6]
        y[k] = v
        value, scale = bracket_with_scale(f, g, PhaseState(*y))
        assert math.isnan(value) and math.isnan(scale)
        assert all(map(math.isnan, bracket_with_scale(
            lambda s: s.r, lambda s: s.p_r, PhaseState(v, 0.8, 0.2, 0.6))))
        # in a grid, the other members keep their brackets' bits
        rows = [(1.1, 0.8, 0.2, 0.6), tuple(y), (0.7, 1.9, -0.4, 1.3)]
        value, scale = bracket_with_scale(f, g,
                                          PhaseState(*np.array(rows).T))
        assert np.isnan(value[1]) and np.isnan(scale[1])
        for i in (0, 2):
            one = bracket_with_scale(f, g, PhaseState(*rows[i]))
            assert (value[i], scale[i]) == one


def smallest_singular_values(gradients):
    """Each state's smallest singular value of the Jacobian whose rows are
    the gradients (each (4, n) over n states), every row normalised."""
    J = np.stack([np.transpose(d) for d in gradients], axis=1)
    J = J / np.linalg.norm(J, axis=2, keepdims=True)
    return np.linalg.svd(J, compute_uv=False)[:, -1]


class TestSuperintegrability:
    """Maximal superintegrability: H, J2 and either of J3, J4 are
    functionally independent at every grid state, while all four are not
    (J3^2 + J4^2 is a function of H and J2, by the moduli).  A J3 that
    depended on H and J2 would still pass every drift and bracket row."""

    @pytest.mark.parametrize("k_a, k_b", [(0.8, 0.3), (0.3, 0.1)])
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("m", [Fraction(1), Fraction(3, 2), Fraction(3)],
                             ids=str)
    def test_three_independent_integrals_and_no_fourth(self, k_a, k_b,
                                                       kappa, m):
        spec = pw_spec(kappa=kappa, m=m, k_a=k_a, k_b=k_b)
        grid = PhaseState(*np.array([s.as_tuple() for s in
                                     random_bounded_states(
                                         spec, np.random.default_rng(3),
                                         20)]).T)
        gradient = verify._stencil_gradient(grid, 1e-5)[1]
        dH = gradient(lambda s: hamiltonian(s, spec))
        dJ2 = gradient(lambda s: j2(s, spec))
        dJ3 = gradient(lambda s: k_constant(s, spec).real)
        dJ4 = gradient(lambda s: k_constant(s, spec).imag)
        # the negative control: a third "integral" that is a function of
        # H and J2
        d_fake = gradient(lambda s: hamiltonian(s, spec) ** 2
                          + 0.7 * j2(s, spec) * hamiltonian(s, spec))
        assert np.all(smallest_singular_values([dH, dJ2, dJ3]) >= 1e-5)
        assert np.all(smallest_singular_values([dH, dJ2, dJ4]) >= 1e-5)
        assert np.all(smallest_singular_values([dH, dJ2, dJ3, dJ4]) <= 1e-7)
        assert np.all(smallest_singular_values([dH, dJ2, d_fake]) <= 1e-7)


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

    def test_empty_trajectory_is_a_value_error(self):
        spec = pw_spec(kappa=0.0, m=Fraction(1))
        traj = Trajectory(times=np.empty(0), states=np.empty((0, 4)),
                          termination=Termination.COMPLETED, spec=spec,
                          dense=None, stats=SolverStats(0, 0, 0, math.nan,
                                                        math.nan))
        with pytest.raises(ValueError, match="empty trajectory"):
            drift(traj, "J2", lambda s, t: j2(s, spec))


SHORT_SPAN = 3e-4


def flip_lambda(monkeypatch):
    """Give rotation_check a wrong-sign lambda, the negative control.  A
    lambda <= 0 everywhere also sets its step dt to 2e-4."""
    lambda_k = verify.lambda_k
    monkeypatch.setattr(verify, "lambda_k", lambda s, spec: -lambda_k(s, spec))


class TestRotation:
    def test_sign_flip_fails(self, monkeypatch):
        spec = pw_spec(kappa=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.1, 1.2, 0.1, 0.5), spec, 10.0)
        good = rotation_check(traj, spec)
        flip_lambda(monkeypatch)
        bad = rotation_check(traj, spec)
        assert good.passed_m and good.passed_n and good.passed
        assert not bad.passed_m and not bad.passed_n and not bad.passed

    def test_fast_pericentre_no_false_failure(self, monkeypatch):
        # N_phi turns at up to 2 lambda = 37 per unit time at pericentre;
        # a fixed step of 2e-4 read N_phi 1.02e-5 there, FD truncation
        spec = pw_spec(kappa=0.0, m=Fraction(2))
        traj = integrate(PhaseState(0.3, 0.7, -2.0, 0.1), spec, 20.0)
        rep = rotation_check(traj, spec)
        assert rep.passed and max(rep.max_rel_err_m, rep.max_rel_err_n) < 1e-6
        flip_lambda(monkeypatch)
        assert not rotation_check(traj, spec).passed

    # a fast radial start over t = 3e-4: p_r0 = 1e4 takes 4 steps, whose
    # span is below the 2 dt = 4e-4 the check needs, and p_r0 = 1e3 one
    @pytest.mark.parametrize("p_r0, steps, message", [
        (1e4, 5, "span 0.0003 too short for the rotation check "
                 r"\(needs > 0.0004\)"),
        (1e3, 2, r"2 steps too sparse for the rotation check \(needs 3\)")])
    def test_short_trajectory_is_a_span_error(self, p_r0, steps, message):
        spec = pw_spec(kappa=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.0, math.pi / 2, p_r0, 1.0), spec,
                         SHORT_SPAN)
        assert traj.termination is Termination.COMPLETED
        assert len(traj) == steps
        with pytest.raises(SpanError, match=message):
            rotation_check(traj, spec)

    def test_cli_short_span_exit_2(self, tmp_path, capsys):
        config = ("kind = pw\nkappa = 0.0\ng = 1.0\nk_a = 0.8\n"
                  "k_b = 0.3\nm_num = 1\nm_den = 1\nr0 = 1.0\n"
                  f"phi0 = {math.pi / 2!r}\np_r0 = 1e4\np_phi0 = 1.0\n"
                  f"t_end = {SHORT_SPAN!r}\n")
        assert main(["verify", "--config", write(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: trajectory span 0.0003 too short")


def reference_drift(traj, fn):
    """(initial value, max deviation) of fn evaluated state by state."""
    v0 = fn(traj.state(0), float(traj.times[0]))
    return v0, max(abs(fn(traj.state(i), float(traj.times[i])) - v0)
                   for i in range(len(traj)))


def reference_rotation(traj, spec, n_samples=200):
    """rotation_check's two maximum errors, evaluated sample by sample."""
    mf = spec.m_num / spec.m_den
    dt = min(2e-4, 1e-3 / max(max(1.0, mf) * lambda_k(traj.state(i), spec)
                              for i in range(len(traj))))
    err_m = err_n = 0.0
    for t in np.linspace(float(traj.times[0]) + dt,
                         float(traj.times[-1]) - dt, n_samples):
        sm, sc, sp = (PhaseState.from_tuple(traj.dense(t + h))
                      for h in (-dt, 0.0, dt))
        lam = lambda_k(sc, spec)
        M, N = m_r(sc, spec), n_phi(sc, spec)
        dM = (m_r(sp, spec) - m_r(sm, spec)) / (2.0 * dt)
        dN = (n_phi(sp, spec) - n_phi(sm, spec)) / (2.0 * dt)
        err_m = max(err_m, abs(dM - 1j * lam * M)
                    / max(1.0, abs(lam) * abs(M)))
        err_n = max(err_n, abs(dN - 1j * mf * lam * N)
                    / max(1.0, mf * abs(lam) * abs(N)))
    return err_m, err_n


def frozen_rotation_check(traj, spec):
    """rotation_check's two maximum errors as first vectorised, three dense
    reads and three evaluations of each factor: the oracle of the stacked
    read.  Keep it frozen."""
    mf = spec.m_num / spec.m_den
    lam = float(np.max(lambda_k(PhaseState(*traj.states.T), spec)))
    dt = min(2e-4, 1e-3 / (max(1.0, mf) * lam)) if lam > 0.0 else 2e-4
    t0, t1 = sorted((float(traj.times[0]), float(traj.times[-1])))

    def errors(t):
        sm, sc, sp = (PhaseState(*traj.dense(t + h)) for h in (-dt, 0.0, dt))
        lam = lambda_k(sc, spec)
        M = m_r(sc, spec)
        N = n_phi(sc, spec)
        dM = (m_r(sp, spec) - m_r(sm, spec)) / (2.0 * dt)
        dN = (n_phi(sp, spec) - n_phi(sm, spec)) / (2.0 * dt)
        return (abs(dM - 1j * lam * M) / np.maximum(1.0, abs(lam) * abs(M)),
                abs(dN - 1j * mf * lam * N)
                / np.maximum(1.0, mf * abs(lam) * abs(N)))

    ts = np.linspace(t0 + dt, t1 - dt, 200)
    err_m, err_n = errors(ts)
    verify._float_recheck(err_m + err_n, lambda i: errors(float(ts[i])))
    return float(np.max(err_m)), float(np.max(err_n))


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
        rep = rotation_check(traj, spec)
        ref_m, ref_n = reference_rotation(traj, spec)
        assert abs(rep.max_rel_err_m - ref_m) <= 1e-10 * (1.0 + ref_m)
        assert abs(rep.max_rel_err_n - ref_n) <= 1e-10 * (1.0 + ref_n)
        assert rep.passed and ref_m < 1e-5 and ref_n < 1e-5


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

    def test_bounded_hyperbolic_kepler(self):
        # an eccentric orbit whose last radius exceeds 3 times the median
        # one, which a boundedness rule on the radius took for escape
        spec = kepler_spec(kappa=-1.0)
        s0 = random_bounded_state(spec, np.random.default_rng([2, 0]))
        traj = integrate(s0, spec, 200.0)
        T = closure_detect(traj)
        assert T is not None and closure_mismatch(traj, T) < 1e-6
        assert T == pytest.approx(radial_period(traj), rel=1e-8)

    @pytest.mark.parametrize("m,q", [(Fraction(1), 1), (Fraction(2), 1),
                                     (Fraction(1, 2), 2), (Fraction(3, 2), 2)])
    def test_bounded_hyperbolic_pw(self, m, q):
        # the same radial motion for every m: J2 depends on phi through
        # m phi only; the orbit closes after q radial periods
        spec = pw_spec(kappa=-1.0, m=m, g=2.0, k_a=0.05, k_b=0.01)
        s0 = PhaseState(1.888, 0.6232 * math.pi / m, 0.0107, 0.3072)
        assert hamiltonian(s0, spec) < -2.0
        traj = integrate(s0, spec, 40.0)
        T = closure_detect(traj)
        assert T is not None and closure_mismatch(traj, T) < 1e-6
        assert T == pytest.approx(q * radial_period(traj), rel=1e-8)

    @pytest.mark.parametrize("s0", [PhaseState(1.0, 0.3, 0.4, 0.8),
                                    PhaseState(0.6, 2.0, -0.5, 0.5),
                                    PhaseState(2.0, 0.0, 0.1, 0.3)])
    def test_flat_kepler_period(self, s0):
        spec = kepler_spec(g=1.5)
        period = 2.0 * math.pi * 1.5 / (-2.0 * hamiltonian(s0, spec)) ** 1.5
        T = closure_detect(integrate(s0, spec, 1.5 * period))
        assert T == pytest.approx(period, rel=1e-8)

    def test_generic_profile_none(self):
        spec = SystemSpec(kind=SystemKind.GENERIC_F, kappa=1.0, g=1.0,
                          generic_F=GENERIC)
        traj = integrate(PhaseState(1.1, 0.8, 0.1, 0.55), spec, 50.0)
        assert closure_detect(traj) is None

    @pytest.mark.parametrize("kappa,s0", [
        (0.0, PhaseState(1.0, 0.0, 0.0, math.sqrt(2.0))),   # H = 0
        (-1.0, PhaseState(1.0, 0.0, 0.0, 1.5)),
        (-1.0, PhaseState(1.0, 0.0, 0.9, 0.5)),
    ])
    def test_escape_energy_none(self, kappa, s0):
        spec = kepler_spec(kappa=kappa)
        assert hamiltonian(s0, spec) >= -math.sqrt(-kappa)
        assert closure_detect(integrate(s0, spec, 50.0)) is None

    def test_span_shorter_than_period_none(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(), 6.0)
        assert closure_detect(traj) is None

    def test_backward_trajectory_closes(self):
        # the period comes back negative, in the direction of time
        s0, spec = PhaseState(1.0, 0.3, 0.4, 0.8), kepler_spec()
        traj = integrate(s0, spec, -30.0)
        T = closure_detect(traj)
        period = 2.0 * math.pi / (-2.0 * hamiltonian(s0, spec)) ** 1.5
        assert T == pytest.approx(-period, rel=1e-12, abs=0)
        assert closure_mismatch(traj, T) < 1e-6


def radial_period(traj):
    """Time between the first two pericentres, where p_r turns positive,
    each located by brentq on the dense output."""
    p_r = traj.states[:, 2]
    turns = np.flatnonzero((p_r[:-1] < 0.0) & (p_r[1:] >= 0.0))
    t0, t1 = (brentq(lambda t: traj.dense(t)[2], traj.times[i],
                     traj.times[i + 1], xtol=1e-14) for i in turns[:2])
    return t1 - t0


class TestEuclideanLimit:
    def test_scan_passes(self):
        state = PhaseState(1.1, 0.6, 0.2, 0.9)
        for rep in euclidean_limit_scan(pw_spec(m=Fraction(2)), state):
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

    @pytest.mark.parametrize("kappa", [-1.0, -0.3, 0.0])
    def test_free_geodesic_has_no_bounded_state(self, kappa):
        # the free particle feels no g: its escape energy is 0, and each
        # draw, for any g, is the per-try loop's fallback at H = T >= 0
        draws = []
        for g in (1.0, 5.0):
            spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=kappa,
                              g=g)
            assert verify._escape_energy(spec) == 0.0
            rng, oracle_rng = (np.random.default_rng(9) for _ in range(2))
            states = [random_bounded_state(spec, rng) for _ in range(3)]
            assert states == [per_try_sampler(spec, oracle_rng)
                              for _ in range(3)]
            assert rng_state(rng) == rng_state(oracle_rng)
            for s in states:
                assert s.p_r <= 0.0 and hamiltonian(s, spec) >= 0.0
            draws.append(states)
        assert draws[0] == draws[1]

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
            threshold = 0.65 * (1.0 + abs(spec.g))
        else:
            escape = 0.0 if kap == 0 else -spec.g * math.sqrt(-kap)
            threshold = escape - 0.02
        if H < threshold:
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


def per_candidate_draw(rng, n):
    """verify._draw as first written, one rng.random(4) and one
    rng.integers(2) per candidate: the oracle of the raw-word draw.  Keep
    it frozen."""
    u = np.empty((n, 4))
    flip = np.empty(n, dtype=np.intp)
    for i in range(n):
        rng.random(out=u[i])
        flip[i] = rng.integers(2)
    return u.T, flip


def buffer_full_rng(seed):
    """default_rng(seed) with the high half of a word in its 32-bit buffer."""
    rng = np.random.default_rng(seed)
    rng.integers(2)
    return rng


RNGS = {"PCG64": np.random.default_rng,
        "PCG64-buffer-full": buffer_full_rng,
        "PCG64DXSM": lambda seed: np.random.Generator(
            np.random.PCG64DXSM(seed)),
        "Philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
        "SFC64": lambda seed: np.random.Generator(np.random.SFC64(seed))}


def rng_state(rng):
    # str, because Philox's state holds arrays
    return str(rng.bit_generator.state)


class TestChunkedSampler:
    """random_bounded_state against the per-try loop it replaced."""

    @staticmethod
    def assert_same_draws(monkeypatch, spec, make_rng, seed, max_tries,
                          draws, grids=(1, 2, 20)):
        """draws successive random_bounded_state calls, and each grid of
        random_bounded_states(spec, rng, n) for n in grids, from a fresh
        rng, against successive calls of the per-try loop, each with a
        budget of max_tries tries: the states, a RuntimeError at the same
        draw, and the state rng is left in."""
        monkeypatch.setattr(verify, "_MAX_TRIES", max_tries)
        oracle_rng = make_rng(seed)
        # (the state or None for an error, the bit generator's state)
        expected = []
        for _ in range(max(draws, *grids)):
            try:
                state = per_try_sampler(spec, oracle_rng, max_tries)
            except RuntimeError:
                state = None
            expected.append((state, oracle_rng.bit_generator.state))
        rng = make_rng(seed)
        for state, after in expected[:draws]:
            if state is None:
                with pytest.raises(RuntimeError):
                    random_bounded_state(spec, rng)
            else:
                got = random_bounded_state(spec, rng)
                assert got == state
                assert all(type(v) is float for v in got.as_tuple())
            assert rng_state(rng) == str(after)
        for n in grids:
            rng = make_rng(seed)
            states = [state for state, _ in expected[:n]]
            if None in states:
                k = states.index(None)
                with pytest.raises(RuntimeError):
                    random_bounded_states(spec, rng, n)
            else:
                k = n - 1
                got = random_bounded_states(spec, rng, n)
                assert got == states
                assert all(type(v) is float
                           for s in got for v in s.as_tuple())
            assert rng_state(rng) == str(expected[k][1])

    # a grid of 20 that accepts nothing costs the per-try loop 40000 tries:
    # grids of 20 are compared at the smaller max_tries below
    @pytest.mark.parametrize("name", SAMPLER_SPECS)
    def test_same_draws_as_per_try_loop(self, monkeypatch, name):
        assert verify._MAX_TRIES == 2000
        self.assert_same_draws(monkeypatch, SAMPLER_SPECS[name],
                               np.random.default_rng, 11, 2000, 2,
                               grids=(1, 2))

    # One draw: 1, 5 and 21 end its chunks of 1, 4 and 16; 17 ends inside
    # the chunk of 16, cut to 12, and 40 inside the next.  A grid of 20
    # that accepts nothing ends draws inside its first chunk of 20 at 1, 5
    # and 17, and inside its chunks of 80 and 320 at 21 and 40.  Each of
    # these chunks is screened, but for GENERIC_F.
    @pytest.mark.parametrize("max_tries", [1, 5, 17, 21, 40])
    def test_same_draws_at_chunk_boundaries(self, monkeypatch, max_tries):
        for spec in SAMPLER_SPECS.values():
            self.assert_same_draws(monkeypatch, spec, np.random.default_rng,
                                   max_tries, max_tries, 6)

    # 2069 ends the first chunk of verify._MAX_CHUNK; 2070 ends
    # one try into the next.  Two draws each: a draw that accepts nothing
    # costs the per-try loop max_tries float calls.
    @pytest.mark.parametrize("max_tries", [2069, 2070])
    def test_same_draws_at_the_chunk_cap(self, monkeypatch, max_tries):
        assert 21 + verify._MAX_CHUNK == 2069
        for spec in SAMPLER_SPECS.values():
            self.assert_same_draws(monkeypatch, spec, np.random.default_rng,
                                   max_tries, max_tries, 2, grids=(2,))

    # 300 ends inside the first chunk of up to verify._MAX_CHUNK; at 17 a
    # grid of 20 ends draws inside its first chunk (the per-try loop's 20
    # draws are the cost of these cases, so 40 and 300 compare grids of 2)
    @pytest.mark.parametrize("max_tries", [17, 40, 300])
    @pytest.mark.parametrize("rng_kind", [k for k in RNGS if k != "PCG64"])
    def test_same_draws_with_every_bit_generator(self, monkeypatch,
                                                 rng_kind, max_tries):
        grids = (1, 2, 20) if max_tries == 17 else (1, 2)
        for spec in SAMPLER_SPECS.values():
            self.assert_same_draws(monkeypatch, spec, RNGS[rng_kind],
                                   max_tries, max_tries, 3, grids)

    @pytest.mark.parametrize("rng_kind", RNGS)
    def test_draw_matches_per_candidate_loop(self, rng_kind):
        oracle_rng = RNGS[rng_kind](5)
        rng = RNGS[rng_kind](5)
        # in sequence: an odd n flips the 32-bit buffer, and the
        # buffer-full kind meets every n in the other state
        for n in (1, 2, 3, 4, 5, 16, 17, 64, 639):
            u_expected, flip_expected = per_candidate_draw(oracle_rng, n)
            u, flip = verify._draw(rng, n, rng.bit_generator.state)
            assert np.array_equal(u, u_expected)
            assert np.array_equal(flip, flip_expected)
            assert flip.dtype == flip_expected.dtype
            assert rng_state(rng) == rng_state(oracle_rng)
        assert rng.random() == oracle_rng.random()
        assert rng.integers(2 ** 40) == oracle_rng.integers(2 ** 40)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 2048])
    @pytest.mark.parametrize("has_uint32", [0, 1])
    @pytest.mark.parametrize("rng_kind", RNGS)
    def test_draw_blocks_match_per_candidate_loop(self, rng_kind,
                                                  has_uint32, n):
        # with a buffered half the first candidate stands alone, and so
        # does an odd last one
        oracle_rng, rng = (RNGS[rng_kind](8) for _ in range(2))
        for r in (oracle_rng, rng):
            if r.bit_generator.state["has_uint32"] != has_uint32:
                r.integers(2)
        assert rng.bit_generator.state["has_uint32"] == has_uint32
        u_expected, flip_expected = per_candidate_draw(oracle_rng, n)
        u, flip = verify._draw(rng, n, rng.bit_generator.state)
        assert u.shape == u_expected.shape and (u == u_expected).all()
        assert flip.dtype == flip_expected.dtype
        assert (flip == flip_expected).all()
        assert rng_state(rng) == rng_state(oracle_rng)
        assert rng.integers(2 ** 40) == oracle_rng.integers(2 ** 40)

    def test_sampling_error_inside_a_grid(self):
        # every candidate on the radial pole: the grid's first draw takes
        # all 2000 tries, from its chunks of 20, 80, 320 and the first 1580
        # of the next, finds no candidate to fall back to, and raises
        spec = SAMPLER_SPECS["kepler-pole"]
        oracle_rng = np.random.default_rng(3)
        with pytest.raises(RuntimeError):
            per_try_sampler(spec, oracle_rng)
        rng = np.random.default_rng(3)
        with pytest.raises(SamplingError):
            random_bounded_states(spec, rng, 20)
        assert rng_state(rng) == rng_state(oracle_rng)

    def test_overflowing_candidates_raise_only_sampling_error(self):
        # at kappa = -1e7 Sin_k overflows at every candidate radius: the
        # array screen's overflow and nan raised no numpy warning to the
        # caller (pytest makes warnings errors), only SamplingError
        spec = kepler_spec(kappa=-1e7)
        with pytest.raises(SamplingError):
            random_bounded_states(spec, np.random.default_rng(0), 2)

    @staticmethod
    def chunk_sizes(monkeypatch):
        sizes = []
        draw = verify._draw

        def spy(rng, n, state):
            sizes.append(n)
            return draw(rng, n, state)
        monkeypatch.setattr(verify, "_draw", spy)
        return sizes

    def test_chunk_plan_of_one_exhausted_draw(self, monkeypatch):
        # the n = 1 path of every random_bounded_state caller
        spec = SAMPLER_SPECS["free--1.0"]
        sizes = self.chunk_sizes(monkeypatch)
        random_bounded_state(spec, np.random.default_rng(2))
        assert sizes == [1, 4, 16, 1979]

    def test_chunk_plan_of_an_exhausted_grid(self, monkeypatch):
        spec = SAMPLER_SPECS["free--1.0"]
        sizes = self.chunk_sizes(monkeypatch)
        random_bounded_states(spec, np.random.default_rng(2), 20)
        assert sizes[:4] == [20, 80, 320, verify._MAX_CHUNK]
        assert max(sizes) == verify._MAX_CHUNK
        assert sum(sizes) == 20 * 2000

    def test_no_draws(self):
        rng = np.random.default_rng(2)
        before = rng_state(rng)
        assert random_bounded_states(pw_spec(kappa=1.0), rng, 0) == []
        assert rng_state(rng) == before

    @pytest.mark.parametrize("n, error", [(-3, ValueError),
                                          (-1, ValueError),
                                          (2.5, TypeError),
                                          (2.0, TypeError),
                                          ("2", TypeError)])
    def test_bad_number_of_draws(self, n, error):
        rng = np.random.default_rng(2)
        before = rng_state(rng)
        with pytest.raises(error, match="number of draws"):
            random_bounded_states(pw_spec(kappa=1.0), rng, n)
        assert rng_state(rng) == before
        # a numpy integer is an integer
        assert random_bounded_states(pw_spec(kappa=1.0), rng, np.int64(2)) \
            == random_bounded_states(pw_spec(kappa=1.0),
                                     np.random.default_rng(2), 2)

    @pytest.mark.parametrize("name, seed, n, screens", [
        ("kepler-1.0", 4, 20, [20, 80]),
        # every draw falls back after its 2000 tries, in chunks of 20, 80,
        # 320 and then _MAX_CHUNK; the last of these is cut to the 40000
        # tries of the grid
        ("pw-stiff", 4, 20, [20, 80, 320] + [2048] * 19 + [668]),
        # one draw, the fallback after its chunks of 1, 4, 16 and 1979
        ("free--1.0", 2, 1, [1, 4, 16, 1979]),
        ("kepler--1.0", 4, 1, [1, 4]),
        ("kepler-0.0", 4, 20, [20]),
        ("pw-0.0-m3/2", 4, 20, [20, 80]),
        # the user's callables are never called on a screen
        ("generic-1.0", 4, 20, []),
        ("generic--1.0", 4, 1, [])])
    def test_screens_every_kind_but_generic(self, monkeypatch, name, seed, n,
                                            screens):
        # one array hamiltonian a chunk, at every kappa, but for GENERIC_F
        spec = SAMPLER_SPECS[name]
        calls = []

        def spy(state, system):
            if isinstance(state.r, np.ndarray):
                calls.append(len(state.r))
            return hamiltonian(state, system)
        monkeypatch.setattr(verify, "hamiltonian", spy)
        rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
        expected = [per_try_sampler(spec, oracle_rng) for _ in range(n)]
        assert random_bounded_states(spec, rng, n) == expected
        assert rng_state(rng) == rng_state(oracle_rng)
        assert calls == screens

    def test_exhausted_draws_float_decide_their_minimum(self, monkeypatch):
        # pw at kappa = -1 with the default parameters has no orbit under
        # the escape energy: all 20 draws exhaust 2000 candidates each.
        # The float hamiltonian decides each draw's lowest candidate per
        # chunk, not every record of the screen's running minimum (158
        # float calls when it did)
        spec = SAMPLER_SPECS["pw--1.0-m1"]
        calls = []

        def spy(state, system):
            if not isinstance(state.r, np.ndarray):
                calls.append(state)
            return hamiltonian(state, system)
        monkeypatch.setattr(verify, "hamiltonian", spy)
        states = random_bounded_states(spec, np.random.default_rng(5), 20)
        threshold = verify._escape_energy(spec) - 0.02
        assert all(hamiltonian(s, spec) >= threshold and s.p_r <= 0.0
                   for s in states)
        assert len(calls) <= 2 * 20

    @pytest.mark.parametrize("threshold", [-1.02, 0.0, 1.3])
    @pytest.mark.parametrize("best_H", [math.inf, -1.3, 0.0, 2.0])
    def test_undecided_is_the_per_candidate_rule(self, threshold, best_H):
        # the one cut on the screen against its rule, candidate by
        # candidate, with candidates a thousandth of a slack either side of
        # each edge, and non-finite screens
        margin = verify._SCREEN_MARGIN
        lowest = -3.5
        edges = [threshold + margin * (1.0 + abs(threshold)),
                 lowest + 2.0 * margin * (1.0 + abs(lowest))]
        screen = np.concatenate((
            [lowest, np.nan, np.inf, -np.inf],
            [e + k * 1e-3 * margin * (1.0 + abs(e))
             for e in edges for k in (-1, 1)],
            np.random.default_rng(12).uniform(-3.0, 3.0, 300)))
        finite = [h for h in screen if math.isfinite(h)]
        bound = min([margin * (1.0 + abs(h)) + h for h in finite]
                    + [best_H])
        expected = []
        for i, h in enumerate(screen):
            slack = margin * (1.0 + abs(h))
            if not (math.isfinite(h) and h >= threshold + slack
                    and h - slack > bound):
                expected.append(i)
        assert verify._undecided(screen, threshold, best_H).tolist() \
            == expected

    def test_mt19937_is_a_type_error(self):
        rng = np.random.Generator(np.random.MT19937(1))
        before = rng_state(rng)
        with pytest.raises(TypeError, match="MT19937"):
            random_bounded_state(pw_spec(kappa=1.0), rng)
        assert rng_state(rng) == before


def suite_spec(kind, kappa):
    """The system of each kind that TestRunSuite runs the suite on."""
    if kind is SystemKind.PW:
        return pw_spec(kappa=kappa, m=Fraction(3, 2))
    return SystemSpec(kind=kind, kappa=kappa, g=1.0,
                      k_a=0.5 if kind is SystemKind.VC else 0.0,
                      k_b=0.2 if kind is SystemKind.VC else 0.0,
                      generic_F=GENERIC if kind is SystemKind.GENERIC_F
                      else None)


def expected_checks(kind, negative_control):
    """run_suite's (check, name) sequence, written out per kind."""
    drifts = {SystemKind.FREE_GEODESIC: ["H", "J2"],
              SystemKind.KEPLER: ["H", "J2", "I3", "I4"],
              SystemKind.VC: ["H", "J2", "I2", "I3", "K_re", "K_im"],
              SystemKind.PW: ["H", "J2", "K_re", "K_im"],
              SystemKind.GENERIC_F: ["H", "J2"]}[kind]
    higher = kind in (SystemKind.PW, SystemKind.VC)
    rows = [("drift", name) for name in drifts]
    if negative_control:
        rows.append(("drift", "J2_plus_t"))
    rows.append(("bracket", "J2~H"))
    if higher:
        rows += [("bracket", "J3~H"), ("bracket", "J4~H")]
    elif kind is not SystemKind.GENERIC_F:
        rows.append(("bracket", "p_phi~H"))
    if negative_control:
        rows.append(("bracket", "J2+r~H"))
    if higher:
        rows += [("rotation", "M_r"), ("rotation", "N_phi"),
                 ("moduli", "|M_r|^2"), ("moduli", "|N_phi|^2")]
        rows += [("limit", name) for name in ("H", "M_r", "N_phi", "lambda")]
    return rows


def bracket_functions(spec, negative_control):
    """run_suite's bracket rows, in report order: name -> f of {f, H}."""
    named = {"J2~H": lambda s: j2(s, spec)}
    if spec.kind in (SystemKind.PW, SystemKind.VC):
        named["J3~H"] = lambda s: k_constant(s, spec).real
        named["J4~H"] = lambda s: k_constant(s, spec).imag
    elif not spec.has_angular_term:
        named["p_phi~H"] = lambda s: s.p_phi
    if negative_control:
        named["J2+r~H"] = lambda s: j2(s, spec) + s.r
    return named


# r (or phi) at which the minus point of the stencil is exactly 0
ON_STENCIL_POLE = 1e-5 / (1.0 - 1e-5)


class TestRunSuite:
    """verify.run_suite, the library side of `curvint verify`."""

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_check_sequence(self, kind, kappa):
        spec = suite_spec(kind, kappa)
        state0 = random_bounded_state(spec, np.random.default_rng(4))
        traj = integrate(state0, spec, 2.0)
        for negative_control in (False, True):
            rows = run_suite(traj, np.random.default_rng(5),
                             negative_control)
            assert all(type(row) is CheckResult for row in rows)
            assert [(row.check, row.name) for row in rows] \
                == expected_checks(kind, negative_control)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("kind", [SystemKind.PW, SystemKind.VC])
    def test_moduli_match_per_state_loop(self, kind, kappa):
        spec = suite_spec(kind, kappa)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        rows = {row.name: row for row in
                run_suite(integrate(state0, spec, 2.0),
                          np.random.default_rng(7))
                if row.check == "moduli"}
        # run_suite's grid: the first 20 draws of its rng
        rng = np.random.default_rng(7)
        worst_m = worst_n = 0.0
        for _ in range(20):
            s = random_bounded_state(spec, rng)
            J2 = j2(s, spec)
            rhs_m = ((2.0 * hamiltonian(s, spec) - spec.kappa * J2) * J2
                     + spec.g ** 2)
            rhs_n = J2 * J2 - 2.0 * spec.k_a * J2 + spec.k_b ** 2
            worst_m = max(worst_m, abs(abs(m_r(s, spec)) ** 2 - rhs_m)
                          / (1.0 + abs(rhs_m)))
            worst_n = max(worst_n, abs(abs(n_phi(s, spec)) ** 2 - rhs_n)
                          / (1.0 + abs(rhs_n)))
        for name, worst in (("|M_r|^2", worst_m), ("|N_phi|^2", worst_n)):
            assert abs(rows[name].value - worst) <= 1e-14
            assert rows[name].threshold == 1e-10
            assert rows[name].passed and worst <= 1e-10

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_brackets_match_per_state_loop(self, kind, kappa):
        spec = suite_spec(kind, kappa)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        rows = {row.name: row for row in
                run_suite(integrate(state0, spec, 2.0),
                          np.random.default_rng(7), negative_control=True)
                if row.check == "bracket"}
        # run_suite's grid: the first 20 draws of its rng
        rng = np.random.default_rng(7)
        states = [random_bounded_state(spec, rng) for _ in range(20)]
        grid = PhaseState(*np.array([s.as_tuple() for s in states]).T)
        H = lambda s: hamiltonian(s, spec)
        named = {"J2~H": lambda s: j2(s, spec),
                 "J3~H": lambda s: k_constant(s, spec).real,
                 "J4~H": lambda s: k_constant(s, spec).imag,
                 "p_phi~H": lambda s: s.p_phi,
                 "J2+r~H": lambda s: j2(s, spec) + s.r}
        assert set(rows) <= set(named)
        for name, row in rows.items():
            # numpy's and math's value at a stencil point may differ in the
            # last ulp (2.2e-16); over the step 2 h (1 + |y|) >= 2e-5 that
            # moves a partial by ~1e-11 of the function's size (7.9e-12
            # (1 + scale) seen), so the bound is round-off, not the verdict
            values, scales = bracket_with_scale(named[name], H, grid)
            worst = 0.0
            for value, scale, s in zip(values, scales, states):
                ref_value, ref_scale = reference_bracket(named[name], H, s)
                assert abs(value - ref_value) <= 1e-10 * (1.0 + ref_scale)
                worst = max(worst, abs(ref_value) / (1.0 + ref_scale))
            assert abs(row.value - worst) <= 1e-10, name
            assert row.passed == (worst <= 1e-6), name
        assert not rows["J2+r~H"].passed

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("kind", [SystemKind.FREE_GEODESIC,
                                      SystemKind.KEPLER, SystemKind.VC,
                                      SystemKind.PW])
    def test_rows_match_frozen_brackets_and_rotation(self, kind, kappa):
        # one stencil, one H gradient and one K evaluation for all rows,
        # and one stacked dense read: the same bits as a stencil per row
        # and three reads
        spec = suite_spec(kind, kappa)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        traj = integrate(state0, spec, 20.0)
        rows = run_suite(traj, np.random.default_rng(7),
                         negative_control=True)
        grid = PhaseState(*np.array([s.as_tuple() for s in
                                     random_bounded_states(
                                         spec, np.random.default_rng(7),
                                         20)]).T)
        H = lambda s: hamiltonian(s, spec)
        expected = []
        for name, fn in bracket_functions(spec, True).items():
            value, scale = frozen_bracket_with_scale(fn, H, grid)
            worst = float(np.max(abs(value) / (1.0 + scale)))
            expected.append(CheckResult("bracket", name, worst, 1e-6,
                                        worst <= 1e-6))
        if kind in (SystemKind.PW, SystemKind.VC):
            err_m, err_n = frozen_rotation_check(traj, spec)
            expected += [CheckResult("rotation", "M_r", err_m, 1e-5,
                                     err_m < 1e-5),
                         CheckResult("rotation", "N_phi", err_n, 1e-5,
                                     err_n < 1e-5)]
        assert [row for row in rows
                if row.check in ("bracket", "rotation")] == expected

    @pytest.mark.parametrize("spec, bad", [
        # H's pole at r = 0; J2 is regular there
        (kepler_spec(kappa=1.0), PhaseState(ON_STENCIL_POLE, 0.5, 0.1, 0.5)),
        (pw_spec(kappa=-1.0, m=Fraction(3, 2)),
         PhaseState(ON_STENCIL_POLE, 1.0, 0.1, 0.5)),
        # sin(m phi) = 0 at one stencil point and r = 0 at an earlier one:
        # J2 raises at the first, H would raise at the second
        (pw_spec(kappa=1.0, m=Fraction(3, 2)),
         PhaseState(ON_STENCIL_POLE, ON_STENCIL_POLE, 0.1, 0.5)),
    ])
    def test_stencil_pole_raises_the_first_rows_error(self, monkeypatch,
                                                      spec, bad):
        good = random_bounded_state(spec, np.random.default_rng(6))
        traj = integrate(good, spec, 2.0)
        grid = PhaseState(*np.array([good.as_tuple(), bad.as_tuple()]).T)
        H = lambda s: hamiltonian(s, spec)
        with pytest.raises(StencilError) as expected:
            for fn in bracket_functions(spec, False).values():
                frozen_bracket_with_scale(fn, H, grid)
        monkeypatch.setattr(verify, "random_bounded_states",
                            lambda spec, rng, n: [good, bad])
        with pytest.raises(StencilError) as got:
            run_suite(traj, np.random.default_rng(7))
        assert str(got.value) == str(expected.value)
        assert type(got.value.__cause__) is type(expected.value.__cause__)

    def test_generic_profile_fails_no_bracket_row(self):
        # F = 0.5 cos(phi): p_phi is no integral, J2 is
        spec = suite_spec(SystemKind.GENERIC_F, -1.0)
        state0 = random_bounded_state(spec, np.random.default_rng(4))
        rows = [row for row in run_suite(integrate(state0, spec, 2.0),
                                         np.random.default_rng(5))
                if row.check == "bracket"]
        assert rows and all(row.passed for row in rows), rows

    def test_nan_bracket_fails_its_row(self, monkeypatch):
        spec = kepler_spec(kappa=1.0)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        traj = integrate(state0, spec, 2.0)
        monkeypatch.setattr(verify, "j2", lambda s, sp: s.r * np.nan)
        row, = (row for row in run_suite(traj, np.random.default_rng(7))
                if row.name == "J2~H")
        assert math.isnan(row.value) and not row.passed

    def test_limit_row_needs_value_within_threshold(self, monkeypatch):
        # H = 0.5 + 20 |kappa| lies inside the O(kappa) envelope, 150 |kappa|,
        # but deviates by 2e-7 at kappa = 1e-8, above 1e-7 (1 + |f0|)
        spec = suite_spec(SystemKind.PW, 1.0)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        monkeypatch.setattr(verify, "hamiltonian",
                            lambda s, sp: 0.5 + 20.0 * abs(sp.kappa))
        lim = euclidean_limit_scan(spec, state0)[0]
        assert lim.name == "H" and lim.flat_value == 0.5
        assert all(dev <= 150.0 * abs(kap) for kap, dev in lim.deviations)
        assert lim.value == pytest.approx(2e-7, rel=1e-6)
        assert lim.threshold == pytest.approx(1.5e-7, rel=1e-15, abs=0)
        assert not lim.passed

    def test_limit_rows_copy_the_scan(self):
        spec = suite_spec(SystemKind.PW, 1.0)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        rows = run_suite(integrate(state0, spec, 2.0),
                         np.random.default_rng(7))
        assert rows[-4:] == [
            CheckResult("limit", lim.name, lim.value, lim.threshold,
                        lim.passed)
            for lim in euclidean_limit_scan(spec, state0)]

    @pytest.mark.parametrize("passed_m, passed_n", [(True, False),
                                                     (False, True)])
    def test_rotation_rows_copy_the_check(self, monkeypatch, passed_m,
                                          passed_n):
        # the verdicts disagree with the errors on purpose: run_suite must
        # copy rotation_check's per-law verdicts, not decide them again
        report = verify.RotationReport(max_rel_err_m=0.5, max_rel_err_n=0.5,
                                       tolerance=1.0, passed_m=passed_m,
                                       passed_n=passed_n)
        monkeypatch.setattr(verify, "rotation_check", lambda t, s: report)
        spec = suite_spec(SystemKind.PW, 1.0)
        state0 = random_bounded_state(spec, np.random.default_rng(6))
        rows = run_suite(integrate(state0, spec, 2.0),
                         np.random.default_rng(7))
        assert [row for row in rows if row.check == "rotation"] == [
            CheckResult("rotation", "M_r", 0.5, 1.0, passed_m),
            CheckResult("rotation", "N_phi", 0.5, 1.0, passed_n)]
        assert not report.passed

    def test_controls_fail_and_the_rest_pass(self):
        cfg = parse_config(PW_SPHERE)
        traj = integrate(cfg.initial_state(), cfg.system_spec(), cfg.t_end)
        rows = run_suite(traj, np.random.default_rng(1),
                         negative_control=True)
        assert {row.name for row in rows if not row.passed} \
            == {"J2_plus_t", "J2+r~H"}
        assert all(row.passed for row in run_suite(
            traj, np.random.default_rng(1)))

    def test_cli_report_formats_run_suite(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVINT_SEED", "3")
        out = tmp_path / "report.csv"
        assert main(["verify", "--config", write(tmp_path, PW_SPHERE),
                     "--out", str(out), "--negative-control"]) == 1
        cfg = parse_config(PW_SPHERE)
        traj = integrate(cfg.initial_state(), cfg.system_spec(), cfg.t_end)
        rows = run_suite(traj, np.random.default_rng(3),
                         negative_control=True)
        assert out.read_text().splitlines()[1:] == [
            "%s,%s,%.17g,%.17g,%s" % (check, name, value, threshold,
                                      "true" if passed else "false")
            for check, name, value, threshold, passed in rows]
