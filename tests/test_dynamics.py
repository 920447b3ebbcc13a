import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import curvint
from curvint import (IntegratorConfig, PhaseState, PoleError, SystemKind,
                     SystemSpec, Termination, cos_k, hamiltonian, integrate,
                     j2, sin_k)
from curvint import _dop853, dynamics
from curvint.cli import main
from curvint.verify import drift
from conftest import kepler_spec, pw_spec, random_interior_states

DEFAULTS = IntegratorConfig()


def all_kind_specs(kappa):
    generic = (lambda p: 0.5 * math.cos(p), lambda p: -0.5 * math.sin(p))
    return [
        SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=kappa),
        kepler_spec(kappa=kappa),
        SystemSpec(kind=SystemKind.VC, kappa=kappa, g=1.0, k_a=0.8, k_b=0.3),
        pw_spec(kappa=kappa, m=Fraction(3, 2)),
        SystemSpec(kind=SystemKind.GENERIC_F, kappa=kappa, g=1.0,
                   generic_F=generic),
    ]


class TestEquationsOfMotion:
    def test_circular_kepler_balance(self):
        # centrifugal 1/r^3 balances gravity g/r^2 at r = 1
        rhs = dynamics._rhs((1.0, 0.0, 0.0, 1.0), kepler_spec())
        assert rhs == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_radial_geodesic(self, kappa):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=kappa)
        rhs = dynamics._rhs((0.7, 0.3, 0.4, 0.0), spec)
        assert rhs == pytest.approx((0.4, 0.0, 0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_matches_hamiltonian_gradient(self, kappa):
        # independent oracle: canonical equations from central differences
        spec = pw_spec(kappa=kappa, m=Fraction(2))
        h = 1e-6
        for s in random_interior_states(spec, 35, seed=9):
            y = np.array(s.as_tuple())
            grad = np.empty(4)
            for i in range(4):
                yp, ym = y.copy(), y.copy()
                yp[i] += h
                ym[i] -= h
                grad[i] = (hamiltonian(PhaseState.from_tuple(yp), spec)
                           - hamiltonian(PhaseState.from_tuple(ym), spec)) \
                    / (2 * h)
            expected = (grad[2], grad[3], -grad[0], -grad[1])
            assert dynamics._rhs(s.as_tuple(), spec) == pytest.approx(
                expected, rel=1e-6, abs=1e-6)


class TestIntegrate:
    def test_circular_orbit_period(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(),
                         2 * math.pi)
        assert traj.termination is Termination.COMPLETED
        r, phi, p_r, p_phi = traj.states[-1]
        assert r == pytest.approx(1.0, abs=1e-8)
        assert phi % (2 * math.pi) == pytest.approx(0.0, abs=1e-8)
        assert p_r == pytest.approx(0.0, abs=1e-8)
        assert p_phi == pytest.approx(1.0, abs=1e-8)

    def test_free_sphere_oscillates_energy_conserved(self):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=1.0)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(PhaseState(math.pi / 4, 0.0, 0.0, 1.0), spec,
                         100.0, cfg)
        r = traj.states[:, 0]
        assert r.min() < 0.9 and r.max() > 1.5      # genuine oscillation
        rep = drift(traj, "H", lambda s, t: hamiltonian(s, spec), 1e-10)
        assert rep.passed, rep

    def test_reversibility(self):
        spec = pw_spec(kappa=1.0, m=Fraction(2))
        s0 = PhaseState(1.0, 0.45, 0.1, 0.6)
        fwd = integrate(s0, spec, 10.0)
        sT = fwd.state(len(fwd) - 1)
        back = integrate(PhaseState(sT.r, sT.phi, -sT.p_r, -sT.p_phi),
                         spec, 10.0)
        r, phi, p_r, p_phi = back.states[-1]
        assert r == pytest.approx(s0.r, abs=1e-7)
        assert phi == pytest.approx(s0.phi, abs=1e-7)
        assert -p_r == pytest.approx(s0.p_r, abs=1e-7)
        assert -p_phi == pytest.approx(s0.p_phi, abs=1e-7)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_energy_and_j2_drift_all_kinds(self, kappa):
        for spec in all_kind_specs(kappa):
            if spec.kappa > 0:
                s0 = PhaseState(1.1, 0.8, 0.1, 0.55)
            else:
                s0 = PhaseState(1.3, 0.9, -0.1, 0.6)
            if spec.kind is SystemKind.PW:   # stay inside the m=3/2 cell
                s0 = PhaseState(s0.r, 0.35 * math.pi * 2 / 3, s0.p_r,
                                s0.p_phi)
            traj = integrate(s0, spec, 100.0)
            for name, fn in (("H", lambda s, t: hamiltonian(s, spec)),
                             ("J2", lambda s, t: j2(s, spec))):
                rep = drift(traj, name, fn, 1e-8)
                assert rep.passed, (spec.kind, kappa, rep)

    def test_tolerance_convergence(self):
        # halving rel_tol must not worsen the terminal state (small slack
        # for the non-monotone step controller)
        spec = pw_spec(kappa=1.0, m=Fraction(2))
        s0 = PhaseState(1.0, 0.45, 0.1, 0.6)
        ref = integrate(s0, spec, 20.0,
                        IntegratorConfig(rel_tol=1e-13, abs_tol=1e-14))
        errs = []
        for rt in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            traj = integrate(s0, spec, 20.0,
                             IntegratorConfig(rel_tol=rt, abs_tol=1e-12))
            errs.append(float(np.max(np.abs(traj.states[-1]
                                            - ref.states[-1]))))
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.25 * a
        assert errs[-1] < errs[0]

    def test_radial_pole_termination(self):
        traj = integrate(PhaseState(1.0, 0.0, -0.5, 0.0), kepler_spec(),
                         50.0)
        assert traj.termination is Termination.HIT_RADIAL_POLE
        assert traj.times[-1] < 2.0

    def test_angular_singularity_termination(self):
        # attractive angular term pulls phi onto the singular ray
        spec = SystemSpec(kind=SystemKind.PW, kappa=0.0, g=1.0, k_a=-0.3,
                          k_b=0.0, m=Fraction(1))
        traj = integrate(PhaseState(1.0, 2.5, 0.0, 0.4), spec, 50.0)
        assert traj.termination is Termination.HIT_ANGULAR_SINGULARITY

    def test_initial_state_inside_margin_rejected(self):
        with pytest.raises(PoleError):
            integrate(PhaseState(1e-9, 0.0, 0.0, 0.1), kepler_spec(), 1.0)
        with pytest.raises(PoleError):
            integrate(PhaseState(1.0, 1e-9, 0.0, 0.1), pw_spec(), 1.0)

    def test_step_limit(self, monkeypatch):
        s0, spec = PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec()
        full = integrate(s0, spec, 2 * math.pi)
        steps = len(full) - 1
        monkeypatch.setattr(dynamics, "MAX_STEPS", steps)
        assert integrate(s0, spec, 2 * math.pi).termination \
            is Termination.COMPLETED
        monkeypatch.setattr(dynamics, "MAX_STEPS", steps - 1)
        traj = integrate(s0, spec, 2 * math.pi)
        assert traj.termination is Termination.STEP_LIMIT
        assert traj.stats.accepted == steps - 1 and len(traj) == steps
        assert np.array_equal(traj.times, full.times[:-1])

    def test_phi_unwrapped(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(),
                         6 * math.pi)
        assert traj.states[-1, 1] == pytest.approx(6 * math.pi, abs=1e-7)


class TestCsv:
    def test_round_trip(self, tmp_path):
        # curvint simulate writes every value as %.17g: it reads back exactly
        path = tmp_path / "traj.csv"
        assert main(["simulate", "--kind", "free", "--t-end", "1.0",
                     "--out", str(path)]) == 0
        traj = integrate(PhaseState(1.0, math.pi / 2, 0.0, 1.0),
                         SystemSpec(kind=SystemKind.FREE_GEODESIC), 1.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,r,phi,p_r,p_phi,H,J2"
        assert len(lines) == len(traj) + 1
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:5], traj.states)


# --- scipy's solve_ivp as the oracle of the in-house DOP853 driver ---

def reference_rhs(t, y, spec):
    """Hamilton's equations as integrate handed them to scipy: y unpacked
    with tolist, F and F' each from their own sin/cos of m phi."""
    r, phi, p_r, p_phi = y.tolist()
    S = sin_k(spec.kappa, r)
    C = cos_k(spec.kappa, r)
    F = dF = 0.0
    if spec.kind is SystemKind.GENERIC_F:
        F, dF = spec.generic_F[0](phi), spec.generic_F[1](phi)
    elif spec.has_F_m:
        p, q = spec.m_num, spec.m_den
        s, c = math.sin((p * phi) / q), math.cos((p * phi) / q)
        F = (spec.k_a + spec.k_b * c) / (s * s)
        s, c = math.sin((p * phi) / q), math.cos((p * phi) / q)
        dF = (-(p / q) * (2.0 * spec.k_a * c + spec.k_b * (1.0 + c * c))
              / (s * s * s))
    dUdr = 0.0
    if spec.kind is not SystemKind.FREE_GEODESIC:
        dUdr = spec.g / (S * S)
    dUdr -= 2.0 * F * C / (S * S * S)
    return [p_r, p_phi / (S * S), p_phi * p_phi * C / (S * S * S) - dUdr,
            -dF / (S * S)]


def reference_integrate(state0, spec, t_end, cfg=DEFAULTS):
    """scipy's DOP853 with dense output and the two terminal guards."""
    margin = cfg.singularity_margin

    def radial(t, y):
        return sin_k(spec.kappa, y[0]) - margin

    def angular(t, y):
        s = math.sin((spec.m_num * y[1]) / spec.m_den)
        return s * s - margin * margin
    events = [radial] + ([angular] if spec.has_F_m else [])
    for event in events:
        event.terminal, event.direction = True, -1
    return scipy_solve_ivp(lambda t, y: reference_rhs(t, y, spec),
                           (0.0, t_end), np.array(state0.as_tuple()),
                           method="DOP853", rtol=cfg.rel_tol,
                           atol=cfg.abs_tol, max_step=cfg.max_step,
                           dense_output=True, events=events)


def start_for(spec):
    s0 = (PhaseState(1.1, 0.8, 0.1, 0.55) if spec.kappa > 0
          else PhaseState(1.3, 0.9, -0.1, 0.6))
    if spec.kind is SystemKind.PW and spec.m != 1:  # inside the first cell
        s0 = PhaseState(s0.r, 0.35 * math.pi / float(spec.m), s0.p_r,
                        s0.p_phi)
    return s0


ORACLE_CASES = [
    pytest.param(spec, start_for(spec), 20.0, DEFAULTS,
                 id=f"{spec.kind.value}-m{spec.m}-kappa{kappa:g}")
    for kappa in (-1.0, 0.0, 1.0)
    for spec in all_kind_specs(kappa) + [pw_spec(kappa=kappa, m=2)]
] + [
    pytest.param(pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6),
                 20.0, IntegratorConfig(max_step=0.05), id="max_step"),
    pytest.param(pw_spec(kappa=-1.0, m=Fraction(3, 2)),
                 start_for(pw_spec(kappa=-1.0, m=Fraction(3, 2))), 10.0,
                 IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14),
                 id="rel_tol-1e-12"),
    pytest.param(pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6),
                 -20.0, DEFAULTS, id="backward"),
    pytest.param(kepler_spec(), PhaseState(1.0, 0.0, 0.0, 1.0), 0.0,
                 DEFAULTS, id="t_end-0"),
]

EVENT_CASES = [
    pytest.param(kepler_spec(), PhaseState(1.0, 0.0, -0.5, 0.0), 50.0,
                 Termination.HIT_RADIAL_POLE, id="radial"),
    pytest.param(kepler_spec(kappa=1.0), PhaseState(1.0, 0.0, 0.5, 0.0),
                 -50.0, Termination.HIT_RADIAL_POLE, id="radial-backward"),
    pytest.param(SystemSpec(kind=SystemKind.PW, kappa=0.0, g=1.0, k_a=-0.3,
                            k_b=0.0, m=Fraction(1)),
                 PhaseState(1.0, 2.5, 0.0, 0.4), 50.0,
                 Termination.HIT_ANGULAR_SINGULARITY, id="angular"),
]


def assert_dense_matches(traj, sol, seed=0):
    t_lo, t_hi = sorted((float(traj.times[0]), float(traj.times[-1])))
    ts = np.random.default_rng(seed).uniform(t_lo, t_hi, 500)
    ours, ref = traj.dense(ts), sol.sol(ts)
    assert ours.shape == ref.shape == (4, 500)
    assert np.all(np.abs(ours - ref) <= 1e-14 * (1.0 + np.abs(ref)))
    # beyond the span the end steps' polynomials extrapolate; close to it
    # their round-off stays small
    times = traj.times
    for t in (ts[0], times[-1], times[-1] + 0.1 * (times[-1] - times[-2]),
              times[0] - 0.1 * (times[1] - times[0])):
        one = traj.dense(t)
        assert one.shape == (4,)
        ref = sol.sol(t)
        assert np.all(np.abs(one - ref) <= 1e-14 * (1.0 + np.abs(ref)))


class TestScipyOracle:
    @pytest.mark.parametrize("spec, s0, t_end, cfg", ORACLE_CASES)
    def test_accepted_steps_bit_for_bit(self, spec, s0, t_end, cfg):
        traj = integrate(s0, spec, t_end, cfg)
        sol = reference_integrate(s0, spec, t_end, cfg)
        assert sol.status == 0
        assert traj.termination is Termination.COMPLETED
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.states, sol.y.T)
        assert_dense_matches(traj, sol)

    @pytest.mark.parametrize("spec, s0, t_end, tag", EVENT_CASES)
    def test_guard_terminations(self, spec, s0, t_end, tag):
        traj = integrate(s0, spec, t_end)
        sol = reference_integrate(s0, spec, t_end)
        assert sol.status == 1
        assert traj.termination is tag
        fired = 0 if tag is Termination.HIT_RADIAL_POLE else 1
        assert len(sol.t_events[fired]) == 1
        assert len(traj) == len(sol.t)
        assert np.array_equal(traj.times[:-1], sol.t[:-1])
        assert np.array_equal(traj.states[:-1], sol.y.T[:-1])
        assert abs(traj.times[-1] - sol.t[-1]) <= 1e-12
        # the state where the guard fired, on scipy's interpolant
        ref = sol.sol(traj.times[-1])
        assert np.all(np.abs(traj.states[-1] - ref)
                      <= 1e-14 * (1.0 + np.abs(ref)))
        assert_dense_matches(traj, sol)

    def test_tiny_rel_tol_raised_with_a_warning(self):
        spec, s0 = kepler_spec(kappa=1.0), PhaseState(1.0, 0.0, 0.1, 1.0)
        cfg = IntegratorConfig(rel_tol=1e-16, abs_tol=1e-16)
        with pytest.warns(UserWarning, match="too small"):
            traj = integrate(s0, spec, 2.0, cfg)
        with pytest.warns(UserWarning, match="too small"):
            sol = reference_integrate(s0, spec, 2.0, cfg)
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.states, sol.y.T)

    def test_solver_stats(self):
        spec, s0 = pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6)
        traj = integrate(s0, spec, 20.0)
        stats = traj.stats
        assert traj.termination is Termination.COMPLETED
        assert stats.rejected > 0
        assert stats.accepted == len(traj) - 1
        assert stats.nfev == 2 + 12 * (stats.accepted + stats.rejected)
        # scipy also evaluates 3 dense-output stages on every step
        sol = reference_integrate(s0, spec, 20.0)
        assert stats.nfev == sol.nfev - 3 * stats.accepted
        h = np.abs(np.diff(traj.times))
        assert (stats.h_min, stats.h_max) == (h.min(), h.max())

    def test_tableau_is_scipys(self):
        for name in ("A", "B", "C", "E3", "E5", "D"):
            ours = getattr(_dop853, name)
            theirs = getattr(dop853_coefficients, name)
            assert ours.shape == theirs.shape, name
            assert np.array_equal(ours, theirs), name
        assert (_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED,
                _dop853.INTERPOLATOR_POWER) == (
            dop853_coefficients.N_STAGES,
            dop853_coefficients.N_STAGES_EXTENDED,
            dop853_coefficients.INTERPOLATOR_POWER)


def test_import_loads_no_scipy():
    src = str(Path(curvint.__file__).resolve().parents[1])
    probe = ("import sys, curvint, curvint.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""})
    assert out.stdout.strip() == "[]"
