import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import curvint
from curvint import (AngularSingularityError, DomainError, IntegratorConfig,
                     PhaseState, PoleError, SystemKind, SystemSpec,
                     Termination, cos_k, hamiltonian, integrate, j2, sin_k)
from curvint import _dop853, dynamics
from curvint.kappa_trig import _SERIES_CUTOFF, sin_cos_k_for
from curvint.cli import main
from curvint.verify import drift, random_bounded_state
from conftest import (assert_same_bits, kepler_spec, pw_spec,
                      random_interior_states, reference_cos_k,
                      reference_sin_k, run_python)

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
        rhs = dynamics._rhs_for(kepler_spec())(1.0, 0.0, 0.0, 1.0)
        assert rhs == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_radial_geodesic(self, kappa):
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=kappa)
        rhs = dynamics._rhs_for(spec)(0.7, 0.3, 0.4, 0.0)
        assert rhs == pytest.approx((0.4, 0.0, 0.0, 0.0), abs=1e-15)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_matches_hamiltonian_gradient(self, kappa):
        # independent oracle: canonical equations from central differences
        spec = pw_spec(kappa=kappa, m=Fraction(2))
        h = 1e-6
        rhs = dynamics._rhs_for(spec)
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
            assert rhs(*s.as_tuple()) == pytest.approx(
                expected, rel=1e-6, abs=1e-6)


class TestIntegrate:
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-10])
    def test_tolerance_must_be_positive_and_finite(self, field, value):
        # rel_tol = inf made the error scale 0 * inf = nan at a zero
        # component, and the attempt loop rejected forever
        with pytest.raises(DomainError, match="finite"):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("spec, field, value", [
        ("kepler_spec(kappa=1.0)", "p_r", "nan"),
        ("kepler_spec(kappa=1.0)", "phi", "nan"),
        ("kepler_spec(kappa=1.0)", "p_phi", "inf"),
        ("pw_spec(kappa=1.0, m=Fraction(3, 2))", "phi", "nan"),
        ("pw_spec(kappa=1.0, m=Fraction(3, 2))", "p_r", "inf"),
        ("kepler_spec(kappa=1.0)", "t_end", "nan"),
        ("kepler_spec(kappa=1.0)", "t_end", "inf"),
        ("kepler_spec(kappa=1.0)", "t_end", "-inf"),
    ], ids=["kepler-p_r-nan", "kepler-phi-nan", "kepler-p_phi-inf",
            "pw-phi-nan", "pw-p_r-inf", "t_end-nan", "t_end-inf",
            "t_end-minus-inf"])
    def test_non_finite_start_is_a_domain_error(self, spec, field, value):
        # in a subprocess with a timeout: a nan or inf start made the first
        # step nan and the attempt loop never ended, and a non-finite t_end
        # ran to MAX_STEPS
        start = {"r": 1.0, "phi": 0.7, "p_r": 0.1, "p_phi": 0.5,
                 "t_end": 10.0, field: f"float('{value}')"}
        run = run_python(
            "from fractions import Fraction\n"
            "from curvint import DomainError, PhaseState, integrate\n"
            "from conftest import kepler_spec, pw_spec\n"
            "try:\n"
            "    integrate(PhaseState({r}, {phi}, {p_r}, {p_phi}), "
            "{spec}, {t_end})\n"
            "except DomainError as exc:\n"
            "    print('DomainError:', exc)\n".format(spec=spec, **start))
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("DomainError: non-finite start")

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

    @pytest.mark.parametrize("p_r0, termination, accepted", [
        (-1.0, Termination.HIT_RADIAL_POLE, 1),
        (1.0, Termination.COMPLETED, 4)])
    def test_start_on_the_margin(self, p_r0, termination, accepted):
        # the radial guard is exactly 0.0 at the start, which is admissible:
        # inward, the first accepted step ends the run at its root; outward,
        # the guard never reaches 0 again
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=0.0)
        r0 = 1e-6
        assert sin_k(0.0, r0) - dynamics.SINGULARITY_MARGIN == 0.0
        traj = integrate(PhaseState(r0, 0.0, p_r0, 0.0), spec, 1.0)
        assert traj.termination is termination
        assert traj.stats.accepted == accepted

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

    def test_creep_along_the_sinh_overflow_wall_underflows(self,
                                                          monkeypatch):
        # from step 38 on, every step that would move r overflows sinh and
        # every shorter one leaves y bitwise unchanged; the lowered
        # MAX_STEPS makes a run that creeps on fail fast
        monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
        traj = integrate(PhaseState(709.0, 1.0, 5.0, 1.0),
                         kepler_spec(kappa=-1.0), 10.0)
        assert traj.termination is Termination.STEP_UNDERFLOW
        assert traj.stats.accepted == 37
        assert traj.states[-1, 0] == pytest.approx(710.47586007, rel=1e-10)

    @pytest.mark.parametrize("s0", [PhaseState(1.0, 0.5, 0.0, 0.0),
                                    PhaseState(1.0, 0.5, 1e-30, 0.0)],
                             ids=["at-rest", "tiny-momentum"])
    def test_steps_that_leave_y_unchanged_complete(self, s0):
        # f = 0 at rest, and f h below y's last bit at p_r = 1e-30: no step
        # is rejected, and each grows tenfold up to t_end
        spec = SystemSpec(kind=SystemKind.FREE_GEODESIC, kappa=1.0)
        traj = integrate(s0, spec, 10.0)
        assert traj.termination is Termination.COMPLETED
        assert (traj.stats.accepted, traj.stats.rejected) == (8, 0)
        assert np.array_equal(traj.states[-1], s0.as_tuple())

    def test_phi_unwrapped(self):
        traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), kepler_spec(),
                         6 * math.pi)
        assert traj.states[-1, 1] == pytest.approx(6 * math.pi, abs=1e-7)


class TestDenseOutput:
    # the second run ends at a guard, short of its last step's end
    @pytest.mark.parametrize("spec, s0, t_end", [
        (pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6), 40.0),
        (SystemSpec(kind=SystemKind.PW, kappa=0.0, g=1.0, k_a=-0.3, k_b=0.0),
         PhaseState(1.0, 2.5, 0.0, 0.4), 50.0)])
    def test_piecewise_reads_equal_a_full_build(self, spec, s0, t_end):
        whole = integrate(s0, spec, t_end)
        pieces = integrate(s0, spec, t_end)
        times = whole.times
        n = len(times) - 1
        whole.dense(0.5 * (times[:-1] + times[1:]))     # builds every step
        rng = np.random.default_rng(8)
        # one step, then 3, 17 and 200 steps, some already built, then all
        reads = [times[n // 2] + 0.3 * (times[n // 2 + 1] - times[n // 2])]
        for k in (3, 17, 200):
            reads.append(rng.uniform(times[0], times[-1], k))
        reads.append(np.linspace(times[0] - 0.1, times[-1] + 0.1, 1001))
        for t in reads:
            assert pieces.dense(t).tobytes() == whole.dense(t).tobytes()

    @pytest.mark.parametrize("spec, s0, tag", [
        (kepler_spec(), PhaseState(1.0, 0.0, -0.5, 0.0),
         Termination.HIT_RADIAL_POLE),
        (SystemSpec(kind=SystemKind.PW, kappa=0.0, g=1.0, k_a=-0.3, k_b=0.0),
         PhaseState(1.0, 2.5, 0.0, 0.4), Termination.HIT_ANGULAR_SINGULARITY)],
        ids=["radial", "angular"])
    def test_guard_cut_run_ends_on_its_dense_output(self, spec, s0, tag):
        # the crossing is located on the last step's dense output, whose 3
        # extra stages count in nfev
        traj = integrate(s0, spec, 50.0)
        assert traj.termination is tag
        end = traj.dense(traj.times[-1])
        assert traj.states[-1].tobytes() == end.tobytes()
        stats = traj.stats
        assert stats.nfev == 2 + 12 * (stats.accepted + stats.rejected) + 3


# --- DenseOutput as first written with lazy builds: it converted h and
# allocated its tables at the first read, searched the steps per direction
# of time and released the stages once every step was built.  The oracle of
# the fixed-table DenseOutput; keep it frozen. ---

class ReferenceDenseOutput:
    def __init__(self, fun, times, states, h, stages, y_end):
        self._fun = fun
        self._times, self._states = times, states
        self._h, self._stages, self._y_end = h, stages, y_end
        self._F = None
        self._todo = None

    def _build(self, steps):
        if self._F is None:
            n = len(self._h)
            self._h = np.array(self._h)
            self._F = np.empty((n, _dop853.INTERPOLATOR_POWER, 4))
            self._todo = np.ones(n, dtype=bool)
        new = np.unique(steps[self._todo[steps]])
        if new.size == 0:
            return
        y_new = self._states[new + 1]
        if new[-1] == len(self._h) - 1:
            y_new[-1] = self._y_end
        self._F[new] = dynamics._interpolant(
            self._fun, self._h[new], self._states[new], y_new,
            np.array([self._stages[i] for i in new]))
        self._todo[new] = False
        if not self._todo.any():
            self._stages = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        n_steps = len(self._h)
        if n_steps == 0:
            return np.tile(self._states[0], t.shape + (1,)).T
        times = self._times
        if times[-1] >= times[0]:
            i = np.searchsorted(times, t, side="left") - 1
        else:
            i = n_steps - np.searchsorted(times[::-1], t, side="right")
        i = np.clip(i, 0, n_steps - 1)
        self._build(i.ravel())
        x = (t - times[i]) / self._h[i]
        return dynamics._interpolate(self._F[i], self._states[i],
                                     x[..., None]).T


DENSE_RUNS = {
    "forward": (pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6),
                40.0),
    "backward": (pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6),
                 -20.0),
    "guard_cut": (kepler_spec(), PhaseState(1.0, 0.0, -0.5, 0.0), 50.0),
    "t_end_0": (pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6),
                0.0),
}


def dense_reads(times):
    """Every step boundary and step midpoint, each as one array and one by
    one, both ends +- 0.1, a 1001-point sweep and the non-finite times."""
    mids = 0.5 * (times[:-1] + times[1:])
    ends = [times[0] - 0.1, times[0] + 0.1, times[-1] - 0.1,
            times[-1] + 0.1]
    sweep = np.linspace(times[0] - 0.1, times[-1] + 0.1, 1001)
    return [times, *times, mids, *mids, *ends, np.array(ends), sweep,
            np.reshape(sweep[:1000], (10, 100)), math.inf, -math.inf,
            math.nan]


class TestDenseOutputTables:
    @pytest.mark.parametrize("name", DENSE_RUNS)
    def test_reads_equal_the_reference(self, name, monkeypatch):
        spec, s0, t_end = DENSE_RUNS[name]
        traj = integrate(s0, spec, t_end)
        monkeypatch.setattr(dynamics, "DenseOutput", ReferenceDenseOutput)
        ref = integrate(s0, spec, t_end)
        assert_same_bits((traj.times, traj.states), (ref.times, ref.states))
        assert (traj.termination, traj.stats) == (ref.termination, ref.stats)
        if name == "guard_cut":
            assert traj.termination is Termination.HIT_RADIAL_POLE
        for t in dense_reads(traj.times):
            with np.errstate(invalid="ignore"):     # 0 * inf at t = +-inf
                got, expected = traj.dense(t), ref.dense(t)
            assert_same_bits((got,), (expected,), repr(t))

    def test_each_read_builds_its_new_steps_in_one_call(self, monkeypatch):
        calls = []

        def spy(fun, h, y_old, y_new, K):
            calls.append(len(h))
            return interpolant(fun, h, y_old, y_new, K)
        interpolant = dynamics._interpolant
        monkeypatch.setattr(dynamics, "_interpolant", spy)
        spec, s0, t_end = DENSE_RUNS["forward"]
        traj = integrate(s0, spec, t_end)
        assert calls == []
        times = traj.times
        mids = 0.5 * (times[:-1] + times[1:])
        traj.dense(mids[:5])
        assert calls == [5]
        traj.dense(mids[:5])
        traj.dense(mids[2])
        traj.dense(times[1:6])          # boundaries take the earlier step
        assert calls == [5]
        traj.dense(np.concatenate((mids[3:12], mids[7:12])))
        assert calls == [5, 7]
        traj.dense(mids[20])
        assert calls == [5, 7, 1]


def traced(fn):
    """fn's result, and the bytes tracemalloc saw fn hold at its peak and
    at its end, above what was held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


class TestStepBuffers:
    @pytest.fixture(scope="class")
    def long_orbit(self):
        """The kappa = -1 Kepler orbit of the benchmark's orbit_export to
        t = 30, its first 920 accepted steps (6345 to t = 200), integrated
        under tracemalloc (which makes it about 30 times slower)."""
        spec = kepler_spec(kappa=-1.0)
        s0 = random_bounded_state(spec, np.random.default_rng([2, 0]))
        integrate(s0, spec, 1.0)        # the spec's closures, made once
        return traced(lambda: integrate(s0, spec, 30.0))

    def test_bytes_per_accepted_step(self, long_orbit):
        traj, peak, held = long_orbit
        n = traj.stats.accepted
        assert n >= 900
        # 416 B of stages and 48 B of t, h and state a step, plus the
        # buffers' spare room and the dense output's build flags; 1101 B and
        # 868 B when each step kept a Python float, a list and an ndarray of
        # its stages
        assert peak < 600 * n and held < 520 * n

    def test_interpolant_rows_are_made_at_the_first_read(self, long_orbit):
        traj, _, held = long_orbit
        n = traj.stats.accepted
        assert held < 520 * n           # no rows: they take 224 B a step
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        _, _, first = traced(lambda: traj.dense(mids[0]))
        assert first >= 224 * n
        _, _, second = traced(lambda: traj.dense(mids[1]))
        assert second < 224 * n

    @pytest.mark.parametrize("name", [*DENSE_RUNS, "underflow"])
    def test_times_and_states_are_plain_arrays(self, name, monkeypatch):
        if name == "underflow":
            monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
            spec, s0, t_end = (kepler_spec(kappa=-1.0),
                               PhaseState(709.0, 1.0, 5.0, 1.0), 10.0)
        else:
            spec, s0, t_end = DENSE_RUNS[name]
        solutions = []

        def spy(*args):
            solutions.append(solve_ivp(*args))
            return solutions[-1]
        solve_ivp = dynamics.solve_ivp
        monkeypatch.setattr(dynamics, "solve_ivp", spy)
        traj = integrate(s0, spec, t_end)
        if name == "underflow":
            assert traj.termination is Termination.STEP_UNDERFLOW
        n = len(traj)
        sol = solutions[0]
        for a, shape in [(traj.times, (n,)), (traj.states, (n, 4)),
                         (sol.t, (n,)), (sol.y, (n, 4))]:
            assert (a.shape, a.dtype) == (shape, np.float64)
            assert a.flags.c_contiguous and a.flags.writeable


class TestPythonFloats:
    """The stepper runs on Python floats from start to end: on numpy
    scalars, which the initial step's norms return, every RHS call takes
    about 40 % longer, and rounds the same."""

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("t_end", [20.0, -20.0])
    def test_every_rhs_argument_is_a_float(self, kappa, t_end, monkeypatch):
        seen, rhs_for = [], dynamics._rhs_for

        def recording_rhs_for(spec, array=False):
            rhs = rhs_for(spec, array)

            def recording(*y):
                seen.extend(map(type, y))
                return rhs(*y)
            return rhs if array else recording
        monkeypatch.setattr(dynamics, "_rhs_for", recording_rhs_for)
        for spec in all_kind_specs(kappa):
            s0 = start_for(spec)
            numpy_s0 = PhaseState(*map(np.float64, s0.as_tuple()))
            seen.clear()
            traj = integrate(numpy_s0, spec, np.float64(t_end))
            assert traj.stats.accepted > 0, spec.kind
            assert set(seen) == {float}, (spec.kind, set(seen))
            ref = integrate(s0, spec, t_end)
            assert np.array_equal(traj.times, ref.times)
            assert np.array_equal(traj.states, ref.states)
            assert traj.stats == ref.stats

    def test_solve_ivp_of_numpy_scalars(self):
        spec = pw_spec(kappa=1.0, m=Fraction(3, 2))
        rhs, seen = dynamics._rhs_for(spec), []

        def fun(*y):
            seen.extend(map(type, y))
            return rhs(*y)
        y0 = tuple(map(np.float64, start_for(spec).as_tuple()))
        sol = dynamics.solve_ivp(fun, dynamics._rhs_for(spec, array=True),
                                 np.float64(20.0), y0, DEFAULTS, {})
        assert sol.termination is Termination.COMPLETED
        assert sol.stats.nfev == len(seen) // 4 > 1000
        assert set(seen) == {float}


class TestTinyAbsTol:
    """An abs_tol below about 1e-154 at a zero component: the squares in
    the initial step's norms and in the error norm overflow.  Both then
    take the norm from unsquared lengths, where SciPy stops with a
    step-size failure."""
    # the CLI's default PW start: p_r = 0, so its error scale is abs_tol
    SPEC = pw_spec(kappa=1.0, m=Fraction(3, 2), k_a=0.0, k_b=0.0)
    S0 = PhaseState(1.0, math.pi / 2, 0.0, 1.0)

    @pytest.mark.parametrize("abs_tol", [1e-200, 1e-250, 1e-300])
    def test_completes(self, abs_tol):
        traj = integrate(self.S0, self.SPEC, 5.0,
                         IntegratorConfig(abs_tol=abs_tol))
        assert traj.termination is Termination.COMPLETED
        assert traj.stats.accepted > 100
        # the initial step scales with abs_tol as where the plain norms
        # stay finite (an inf d1 made it 0, then the 5e-323 minimum step)
        plain = integrate(self.S0, self.SPEC, 5.0,
                          IntegratorConfig(abs_tol=1e-150))
        assert traj.times[1] / abs_tol == pytest.approx(
            plain.times[1] / 1e-150, rel=1e-12)
        ref = integrate(self.S0, self.SPEC, 5.0,
                        IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
        assert np.all(np.abs(traj.states[-1] - ref.states[-1]) < 1e-8)

    def test_plain_norm_where_it_is_finite(self):
        rng = np.random.default_rng(5)
        for v in rng.standard_normal((50, 4)) * 10.0 ** rng.integers(
                -150, 150, (50, 1)):
            assert dynamics._half_norm(v) == np.linalg.norm(v) / 2.0
        with np.errstate(over="ignore"):    # as integrate calls it
            big = dynamics._half_norm(np.array([3e200, 4e200, 0.0, 0.0]))
            inf = dynamics._half_norm(np.array([math.inf, 1.0, 0.0, 0.0]))
        assert big == pytest.approx(2.5e200, rel=1e-15)
        assert inf == math.inf

    def test_cli_simulate_exit_0(self, tmp_path, capsys):
        out = tmp_path / "pw.csv"
        assert main(["simulate", "--kind", "pw", "--kappa", "1", "--m",
                     "3/2", "--t-end", "5", "--abs-tol", "1e-200", "--out",
                     str(out)]) == 0
        assert capsys.readouterr().out.startswith("completed:")
        assert len(out.read_text().splitlines()) > 100


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
    with tolist, S and C from the frozen sin_k and cos_k, F and F' each
    from their own sin/cos of m phi."""
    r, phi, p_r, p_phi = y.tolist()
    S = reference_sin_k(spec.kappa, r)
    C = reference_cos_k(spec.kappa, r)
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
    margin = dynamics.SINGULARITY_MARGIN

    def radial(t, y):
        return reference_sin_k(spec.kappa, y[0]) - margin

    def angular(t, y):
        s = math.sin((spec.m_num * y[1]) / spec.m_den)
        return s * s - margin * margin
    events = [radial] + ([angular] if spec.has_F_m else [])
    for event in events:
        event.terminal, event.direction = True, -1
    return scipy_solve_ivp(lambda t, y: reference_rhs(t, y, spec),
                           (0.0, t_end), np.array(state0.as_tuple()),
                           method="DOP853", rtol=cfg.rel_tol,
                           atol=cfg.abs_tol, dense_output=True,
                           events=events)


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
    pytest.param(pw_spec(kappa=-1.0, m=Fraction(3, 2)),
                 start_for(pw_spec(kappa=-1.0, m=Fraction(3, 2))), 10.0,
                 IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14),
                 id="rel_tol-1e-12"),
    pytest.param(pw_spec(kappa=1.0, m=2), PhaseState(1.0, 0.45, 0.1, 0.6),
                 -20.0, DEFAULTS, id="backward"),
    pytest.param(kepler_spec(), PhaseState(1.0, 0.0, 0.0, 1.0), 0.0,
                 DEFAULTS, id="t_end-0"),
    # 3390 accepted steps and 1009 rejected ones
    pytest.param(pw_spec(kappa=1.0, m=3), start_for(pw_spec(kappa=1.0, m=3)),
                 100.0, DEFAULTS, id="long-pw-m3"),
]

def reference_central_rhs_array(t, y, spec):
    """reference_rhs of a central kind in numpy's arithmetic, which gives
    nan or inf where the float one raises."""
    r, phi, p_r, p_phi = (np.array([v]) for v in y)
    S = reference_sin_k(spec.kappa, r)
    C = reference_cos_k(spec.kappa, r)
    dUdr = 0.0
    if spec.kind is not SystemKind.FREE_GEODESIC:
        dUdr = spec.g / (S * S)
    dUdr -= 2.0 * 0.0 * C / (S * S * S)
    return np.concatenate([p_r, p_phi / (S * S),
                           p_phi * p_phi * C / (S * S * S) - dUdr,
                           -0.0 / (S * S)])


# starts whose steps run into a stage the float RHS cannot evaluate:
# sinh(r) overflows near r = 710.48, or g = 1e308 overflows the stages
UNDERFLOW_CASES = [
    pytest.param(kepler_spec(kappa=-1.0), PhaseState(1.0, math.pi / 2, 2.0,
                                                     1.0),
                 1000.0, id="kappa-1-sinh-overflow"),
    pytest.param(kepler_spec(g=1e308), PhaseState(1.0, math.pi / 2, 0.0,
                                                  1.0),
                 1.0, id="g-1e308"),
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

    @pytest.mark.parametrize("spec, s0, t_end", UNDERFLOW_CASES)
    def test_non_finite_stage_is_a_rejected_step(self, spec, s0, t_end):
        traj = integrate(s0, spec, t_end)     # no warning, no exception
        with np.errstate(all="ignore"):
            sol = scipy_solve_ivp(
                lambda t, y: reference_central_rhs_array(t, y, spec),
                (0.0, t_end), np.array(s0.as_tuple()), method="DOP853",
                rtol=DEFAULTS.rel_tol, atol=DEFAULTS.abs_tol)
        assert sol.status == -1 and "step size" in sol.message
        assert traj.termination is Termination.STEP_UNDERFLOW
        assert abs(traj.times[-1] - sol.t[-1]) <= 1e-12 * (1 + abs(sol.t[-1]))
        assert np.all(np.isfinite(traj.states))

    def test_rel_tol_below_scipys_floor_is_a_domain_error(self):
        # solve_ivp once raised such an rtol to 100 EPS with a warning, as
        # SciPy does; the config now refuses it, as a ValueError too
        with pytest.raises(DomainError, match="100 EPS") as exc:
            IntegratorConfig(rel_tol=1e-16, abs_tol=1e-16)
        assert isinstance(exc.value, ValueError)
        with pytest.raises(DomainError):
            IntegratorConfig(rel_tol=math.nextafter(100 * dynamics.EPS, 0))

    @pytest.mark.parametrize("rel_tol", [
        math.nextafter(1e-3, 1.0), 0.01, 0.5, 1.0, 1e10])
    def test_rel_tol_above_scipys_default_is_a_domain_error(self, rel_tol):
        # at rel_tol = 1 a Kepler start at kappa = 1 ended at the radial
        # pole, which its orbit does not reach
        with pytest.raises(DomainError, match="rel_tol <= 0.001"):
            IntegratorConfig(rel_tol=rel_tol)

    def test_rel_tol_at_scipys_default(self):
        cfg = IntegratorConfig(rel_tol=dynamics.REL_TOL_MAX)
        assert cfg.rel_tol == 1e-3
        spec, s0 = kepler_spec(kappa=1.0), PhaseState(1.0, 0.0, 0.1, 1.0)
        traj = integrate(s0, spec, 5.0, cfg)
        assert traj.termination is Termination.COMPLETED
        sol = reference_integrate(s0, spec, 5.0, cfg)
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.states, sol.y.T)

    def test_rel_tol_at_scipys_floor(self):
        spec, s0 = kepler_spec(kappa=1.0), PhaseState(1.0, 0.0, 0.1, 1.0)
        cfg = IntegratorConfig(rel_tol=100 * dynamics.EPS, abs_tol=1e-16)
        assert cfg.rel_tol == 100 * np.finfo(float).eps
        traj = integrate(s0, spec, 2.0, cfg)    # no warning
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
        for name in ("A", "B", "E3", "E5", "D"):
            ours = getattr(_dop853, name)
            theirs = getattr(dop853_coefficients, name)
            assert ours.shape == theirs.shape, name
            assert np.array_equal(ours, theirs), name
        assert (_dop853.N_STAGES, _dop853.N_STAGES_EXTENDED,
                _dop853.INTERPOLATOR_POWER) == (
            dop853_coefficients.N_STAGES,
            dop853_coefficients.N_STAGES_EXTENDED,
            dop853_coefficients.INTERPOLATOR_POWER)


# --- the per-spec right-hand side against the frozen reference ---

RHS_KAPPAS = (-1.0, -1e-9, 0.0, 1e-9, 1.0)


def bits(values):
    """The IEEE bytes of a sequence of floats (so -0.0 differs from 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


def rhs_states(spec):
    """Interior states plus r below the series cutoff, r beyond it at a
    tiny curvature, and a negative r."""
    states = [s.as_tuple() for s in random_interior_states(spec, 12, seed=3)]
    phi = 0.35 * math.pi / float(spec.m)
    states += [(1e-5, phi, 0.3, 0.7), (-0.4, phi, -0.2, 0.5)]
    if abs(spec.kappa) < 1e-6:
        states += [(0.9 * math.sqrt(_SERIES_CUTOFF / 1e-9), phi, 0.1, 0.4),
                   (1.1 * math.sqrt(_SERIES_CUTOFF / 1e-9), phi, 0.1, 0.4)]
    return states


class TestRhsFactory:
    @pytest.mark.parametrize("kappa", RHS_KAPPAS)
    def test_float_matches_reference_bit_for_bit(self, kappa):
        for spec in all_kind_specs(kappa):
            rhs = dynamics._rhs_for(spec)
            rhs_array = dynamics._rhs_for(spec, array=True)
            states = rhs_states(spec)
            columns = np.array(rhs_array(*np.array(states).T)).T
            for y, column in zip(states, columns):
                got = rhs(*y)
                # the stepper stores the four rates by tuple unpacking
                assert type(got) is tuple and len(got) == 4
                assert bits(got) == bits(
                    reference_rhs(0.0, np.array(y), spec)), (spec, y)
                # numpy's sin/sinh may differ from math's in the last ulp
                assert np.all(np.abs(column - got)
                              <= 1e-14 * (1.0 + np.abs(got))), (spec, y)

    @pytest.mark.parametrize("kappa", RHS_KAPPAS)
    def test_non_finite_r_raises_domain_error(self, kappa):
        for spec in all_kind_specs(kappa):
            states = [(r, 0.35 * math.pi / float(spec.m), 0.1, 0.5)
                      for r in (math.nan, math.inf, -math.inf)]
            rhs = dynamics._rhs_for(spec)
            for y in states:
                with pytest.raises(DomainError):
                    rhs(*y)
            # an array r = nan gives nan; an infinite one propagates as IEEE
            # arithmetic does (kappa_trig)
            with np.errstate(invalid="ignore"):
                out = dynamics._rhs_for(spec, array=True)(
                    *np.array(states).T)
            assert all(math.isnan(out[i][0]) for i in (1, 2, 3))

    @pytest.mark.parametrize("kappa", RHS_KAPPAS)
    def test_angular_singularity_raises(self, kappa):
        specs = [s for s in all_kind_specs(kappa) + [pw_spec(kappa=kappa)]
                 if s.has_F_m]
        assert len(specs) == 3
        for spec in specs:
            # sin(m phi) = 0 at phi = 0 and at phi = pi / m
            states = [(0.7, phi, 0.1, 0.5)
                      for phi in (0.0, math.pi * spec.m_den / spec.m_num)]
            rhs = dynamics._rhs_for(spec)
            for y in states:
                with pytest.raises(AngularSingularityError):
                    rhs(*y)
            out = dynamics._rhs_for(spec, array=True)(*np.array(states).T)
            assert np.all(np.isnan(out[2])) and np.all(np.isnan(out[3]))
            assert np.all(np.isfinite(out[1]))

    @pytest.mark.parametrize("kappa", [-4.0, -1.0, -1e-9, -0.0, 0.0, 1e-9,
                                       1.0, 4.0])
    def test_sin_cos_k_for_matches_sin_k_cos_k(self, kappa):
        # sin_k and cos_k call sin_cos_k_for: the frozen bodies are the
        # independent side
        sin_cos = sin_cos_k_for(kappa)
        rs = [0.0, -0.0, 1e-300, 1e-5, -1e-5, 0.3, -1.7]
        rs += list(np.random.default_rng(5).uniform(0.0, 3.0, 50))
        if kappa != 0.0:        # both sides of the series cutoff
            r_cut = math.sqrt(_SERIES_CUTOFF / abs(kappa))
            rs += [r_cut * (1 + k * 1e-15) for k in range(-4, 5)]
            rs += [math.nextafter(r_cut, 0.0), math.nextafter(r_cut, 10.0)]
        for r in rs:
            r = float(r)
            assert bits(sin_cos(r)) == bits((sin_k(kappa, r),
                                             cos_k(kappa, r))), r
            assert bits(sin_cos(r)) == bits((reference_sin_k(kappa, r),
                                             reference_cos_k(kappa, r))), r
        for r in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sin_cos(r)

    def test_sin_cos_k_for_rejects_non_finite_kappa(self):
        with pytest.raises(DomainError):
            sin_cos_k_for(math.nan)


def test_import_loads_no_scipy():
    src = str(Path(curvint.__file__).resolve().parents[1])
    probe = ("import sys, curvint, curvint.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""})
    assert out.stdout.strip() == "[]"
