"""Hamilton's equations and adaptive trajectory integration.

The canonical equations in geodesic polar coordinates, with S = Sin_k(r)
and C = Cos_k(r):

    dr/dt     = p_r
    dphi/dt   = p_phi / S^2
    dp_r/dt   = p_phi^2 C / S^3 - dU/dr,   dU/dr = g/S^2 - 2 F(phi) C/S^3
    dp_phi/dt = -F'(phi) / S^2

(d/dr of 1/Tan_k(r) is -1/S^2 for every curvature, by the Pythagorean
identity C^2 + kappa S^2 = 1.)

`solve_ivp` integrates them with DOP853, the explicit Runge-Kutta method
of order 8 with error estimators of orders 5 and 3 (Hairer, Norsett and
Wanner, Solving ODEs I, Sec. II.10; coefficients in `_dop853`).  Its
arithmetic is that of SciPy 1.17's `solve_ivp(method="DOP853")`, operation
for operation: the initial step, the combined err5/err3 RMS norm, the step
controller, the min-step rule and the clipping at max_step and t_end, so
the accepted steps are SciPy's bit for bit.  A radial-pole guard and an
angular-singularity guard are evaluated at the end of every accepted step;
when one falls to zero, bisection on that step's interpolant finds the
crossing and the trajectory ends there with the guard's tag instead of
running into infinities; a run ends with a tag after MAX_STEPS accepted
steps, too.  The 7th-order dense output is built on its first use, for all
steps at once, from the stages the stepper kept.
"""

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _dop853
from .errors import PoleError
from .kappa_trig import cos_k, sin_k
from .systems import PhaseState, SystemKind, SystemSpec, angular_profile

EPS = 2.220446049250313e-16         # float64 machine epsilon
# step-size controller: new |h| = old |h| * SAFETY * err^(-1/8), the factor
# clipped to [MIN_FACTOR, MAX_FACTOR] (at most 1 right after a rejection)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8            # -1 / (error estimator order 7 + 1)
_N_STAGES = _dop853.N_STAGES        # 12, the last one at t + h
_A_ROWS = [_dop853.A[s, :s] for s in range(_dop853.N_STAGES_EXTENDED)]
# accepted steps before a run ends with STEP_LIMIT: about 175 times the
# longest run of the tests and the benchmark, and ~640 MB of kept stages
MAX_STEPS = 1_000_000


class Termination(Enum):
    COMPLETED = "completed"
    HIT_RADIAL_POLE = "hit_radial_pole"
    HIT_ANGULAR_SINGULARITY = "hit_angular_singularity"
    STEP_UNDERFLOW = "step_underflow"
    STEP_LIMIT = "step_limit"


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    singularity_margin: float = 1e-6

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if not (0.0 < self.singularity_margin < 1.0):
            raise ValueError("singularity_margin must lie in (0, 1)")


@dataclass(frozen=True)
class SolverStats:
    """What one integration cost: right-hand-side evaluations and steps.

    nfev counts the 2 evaluations of the initial-step choice, 12 per
    attempted step and 3 per guard crossing (the interpolant it is located
    on); h_min and h_max are the extreme accepted |h| (nan with no step).
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
            K[:, s] = np.transpose(fun((y_old + dy).T))
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
    step that np.searchsorted over the trajectory's times selects (a time
    on a step boundary takes the earlier step); the end steps extend beyond
    the span.  The interpolant is built on the first call.
    """

    def __init__(self, fun, times, states, h, stages, y_end):
        # step i runs from (times[i], states[i]) by h[i] with the 13 stages
        # stages[i]; the last step ends at y_end, which differs from
        # states[-1] when a guard cut that step short
        self._fun = fun
        self._times, self._states = times, states
        self._h, self._stages, self._y_end = h, stages, y_end
        self._F = None

    def _build(self):
        self._h = np.array(self._h)
        y_new = np.concatenate((self._states[1:-1], [self._y_end]))
        self._F = _interpolant(self._fun, self._h, self._states[:-1], y_new,
                               np.array(self._stages))
        self._stages = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        n_steps = len(self._h)
        if n_steps == 0:        # t_end = 0: the constant solution
            return np.tile(self._states[0], t.shape + (1,)).T
        if self._F is None:
            self._build()
        times = self._times
        if times[-1] >= times[0]:
            i = np.searchsorted(times, t, side="left") - 1
        else:
            i = n_steps - np.searchsorted(times[::-1], t, side="right")
        i = np.clip(i, 0, n_steps - 1)
        x = (t - times[i]) / self._h[i]
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


def _rhs(y, spec: SystemSpec):
    """Hamilton's equations at y = (r, phi, p_r, p_phi): four floats (the
    stepper), or four arrays (the dense output's extra stages)."""
    r, phi, p_r, p_phi = y
    S = sin_k(spec.kappa, r)
    C = cos_k(spec.kappa, r)
    S2 = S * S
    S3 = S2 * S
    F, dF = angular_profile(spec, phi)
    dUdr = 0.0
    if spec.kind is not SystemKind.FREE_GEODESIC:
        dUdr = spec.g / S2
    dUdr -= 2.0 * F * C / S3
    return [p_r,
            p_phi / S2,
            p_phi * p_phi * C / S3 - dUdr,
            -dF / S2]


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


def solve_ivp(fun: Callable, t_end: float, y0, rtol: float, atol: float,
              max_step: float, guards: dict) -> Solution:
    """Integrate y' = fun(y) (autonomous, 4 components) from t = 0 to t_end
    with DOP853; t_end < 0 integrates backwards.

    fun takes and returns a sequence of 4 floats.  guards maps a Termination
    to a function of the state (4 floats) that is >= 0 where the state is
    admissible: PoleError if one is negative at y0.  The integration ends at
    the first root, in the direction of time, of a guard that goes from >= 0
    to <= 0 over a step, with that guard's tag; after MAX_STEPS accepted
    steps short of t_end it ends with STEP_LIMIT.  An rtol below 100 EPS is
    raised to that value with a warning, as SciPy does.
    """
    tags, checks = list(guards), list(guards.values())
    y = np.array(y0, dtype=float)
    g = [check(y.tolist()) for check in checks]
    for tag, value in zip(tags, g):
        if value < 0:
            raise PoleError(f"initial state {tuple(y.tolist())} within the "
                            f"margin: {tag.value} guard {value:.3g} < 0")
    if rtol < 100 * EPS:
        warnings.warn(f"rtol = {rtol!r} is too small; using {100 * EPS!r}",
                      stacklevel=3)
        rtol = 100 * EPS
    direction = -1.0 if t_end < 0 else 1.0
    f = np.array(fun(y.tolist()))
    nfev = 1

    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    interval = abs(t_end)
    if interval == 0.0:
        h_abs = 0.0
    else:
        scale = atol + np.abs(y) * rtol
        d0 = np.linalg.norm(y / scale) / 2.0
        d1 = np.linalg.norm(f / scale) / 2.0
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = np.array(fun((y + h0 * direction * f).tolist()))
        nfev += 1
        d2 = np.linalg.norm((f1 - f) / scale) / 2.0 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        h_abs = min(100 * h0, h1, interval, max_step)

    K = np.empty((_N_STAGES + 1, 4))
    K[0] = f
    KT = [K[:s].T for s in range(_N_STAGES + 2)]
    dot, A, B = np.dot, _A_ROWS, _dop853.B
    E3, E5 = _dop853.E3, _dop853.E5
    # The state is kept as 4 floats: each stage's y + h * sum(a K) is the
    # same IEEE arithmetic as with arrays, with no numpy call per operation.
    t, y = 0.0, y.tolist()
    y_end = y                   # where the last accepted step ended
    ts, ys, hs, stages = [t], [y], [], []
    rejected = 0
    termination = None
    if t_end == 0.0:
        ts.append(t)
        ys.append(y)
        termination = Termination.COMPLETED
    while termination is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        y0, y1, y2, y3 = y
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

            for s in range(1, _N_STAGES):
                d0, d1, d2, d3 = dot(KT[s], A[s]).tolist()
                K[s] = fun([y0 + d0 * h, y1 + d1 * h, y2 + d2 * h,
                            y3 + d3 * h])
            d0, d1, d2, d3 = dot(KT[_N_STAGES], B).tolist()
            y_new = [y0 + h * d0, y1 + h * d1, y2 + h * d2, y3 + h * d3]
            K[_N_STAGES] = fun(y_new)
            nfev += _N_STAGES

            scale = np.array([atol + max(abs(a), abs(b)) * rtol
                              for a, b in zip(y, y_new)])
            err5 = dot(KT[_N_STAGES + 1], E5) / scale
            err3 = dot(KT[_N_STAGES + 1], E3) / scale
            # np.linalg.norm(x) ** 2, which is sqrt(x.dot(x)) ** 2
            err5_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = (h_abs * err5_2
                              / math.sqrt((err5_2 + 0.01 * err3_2) * 4))
            if error_norm < 1:
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
        stages.append(K.copy())
        h_abs *= factor
        K[0] = K[_N_STAGES]
        t_old, t, y = t, t_new, y_new
        y_end = y
        if direction * (t - t_end) >= 0:
            termination = Termination.COMPLETED
        elif len(hs) == MAX_STEPS:
            termination = Termination.STEP_LIMIT

        g_new = [check(y) for check in checks]
        fired = [i for i in range(len(checks))
                 if g[i] >= 0 and g_new[i] <= 0]
        g = g_new
        if fired:
            y_old = np.array(ys[-1])
            F = _interpolant(fun, np.array([h]), y_old[None],
                             np.array([y]), stages[-1][None])[0]
            nfev += 3

            def state_at(t_root):
                return _interpolate(F, y_old,
                                    (t_root - t_old) / h).tolist()
            roots = [_bisect(lambda tt: checks[i](state_at(tt)),
                             t_old, t) for i in fired]
            first = min(range(len(fired)),
                        key=lambda k: direction * roots[k])
            termination, t = tags[fired[first]], roots[first]
            y = state_at(t)
        ts.append(t)
        ys.append(y)

    times, states = np.array(ts), np.array(ys)
    sizes = [abs(h) for h in hs]
    stats = SolverStats(nfev=nfev, accepted=len(hs), rejected=rejected,
                        h_min=float(min(sizes, default=math.nan)),
                        h_max=float(max(sizes, default=math.nan)))
    return Solution(t=times, y=states, termination=termination, stats=stats,
                    dense=DenseOutput(fun, times, states, hs, stages, y_end))


def integrate(state0: PhaseState, spec: SystemSpec, t_end: float,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Propagate to t_end with local error <= rel_tol*|y| + abs_tol per step;
    PoleError at a state0 within the margin of a radial or angular pole."""
    cfg = cfg or IntegratorConfig()
    margin = cfg.singularity_margin

    def radial_guard(y):
        return sin_k(spec.kappa, y[0]) - margin
    guards = {Termination.HIT_RADIAL_POLE: radial_guard}

    if spec.has_F_m:
        p, q = spec.m_num, spec.m_den

        def angular_guard(y):
            s = math.sin((p * y[1]) / q)
            return s * s - margin * margin
        guards[Termination.HIT_ANGULAR_SINGULARITY] = angular_guard

    sol = solve_ivp(lambda y: _rhs(y, spec), t_end, state0.as_tuple(),
                    cfg.rel_tol, cfg.abs_tol, cfg.max_step, guards)
    return Trajectory(times=sol.t, states=sol.y, termination=sol.termination,
                      spec=spec, dense=sol.dense, stats=sol.stats)
