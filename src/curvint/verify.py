"""Independent numerical verification machinery.

Everything here cross-checks the analytic layer without reusing it:
finite-difference Poisson brackets (no analytic derivatives), drift of
invariants along integrated trajectories, phase-rotation laws of the
complex factors, Euclidean-limit scans, and closed-orbit detection (H
gives the period, the trajectory's return decides).  `run_suite` runs the
suite of `curvint verify` on one trajectory, one CheckResult a row.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CurvintError, SamplingError, SpanError, StencilError
from .kappa_trig import r_domain
from .invariants import (_escape_energy, evaluators_for, j2, k_constant,
                         lambda_k, m_r, n_phi, radial_period)
from .systems import (PhaseState, SystemKind, SystemSpec, hamiltonian,
                      m_rate)
from .dynamics import Trajectory

PhaseFunction = Callable[[PhaseState], float]


def _float_recheck(values, evaluate) -> None:
    """evaluate(i) at the flat index i of values' first non-finite entry:
    as floats, a singular state raises the float path's error there; a
    value that stays non-finite is left for the caller's verdict to fail."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        evaluate(int(bad[0]))


# --- finite-difference Poisson brackets ---

def _stencil_gradient(state: PhaseState, h: float):
    """(stencil, gradient) of state's point or grid: its central stencils,
    one PhaseState of shape (8, ...) whose point k < 4 is y + step along
    coordinate k and point k + 4 y - step (step = h (1 + |y_i|)), and
    gradient(fn, values=None), fn's central differences from its values on
    the stencil (fn(stencil) by default).  At the first non-finite value fn
    is called on that point as floats: StencilError if that raises, else
    that partial is nan."""
    y = np.array(state.as_tuple(), dtype=float)
    points = np.repeat(y[:, np.newaxis], 8, axis=1)
    i = np.arange(4)
    with np.errstate(all="ignore"):     # an infinite y_i: inf - inf = nan
        step = h * (1.0 + np.abs(y))
        points[i, i] += step            # + step along coordinate i
        points[i, i + 4] -= step        # - step along coordinate i
    stencil = PhaseState(*points)

    def gradient(fn: PhaseFunction, values=None):
        if values is None:
            values = fn(stencil)
        try:
            _float_recheck(values, lambda i: fn(
                PhaseState.from_tuple(points.reshape(4, -1)[:, i])))
        except CurvintError as exc:
            raise StencilError(f"pole inside stencil: {exc}") from exc
        with np.errstate(all="ignore"):     # nan partials stay nan
            return (values[:4] - values[4:]) / (2.0 * step)

    return stencil, gradient


def _bracket(df, dg):
    """({f, g}, cancellation scale) from the two gradients."""
    # terms dq f dp g and -dp f dq g, for q = r, phi
    plus, minus = df[:2] * dg[2:], df[2:] * dg[:2]
    value = (plus[0] - minus[0]) + (plus[1] - minus[1])
    scale = (abs(plus[0]) + abs(minus[0])) + (abs(plus[1]) + abs(minus[1]))
    return value, scale


# The relative step of the FD brackets: a finite coordinate moves by
# 1e-5 (1 + |y_i|), far above its resolution
_STENCIL_H = 1e-5


def bracket_with_scale(f: PhaseFunction, g: PhaseFunction,
                       state: PhaseState):
    """O(h^2) estimate of ({f, g}, cancellation scale) at a point or a grid.

    state holds floats (plain floats come back) or arrays of one shape.  f
    and g are each called once, on the central stencils of every point
    (step h (1 + |y_i|), h = 1e-5) as one PhaseState of shape (8, ...), and
    again as floats at their first non-finite value: StencilError if that
    raises, a nan bracket if it does not.  The scale is the sum of absolute
    values of the four products; a bracket that vanishes only through
    cancellation is judged against it.
    """
    gradient = _stencil_gradient(state, _STENCIL_H)[1]
    value, scale = _bracket(gradient(f), gradient(g))
    return (value, scale) if value.ndim else (float(value), float(scale))


# --- drift along trajectories ---

@dataclass(frozen=True)
class DriftReport:
    name: str
    initial: float
    max_abs_dev: float
    rel_drift: float            # max deviation / (1 + |initial|)
    tolerance: float
    passed: bool


def drift(traj: Trajectory, name: str, fn: Callable[[PhaseState, float], float],
          tolerance: float = 1e-8) -> DriftReport:
    """Max deviation of fn(state, t) from its initial value along traj.

    fn is called once, on the trajectory as a PhaseState of arrays and the
    array of times.  It is called again as floats at the first non-finite
    value, so a singular state raises the float path's error (PoleError,
    NegativeCasimirError, ...); a value that stays non-finite fails.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    values = fn(PhaseState(*traj.states.T), traj.times)
    _float_recheck(values,
                   lambda i: fn(traj.state(i), float(traj.times[i])))
    v0 = values[0].item()
    dev = float(np.max(np.abs(values - v0)))
    rel = dev / (1.0 + abs(v0))
    return DriftReport(name=name, initial=v0, max_abs_dev=dev,
                       rel_drift=rel, tolerance=tolerance,
                       passed=rel < tolerance)


# --- rotation laws of the complex factors ---

@dataclass(frozen=True)
class RotationReport:
    max_rel_err_m: float
    max_rel_err_n: float
    tolerance: float
    passed_m: bool              # the law of M_r holds
    passed_n: bool              # the law of N_phi holds

    @property
    def passed(self) -> bool:
        return self.passed_m and self.passed_n


_ROTATION_TOL = 1e-5


def rotation_check(traj: Trajectory, spec: SystemSpec) -> RotationReport:
    """Check dM_r/dt = i*lambda*M_r and dN_phi/dt = i*m*lambda*N_phi.

    Time derivatives come from central differences over dense output, so
    the check is independent of the analytic equations of motion; their
    step dt = min(2e-4, 1e-3 / max(1, m) max lambda), 2e-4 where max lambda
    is nan (J2 <= 0; the samples raise) or 0 (Sin_k^2 overflows), turns
    either factor by at most 1e-3 rad (O(dt^2) truncation near 2e-7).
    Each factor's largest relative error over 200 evenly spaced times of
    the span, either way in time, must stay below 1e-5.  The dense output
    is read once, at the 3 x 200 times t - dt, t, t + dt, and M_r and N_phi
    are each evaluated once on those states as arrays, lambda on the middle
    ones, with drift's rule at a non-finite error: the states of its sample
    are evaluated again as floats, as the invariants of a per-sample loop
    would be, so that a singular state raises.  SpanError when the
    trajectory has fewer than 3 steps or spans 2 dt or less.  Known limit:
    at m = 10^12, dt ~ 1e-15 is below what the dense output resolves, and
    the N_phi row fails on a correct orbit.
    """
    if len(traj) < 3:
        raise SpanError(f"trajectory of {len(traj)} steps too sparse for "
                        f"the rotation check (needs 3)")
    mf = m_rate(spec.m_num, spec.m_den)
    lam = float(np.max(lambda_k(PhaseState(*traj.states.T), spec)))
    dt = min(2e-4, 1e-3 / (max(1.0, mf) * lam)) if lam > 0.0 else 2e-4
    t0, t1 = sorted((float(traj.times[0]), float(traj.times[-1])))
    t0, t1 = t0 + dt, t1 - dt
    if t1 <= t0:
        raise SpanError(f"trajectory span {t1 - t0 + 2.0 * dt:g} too short "
                        f"for the rotation check (needs > {2.0 * dt:g})")
    ts = np.linspace(t0, t1, 200)
    # DenseOutput reverses every axis: y[:, k, i] is the state at
    # ts[i] + (-dt, 0, dt)[k]
    y = traj.dense(ts[:, np.newaxis] + (-dt, 0.0, dt))
    stacked = PhaseState(*y)
    M, N = m_r(stacked, spec), n_phi(stacked, spec)
    lam = lambda_k(PhaseState(*y[:, 1]), spec)
    dM = (M[2] - M[0]) / (2.0 * dt)
    dN = (N[2] - N[0]) / (2.0 * dt)
    err_m = (abs(dM - 1j * lam * M[1])
             / np.maximum(1.0, abs(lam) * abs(M[1])))
    err_n = (abs(dN - 1j * mf * lam * N[1])
             / np.maximum(1.0, mf * abs(lam) * abs(N[1])))

    def as_floats(i):
        # sample i's float evaluations, in the order that picks the error
        sm, sc, sp = (PhaseState(*y[:, k, i]) for k in range(3))
        for fn, s in ((lambda_k, sc), (m_r, sc), (n_phi, sc), (m_r, sp),
                      (m_r, sm), (n_phi, sp), (n_phi, sm)):
            fn(s, spec)

    _float_recheck(err_m + err_n, as_floats)
    err_m, err_n = float(np.max(err_m)), float(np.max(err_n))
    return RotationReport(max_rel_err_m=err_m, max_rel_err_n=err_n,
                          tolerance=_ROTATION_TOL,
                          passed_m=err_m < _ROTATION_TOL,
                          passed_n=err_n < _ROTATION_TOL)


# --- closed-orbit detection ---

def closure_detect(traj: Trajectory, tol: float = 1e-6) -> Optional[float]:
    """The period q T_r of traj's orbit, m = p/q and T_r its `radial_period`,
    when traj spans it and is back within tol of its start in phase space
    (phi mod 2*pi); negative if traj runs backwards.  Else None, as for
    GENERIC_F and at or above the escape energy."""
    T_r = radial_period(traj.state(0), traj.spec)
    span = float(traj.times[-1] - traj.times[0])
    if T_r is None or not 0.0 < traj.spec.m_den * T_r <= abs(span):
        return None
    T = math.copysign(traj.spec.m_den * T_r, span)
    y = traj.dense(traj.times[0] + T) - traj.states[0]
    y[1] = (y[1] + math.pi) % (2.0 * math.pi) - math.pi   # phi mod 2 pi
    return T if math.hypot(*y) < tol else None


# --- Euclidean limit ---

@dataclass(frozen=True)
class LimitScanReport:
    name: str
    flat_value: float
    deviations: tuple            # ((kappa, |f(kappa) - f(0)|), ...)
    value: float                 # the largest deviation at |kappa| < 5e-8
    threshold: float             # 1e-7 (1 + |f(0)|)
    passed: bool


def euclidean_limit_scan(spec: SystemSpec,
                         state: PhaseState) -> list[LimitScanReport]:
    """Check O(kappa) convergence of H, M_r, N_phi, lambda to flat values.

    The scan evaluates spec with kappa = +-10^-k, k = 4..12, and compares
    with kappa = 0; spec's own kappa is not used.  A quantity passes when
    every deviation lies within the O(kappa) envelope and the largest at
    |kappa| < 5e-8 is within its threshold; a nan deviation fails.
    """
    quantities = {"H": hamiltonian, "M_r": m_r, "N_phi": n_phi,
                  "lambda": lambda_k}
    flat = replace(spec, kappa=0.0)
    curved = [(kap, replace(spec, kappa=kap)) for k in range(4, 13)
              for kap in (10.0 ** -k, -(10.0 ** -k))]
    reports = []
    for name, fn in quantities.items():
        f0 = fn(state, flat)
        devs = tuple((kap, abs(fn(state, spec_k) - f0))
                     for kap, spec_k in curved)
        # linear-in-kappa envelope with a generous constant
        scale = 1.0 + abs(f0)
        envelope = all(dev <= 100.0 * abs(kap) * scale + 1e-13
                       for kap, dev in devs)
        value = max(dev for kap, dev in devs if abs(kap) < 5e-8)
        threshold = 1e-7 * scale
        reports.append(LimitScanReport(
            name=name,
            flat_value=abs(f0) if isinstance(f0, complex) else f0,
            deviations=devs, value=value, threshold=threshold,
            passed=envelope and value <= threshold))
    return reports


# --- seeded state sampling for verification grids ---

# Candidates per chunk for n draws: n, 4n and 16n (draws that accept soon
# draw few), then the tries left in chunks of at most _MAX_CHUNK
_MAX_CHUNK = 2048

# Candidates a draw tries before it takes its fallback or fails
_MAX_TRIES = 2000

# The array hamiltonian may differ from the float one in the last ulps
# (numpy's sin/cos against math's).  A screened energy within this margin,
# relative to 1 + |H|, of the acceptance threshold or of the running
# minimum is re-decided by the float hamiltonian.
_SCREEN_MARGIN = 1e-9


# Bit generators whose rng.random() is (raw >> 11) 2^-53, one word a double
_RAW_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM,
                       np.random.Philox, np.random.SFC64)


def _draw(rng: np.random.Generator, n: int, state: dict):
    """The draws of n candidates, from one bit_generator.random_raw call.

    The values, and the state rng is left in, are those of a loop that
    draws four rng.random() doubles and one rng.integers(2) per candidate;
    state is rng.bit_generator.state at entry.  rng.integers(2) is the top
    bit of a 32-bit draw (Lemire's method never rejects a range of 2).  A
    32-bit draw takes the low half of a fresh word and buffers the high
    half in the state's has_uint32/uinteger for the next one, so the words
    come in blocks of 9 per pair of candidates: four doubles, the coin
    word (bit 31 the first candidate's coin, bit 63 the second's), four
    doubles.  With b = has_uint32 at entry the first candidate is the
    second of a block whose coin word is the buffered half, and an odd
    last candidate the first of a block of its own; the words they do not
    draw are zeros.  Doubles are (word >> 11) 2^-53, decoded a block at a
    time.  TypeError unless rng's bit generator is PCG64, PCG64DXSM,
    Philox or SFC64 (MT19937 makes its doubles from two 32-bit draws).
    """
    bits = rng.bit_generator
    if not isinstance(bits, _RAW_BIT_GENERATORS):
        raise TypeError(f"the sampler needs a PCG64, PCG64DXSM, Philox or "
                        f"SFC64 bit generator, not {type(bits).__name__}")
    b = state["has_uint32"]
    blocks = (n + b + 1) // 2
    words = np.zeros((blocks, 9), dtype=np.uint64)
    words[0, 4] = state["uinteger"] << 32
    raw = 4 * n + (n + 1 - b) // 2
    words.reshape(-1)[5 * b:5 * b + raw] = bits.random_raw(raw)
    doubles = (words >> 11) * 2.0 ** -53
    u = np.concatenate((doubles[:, :4], doubles[:, 5:]), axis=1)
    coins = words[:, 4]
    flip = np.empty((blocks, 2), dtype=np.intp)
    flip[:, 0] = (coins >> 31) & 1
    flip[:, 1] = coins >> 63
    # numpy keeps uinteger when a draw takes it, so either way it ends as
    # the high half of the last candidate's coin word
    end = bits.state
    end["has_uint32"] = (b + n) % 2
    end["uinteger"] = int(coins[-1] >> 32)
    bits.state = end
    return u.reshape(-1, 4)[b:b + n].T, flip.reshape(-1)[b:b + n]


def _uniform(low: float, high: float, u):
    """rng.uniform(low, high) from u = rng.random(), to the last bit."""
    return low + (high - low) * u


def _candidates(spec: SystemSpec, u, flip) -> PhaseState:
    """The candidate states of _draw's draws, as one PhaseState of arrays."""
    if spec.kappa > 0:
        r = _uniform(0.25, 0.75, u[0]) * r_domain(spec.kappa)[1]
    else:
        r = _uniform(0.6, 2.2, u[0])
    if spec.has_angular_term:
        phi = (_uniform(0.3 * math.pi, 0.7 * math.pi, u[1])
               * spec.m_den / spec.m_num)
    else:
        phi = _uniform(0.0, 2.0 * math.pi, u[1])
    sign = np.array((-1.0, 1.0))[flip]      # rng.choice((-1.0, 1.0))
    return PhaseState(r, phi, _uniform(-0.35, 0.35, u[2]),
                      _uniform(0.15, 0.7, u[3]) * sign)


def _undecided(screen, threshold: float, best_H: float):
    """Indices of the candidates the float hamiltonian has to decide.

    screen holds the array H of one draw's candidates, in order, and
    best_H the lowest float H of that draw so far.  The candidates left out
    are settled: their screened H less its rounding slack _SCREEN_MARGIN
    (1 + |H|) exceeds the threshold, best_H and the lowest H + slack of the
    screen, so they are rejected and some candidate decided here, or the
    one behind best_H, is lower in the float hamiltonian.  A nan or
    infinite screen (a singular candidate) settles nothing.
    """
    H = np.where(np.isfinite(screen), screen, np.nan)
    lowest = np.fmin.reduce(H, initial=math.inf)
    low = max(threshold, min(best_H,
                             lowest + _SCREEN_MARGIN * (1.0 + abs(lowest))))
    # H - slack grows with H, so H - slack > low is H above one cut
    low += _SCREEN_MARGIN
    cut = low / (1.0 + math.copysign(_SCREEN_MARGIN, -low))
    return np.flatnonzero(~(H > cut))


def random_bounded_states(spec: SystemSpec, rng: np.random.Generator,
                          n: int) -> list[PhaseState]:
    """n random interior phase points, bounded whenever the system admits it.

    kappa > 0: every non-singular state is bounded; accept H below
    0.65 (1 + |g|).  kappa = 0: rejection sample for H < 0.  kappa < 0: the
    escape energy is -g'*sqrt(-kappa), g' = spec.coupling.  A draw that
    accepts none of its _MAX_TRIES (2000) candidates, at any kappa (an
    angular barrier too stiff for the threshold, the free geodesic at
    kappa <= 0), falls back to its lowest-energy candidate with inward
    radial momentum.

    The states, PhaseStates of floats, and the state rng is left in are
    those of n successive draws of a loop that tries up to _MAX_TRIES
    candidates one at a time (one rng.random(4) and one rng.integers(2)
    each) and decides each with the float hamiltonian.  All n draws walk
    one candidate stream, drawn in chunks of n, 4n, 16n and then at most
    _MAX_CHUNK, never more than the draws left can use, so that a grid
    whose draws accept nothing takes few chunks.  Each chunk comes from one
    bit_generator.random_raw call (see _draw), which needs a PCG64
    (default_rng's), PCG64DXSM, Philox or SFC64 bit generator: TypeError
    for another, such as MT19937, and for an n that is no integer,
    ValueError for n < 0, all before rng is used.  Each chunk is screened
    with one array call of hamiltonian (never for GENERIC_F).  The screen
    is never trusted with a decision: it only skips candidates it shows,
    beyond rounding, to be rejected and not the lowest either: above the
    lowest float H of the draw so far and the lowest screened H of the
    draw's stretch of the chunk (see _undecided), so that a draw that
    accepts nothing costs about one float call per chunk; the float
    hamiltonian decides the rest, in order.
    When the last draw ends before the end of its chunk, rng is rewound to
    the start of the chunk and the candidates up to it are drawn again.
    SamplingError (a RuntimeError) when every candidate of a draw is
    singular; rng is then left after that draw's last candidate.
    """
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"the number of draws must be an integer, not "
                        f"{type(n).__name__} {n!r}")
    if n < 0:
        raise ValueError(f"the number of draws must be >= 0, not {n}")
    max_tries = _MAX_TRIES
    if spec.kappa > 0:
        # every interior state is bounded; keep the energy moderate so
        # the orbit is representative rather than a near-pole slingshot
        threshold = 0.65 * (1.0 + abs(spec.g))
    else:
        # the free geodesic's escape energy is 0: its H = T >= 0 never
        # falls below -0.02, so its draws at kappa <= 0 are the fallback
        threshold = _escape_energy(spec) - 0.02
    states = []
    # the draw under way: its lowest-energy candidate, and its tries so far
    best, best_H, tries = None, math.inf, 0
    chunks = itertools.chain((n, 4 * n, 16 * n),
                             itertools.repeat(_MAX_CHUNK))
    # tries reaches max_tries only in a draw that finds no candidate
    while len(states) < n and tries < max_tries:
        size = min(next(chunks),
                   max_tries - tries + (n - 1 - len(states)) * max_tries)
        rewind = rng.bit_generator.state
        batch = _candidates(spec, *_draw(rng, size, rewind))
        # a generic profile is never screened: the screen would call the
        # user's callables on candidates the per-try loop never reaches.
        # Its nan and inf, where a candidate overflows, settle nothing
        # (_undecided): numpy's warnings about them are not the caller's.
        screen = None
        if spec.kind is not SystemKind.GENERIC_F:
            with np.errstate(all="ignore"):
                screen = hamiltonian(batch, spec)
        start = 0               # the draw under way's first candidate here
        while start < size and len(states) < n:
            stop = min(size, start + max_tries - tries)
            undecided = (range(start, stop) if screen is None else
                         start + _undecided(screen[start:stop], threshold,
                                            best_H))
            for j in undecided:
                state = PhaseState(float(batch.r[j]), float(batch.phi[j]),
                                   float(batch.p_r[j]),
                                   float(batch.p_phi[j]))
                try:
                    H = hamiltonian(state, spec)
                except CurvintError:
                    continue
                if H < threshold:
                    start = j + 1
                    break
                if H < best_H:
                    best, best_H = state, H
            else:
                tries += stop - start
                start = stop
                if tries < max_tries:
                    continue
                if best is None:
                    break
                # no bounded orbit exists under this angular barrier; take
                # the lowest-energy candidate, biased inward so the run
                # stays moderate
                state = PhaseState(best.r, best.phi, -abs(best.p_r),
                                   best.p_phi)
            states.append(state)
            best, best_H, tries = None, math.inf, 0
        if start < size:
            # the grid ended inside the chunk: rng goes back to its start
            # and draws the candidates up to the end again
            rng.bit_generator.state = rewind
            _draw(rng, start, rewind)
    if len(states) < n:
        raise SamplingError(f"could not sample an interior state in "
                            f"{max_tries} tries")
    return states


def random_bounded_state(spec: SystemSpec,
                         rng: np.random.Generator) -> PhaseState:
    """random_bounded_states(spec, rng, 1)[0]: one draw, whose candidates
    come in chunks of 1, 4, 16 and then the 1979 tries left, at most
    _MAX_CHUNK at a time."""
    return random_bounded_states(spec, rng, 1)[0]


# --- the verification suite ---

class CheckResult(NamedTuple):
    check: str          # drift, bracket, rotation, moduli or limit
    name: str
    value: float
    threshold: float
    passed: bool


def run_suite(traj: Trajectory, rng: np.random.Generator,
              negative_control: bool = False) -> list[CheckResult]:
    """Every check of `curvint verify` on traj, in report order.

    Drift of each evaluators_for(traj.spec) entry along traj; FD brackets
    with H of J2 and J3, J4 (PW, VC) or p_phi (central kinds only) on a
    grid of random_bounded_states(spec, rng, 20); for PW and VC, the
    rotation laws along traj, the moduli identities of M_r and N_phi on
    the same grid and the Euclidean limit at traj's start (a row passes
    when the O(kappa) envelope holds and the value is within its
    threshold).  Brackets and moduli are array evaluations over the grid,
    and a non-finite value fails its row; the bracket rows share one
    stencil of the grid and H's gradient on it, and J3 and J4 one
    evaluation of K, with bracket_with_scale's bits.  negative_control
    adds J2 + t to the drifts and J2 + r to the brackets, both of which
    must fail.
    Raises SamplingError or SpanError when the grid or traj's span leaves
    a check nothing to work on, and the float path's CurvintError at a
    singular state.
    """
    spec = traj.spec
    rows = []

    drifts = {name: lambda s, t, fn=fn: fn(s)
              for name, fn in evaluators_for(spec).items()}
    if negative_control:
        drifts["J2_plus_t"] = lambda s, t: j2(s, spec) + t
    for name, fn in drifts.items():
        rep = drift(traj, name, fn, 1e-8)
        rows.append(CheckResult("drift", name, rep.rel_drift, rep.tolerance,
                                rep.passed))

    grid = PhaseState(*np.array([s.as_tuple() for s in
                                 random_bounded_states(spec, rng, 20)]).T)

    # the gradients in the order of a stencil per row (the first row's
    # function, then H, then each later one), so that the first
    # StencilError is the same; J3 and J4 share one evaluation of K
    stencil, gradient = _stencil_gradient(grid, _STENCIL_H)
    gradients = {"J2~H": gradient(lambda s: j2(s, spec))}
    dH = gradient(lambda s: hamiltonian(s, spec))
    if spec.kind in (SystemKind.PW, SystemKind.VC):
        K = lambda s: k_constant(s, spec)
        k = K(stencil)
        gradients["J3~H"] = gradient(lambda s: K(s).real, k.real)
        gradients["J4~H"] = gradient(lambda s: K(s).imag, k.imag)
    elif not spec.has_angular_term:
        gradients["p_phi~H"] = gradient(lambda s: s.p_phi)
    if negative_control:
        gradients["J2+r~H"] = gradient(lambda s: j2(s, spec) + s.r)
    for name, df in gradients.items():
        value, scale = _bracket(df, dH)
        # np.max propagates nan, and nan <= 1e-6 is false
        worst = float(np.max(abs(value) / (1.0 + scale)))
        rows.append(CheckResult("bracket", name, worst, 1e-6, worst <= 1e-6))

    if spec.kind not in (SystemKind.PW, SystemKind.VC):
        return rows

    rot = rotation_check(traj, spec)
    rows.append(CheckResult("rotation", "M_r", rot.max_rel_err_m,
                            rot.tolerance, rot.passed_m))
    rows.append(CheckResult("rotation", "N_phi", rot.max_rel_err_n,
                            rot.tolerance, rot.passed_n))

    J2 = j2(grid, spec)
    moduli = {
        "|M_r|^2": (abs(m_r(grid, spec)) ** 2,
                    (2.0 * hamiltonian(grid, spec) - spec.kappa * J2) * J2
                    + spec.g ** 2),
        "|N_phi|^2": (abs(n_phi(grid, spec)) ** 2,
                      J2 * J2 - 2.0 * spec.k_a * J2 + spec.k_b ** 2),
    }
    for name, (lhs, rhs) in moduli.items():
        # np.max propagates nan, and nan <= 1e-10 is false
        worst = float(np.max(abs(lhs - rhs) / (1.0 + abs(rhs))))
        rows.append(CheckResult("moduli", name, worst, 1e-10,
                                worst <= 1e-10))

    for lim in euclidean_limit_scan(spec, traj.state(0)):
        rows.append(CheckResult("limit", lim.name, lim.value, lim.threshold,
                                lim.passed))
    return rows
