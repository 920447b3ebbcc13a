"""Independent numerical verification machinery.

Everything here cross-checks the analytic layer without reusing it:
finite-difference Poisson brackets (no analytic derivatives), drift of
invariants along integrated trajectories, phase-rotation laws of the
complex factors, Euclidean-limit scans, and closed-orbit detection (the
factors propose a period, the trajectory's return decides).  `run_suite`
runs the suite of `curvint verify` on one trajectory, one CheckResult a row.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CurvintError, SamplingError, SpanError, StencilError
from .invariants import evaluators_for, j2, k_constant, lambda_k, m_r, n_phi
from .systems import PhaseState, SystemKind, SystemSpec, hamiltonian
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

def bracket_with_scale(f: PhaseFunction, g: PhaseFunction,
                       state: PhaseState, h: float = 1e-5):
    """O(h^2) estimate of ({f, g}, cancellation scale) at a point or a grid.

    state holds floats (plain floats come back) or arrays of one shape.  f
    and g are each called once, on the central stencils of every point
    (step h*(1 + |y_i|)) as one PhaseState of shape (8, ...), and again as
    floats at their first non-finite value: StencilError if that raises, a
    nan bracket if it does not.  The scale is the sum of absolute values of
    the four products; a bracket that vanishes only through cancellation
    is judged against it.
    """
    y = np.array(state.as_tuple(), dtype=float)
    step = h * (1.0 + np.abs(y))
    points = np.repeat(y[:, np.newaxis], 8, axis=1)
    i = np.arange(4)
    points[i, i] += step            # + step along coordinate i
    points[i, i + 4] -= step        # - step along coordinate i

    def gradient(fn):
        values = fn(PhaseState(*points))
        try:
            _float_recheck(values, lambda i: fn(
                PhaseState.from_tuple(points.reshape(4, -1)[:, i])))
        except CurvintError as exc:
            raise StencilError(f"pole inside stencil: {exc}") from exc
        return (values[:4] - values[4:]) / (2.0 * step)

    df, dg = gradient(f), gradient(g)
    # terms dq f dp g and -dp f dq g, for q = r, phi
    plus, minus = df[:2] * dg[2:], df[2:] * dg[:2]
    value = (plus[0] - minus[0]) + (plus[1] - minus[1])
    scale = (abs(plus[0]) + abs(minus[0])) + (abs(plus[1]) + abs(minus[1]))
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
    passed: bool


_ROTATION_TOL = 1e-5


def rotation_check(traj: Trajectory, spec: SystemSpec,
                   flip_sign: bool = False) -> RotationReport:
    """Check dM_r/dt = i*lambda*M_r and dN_phi/dt = i*m*lambda*N_phi.

    Time derivatives come from central differences over dense output, so
    the check is independent of the analytic equations of motion; their
    step dt = min(2e-4, 1e-3 / max(1, m) max lambda) turns either factor
    by at most 1e-3 rad (O(dt^2) truncation near 2e-7).  Each factor's
    largest relative error over 200 evenly spaced sample times must stay
    below 1e-5.  flip_sign injects a wrong-sign lambda (negative control).
    The samples are evaluated as arrays, with drift's rule at a non-finite
    error.  SpanError when the
    trajectory has fewer than 3 steps or spans 2 dt or less.
    """
    if len(traj) < 3:
        raise SpanError(f"trajectory of {len(traj)} steps too sparse for "
                        f"the rotation check (needs 3)")
    mf = spec.m_num / spec.m_den
    lam = lambda_k(PhaseState(*traj.states.T), spec)
    # a nan lambda (J2 <= 0) leaves dt at 2e-4; the samples then raise
    dt = min(2e-4, 1e-3 / (max(1.0, mf) * float(np.max(lam))))
    t0 = float(traj.times[0]) + dt
    t1 = float(traj.times[-1]) - dt
    if t1 <= t0:
        raise SpanError(f"trajectory span {t1 - t0 + 2.0 * dt:g} too short "
                        f"for the rotation check (needs > {2.0 * dt:g})")
    sgn = -1.0 if flip_sign else 1.0

    def errors(t):
        sm, sc, sp = (PhaseState(*traj.dense(t + h)) for h in (-dt, 0.0, dt))
        lam = sgn * lambda_k(sc, spec)
        M = m_r(sc, spec)
        N = n_phi(sc, spec)
        dM = (m_r(sp, spec) - m_r(sm, spec)) / (2.0 * dt)
        dN = (n_phi(sp, spec) - n_phi(sm, spec)) / (2.0 * dt)
        return (abs(dM - 1j * lam * M) / np.maximum(1.0, abs(lam) * abs(M)),
                abs(dN - 1j * mf * lam * N)
                / np.maximum(1.0, mf * abs(lam) * abs(N)))

    ts = np.linspace(t0, t1, 200)
    err_m, err_n = errors(ts)
    _float_recheck(err_m + err_n, lambda i: errors(float(ts[i])))
    err_m, err_n = float(np.max(err_m)), float(np.max(err_n))
    return RotationReport(max_rel_err_m=err_m, max_rel_err_n=err_n,
                          tolerance=_ROTATION_TOL,
                          passed=err_m < _ROTATION_TOL
                          and err_n < _ROTATION_TOL)


# --- closed-orbit detection ---

def _escape_energy(spec: SystemSpec) -> float:
    """Escape energy: +inf at kappa > 0, else U(r -> inf) = -g sqrt(-kappa)."""
    return math.inf if spec.kappa > 0 else -spec.g * math.sqrt(-spec.kappa)


def closure_detect(traj: Trajectory, tol: float = 1e-6) -> Optional[float]:
    """Smallest period T the complex factorization proposes after which
    traj is back within tol of its start in phase space (phi mod 2*pi).

    With m = p/q, M_r turns at rate lambda and N_phi at m*lambda, so a
    bounded orbit closes when arg M_r has turned 2*pi*q and arg N_phi
    2*pi*p.  Each step's phase change is unwrapped to the value nearest
    rate * (trapezoid mean of lambda) * step (np.unwrap fails on steps over
    half a turn), and Newton's method on traj.dense refines the crossing.
    A factor 0 at the start (M_r on a circular orbit) proposes nothing.
    None for GENERIC_F (no factorization), at or above the escape energy
    (the orbit need not return), or when no proposal in the span returns
    within tol.
    """
    spec = traj.spec
    if (spec.kind is SystemKind.GENERIC_F
            or hamiltonian(traj.state(0), spec) >= _escape_energy(spec)):
        return None
    batch, t, h = PhaseState(*traj.states.T), traj.times, np.diff(traj.times)
    lam = lambda_k(batch, spec)
    periods = []
    for factor, rate, turns in ((m_r, 1.0, spec.m_den),
                                (n_phi, spec.m_num / spec.m_den, spec.m_num)):
        z = factor(batch, spec)
        step = np.angle(z[1:] * z[:-1].conj())
        nearest = rate * 0.5 * (lam[1:] + lam[:-1]) * h
        step += 2.0 * math.pi * np.round((nearest - step) / (2.0 * math.pi))
        excess = np.cumsum(step) - 2.0 * math.pi * turns
        crossed = np.flatnonzero(excess >= 0.0)     # nan never crosses
        if z[0] == 0 or not crossed.size:
            continue
        i = crossed[0]
        T = t[i + 1] - excess[i] / step[i] * h[i]
        for _ in range(8):      # Newton: d arg z / dt = rate * lambda
            s = PhaseState.from_tuple(traj.dense(T))
            T -= (np.angle(factor(s, spec) * z[0].conjugate())
                  / (rate * lambda_k(s, spec)))
        y = traj.dense(T) - traj.states[0]
        y[1] = (y[1] + math.pi) % (2.0 * math.pi) - math.pi   # phi mod 2 pi
        if math.hypot(*y) < tol:
            periods.append(float(T - t[0]))
    return min(periods, default=None)


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
    reports = []
    for name, fn in quantities.items():
        f0 = fn(state, flat)
        devs = tuple((kap, abs(fn(state, replace(spec, kappa=kap)) - f0))
                     for k in range(4, 13)
                     for kap in (10.0 ** -k, -(10.0 ** -k)))
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

# Candidates per chunk: 1, 4, 16, 64, ..., capped at the tries left.
_FIRST_CHUNK = 1
_CHUNK_GROWTH = 4
# One array call of hamiltonian costs about ten float calls, so chunks
# smaller than this are decided by the float hamiltonian alone.
_SCREEN_MIN = 16

# The array hamiltonian may differ from the float one in the last ulps
# (numpy's sin/cos against math's).  A screened energy within this margin,
# relative to 1 + |H|, of the acceptance threshold or of the running
# minimum is re-decided by the float hamiltonian.
_SCREEN_MARGIN = 1e-9


def _draw(rng: np.random.Generator, n: int):
    """The draws of n candidates: four rng.random() doubles and one
    rng.integers(2) each, in the order of the per-try loop."""
    u = np.empty((n, 4))
    flip = np.empty(n, dtype=np.intp)
    for i in range(n):
        rng.random(out=u[i])
        flip[i] = rng.integers(2)
    return u.T, flip


def _uniform(low: float, high: float, u):
    """rng.uniform(low, high) from u = rng.random(), to the last bit."""
    return low + (high - low) * u


def _candidates(spec: SystemSpec, u, flip) -> PhaseState:
    """The candidate states of _draw's draws, as one PhaseState of arrays."""
    kap = spec.kappa
    if kap > 0:
        r = _uniform(0.25, 0.75, u[0]) * (math.pi / math.sqrt(kap))
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


def _undecided(screen, threshold: float, best_H: Optional[float]):
    """Indices of the candidates the float hamiltonian has to decide.

    The others are rejected beyond rounding and, when best_H is given,
    lie above the running minimum beyond rounding too.  A nan or infinite
    screen (a singular candidate) settles nothing.
    """
    H = np.where(np.isfinite(screen), screen, np.nan)
    slack = _SCREEN_MARGIN * (1.0 + abs(H))
    settled = H >= threshold + slack
    if best_H is not None:
        prior = np.fmin.accumulate(np.concatenate(([best_H], H)))[:-1]
        settled &= H - prior > slack
    return np.flatnonzero(~settled)


def random_bounded_state(spec: SystemSpec, rng: np.random.Generator,
                         max_tries: int = 2000) -> PhaseState:
    """Random interior phase point, bounded whenever the system admits it.

    kappa > 0: every non-singular state is bounded.  kappa = 0: rejection
    sample for H < 0.  kappa < 0: the escape energy is -g*sqrt(-kappa);
    for angular profiles stiff enough that no orbit fits under it, fall
    back to low-energy states with inward radial momentum.

    The result, a PhaseState of floats, and the state rng is left in are
    those of a loop that draws up to max_tries candidates one at a time
    (one rng.random(4) and one rng.integers(2) each) and decides each with
    the float hamiltonian.  Candidates are drawn in chunks of growing size
    and a chunk of _SCREEN_MIN or more is screened with one array call of
    hamiltonian.  The screen is never trusted with a decision: it only
    skips candidates it shows, beyond rounding, to be rejected and not the
    lowest so far, and the float hamiltonian decides the rest, in order.
    When one is accepted before the end of its chunk, rng is rewound to the
    start of the chunk and the candidates up to it are drawn again.
    SamplingError (a RuntimeError) when no candidate qualifies.
    """
    kap = spec.kappa
    if kap > 0:
        # every interior state is bounded; keep the energy moderate so
        # the orbit is representative rather than a near-pole slingshot
        threshold = 0.65 * (1.0 + abs(spec.g))
    else:
        threshold = _escape_energy(spec) - 0.02
    best = None
    best_H = math.inf
    tries = 0
    chunk = _FIRST_CHUNK
    while tries < max_tries:
        n = min(chunk, max_tries - tries)
        rewind = rng.bit_generator.state
        batch = _candidates(spec, *_draw(rng, n))
        if n < _SCREEN_MIN or spec.kind is SystemKind.GENERIC_F:
            # a generic profile's callables need not accept arrays
            undecided = range(n)
        else:
            undecided = _undecided(hamiltonian(batch, spec), threshold,
                                   best_H if kap <= 0 else None)
        for j in undecided:
            state = PhaseState(float(batch.r[j]), float(batch.phi[j]),
                               float(batch.p_r[j]), float(batch.p_phi[j]))
            try:
                H = hamiltonian(state, spec)
            except CurvintError:
                continue
            if H < threshold:
                if j + 1 < n:
                    rng.bit_generator.state = rewind
                    _draw(rng, j + 1)
                return state
            if kap <= 0 and H < best_H:
                best, best_H = state, H
        tries += n
        chunk *= _CHUNK_GROWTH
    if best is None:
        raise SamplingError(f"could not sample an interior state in "
                            f"{max_tries} tries")
    # no bounded orbit exists under this angular barrier; return the
    # lowest-energy candidate, biased inward so the run stays moderate
    return PhaseState(best.r, best.phi, -abs(best.p_r), best.p_phi)


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
    grid of 20 random_bounded_state(spec, rng) draws; for PW and VC, the
    rotation laws along traj, the moduli identities of M_r and N_phi on
    the same grid and the Euclidean limit at traj's start (a row passes
    when the O(kappa) envelope holds and the value is within its
    threshold).  Brackets and moduli are array evaluations over the grid,
    and a non-finite value fails its row.  negative_control adds J2 + t to
    the drifts and J2 + r to the brackets, both of which must fail.
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

    grid = PhaseState(*np.array([random_bounded_state(spec, rng).as_tuple()
                                 for _ in range(20)]).T)

    H = lambda s: hamiltonian(s, spec)
    named = {"J2~H": lambda s: j2(s, spec)}
    if spec.kind in (SystemKind.PW, SystemKind.VC):
        named["J3~H"] = lambda s: k_constant(s, spec).real
        named["J4~H"] = lambda s: k_constant(s, spec).imag
    elif not spec.has_angular_term:
        named["p_phi~H"] = lambda s: s.p_phi
    if negative_control:
        named["J2+r~H"] = lambda s: j2(s, spec) + s.r
    for name, fn in named.items():
        value, scale = bracket_with_scale(fn, H, grid)
        # np.max propagates nan, and nan <= 1e-6 is false
        worst = float(np.max(abs(value) / (1.0 + scale)))
        rows.append(CheckResult("bracket", name, worst, 1e-6, worst <= 1e-6))

    if spec.kind not in (SystemKind.PW, SystemKind.VC):
        return rows

    rot = rotation_check(traj, spec)
    rows.append(CheckResult("rotation", "M_r", rot.max_rel_err_m,
                            rot.tolerance, rot.max_rel_err_m < rot.tolerance))
    rows.append(CheckResult("rotation", "N_phi", rot.max_rel_err_n,
                            rot.tolerance, rot.max_rel_err_n < rot.tolerance))

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
