"""Independent numerical verification machinery.

Everything here cross-checks the analytic layer without reusing it:
finite-difference Poisson brackets (no analytic derivatives), drift of
invariants along integrated trajectories, phase-rotation laws of the
complex factors, Euclidean-limit scans, and phase-space recurrence
(closed-orbit) detection.  `run_suite` runs the suite of `curvint verify`
on one trajectory and returns one CheckResult per check.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import CurvintError, SamplingError, SpanError, StencilError
from .invariants import evaluators_for, j2, k_constant, lambda_k, m_r, n_phi
from .systems import PhaseState, SystemKind, SystemSpec, hamiltonian
from .dynamics import Trajectory

PhaseFunction = Callable[[PhaseState], float]


# --- finite-difference Poisson brackets ---

def _partials(f: PhaseFunction, state: PhaseState, h: float):
    """Central-difference gradient of f w.r.t. (r, phi, p_r, p_phi).

    Step scaled by coordinate magnitude so large coordinates keep relative
    resolution.
    """
    y = list(state.as_tuple())
    grad = []
    for i in range(4):
        hi = h * (1.0 + abs(y[i]))
        yp = y.copy()
        ym = y.copy()
        yp[i] += hi
        ym[i] -= hi
        try:
            fp = f(PhaseState.from_tuple(yp))
            fm = f(PhaseState.from_tuple(ym))
        except CurvintError as exc:
            raise StencilError(f"pole inside stencil at coord {i}: {exc}")
        grad.append((fp - fm) / (2.0 * hi))
    return grad


def poisson_bracket_fd(f: PhaseFunction, g: PhaseFunction,
                       state: PhaseState, h: float = 1e-5) -> float:
    """O(h^2) estimate of {f, g} at one phase point."""
    return bracket_with_scale(f, g, state, h)[0]


def bracket_with_scale(f: PhaseFunction, g: PhaseFunction,
                       state: PhaseState, h: float = 1e-5) -> tuple[float, float]:
    """({f, g}, cancellation scale).

    The scale is the sum of absolute values of the four products; a bracket
    that vanishes only through cancellation is judged against it.
    """
    fr, fphi, fpr, fpphi = _partials(f, state, h)
    gr, gphi, gpr, gpphi = _partials(g, state, h)
    terms = (fr * gpr, -fpr * gr, fphi * gpphi, -fpphi * gphi)
    return (sum(terms), sum(abs(t) for t in terms))


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
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        fn(traj.state(bad[0]), float(traj.times[bad[0]]))
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


def rotation_check(traj: Trajectory, spec: SystemSpec,
                   n_samples: int = 200, dt: float = 2e-4,
                   tolerance: float = 1e-5,
                   flip_sign: bool = False) -> RotationReport:
    """Check dM_r/dt = i*lambda*M_r and dN_phi/dt = i*m*lambda*N_phi.

    Time derivatives come from central differences over dense output, so
    the check is independent of the analytic equations of motion.
    flip_sign injects a wrong-sign lambda (negative control).  The samples
    are evaluated as arrays, with drift's rule at a non-finite error.
    SpanError when the trajectory has fewer than 3 steps or spans 2 dt or
    less.
    """
    if traj.dense is None or len(traj) < 3:
        raise SpanError(f"trajectory of {len(traj)} steps too sparse for "
                        f"the rotation check (needs 3)")
    t0 = float(traj.times[0]) + dt
    t1 = float(traj.times[-1]) - dt
    if t1 <= t0:
        raise SpanError(f"trajectory span {t1 - t0 + 2.0 * dt:g} too short "
                        f"for the rotation check (needs > {2.0 * dt:g})")
    mf = spec.m_num / spec.m_den
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

    ts = np.linspace(t0, t1, n_samples)
    err_m, err_n = errors(ts)
    bad = np.flatnonzero(~np.isfinite(err_m + err_n))
    if bad.size:
        errors(float(ts[bad[0]]))
    err_m, err_n = float(np.max(err_m)), float(np.max(err_n))
    return RotationReport(max_rel_err_m=err_m, max_rel_err_n=err_n,
                          tolerance=tolerance,
                          passed=err_m < tolerance and err_n < tolerance)


# --- closed-orbit detection ---

def _phase_distance(y, y0):
    """Distance from y0 with phi taken modulo 2*pi.

    y is one phase point, shape (4,), or a column per point, shape (4, n).
    """
    dphi = (y[1] - y0[1] + math.pi) % (2.0 * math.pi) - math.pi
    return np.sqrt((y[0] - y0[0]) ** 2 + dphi ** 2
                   + (y[2] - y0[2]) ** 2 + (y[3] - y0[3]) ** 2)


def closure_detect(traj: Trajectory, tol: float = 1e-6,
                   coarse_points: int = 20000) -> Optional[float]:
    """Smallest T > 0 with the phase point back within tol of its start.

    phi is compared modulo 2*pi.  Returns None for unbounded motion or when
    no recurrence occurs within the trajectory span.
    """
    r = traj.states[:, 0]
    # unbounded: radius still growing at the end of the span
    if traj.spec.kappa <= 0 and r[-1] > 3.0 * np.median(r):
        return None
    y0 = traj.states[0]
    t0 = float(traj.times[0])
    t1 = float(traj.times[-1])
    ts = np.linspace(t0, t1, coarse_points)
    dists = _phase_distance(traj.dense(ts), y0)
    coarse_step = (t1 - t0) / (coarse_points - 1)
    # leave the immediate neighbourhood of t0 before hunting for minima
    typical = np.percentile(dists, 75)
    start = 1
    while start < len(ts) and dists[start] < 0.25 * typical:
        start += 1
    for i in range(max(start, 1), len(ts) - 1):
        if dists[i] <= dists[i - 1] and dists[i] <= dists[i + 1] \
                and dists[i] < 0.25 * typical:
            res = minimize_scalar(
                lambda t: _phase_distance(traj.dense(t), y0),
                bounds=(ts[i] - coarse_step, ts[i] + coarse_step),
                method="bounded",
                options={"xatol": 1e-12})
            if res.fun < tol:
                return float(res.x) - t0
    return None


# --- Euclidean limit ---

@dataclass(frozen=True)
class LimitScanReport:
    name: str
    flat_value: float
    deviations: tuple            # ((kappa, |f(kappa) - f(0)|), ...)
    passed: bool


def euclidean_limit_scan(make_spec: Callable[[float], SystemSpec],
                         state: PhaseState,
                         k_range=range(4, 13)) -> list[LimitScanReport]:
    """Check O(kappa) convergence of H, M_r, N_phi, lambda to flat values.

    make_spec(kappa) builds the system at a given curvature; the scan
    evaluates at kappa = +-10^-k and compares with kappa = 0.
    """
    quantities = {
        "H": lambda s, sp: hamiltonian(s, sp),
        "M_r": m_r,
        "N_phi": n_phi,
        "lambda": lambda_k,
    }
    flat = make_spec(0.0)
    reports = []
    for name, fn in quantities.items():
        f0 = fn(state, flat)
        devs = []
        ok = True
        scale = 1.0 + abs(f0)
        for k in k_range:
            for sign in (+1.0, -1.0):
                kap = sign * 10.0 ** (-k)
                dev = abs(fn(state, make_spec(kap)) - f0)
                devs.append((kap, dev))
                # linear-in-kappa envelope with a generous constant
                if dev > 100.0 * abs(kap) * scale + 1e-13:
                    ok = False
        reports.append(LimitScanReport(
            name=name,
            flat_value=abs(f0) if isinstance(f0, complex) else f0,
            deviations=tuple(devs), passed=ok))
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
        escape = 0.0 if kap == 0 else -spec.g * math.sqrt(-kap)
        threshold = escape - 0.02
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
    with H over 20 random_bounded_state(spec, rng) draws; for PW and VC,
    the rotation laws along traj, the moduli identities of M_r and N_phi
    on the 20 states (one array evaluation; a non-finite value fails) and
    the Euclidean limit at traj's start.  negative_control adds J2 + t to
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

    states = [random_bounded_state(spec, rng) for _ in range(20)]

    H = lambda s: hamiltonian(s, spec)
    named = {"J2~H": lambda s: j2(s, spec)}
    if spec.has_angular_term and spec.kind is not SystemKind.GENERIC_F:
        named["J3~H"] = lambda s: k_constant(s, spec).real
        named["J4~H"] = lambda s: k_constant(s, spec).imag
    else:
        named["p_phi~H"] = lambda s: s.p_phi
    if negative_control:
        named["J2+r~H"] = lambda s: j2(s, spec) + s.r
    for name, fn in named.items():
        worst = 0.0
        for s in states:
            value, scale = bracket_with_scale(fn, H, s)
            worst = max(worst, abs(value) / (1.0 + scale))
        rows.append(CheckResult("bracket", name, worst, 1e-6, worst <= 1e-6))

    if spec.kind not in (SystemKind.PW, SystemKind.VC):
        return rows

    rot = rotation_check(traj, spec)
    rows.append(CheckResult("rotation", "M_r", rot.max_rel_err_m,
                            rot.tolerance, rot.max_rel_err_m < rot.tolerance))
    rows.append(CheckResult("rotation", "N_phi", rot.max_rel_err_n,
                            rot.tolerance, rot.max_rel_err_n < rot.tolerance))

    grid = PhaseState(*np.array([s.as_tuple() for s in states]).T)
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

    for lim in euclidean_limit_scan(lambda kap: replace(spec, kappa=kap),
                                    traj.state(0)):
        dev8 = max((d for kap, d in lim.deviations if abs(kap) < 5e-8),
                   default=0.0)
        rows.append(CheckResult("limit", lim.name, dev8,
                                1e-7 * (1.0 + abs(lim.flat_value)),
                                lim.passed))
    return rows
