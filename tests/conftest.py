import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from curvint import (AngularSingularityError, DomainError, PhaseState,
                     SystemKind, SystemSpec)


def run_python(code, timeout=30):
    """Run code in a child Python that imports curvint and this directory's
    conftest; subprocess.TimeoutExpired after timeout seconds, so that a
    call that never returns fails its test instead of stalling the suite."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


def pw_spec(kappa=0.0, m=Fraction(1), g=1.0, k_a=0.8, k_b=0.3):
    return SystemSpec(kind=SystemKind.PW, kappa=kappa, g=g,
                      k_a=k_a, k_b=k_b, m=Fraction(m))


def kepler_spec(kappa=0.0, g=1.0):
    return SystemSpec(kind=SystemKind.KEPLER, kappa=kappa, g=g)


def random_interior_states(spec, n, seed=0):
    """Interior phase points clear of both singular loci (not necessarily
    bounded); used for pointwise algebraic checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        if spec.kappa > 0:
            r = rng.uniform(0.2, 0.8) * math.pi / math.sqrt(spec.kappa)
        else:
            r = rng.uniform(0.3, 2.5)
        u = rng.uniform(0.15 * math.pi, 0.85 * math.pi)
        phi = u * spec.m_den / spec.m_num
        out.append(PhaseState(r, phi,
                              rng.uniform(-1.0, 1.0),
                              rng.uniform(0.1, 1.2) * rng.choice((-1, 1))))
    return out


def closure_mismatch(traj, T):
    """Phase-space distance from the start one period T later, phi taken
    modulo 2 pi."""
    y0 = traj.states[0]
    y = traj.dense(traj.times[0] + T)
    dphi = (y[1] - y0[1] + math.pi) % (2 * math.pi) - math.pi
    return math.sqrt((y[0] - y0[0]) ** 2 + dphi ** 2
                     + (y[2] - y0[2]) ** 2 + (y[3] - y0[3]) ** 2)


@pytest.fixture
def standard_pw_state():
    """The hand-checked reference point of the m = 1 flat system."""
    return PhaseState(1.0, math.pi / 2, 0.0, 1.0)


# --- kappa_trig's sin_k/cos_k and systems' angular_sin_cos as first
# written, one body per function with its own float/array branch: the
# oracles of the one-factory implementations.  Keep them frozen. ---

REFERENCE_SERIES_CUTOFF = 1e-8
REFERENCE_ANGULAR_EPS = 1e-12


def _reference_elementary(kappa, x):
    if isinstance(x, np.ndarray):
        if not math.isfinite(kappa):
            raise DomainError(f"non-finite input: kappa={kappa}")
        return np
    if not (math.isfinite(kappa) and math.isfinite(x)):
        raise DomainError(f"non-finite input: kappa={kappa}, x={x}")
    return math


def reference_cos_k(kappa, x):
    xp = _reference_elementary(kappa, x)
    u = kappa * x * x
    series = 1.0 - 0.5 * u
    if xp is math and abs(u) < REFERENCE_SERIES_CUTOFF:
        return series
    if kappa > 0.0:
        closed = xp.cos(math.sqrt(kappa) * x)
    elif kappa < 0.0:
        closed = xp.cosh(math.sqrt(-kappa) * x)
    else:
        return series
    if xp is math:
        return closed
    return np.where(abs(u) < REFERENCE_SERIES_CUTOFF, series, closed)


def reference_sin_k(kappa, x):
    xp = _reference_elementary(kappa, x)
    u = kappa * x * x
    series = x * (1.0 - u / 6.0)
    if xp is math and abs(u) < REFERENCE_SERIES_CUTOFF:
        return series
    if kappa > 0.0:
        s = math.sqrt(kappa)
        closed = xp.sin(s * x) / s
    elif kappa < 0.0:
        s = math.sqrt(-kappa)
        closed = xp.sinh(s * x) / s
    else:
        return series
    if xp is math:
        return closed
    return np.where(abs(u) < REFERENCE_SERIES_CUTOFF, series, closed)


def reference_angular_sin_cos(phi, m):
    u = (m.numerator * phi) / m.denominator
    xp = np if isinstance(u, np.ndarray) else math
    s = xp.sin(u)
    if xp is np:
        s = np.where(abs(s) < REFERENCE_ANGULAR_EPS, np.nan, s)
    elif abs(s) < REFERENCE_ANGULAR_EPS:
        raise AngularSingularityError(
            f"sin(m*phi) = {s} at phi = {phi}, m = {m}")
    return s, xp.cos(u)
