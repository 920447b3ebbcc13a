"""Curvature-tagged trigonometry.

One real parameter kappa selects the geometry: kappa > 0 sphere,
kappa = 0 Euclidean plane, kappa < 0 hyperbolic plane.  The functions

    cos_k(kappa, x) = cos(sqrt(kappa) x) | 1 | cosh(sqrt(-kappa) x)
    sin_k(kappa, x) = sin(sqrt(kappa) x)/sqrt(kappa) | x | sinh(sqrt(-kappa) x)/sqrt(-kappa)

interpolate smoothly through kappa = 0, so every formula built on them is
valid for all three geometries at once.

kappa is a float, and a non-finite one raises DomainError.  x is a float
or a numpy array.  A float x is evaluated with `math`, must be finite
(DomainError otherwise) and raises PoleError at a pole.  An array x is
evaluated elementwise with numpy in the same formulas and gives nan where
the float path would raise PoleError; its non-finite elements propagate
as IEEE arithmetic does.  numpy's sin/cos may differ from math's in the
last ulp.
"""

import math

import numpy as np

from .errors import DomainError, PoleError

# Below this value of |kappa| * x^2 the closed forms lose digits to
# cancellation (and divide 0/0 at kappa = 0); a two-term Taylor series is
# accurate to ~1e-16 relative there.
_SERIES_CUTOFF = 1e-8

# |cos_k| below this counts as a pole of tan_k.
_POLE_EPS = 1e-12

_ndarray = np.ndarray   # bound once: the float path tests it on every call


def _elementary(kappa: float, x):
    """The module that evaluates x: numpy for an array, else math.

    Raises DomainError for a non-finite kappa or a non-finite float x.
    """
    if isinstance(x, _ndarray):
        if not math.isfinite(kappa):
            raise DomainError(f"non-finite input: kappa={kappa}")
        return np
    if not (math.isfinite(kappa) and math.isfinite(x)):
        raise DomainError(f"non-finite input: kappa={kappa}, x={x}")
    return math


def cos_k(kappa: float, x):
    """Curvature cosine; even in x, dimensionless."""
    xp = _elementary(kappa, x)
    u = kappa * x * x
    series = 1.0 - 0.5 * u
    if xp is math and abs(u) < _SERIES_CUTOFF:
        return series
    if kappa > 0.0:
        closed = xp.cos(math.sqrt(kappa) * x)
    elif kappa < 0.0:
        closed = xp.cosh(math.sqrt(-kappa) * x)
    else:               # an array at kappa = 0: u vanishes everywhere
        return series
    if xp is math:
        return closed
    return np.where(abs(u) < _SERIES_CUTOFF, series, closed)


def sin_k(kappa: float, x):
    """Curvature sine; odd in x, carries units of length."""
    xp = _elementary(kappa, x)
    u = kappa * x * x
    series = x * (1.0 - u / 6.0)
    if xp is math and abs(u) < _SERIES_CUTOFF:
        return series
    if kappa > 0.0:
        s = math.sqrt(kappa)
        closed = xp.sin(s * x) / s
    elif kappa < 0.0:
        s = math.sqrt(-kappa)
        closed = xp.sinh(s * x) / s
    else:               # an array at kappa = 0: u vanishes everywhere
        return series
    if xp is math:
        return closed
    return np.where(abs(u) < _SERIES_CUTOFF, series, closed)


def _off_pole(v, what: str, kappa: float, x):
    """v; PoleError (nan in an array) where |v| < _POLE_EPS."""
    if isinstance(v, _ndarray):
        return np.where(abs(v) < _POLE_EPS, np.nan, v)
    if abs(v) < _POLE_EPS:
        raise PoleError(f"pole: {what}({kappa}, {x}) = {v}")
    return v


def tan_k(kappa: float, x):
    """sin_k / cos_k.  PoleError (nan for an array) where cos_k vanishes."""
    return sin_k(kappa, x) / _off_pole(cos_k(kappa, x), "cos_k", kappa, x)


def sin_k_off_pole(kappa: float, x):
    """sin_k, with PoleError (nan for an array) where it vanishes: the
    divisor of every 1/Sin_k factor (r = 0, the antipode of the sphere)."""
    return _off_pole(sin_k(kappa, x), "sin_k", kappa, x)


def cot_k(kappa: float, x):
    """cos_k / sin_k.  Pole only where sin_k vanishes (nan for an array).

    Preferred over 1/tan_k inside potentials: the cos_k zero (equator of
    the sphere) is a regular point of every formula written with 1/Tan.
    """
    return cos_k(kappa, x) / sin_k_off_pole(kappa, x)


def r_domain(kappa: float) -> tuple[float, float]:
    """Admissible radial interval [0, r_max).

    Half-open at the antipode pi/sqrt(kappa) for kappa > 0: the metric
    factor sin_k(r) vanishes there and every 1/Sin^2 potential diverges.
    """
    if kappa > 0.0:
        return (0.0, math.pi / math.sqrt(kappa))
    return (0.0, math.inf)
