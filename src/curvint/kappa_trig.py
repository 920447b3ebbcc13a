"""Curvature-tagged trigonometry.

One real parameter kappa selects the geometry: kappa > 0 sphere,
kappa = 0 Euclidean plane, kappa < 0 hyperbolic plane.  The functions

    cos_k(kappa, x) = cos(sqrt(kappa) x) | 1 | cosh(sqrt(-kappa) x)
    sin_k(kappa, x) = sin(sqrt(kappa) x)/sqrt(kappa) | x | sinh(sqrt(-kappa) x)/sqrt(-kappa)

interpolate smoothly through kappa = 0, so every formula built on them is
valid for all three geometries at once.

`sin_cos_k_for(kappa, array, off_pole)` is their one implementation; a
SystemSpec builds its closures once, and sin_k, cos_k, tan_k and cot_k per
call, with array set by the type of x.  A float x is evaluated with `math`:
DomainError where kappa or x is not finite or sinh/cosh overflow,
PoleError at a pole.  An array x is evaluated by numpy in the same
formulas, with nan where a float raises PoleError (last ulps may differ).
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


def sin_cos_k_for(kappa: float, array: bool = False, off_pole: bool = False):
    """The function x -> (sin_k(kappa, x), cos_k(kappa, x)) of a float x,
    or with array of an array x, with kappa's branch chosen once.  Below
    _SERIES_CUTOFF, as everywhere at kappa = 0, both take the series.
    With off_pole, PoleError (nan in an array) where |sin_k| < _POLE_EPS."""
    if not math.isfinite(kappa):
        raise DomainError(f"non-finite input: kappa={kappa}")
    xp = np if array else math
    if kappa > 0.0:
        s, trig_sin, trig_cos = math.sqrt(kappa), xp.sin, xp.cos
    else:
        s, trig_sin, trig_cos = math.sqrt(-kappa), xp.sinh, xp.cosh

    isfinite = math.isfinite
    if array:
        def sin_cos(x):
            u = kappa * x * x
            if kappa == 0.0:
                return x * (1.0 - u / 6.0), 1.0 - 0.5 * u
            sx = s * x
            sin_x, cos_x = trig_sin(sx) / s, trig_cos(sx)
            series = abs(u) < _SERIES_CUTOFF
            if series.any():    # the series only where it is taken
                sin_x = np.where(series, x * (1.0 - u / 6.0), sin_x)
                cos_x = np.where(series, 1.0 - 0.5 * u, cos_x)
            return sin_x, cos_x
    elif kappa == 0.0:              # the series at u = 0, bit for bit
        def sin_cos(x):
            if not isfinite(x):
                raise DomainError(f"non-finite input: kappa={kappa}, x={x}")
            return x * 1.0, 1.0
    else:
        def sin_cos(x):
            u = kappa * x * x
            if abs(u) < _SERIES_CUTOFF:
                return x * (1.0 - u / 6.0), 1.0 - 0.5 * u
            if not isfinite(x):
                raise DomainError(f"non-finite input: kappa={kappa}, x={x}")
            sx = s * x
            try:
                return trig_sin(sx) / s, trig_cos(sx)
            except (OverflowError, ValueError):  # sinh, cosh or s x overflow
                raise DomainError(
                    f"overflow at kappa={kappa}, x={x}") from None
    if not off_pole:
        return sin_cos

    def sin_cos_off_pole(x):
        S, C = sin_cos(x)
        if array:
            pole = abs(S) < _POLE_EPS
            return (np.where(pole, np.nan, S) if pole.any() else S), C
        if abs(S) < _POLE_EPS:
            raise PoleError(f"pole: sin_k({kappa}, {x}) = {S}")
        return S, C
    return sin_cos_off_pole


def sin_k(kappa: float, x):
    """Curvature sine; odd in x, carries units of length."""
    return sin_cos_k_for(kappa, isinstance(x, _ndarray))(x)[0]


def cos_k(kappa: float, x):
    """Curvature cosine; even in x, dimensionless."""
    return sin_cos_k_for(kappa, isinstance(x, _ndarray))(x)[1]


def tan_k(kappa: float, x):
    """sin_k / cos_k.  PoleError (nan for an array) where cos_k vanishes."""
    S, C = sin_cos_k_for(kappa, isinstance(x, _ndarray))(x)
    if isinstance(x, _ndarray):
        return S / np.where(abs(C) < _POLE_EPS, np.nan, C)
    if abs(C) < _POLE_EPS:
        raise PoleError(f"pole: cos_k({kappa}, {x}) = {C}")
    return S / C


def cot_k(kappa: float, x):
    """cos_k / sin_k.  Pole only where sin_k vanishes (nan for an array).

    Preferred over 1/tan_k inside potentials: the cos_k zero (equator of
    the sphere) is a regular point of every formula written with 1/Tan.
    """
    S, C = sin_cos_k_for(kappa, isinstance(x, _ndarray), off_pole=True)(x)
    return C / S


def r_domain(kappa: float) -> tuple[float, float]:
    """Admissible radial interval [0, r_max).

    Half-open at the antipode pi/sqrt(kappa) for kappa > 0: the metric
    factor sin_k(r) vanishes there and every 1/Sin^2 potential diverges.
    """
    if kappa > 0.0:
        return (0.0, math.pi / math.sqrt(kappa))
    return (0.0, math.inf)
