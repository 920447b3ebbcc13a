"""Potentials and Hamiltonians on the constant-curvature surfaces.

Five system kinds share one separable radial/angular shape:

    H = (p_r^2 + p_phi^2 / Sin_k(r)^2) / 2 - g / Tan_k(r) + F(phi) / Sin_k(r)^2

with F identically zero for free geodesics and the Kepler problem, the
deformed angular profile F_m for the noncentral Kepler-related family
(of which the m = 1 member is the classic two-center-like potential),
and a caller-supplied profile for the generic separable family.

The profile, potential and Hamiltonian take a PhaseState whose fields are
floats or numpy arrays of one shape (phi alone for the profiles).  Floats
are evaluated with `math` and raise PoleError / AngularSingularityError at
a singularity; arrays are evaluated elementwise with numpy in the same
formulas and give nan there instead (see kappa_trig).  A generic profile's
callables are mapped over an array phi element by element, so callables
written for floats serve array states too.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import AngularSingularityError, DomainError
from .kappa_trig import cos_k, sin_k_off_pole

# |sin(m phi)| below this counts as sitting on the angular singularity.
_ANGULAR_EPS = 1e-12

_ndarray = np.ndarray


class SystemKind(Enum):
    FREE_GEODESIC = "free"
    KEPLER = "kepler"
    VC = "vc"
    PW = "pw"
    GENERIC_F = "generic"


@dataclass(frozen=True)
class PhaseState:
    """Point of phase space in geodesic polar coordinates.

    The fields may also be numpy arrays of one shape: a batch of points,
    such as a whole trajectory, for the array path of the potential, the
    Hamiltonian and the invariants.
    """
    r: float
    phi: float
    p_r: float
    p_phi: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r, self.phi, self.p_r, self.p_phi)

    @staticmethod
    def from_tuple(y) -> "PhaseState":
        return PhaseState(float(y[0]), float(y[1]), float(y[2]), float(y[3]))


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of which system is being simulated.

    `m` is kept as an exact Fraction p/q (never a float): closure and the
    exponent pair of the higher-order constant depend on exact rationality.
    """
    kind: SystemKind
    kappa: float = 0.0
    g: float = 0.0
    k_a: float = 0.0
    k_b: float = 0.0
    m: Fraction = Fraction(1)
    # (F, dF/dphi) pair for GENERIC_F
    generic_F: Optional[tuple[Callable[[float], float],
                              Callable[[float], float]]] = None
    # F is a nonzero F_m, singular at sin(m phi) = 0; stored, since every
    # float potential reads it
    has_F_m: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise DomainError(f"non-finite curvature {self.kappa}")
        for name in ("g", "k_a", "k_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"non-finite {name} = {value}")
        m = Fraction(self.m)
        object.__setattr__(self, "m", m)
        if self.kind in (SystemKind.PW, SystemKind.VC):
            if m.numerator < 1:
                raise DomainError(f"m must be a positive rational, got {m}")
        if self.kind is SystemKind.VC and m != 1:
            raise DomainError("the VC system fixes m = 1")
        if self.kind is SystemKind.GENERIC_F and self.generic_F is None:
            raise DomainError("GENERIC_F requires a (F, dF) callable pair")
        object.__setattr__(self, "has_F_m",
                           self.kind in (SystemKind.VC, SystemKind.PW)
                           and (self.k_a != 0.0 or self.k_b != 0.0))

    @property
    def m_num(self) -> int:
        return self.m.numerator

    @property
    def m_den(self) -> int:
        return self.m.denominator

    @property
    def has_angular_term(self) -> bool:
        return self.kind in (SystemKind.VC, SystemKind.PW,
                             SystemKind.GENERIC_F)


def angular_sin_cos(phi, m: Fraction):
    """(sin(m phi), cos(m phi)) with m phi = (p phi)/q; AngularSingularityError
    (nan for an array) where |sin(m phi)| < _ANGULAR_EPS."""
    u = (m.numerator * phi) / m.denominator
    xp = np if isinstance(u, _ndarray) else math
    s = xp.sin(u)
    if xp is np:
        s = np.where(abs(s) < _ANGULAR_EPS, np.nan, s)
    elif abs(s) < _ANGULAR_EPS:
        raise AngularSingularityError(
            f"sin(m*phi) = {s} at phi = {phi}, m = {m}")
    return s, xp.cos(u)


def _F_m(s, c, k_a: float, k_b: float):
    """F_m from s = sin(m phi), c = cos(m phi)."""
    return (k_a + k_b * c) / (s * s)


def _F_m_prime(s, c, k_a: float, k_b: float, rate: float):
    """dF_m/dphi from s = sin(m phi), c = cos(m phi); rate = float(m)."""
    return -rate * (2.0 * k_a * c + k_b * (1.0 + c * c)) / (s * s * s)


def angular_F_m(phi, k_a: float, k_b: float, m: Fraction):
    """Deformed angular profile k_a/sin^2(m phi) + k_b cos(m phi)/sin^2(m phi)."""
    return _F_m(*angular_sin_cos(phi, m), k_a, k_b)


def angular_F_m_prime(phi, k_a: float, k_b: float, m: Fraction):
    """d/dphi of angular_F_m."""
    return _F_m_prime(*angular_sin_cos(phi, m), k_a, k_b,
                      m.numerator / m.denominator)


def reparam_alpha_beta(alpha: float, beta: float) -> tuple[float, float]:
    """Map the (alpha, beta) angular coefficients to (k_a, k_b).

    With k_a = 2(alpha+beta), k_b = 2(beta-alpha), the profile at doubled
    index satisfies F_2m'(phi; k_a, k_b) = alpha/cos^2(m' phi) + beta/sin^2(m' phi).
    """
    return (2.0 * (alpha + beta), 2.0 * (beta - alpha))


def _elementwise(f, phi):
    """f(phi); f is mapped over an array phi, so it need not accept arrays."""
    if isinstance(phi, _ndarray):
        return np.vectorize(f, otypes=[float])(phi)
    return f(phi)


def angular_F(spec: SystemSpec, phi):
    """F(phi) for the given system; 0 for central kinds."""
    if spec.kind is SystemKind.GENERIC_F:
        return _elementwise(spec.generic_F[0], phi)
    if not spec.has_F_m:
        return 0.0
    return angular_F_m(phi, spec.k_a, spec.k_b, spec.m)


def angular_profile_for(spec: SystemSpec, array: bool = False):
    """The function phi -> (F(phi), F'(phi)) of the given system, (0, 0) for
    central kinds; of a float phi, or with array of an array phi (nan where
    the float function raises AngularSingularityError).  Every choice that
    depends on spec is made here, once: the right-hand side of the equations
    of motion calls the result on every evaluation."""
    if spec.kind is SystemKind.GENERIC_F:
        F, dF = spec.generic_F
        if array:
            return lambda phi: (_elementwise(F, phi), _elementwise(dF, phi))
        return lambda phi: (F(phi), dF(phi))
    if not spec.has_F_m:
        return lambda phi: (0.0, 0.0)
    m, k_a, k_b = spec.m, spec.k_a, spec.k_b
    p, q, rate = m.numerator, m.denominator, m.numerator / m.denominator
    if array:
        def sin_cos(phi):
            return angular_sin_cos(phi, m)
    else:
        sin, cos = math.sin, math.cos

        def sin_cos(phi):       # angular_sin_cos of a float phi
            u = (p * phi) / q
            s = sin(u)
            if abs(s) < _ANGULAR_EPS:
                raise AngularSingularityError(
                    f"sin(m*phi) = {s} at phi = {phi}, m = {m}")
            return s, cos(u)

    def profile(phi):
        s, c = sin_cos(phi)     # one sin/cos pair for F and F'
        return _F_m(s, c, k_a, k_b), _F_m_prime(s, c, k_a, k_b, rate)
    return profile


def potential(state: PhaseState, spec: SystemSpec):
    """U(r, phi) for the given system kind."""
    if spec.kind is SystemKind.FREE_GEODESIC:
        return 0.0
    S = sin_k_off_pole(spec.kappa, state.r)
    return (-spec.g * (cos_k(spec.kappa, state.r) / S)
            + angular_F(spec, state.phi) / (S * S))


def hamiltonian(state: PhaseState, spec: SystemSpec):
    """Total energy (p_r^2 + p_phi^2/Sin_k^2)/2 + U; PoleError (nan for an
    array) where Sin_k(r) vanishes, for every kind."""
    S = sin_k_off_pole(spec.kappa, state.r)
    T = 0.5 * (state.p_r ** 2 + (state.p_phi / S) ** 2)
    return T + potential(state, spec)
