"""Potentials and Hamiltonians on the constant-curvature surfaces.

Five system kinds share one separable radial/angular shape:

    H = (p_r^2 + p_phi^2 / Sin_k(r)^2) / 2 - g / Tan_k(r) + F(phi) / Sin_k(r)^2

with F identically zero for free geodesics and the Kepler problem, the
deformed angular profile F_m for the noncentral Kepler-related family
(of which the m = 1 member is the classic two-center-like potential),
and a caller-supplied profile for the generic separable family.

The angle enters as m phi, m = p/q an exact Fraction:
`angular_sin_cos_for(m, array)` is the one implementation of the angle
(p phi)/q and of (sin m phi, cos m phi), and `m_rate` of the float p/q.
A SystemSpec builds its `Formulas`, its closures of floats and those of
arrays, each once, at its first use; `SystemSpec.formulas(x)` picks one by
the type of x.
The functions take a PhaseState of floats, evaluated with `math`
(PoleError / AngularSingularityError at a singularity, DomainError beyond
the float range), or of numpy arrays of one shape, evaluated in the same
formulas with nan at a singularity (see kappa_trig).  A generic profile's
callables are mapped over an array phi element by element, so callables
written for floats serve array states too.
"""

import functools
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AngularSingularityError, DomainError
from .kappa_trig import sin_cos_k_for

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


class Formulas(NamedTuple):
    """The closures of one SystemSpec, all of floats or all of arrays."""
    sin_cos_k: Callable             # r -> (Sin_k(r), Cos_k(r))
    sin_cos_k_off_pole: Callable    # the same, singular where Sin_k vanishes
    angle: Callable     # phi -> (sin m phi, cos m phi), singular at sin = 0
    angle_regular: Callable         # the same, regular there
    F: Callable                     # phi -> F(phi)
    profile: Callable               # phi -> (F(phi), F'(phi))
    xp: object                      # math or numpy: sin and cos of phi


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of which system is being simulated.

    `m` is kept as an exact Fraction p/q (never a float): closure and the
    exponent pair of the higher-order constant depend on exact rationality.
    DomainError for a non-finite kappa, g, k_a or k_b, and for a PW or VC
    m that is not positive or whose numerator or denominator is beyond the
    float range.
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
    # F is a nonzero F_m, singular at sin(m phi) = 0; m = m_num / m_den
    has_F_m: bool = field(init=False, repr=False, compare=False)
    m_num: int = field(init=False, repr=False, compare=False)
    m_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise DomainError(f"non-finite curvature {self.kappa}")
        for name in ("g", "k_a", "k_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"non-finite {name} = {value}")
        m = Fraction(self.m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_num", m.numerator)
        object.__setattr__(self, "m_den", m.denominator)
        if self.kind in (SystemKind.PW, SystemKind.VC):
            if m.numerator < 1:
                raise DomainError(f"m must be a positive rational, got {m}")
            try:    # then m_rate(p, q) is a float too
                float(m.numerator), float(m.denominator)
            except OverflowError:
                raise DomainError(f"m = {m}: its numerator or denominator "
                                  f"is beyond the float range") from None
        if self.kind is SystemKind.VC and m != 1:
            raise DomainError("the VC system fixes m = 1")
        if self.kind is SystemKind.GENERIC_F and self.generic_F is None:
            raise DomainError("GENERIC_F requires a (F, dF) callable pair")
        object.__setattr__(self, "has_F_m",
                           self.kind in (SystemKind.VC, SystemKind.PW)
                           and (self.k_a != 0.0 or self.k_b != 0.0))

    def __reduce__(self):   # pickled by its fields: closures are rebuilt
        return SystemSpec, tuple(getattr(self, f.name)
                                 for f in fields(self) if f.init)

    @functools.cached_property
    def float_formulas(self) -> Formulas:
        """The float Formulas of this spec, built at their first use."""
        return _formulas(self, False)

    @functools.cached_property
    def array_formulas(self) -> Formulas:
        """The array Formulas of this spec, built at their first use."""
        return _formulas(self, True)

    def formulas(self, x) -> Formulas:
        """The array Formulas for a numpy array x, else the float ones."""
        if isinstance(x, _ndarray):
            return self.array_formulas
        return self.float_formulas

    @property
    def coupling(self) -> float:
        """g', the coupling of the equations of motion: g, or 0 for the
        free geodesic, which feels no potential."""
        return 0.0 if self.kind is SystemKind.FREE_GEODESIC else self.g

    @property
    def has_angular_term(self) -> bool:
        return self.kind in (SystemKind.VC, SystemKind.PW,
                             SystemKind.GENERIC_F)


def m_rate(p: int, q: int) -> float:
    """The float p/q, the rate of m phi; DomainError beyond its range."""
    try:
        return p / q
    except OverflowError:
        raise DomainError(f"m = {p}/{q} beyond the float range") from None


def angular_sin_cos_for(m: Fraction, array: bool = False,
                        eps: float = _ANGULAR_EPS):
    """phi -> (sin(m phi), cos(m phi)), the angle computed as (p phi)/q for
    m = p/q: of a float phi, with AngularSingularityError where
    |sin(m phi)| < eps, or with array of an array, with nan there.
    DomainError where p, q or a float m phi leave the float range."""
    p, q = m.numerator, m.denominator
    sin, cos = (np.sin, np.cos) if array else (math.sin, math.cos)

    def sin_cos(phi):
        try:
            u = (p * phi) / q
            s = sin(u)
        except (OverflowError, ValueError):     # math.sin(inf) is an error
            raise DomainError(f"m*phi beyond the float range: m = {m}, "
                              f"phi = {phi!r}") from None
        if array:
            singular = abs(s) < eps
            if singular.any():
                s = np.where(singular, np.nan, s)
        elif abs(s) < eps:
            raise AngularSingularityError(
                f"sin(m*phi) = {s} at phi = {phi}, m = {m}")
        return s, cos(u)
    return sin_cos


def _F_m(s2, c, k_a: float, k_b: float):
    """F_m = (k_a + k_b cos(m phi)) / sin^2(m phi) from s2 = sin^2(m phi)."""
    return (k_a + k_b * c) / s2


def _formulas(spec: SystemSpec, array: bool) -> Formulas:
    """spec's closures, of floats or with array of arrays (F = 0 for the
    central kinds, a generic profile's callables mapped element by element
    over an array phi, so that callables written for floats serve arrays)."""
    angle = angular_sin_cos_for(spec.m, array)
    if spec.kind is SystemKind.GENERIC_F:
        F, dF = spec.generic_F
        if array:
            F, dF = (np.vectorize(f, otypes=[float]) for f in (F, dF))

        def profile(phi):
            return F(phi), dF(phi)
    elif not spec.has_F_m:
        F, profile = (lambda phi: 0.0), (lambda phi: (0.0, 0.0))
    else:
        k_a, k_b = spec.k_a, spec.k_b
        neg_rate, two_k_a = -m_rate(spec.m_num, spec.m_den), 2.0 * k_a

        def F(phi):
            s, c = angle(phi)
            return _F_m(s * s, c, k_a, k_b)

        def profile(phi):
            s, c = angle(phi)   # one sin/cos pair and one s^2 for F and F'
            s2 = s * s
            # dF_m/dphi; -rate and 2 k_a folded: left to right, same doubles
            return (_F_m(s2, c, k_a, k_b), neg_rate * (
                two_k_a * c + k_b * (1.0 + c * c)) / (s2 * s))
    return Formulas(sin_cos_k_for(spec.kappa, array),
                    sin_cos_k_for(spec.kappa, array, off_pole=True), angle,
                    angular_sin_cos_for(spec.m, array, 0.0), F, profile,
                    np if array else math)


def potential(state: PhaseState, spec: SystemSpec, sin_cos=None):
    """U(r, phi) for the given system kind; sin_cos is (Sin_k(r), Cos_k(r))
    off its poles where the caller has it."""
    if spec.kind is SystemKind.FREE_GEODESIC:
        return 0.0
    S, C = sin_cos or spec.formulas(state.r).sin_cos_k_off_pole(state.r)
    return -spec.g * (C / S) + spec.formulas(state.phi).F(state.phi) / (S * S)


def hamiltonian(state: PhaseState, spec: SystemSpec):
    """Total energy (p_r^2 + p_phi^2/Sin_k^2)/2 + U; PoleError (nan for an
    array) where Sin_k(r) vanishes, for every kind, and DomainError where a
    float kinetic energy overflows."""
    S, C = spec.formulas(state.r).sin_cos_k_off_pole(state.r)
    try:
        T = 0.5 * (state.p_r ** 2 + (state.p_phi / S) ** 2)
    except OverflowError:
        raise DomainError(f"kinetic energy overflows: p_r = {state.p_r!r}, "
                          f"p_phi = {state.p_phi!r}") from None
    return T + potential(state, spec, (S, C))
