"""Conserved quantities of the curved Kepler-type systems.

Quadratic layer: Noether momenta P1/P2, the Casimir J2 (its partner J1 is
2H, the angular momentum p_phi), the curved Runge-Lenz pair (I3, I4) of the
Kepler problem, and the (I2, I3) pair of the m = 1 deformation.

Higher-order layer: the complex radial and angular factors

    M_r    = p_r sqrt(J2)  +  i (g - J2 Cot_k(r))
    N_phi  = (k_b + J2 cos(m phi))  +  i p_phi sqrt(J2) sin(m phi)

which evolve by pure phase rotation with common rate lambda = sqrt(J2)/Sin_k^2(r)
(and m*lambda for N_phi), so that for m = p/q the product

    K = M_r^p * conj(N_phi)^q

is a constant of the motion.  Its real and imaginary parts are the third
and fourth real integrals (J3, J4).  Integer powers are taken by repeated
squaring, never via log/exp branch cuts.  Like the Hamiltonian, every
invariant takes a PhaseState of floats or of numpy arrays (a trajectory,
say), through its spec's closures (`SystemSpec.formulas`); where a float
raises (PoleError, AngularSingularityError, or NegativeCasimirError at
J2 <= 0) an array element is nan instead.
"""

import math
from typing import Optional

import numpy as np

from .errors import DomainError, NegativeCasimirError
from .systems import PhaseState, SystemKind, SystemSpec, hamiltonian


def noether_p1(state: PhaseState, spec: SystemSpec):
    """First Noether momentum; reduces to p_x in the plane."""
    S, C = spec.formulas(state.r).sin_cos_k_off_pole(state.r)
    xp = spec.formulas(state.phi).xp
    return (xp.cos(state.phi) * state.p_r
            - C / S * xp.sin(state.phi) * state.p_phi)


def noether_p2(state: PhaseState, spec: SystemSpec):
    """Second Noether momentum; reduces to p_y in the plane."""
    S, C = spec.formulas(state.r).sin_cos_k_off_pole(state.r)
    xp = spec.formulas(state.phi).xp
    return (xp.sin(state.phi) * state.p_r
            + C / S * xp.cos(state.phi) * state.p_phi)


def j2(state: PhaseState, spec: SystemSpec):
    """Angular-sector Casimir p_phi^2 + 2 F(phi); DomainError where a float
    p_phi^2 overflows."""
    try:
        p_phi2 = state.p_phi ** 2
    except OverflowError:
        raise DomainError(f"p_phi^2 overflows at {state.p_phi!r}") from None
    return p_phi2 + 2.0 * spec.formulas(state.phi).F(state.phi)


def runge_lenz(state: PhaseState, spec: SystemSpec) -> tuple:
    """Curved Runge-Lenz pair (I3, I4) of the Kepler problem."""
    xp = spec.formulas(state.phi).xp
    return (noether_p2(state, spec) * state.p_phi
            - spec.g * xp.cos(state.phi),
            noether_p1(state, spec) * state.p_phi
            + spec.g * xp.sin(state.phi))


def vc_integrals(state: PhaseState, spec: SystemSpec) -> tuple:
    """Quadratic pair (I2, I3) of the m = 1 deformed Kepler system.

    k_a, k_b of the spec play the roles of the k2, k3 coefficients; I2 = J2.
    """
    s, c = spec.formulas(state.phi).angle(state.phi)
    s2 = s * s
    S, C = spec.formulas(state.r).sin_cos_k_off_pole(state.r)
    ck = C / S
    i3 = (noether_p2(state, spec) * state.p_phi - spec.g * c
          + 2.0 * spec.k_a * ck * (c / s2)
          + spec.k_b * ck * ((1.0 + c * c) / s2))
    # + 0 * I3: an array I2 is nan wherever the float pair raises
    return (j2(state, spec) + 0.0 * i3, i3)


def _sqrt_j2(state: PhaseState, spec: SystemSpec):
    J2 = j2(state, spec)
    if isinstance(J2, np.ndarray):
        return np.sqrt(np.where(J2 > 0.0, J2, np.nan))
    if J2 <= 0.0:
        raise NegativeCasimirError(f"J2 = {J2} <= 0 at {state}")
    return math.sqrt(J2)


def m_r(state: PhaseState, spec: SystemSpec):
    """Radial complex factor M_r."""
    sq = _sqrt_j2(state, spec)
    S, C = spec.formulas(state.r).sin_cos_k_off_pole(state.r)
    return state.p_r * sq + 1j * (spec.g - sq * sq * (C / S))


def _escape_energy(spec: SystemSpec) -> float:
    """Escape energy at kappa <= 0: U(r -> inf) = -g' sqrt(-kappa), g' the
    coupling of the equations of motion (0 for free geodesics)."""
    return -spec.coupling * math.sqrt(-spec.kappa)


def radial_period(state: PhaseState, spec: SystemSpec) -> Optional[float]:
    """Period T_r of r, in which M_r turns once, on the bounded orbit through
    the float state, from H: with a = -2H, g' the coupling of the equations
    of motion (0 for free geodesics) and rho = |2H + 2i g' sqrt(kappa)|, T_r
    = 2 pi |g'| / (rho sqrt((rho + a)/2)) where a > 0, else (kappa > 0 only)
    (2 pi / sqrt(kappa)) sqrt((rho - a)/2) / rho: neither cancels at small
    |kappa|.  None for GENERIC_F, at J2 <= 0 or rho = 0, and at kappa <= 0
    unless g' > 0 and H lies below the escape energy."""
    if spec.kind is SystemKind.GENERIC_F or j2(state, spec) <= 0.0:
        return None
    g = spec.coupling
    a, s = -2.0 * hamiltonian(state, spec), math.sqrt(abs(spec.kappa))
    if spec.kappa > 0.0:
        rho = math.hypot(a, 2.0 * g * s)
    elif g > 0.0 and a > (b := -2.0 * _escape_energy(spec)):
        rho = math.sqrt(a - b) * math.sqrt(a + b)   # a^2 may overflow
    else:
        return None
    if rho == 0.0:
        return None
    if a > 0.0:
        return 2.0 * math.pi * abs(g) / rho / math.sqrt(0.5 * (rho + a))
    return 2.0 * math.pi / s * math.sqrt(0.5 * (rho - a)) / rho


def n_phi(state: PhaseState, spec: SystemSpec):
    """Angular complex factor N_phi."""
    sq = _sqrt_j2(state, spec)
    s, c = spec.formulas(state.phi).angle_regular(state.phi)
    return spec.k_b + sq * sq * c + 1j * (state.p_phi * sq * s)


def lambda_k(state: PhaseState, spec: SystemSpec):
    """Common phase-rotation rate sqrt(J2) / Sin_k(r)^2."""
    S = spec.formulas(state.r).sin_cos_k_off_pole(state.r)[0]
    return _sqrt_j2(state, spec) / (S * S)


def _ipow(z, n: int):
    """z**n for n >= 0 by squaring; for n <= 3 the products of repeated
    multiplication, 1 last, the same bits unless a part is 0 or inf."""
    out = complex(1.0, 0.0)
    while n:
        if n & 1:
            out = z * out
        n >>= 1
        if n:
            z = z * z
    return out


def k_constant(state: PhaseState, spec: SystemSpec):
    """Higher-order complex constant M_r^p * conj(N_phi)^q for m = p/q."""
    return (_ipow(m_r(state, spec), spec.m_num)
            * _ipow(n_phi(state, spec).conjugate(), spec.m_den))


def evaluators_for(spec: SystemSpec) -> dict:
    """Named invariant evaluators appropriate to the system kind.

    Keys double as trajectory CSV column names.
    """
    evals = {"H": lambda s: hamiltonian(s, spec),
             "J2": lambda s: j2(s, spec)}
    if spec.kind is SystemKind.KEPLER:
        evals["I3"] = lambda s: runge_lenz(s, spec)[0]
        evals["I4"] = lambda s: runge_lenz(s, spec)[1]
    if spec.kind is SystemKind.VC:
        evals["I2"] = lambda s: vc_integrals(s, spec)[0]
        evals["I3"] = lambda s: vc_integrals(s, spec)[1]
    if spec.kind in (SystemKind.VC, SystemKind.PW):
        evals["K_re"] = lambda s: k_constant(s, spec).real
        evals["K_im"] = lambda s: k_constant(s, spec).imag
    return evals
