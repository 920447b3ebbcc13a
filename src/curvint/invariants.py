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
multiplication, never via log/exp branch cuts.  Like the Hamiltonian, every
invariant takes a PhaseState of floats or of numpy arrays (a trajectory,
say); where a float raises (PoleError, AngularSingularityError, or
NegativeCasimirError at J2 <= 0) an array element is nan instead.
"""

import math

import numpy as np

from .errors import NegativeCasimirError
from .kappa_trig import cot_k, sin_k_off_pole
from .systems import (PhaseState, SystemKind, SystemSpec, angular_F,
                      angular_sin_cos, hamiltonian)


def noether_p1(state: PhaseState, spec: SystemSpec):
    """First Noether momentum; reduces to p_x in the plane."""
    xp = np if isinstance(state.phi, np.ndarray) else math
    ck = cot_k(spec.kappa, state.r)
    return (xp.cos(state.phi) * state.p_r
            - ck * xp.sin(state.phi) * state.p_phi)


def noether_p2(state: PhaseState, spec: SystemSpec):
    """Second Noether momentum; reduces to p_y in the plane."""
    xp = np if isinstance(state.phi, np.ndarray) else math
    ck = cot_k(spec.kappa, state.r)
    return (xp.sin(state.phi) * state.p_r
            + ck * xp.cos(state.phi) * state.p_phi)


def j2(state: PhaseState, spec: SystemSpec):
    """Angular-sector Casimir p_phi^2 + 2 F(phi)."""
    return state.p_phi ** 2 + 2.0 * angular_F(spec, state.phi)


def runge_lenz(state: PhaseState, spec: SystemSpec) -> tuple:
    """Curved Runge-Lenz pair (I3, I4) of the Kepler problem."""
    xp = np if isinstance(state.phi, np.ndarray) else math
    return (noether_p2(state, spec) * state.p_phi
            - spec.g * xp.cos(state.phi),
            noether_p1(state, spec) * state.p_phi
            + spec.g * xp.sin(state.phi))


def vc_integrals(state: PhaseState, spec: SystemSpec) -> tuple:
    """Quadratic pair (I2, I3) of the m = 1 deformed Kepler system.

    k_a, k_b of the spec play the roles of the k2, k3 coefficients; I2 = J2.
    """
    s, c = angular_sin_cos(state.phi, spec.m)
    s2 = s * s
    ck = cot_k(spec.kappa, state.r)
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
    return (state.p_r * sq
            + 1j * (spec.g - sq * sq * cot_k(spec.kappa, state.r)))


def n_phi(state: PhaseState, spec: SystemSpec):
    """Angular complex factor N_phi."""
    sq = _sqrt_j2(state, spec)
    u = (spec.m_num * state.phi) / spec.m_den
    xp = np if isinstance(u, np.ndarray) else math
    return (spec.k_b + sq * sq * xp.cos(u)
            + 1j * (state.p_phi * sq * xp.sin(u)))


def lambda_k(state: PhaseState, spec: SystemSpec):
    """Common phase-rotation rate sqrt(J2) / Sin_k(r)^2."""
    S = sin_k_off_pole(spec.kappa, state.r)
    return _sqrt_j2(state, spec) / (S * S)


def _ipow(z, n: int):
    """z**n for n >= 0 by repeated multiplication."""
    out = complex(1.0, 0.0)
    for _ in range(n):
        out *= z
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
