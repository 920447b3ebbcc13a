"""Hamilton's equations and adaptive trajectory integration.

The canonical equations in geodesic polar coordinates, with S = Sin_k(r)
and C = Cos_k(r):

    dr/dt     = p_r
    dphi/dt   = p_phi / S^2
    dp_r/dt   = p_phi^2 C / S^3 - dU/dr,   dU/dr = g/S^2 - 2 F(phi) C/S^3
    dp_phi/dt = -F'(phi) / S^2

(d/dr of 1/Tan_k(r) is -1/S^2 for every curvature, by the Pythagorean
identity C^2 + kappa S^2 = 1.)

Integration uses an adaptive 8(5,3) Dormand-Prince pair with dense output;
step rejection near the radial pole or the angular singularity terminates
the trajectory with a tag instead of producing infinities.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import PoleError
from .kappa_trig import cos_k, sin_k, sin_k_off_pole
from .systems import PhaseState, SystemKind, SystemSpec, angular_profile

class Termination(Enum):
    COMPLETED = "completed"
    HIT_RADIAL_POLE = "hit_radial_pole"
    HIT_ANGULAR_SINGULARITY = "hit_angular_singularity"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    singularity_margin: float = 1e-6

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if not (0.0 < self.singularity_margin < 1.0):
            raise ValueError("singularity_margin must lie in (0, 1)")


@dataclass
class Trajectory:
    """Accepted integration steps plus a dense interpolant.

    phi is kept unwrapped so winding numbers survive; wrap only at output.
    """
    times: np.ndarray
    states: np.ndarray          # shape (n, 4): r, phi, p_r, p_phi
    termination: Termination
    spec: SystemSpec
    dense: object = field(default=None, repr=False)   # OdeSolution

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> PhaseState:
        return PhaseState.from_tuple(self.states[i])

    def write_csv(self, path, columns: Optional[dict] = None) -> None:
        """One row per accepted step: t, r, phi, p_r, p_phi, then a column
        per entry of columns (name -> evaluator, as from evaluators_for),
        each evaluator called once on the trajectory as a PhaseState of
        arrays; every value as %.17g."""
        columns = columns or {}
        batch = PhaseState(*self.states.T)
        values = [fn(batch) for fn in columns.values()]
        row = ",".join(["%.17g"] * (5 + len(values))) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(["t,r,phi,p_r,p_phi", *columns]) + "\n")
            fh.writelines(row % fields for fields in
                          zip(self.times, *self.states.T, *values))


def eom(state: PhaseState, spec: SystemSpec) -> tuple[float, float, float, float]:
    """Right-hand side of Hamilton's equations at one phase point."""
    sin_k_off_pole(spec.kappa, state.r)     # PoleError at the radial pole
    return tuple(_rhs(np.array(state.as_tuple()), spec))


def _rhs(y, spec: SystemSpec):
    # floats, not numpy scalars: the same values, and the float path of
    # kappa_trig and the arithmetic below run faster on them
    r, phi, p_r, p_phi = y.tolist()
    S = sin_k(spec.kappa, r)
    C = cos_k(spec.kappa, r)
    S2 = S * S
    S3 = S2 * S
    F, dF = angular_profile(spec, phi)
    dUdr = 0.0
    if spec.kind is not SystemKind.FREE_GEODESIC:
        dUdr = spec.g / S2
    dUdr -= 2.0 * F * C / S3
    return [p_r,
            p_phi / S2,
            p_phi * p_phi * C / S3 - dUdr,
            -dF / S2]


def integrate(state0: PhaseState, spec: SystemSpec, t_end: float,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Propagate to t_end with local error <= rel_tol*|y| + abs_tol per step."""
    cfg = cfg or IntegratorConfig()
    margin = cfg.singularity_margin

    if sin_k(spec.kappa, state0.r) < margin:
        raise PoleError(f"initial state within margin of the radial pole "
                        f"(r = {state0.r})", location=state0.r)

    events = []

    def radial_guard(t, y):
        return sin_k(spec.kappa, y[0]) - margin
    radial_guard.terminal = True
    radial_guard.direction = -1
    events.append(radial_guard)

    if spec.has_F_m:
        p, q = spec.m_num, spec.m_den

        def angular_guard(t, y):
            s = math.sin((p * y[1]) / q)
            return s * s - margin * margin
        angular_guard.terminal = True
        angular_guard.direction = -1
        events.append(angular_guard)

        if abs(math.sin((p * state0.phi) / q)) < margin:
            raise PoleError("initial state within margin of the angular "
                            f"singularity (phi = {state0.phi})")

    sol = solve_ivp(lambda t, y: _rhs(y, spec), (0.0, t_end),
                    np.asarray(state0.as_tuple(), dtype=float),
                    method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    max_step=cfg.max_step, dense_output=True, events=events)

    if sol.status == 0:
        tag = Termination.COMPLETED
    elif sol.status == 1:
        if len(sol.t_events[0]) > 0:
            tag = Termination.HIT_RADIAL_POLE
        else:
            tag = Termination.HIT_ANGULAR_SINGULARITY
    else:
        tag = Termination.STEP_UNDERFLOW

    return Trajectory(times=sol.t, states=sol.y.T, termination=tag,
                      spec=spec, dense=sol.sol)
