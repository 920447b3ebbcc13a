"""Curved Kepler-type systems on constant-curvature surfaces.

Simulation and numerical verification of the quadratic and higher-order
constants of motion of the deformed Kepler family, uniformly in the
curvature parameter.
"""

from .errors import (AngularSingularityError, ConfigError, CurvintError,
                     DomainError, NegativeCasimirError, PoleError,
                     SamplingError, SpanError, StencilError)
from .kappa_trig import cos_k, cot_k, r_domain, sin_k, tan_k
from .systems import (PhaseState, SystemKind, SystemSpec, hamiltonian,
                      potential)
from .dynamics import IntegratorConfig, Termination, Trajectory, integrate
from .invariants import (evaluators_for, j2, k_constant, lambda_k, m_r,
                         n_phi, noether_p1, noether_p2, radial_period,
                         runge_lenz, vc_integrals)
from .verify import (CheckResult, DriftReport, bracket_with_scale,
                     closure_detect, drift, euclidean_limit_scan,
                     random_bounded_state, random_bounded_states,
                     rotation_check, run_suite)

__version__ = "0.1.0"
