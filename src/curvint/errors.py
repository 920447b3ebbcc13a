"""Exception hierarchy shared by every module."""


class CurvintError(Exception):
    """Base class for all library errors."""


class DomainError(CurvintError, ValueError):
    """Non-finite or otherwise inadmissible input."""


class PoleError(CurvintError):
    """Radial pole: Sin_k(r) or Cos_k(r) vanishes at the evaluation point."""


class AngularSingularityError(CurvintError):
    """sin(m*phi) vanishes where the angular potential is evaluated."""


class NegativeCasimirError(CurvintError):
    """J2 <= 0: the square root entering M_r / N_phi is not real."""


class StencilError(CurvintError):
    """A finite-difference stencil hit a pole of the evaluated function."""


class SamplingError(CurvintError, RuntimeError):
    """A sampler draw whose every candidate within its try budget is
    singular, so that it has none to accept or fall back to."""


class SpanError(CurvintError, ValueError):
    """A trajectory too short or too sparse for the requested check."""


class ConfigError(CurvintError):
    """Config file rejected; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
