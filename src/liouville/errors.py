"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "LiouvilleError",
    "SingularMatrix",
    "HypothesisViolation",
    "TooManyLevels",
    "OnCriticalSurface",
    "OutOfRange",
    "CoefficientOverflow",
    "NumericOverflow",
    "ZeroMass",
    "NegativeRho",
    "PreconditionFailed",
    "DegenerateDirection",
    "ZeroMassDensity",
    "DensityOverflow",
    "NegativeGamma",
    "NoConvergence",
    "StepFailure",
    "ConfigError",
    "NegativeMassWarning",
]


class LiouvilleError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(LiouvilleError):
    """Interaction matrix is not invertible at the configured cutoffs."""


class HypothesisViolation(LiouvilleError):
    """A structural hypothesis on the interaction matrix fails.

    Carries the offending condition reports in ``reports``.
    """

    def __init__(self, message: str, reports: tuple = ()):
        super().__init__(message)
        self.reports = reports


class TooManyLevels(LiouvilleError):
    """Spectrum enumeration would exceed the configured size limit."""


class OnCriticalSurface(LiouvilleError):
    """Normalized energy sits on a critical level, degree undefined."""

    def __init__(self, level_index: int, level: float, q: float):
        super().__init__(
            f"normalized energy {q!r} lies on critical level "
            f"n_{level_index} = {level!r}"
        )
        self.level_index = level_index
        self.level = level
        self.q = q


class OutOfRange(LiouvilleError):
    """Queried energy exceeds the enumerated part of the spectrum."""


class CoefficientOverflow(LiouvilleError):
    """Series coefficient left the signed 64-bit range."""


class NumericOverflow(LiouvilleError):
    """A computed quantity left the double range (inf, or NaN from inf - inf)."""


class ZeroMass(LiouvilleError):
    """Total mass sum(rho) is not positive."""


class NegativeRho(LiouvilleError):
    """A mass parameter rho_i is negative."""


class PreconditionFailed(LiouvilleError):
    """Input violates a documented precondition of the operation."""


class DegenerateDirection(LiouvilleError):
    """Direction has nonpositive quadratic energy, no mass scale exists."""


class ZeroMassDensity(LiouvilleError):
    """A density integral <h_i e^{u_i}> is not positive."""


class DensityOverflow(ZeroMassDensity):
    """A density integral <h_i e^{u_i}> overflowed the double range."""


class NegativeGamma(LiouvilleError):
    """Solver weights require nonnegative singular strengths."""


class NoConvergence(LiouvilleError):
    """Newton iteration exhausted its budget above tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class StepFailure(LiouvilleError):
    """Damped Newton step hit the backtracking floor without descent."""


class ConfigError(LiouvilleError):
    """Problem configuration failed validation.

    ``field`` names the offending entry, dotted-path style.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NegativeMassWarning(UserWarning):
    """Prescribed-mass vector has a nonpositive component."""
