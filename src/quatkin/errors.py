"""Exception types raised across the package."""

__all__ = [
    "QuatkinError",
    "SingularMatrixError",
    "ProfileDomainError",
    "ConsistencyError",
    "InvalidHorizonError",
    "NonUnitStateError",
    "DegenerateDataError",
    "ConfigError",
]


class QuatkinError(Exception):
    """Base class for all errors raised by quatkin."""


class SingularMatrixError(QuatkinError):
    """GL2's stage system is singular: np.linalg.solve raised LinAlgError."""


class ProfileDomainError(QuatkinError):
    """An angular-velocity profile was sampled outside its domain."""


class ConsistencyError(QuatkinError):
    """An internal algebraic identity failed at runtime."""


class InvalidHorizonError(QuatkinError, ValueError):
    """Integration horizon is empty or the step size is not positive."""


class NonUnitStateError(QuatkinError, ValueError):
    """Initial quaternion is not unit-norm within tolerance."""


class DegenerateDataError(QuatkinError, ValueError):
    """Input data cannot support the requested fit or estimate."""


class ConfigError(QuatkinError, ValueError):
    """Scenario configuration failed to parse or validate."""
