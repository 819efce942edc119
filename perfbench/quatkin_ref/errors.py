"""Exception types raised across the package."""


class QuatkinError(Exception):
    """Base class for all errors raised by quatkin."""


class SingularMatrixError(QuatkinError):
    """A direct linear solve hit a pivot below the singularity floor."""


class ProfileDomainError(QuatkinError):
    """An angular-velocity profile was sampled outside its domain."""


class PreconditionError(QuatkinError):
    """An operation's precondition failed; the message names which one."""


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
