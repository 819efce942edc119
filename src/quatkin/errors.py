"""Exception types raised across the package, and :func:`require_finite`,
the check whose ConsistencyError names a step."""
import numpy as np

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


class _NotFinite(ConsistencyError):
    """What :func:`require_finite` raises, with args (what, step)."""

    def __str__(self):
        return "%s is not finite at step %d" % self.args


def require_finite(p: np.ndarray, what: str) -> None:
    """Raise ConsistencyError naming the first step whose row of p (..., n)
    holds a non-finite value.  Every step builder runs it on its rates
    (through quatkin.model.require_rates) and on its step quaternions, and
    propagate on the states when a block ends non-finite.  The
    whole-array test runs first: numpy reduces short rows one at a time,
    ~10x slower."""
    if not np.isfinite(p).all():
        step = int(np.argmin(np.reshape(np.isfinite(p).all(axis=-1), -1)))
        raise _NotFinite(what, step)
