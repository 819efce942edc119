"""Trajectory container and the shared fixed-step horizon convention."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHorizonError, NonUnitStateError

__all__ = ["Trajectory", "step_schedule", "check_unit_quaternion"]

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped quaternion states produced by one integration run.

    states[k] is the quaternion at times[k]; times[k] = t0 + k*tau except
    possibly the final sample, which lands exactly on the requested end time
    when the horizon is not an integer number of steps.  step_alpha and
    step_theta are optional per-step diagnostics recorded by the
    structure-preserving integrators.
    """

    t0: float
    tau: float
    times: np.ndarray
    states: np.ndarray
    step_alpha: np.ndarray | None = None
    step_theta: np.ndarray | None = None

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.shape[1] != 4 or len(self.states) == 0:
            raise ValueError("states must be a non-empty (n, 4) array")
        if self.times.shape != (len(self.states),):
            raise ValueError("times and states lengths differ")

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def step_schedule(t0: float, tf: float, tau: float):
    """Sample times and per-step sizes for the horizon [t0, tf].

    The loop takes K = ceil((tf - t0)/tau) steps; when the horizon is not an
    integer multiple of tau the final step is shortened to land on tf.  A
    1e-9 relative slack keeps float noise in the division from adding a
    spurious zero-length step.  Returns (times (K+1,), tau_k (K,)).
    """
    if not (math.isfinite(t0) and math.isfinite(tf)) or not tf > t0:
        raise InvalidHorizonError(f"need finite tf > t0, got [{t0}, {tf}]")
    if not (math.isfinite(tau) and tau > 0.0):
        raise InvalidHorizonError(f"step size must be positive, got {tau}")
    span = tf - t0
    k = max(1, math.ceil(span / tau - 1e-9))
    tau_k = np.full(k, tau)
    if abs(span - k * tau) > 1e-9 * tau:
        tau_k[-1] = span - (k - 1) * tau
    times = t0 + np.arange(k + 1) * tau
    times[-1] = tf
    return times, tau_k


def check_unit_quaternion(q, tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Validate and return a copy of a unit quaternion; never renormalizes."""
    q = np.array(q, dtype=float)
    if q.shape != (4,):
        raise NonUnitStateError(f"expected a 4-component quaternion, got {q.shape}")
    norm = float(np.linalg.norm(q))
    if not np.all(np.isfinite(q)) or abs(norm - 1.0) > tol:
        raise NonUnitStateError(
            f"initial quaternion norm {norm:.12f} deviates from 1 by more than {tol}"
        )
    return q
