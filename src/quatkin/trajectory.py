"""Trajectory container, the shared fixed-step horizon convention, and the
one loop that applies every integrator's step quaternions p_k to a state."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidHorizonError, NonUnitStateError
from .model import right_matrix

__all__ = [
    "Trajectory",
    "step_schedule",
    "step_end_times",
    "propagate",
    "require_finite",
    "check_unit_quaternion",
    "UNIT_NORM_TOL",
]

UNIT_NORM_TOL = 1e-9

_BLOCK_STEPS = 4096  # steps whose 4x4 matrices propagate holds at once


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped quaternion states produced by one integration run.

    states[k] is the quaternion at times[k]; times[k] = t0 + k*tau except
    possibly the final sample, which lands exactly on the requested end time
    when the horizon is not an integer number of steps.  Every integrator
    returns this same record, whatever its method.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.shape[1] != 4 or len(self.states) == 0:
            raise ValueError("states must be a non-empty (n, 4) array")
        if self.times.shape != (len(self.states),):
            raise ValueError("times and states lengths differ")

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def norms(self) -> np.ndarray:
        """|q| at every sample.  Computed on the first call and kept, read-only:
        the report, the summary, the printout and the CSV all use it."""
        norms = self.__dict__.get("_norms")
        if norms is None:
            norms = np.linalg.norm(self.states, axis=1)
            norms.flags.writeable = False
            object.__setattr__(self, "_norms", norms)
        return norms


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


def step_end_times(times: np.ndarray, tau_k: np.ndarray) -> np.ndarray:
    """End time t_k + tau_k of each step of a schedule, capped at the horizon
    end times[-1]: the sum can round one ulp past tf, outside a profile whose
    samples end exactly there."""
    return np.minimum(times[:-1] + tau_k, times[-1])


def propagate(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (K + 1, 4) states of q_{k+1} = q_k (x) p_k for step quaternions p (K, 4).

    A run's step quaternions become matrices R(p_k) only here, a block of
    steps at a time; the products are taken in step order, each written
    straight into its row of the result.  Each is np.dot(R(p_k), q_k, out),
    which calls BLAS dgemv directly instead of dispatching matmul's gufunc
    (~0.8 against ~1.4 us a step).  For a C-contiguous 4x4 matrix and 4-vector
    matmul runs the same dgemv kernel (as the transposed column-major
    product), so every state is bitwise R(p_k) @ q_k.
    """
    states = np.empty((len(p) + 1, 4))
    states[0] = q
    for start in range(0, len(p), _BLOCK_STEPS):
        g = right_matrix(p[start:start + _BLOCK_STEPS])
        for _ in map(np.dot, g, states[start:], states[start + 1:]):
            pass
    return states


def require_finite(p: np.ndarray, what: str) -> None:
    """Raise ConsistencyError naming the first step whose row of p (..., n)
    holds a non-finite value; every step builder ends with this check.  The
    whole-array test runs first: numpy reduces short rows one at a time,
    ~10x slower."""
    if not np.isfinite(p).all():
        step = int(np.argmin(np.reshape(np.isfinite(p).all(axis=-1), -1)))
        raise ConsistencyError(f"{what} is not finite at step {step}")


def check_unit_quaternion(q) -> np.ndarray:
    """Validate and return a copy of a unit quaternion; never renormalizes."""
    q = np.array(q, dtype=float)
    if q.shape != (4,):
        raise NonUnitStateError(f"expected a 4-component quaternion, got {q.shape}")
    norm = float(np.linalg.norm(q))
    if not np.all(np.isfinite(q)) or abs(norm - 1.0) > UNIT_NORM_TOL:
        raise NonUnitStateError(
            f"initial quaternion norm {norm:.12f} deviates from 1 by more than {UNIT_NORM_TOL}"
        )
    return q
