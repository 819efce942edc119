"""Trajectory container, the shared fixed-step horizon convention, the one
run body every integrator goes through, and the one loop that applies its
step quaternions p_k to a state."""
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
    "integrate",
    "propagate",
    "require_finite",
    "check_unit_quaternion",
    "UNIT_NORM_TOL",
]

UNIT_NORM_TOL = 1e-9

_BLOCK_STEPS = 1024  # steps whose 4x4 matrices propagate holds at once


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
            with np.errstate(over="ignore", invalid="ignore"):  # run_scenario names it
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


def integrate(steps, q0, t0: float, tf: float, tau: float) -> Trajectory:
    """Run a fixed-step method over [t0, tf]: check q0, take the steps of
    :func:`step_schedule`, get the run's step quaternions (K, 4) from one
    call steps(t_k, tau_k, t_end) with t_end from :func:`step_end_times`,
    and :func:`propagate` q0 through them.  States are never renormalized."""
    q = check_unit_quaternion(q0)
    times, tau_k = step_schedule(t0, tf, tau)
    p = steps(times[:-1], tau_k, step_end_times(times, tau_k))
    return Trajectory(times=times, states=propagate(p, q))


def propagate(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (K + 1, 4) states of q_{k+1} = q_k (x) p_k for step quaternions p (K, 4).

    A run's step quaternions become matrices R(p_k) only here, _BLOCK_STEPS
    (1024) steps at a time, written into one (n, 4, 4) matrix buffer,
    n = min(_BLOCK_STEPS, K), that every block reuses.  A block's states are
    taken in step order in an (n + 1, 4) state buffer, each product
    ndarray.dot(R(p_k), q_k, q_{k+1}) on row views listed once per call
    (n + 1 state rows, n matrices), so no step makes a Python object; the
    block is then copied into the result.  The method skips numpy's
    __array_function__ dispatch and calls BLAS dgemv directly (~0.42 against
    ~0.73 us a step for np.dot on fresh views, ~1.4 for matmul's gufunc).
    For a C-contiguous 4x4 matrix and 4-vector np.dot and matmul run the
    same dgemv kernel (matmul as the transposed column-major product), so
    every state is bitwise R(p_k) @ q_k.

    A non-finite state stays non-finite under every finite R(p_k), so only
    the last state of each block is tested; when it is not finite,
    ConsistencyError names the first non-finite state's step.
    """
    k = len(p)
    states = np.empty((k + 1, 4))
    states[0] = q
    n = min(_BLOCK_STEPS, k)
    buf = np.empty((n + 1, 4))
    g = np.empty((n, 4, 4))
    outs, gs = list(buf[1:]), list(g)
    ins = [buf[0], *outs[:-1]]  # step k + 1 reads the row view step k wrote
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names it
        for start in range(0, k, _BLOCK_STEPS):
            m = min(n, k - start)
            g[:m] = right_matrix(p[start:start + m])
            buf[0] = states[start]
            for _ in map(np.ndarray.dot, gs[:m], ins, outs):
                pass
            states[start + 1:start + 1 + m] = buf[1:m + 1]
            if not np.isfinite(buf[m]).all():
                require_finite(states[:start + 1 + m], "state")
    return states


def require_finite(p: np.ndarray, what: str) -> None:
    """Raise ConsistencyError naming the first step whose row of p (..., n)
    holds a non-finite value; every step builder ends with this check, and
    propagate runs it on the states when a block ends non-finite.  The
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
