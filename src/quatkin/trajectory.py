"""Trajectory container, the shared fixed-step horizon convention, the one
run body every integrator goes through, and the one loop that applies its
step quaternions p_k to a state, one block of steps at a time."""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidHorizonError, NonUnitStateError, _NotFinite, require_finite
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

# Steps in one block of every pass over a run: the steps a builder is handed
# and propagation holds at once, the rows whose squares Trajectory.norms
# sums, the samples component_errors hands the oracle, and the rows
# emit_series renders.  Measured on the 1e5 coning-long steps at blocks of
# 1024, 2048 and 4096 (2 vCPU, 2 MB L2 a core): integration takes the same
# time at each (minima: SGA-NA 49-51 ms, GL2 148-155 ms); the propagation
# workspace a thread keeps (see _workspace) is 0.43, 0.87 and 1.74 MB, and
# RK4's and GL2's traced integration peaks are 6.4/6.7, 7.1/7.7 and
# 8.7/9.9 MB; emit_series takes 86, 106 and 116 ms (minima of 40), as
# render_rows' temporaries (2.3 MB at 2048 rows of 10 columns) outgrow the
# cache.
_BLOCK_STEPS = 2048

# Each thread's propagation workspace: ndarray.dot releases the GIL, so two
# threads must not write one buffer.
_local = threading.local()


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
        the report, the summary, the printout and the CSV all use it.

        Bitwise np.linalg.norm(states, axis=1), which sums each row's squares
        left to right, ((x0² + x1²) + x2²) + x3²: summed column by column in
        that order, one block of _BLOCK_STEPS rows of squares at a time, it
        takes 0.3x np.linalg.norm's time at 1e5 rows and 1.3x its ~6 us at
        110, and builds no (n, 4) array of squares.  Any other grouping of
        the four squares rounds differently in about one row in eight."""
        norms = self.__dict__.get("_norms")
        if norms is None:
            states = self.states
            norms = np.empty(len(states))
            with np.errstate(over="ignore", invalid="ignore"):  # run_scenario names it
                for start in range(0, len(states), _BLOCK_STEPS):
                    q = states[start:start + _BLOCK_STEPS]
                    x0, x1, x2, x3 = (q * q).T
                    out = norms[start:start + _BLOCK_STEPS]
                    np.add(x0, x1, out=out)
                    out += x2
                    out += x3
                np.sqrt(norms, out=norms)
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
    tau_k = np.empty(k)
    tau_k.fill(tau)  # np.full's Python-level frame does the same
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
    :func:`step_schedule`, and propagate q0 through them one block of
    _BLOCK_STEPS steps at a time.  Each block's step quaternions (n, 4) come
    from one call steps(t_k, tau_k, t_end) on that block's slice of the
    schedule, with t_end from :func:`step_end_times`, and go straight into
    the kernel of :func:`propagate`; so a builder is handed one block, never
    the whole run, and its temporaries do not grow with the run.  A
    ConsistencyError a builder raises names the run's step, not the
    block's.  States are never renormalized."""
    q = check_unit_quaternion(q0)
    times, tau_k = step_schedule(t0, tf, tau)
    t_end = step_end_times(times, tau_k)

    def block(start, stop):
        try:
            return steps(times[start:stop], tau_k[start:stop], t_end[start:stop])
        except _NotFinite as exc:
            raise _NotFinite(exc.args[0], start + exc.args[1]) from None

    return Trajectory(times=times, states=_propagate(block, q, len(tau_k)))


def propagate(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (K + 1, 4) states of q_{k+1} = q_k (x) p_k for step quaternions p (K, 4):
    the kernel that :func:`integrate` feeds one builder block at a time (see
    :func:`_propagate`), here fed blocks of p."""
    return _propagate(lambda start, stop: p[start:stop], q, len(p))


def _workspace(n: int):
    """This thread's propagation workspace for blocks of up to n steps:
    (g, buf, gs, ins, outs), an (N, 4, 4) matrix buffer g and an
    (N + 1, 4) state buffer buf, N >= n, with their row views listed: gs
    the N matrices, outs the state rows 1..N and ins the rows 0..N - 1
    (step k + 1 reads the row view step k wrote).  Built on the thread's
    first call and rebuilt, larger, only when n exceeds N; a caller keeps
    the tuple it got, so one that a nested call outgrows still holds its
    own buffers."""
    ws = getattr(_local, "ws", None)
    if ws is None or len(ws[2]) < n:
        g, buf = np.empty((n, 4, 4)), np.empty((n + 1, 4))
        outs = list(buf[1:])
        ws = _local.ws = (g, buf, list(g), [buf[0], *outs[:-1]], outs)
    return ws


def _propagate(block, q: np.ndarray, k: int) -> np.ndarray:
    """The (k + 1, 4) states from q through k steps, whose step quaternions
    (stop - start, 4) come from block(start, stop), _BLOCK_STEPS at a time.

    Each block runs on this thread's workspace (see :func:`_workspace`),
    sized min(k, _BLOCK_STEPS) steps and kept between calls, so a call
    makes no buffer and no row view.  A block's step quaternions become
    matrices R(p_k) only here, written by right_matrix straight into the
    matrix buffer.  Its states are taken in step order in the state buffer,
    each product ndarray.dot(R(p_k), q_k, q_{k+1}) on the listed row views,
    so no step makes a Python object; the block is then copied into the
    result.  Nothing in the workspace is read across a block() call, so a
    builder may itself call propagate.  The method skips numpy's
    __array_function__ dispatch and calls BLAS dgemv directly (~0.42
    against ~0.73 us a step for np.dot on fresh views, ~1.4 for matmul's
    gufunc).  For a C-contiguous 4x4 matrix and 4-vector np.dot and matmul
    run the same dgemv kernel (matmul as the transposed column-major
    product), so every state is bitwise R(p_k) @ q_k.

    A non-finite state stays non-finite under every finite R(p_k), so only
    the last state of each block is tested; when it is not finite,
    ConsistencyError names the first non-finite state's step.  numpy's
    over/invalid warnings are off for the whole loop, builder calls included.
    """
    states = np.empty((k + 1, 4))
    states[0] = q
    g, buf, gs, ins, outs = _workspace(min(_BLOCK_STEPS, k))
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite names it
        for start in range(0, k, _BLOCK_STEPS):
            m = min(_BLOCK_STEPS, k - start)
            right_matrix(block(start, start + m), out=g[:m])
            buf[0] = states[start]
            for _ in map(np.ndarray.dot, islice(gs, m), ins, outs):
                pass
            states[start + 1:start + 1 + m] = buf[1:m + 1]
            if not np.isfinite(buf[m]).all():
                require_finite(states[:start + 1 + m], "state")
    return states


def check_unit_quaternion(q) -> np.ndarray:
    """Validate and return a copy of a unit quaternion; never renormalizes."""
    q = np.array(q, dtype=float)
    if q.shape != (4,):
        raise NonUnitStateError(f"expected a 4-component quaternion, got {q.shape}")
    norm = math.sqrt(q.dot(q))  # bitwise np.linalg.norm(q), at a fraction of its cost
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # a nan norm fails too
        raise NonUnitStateError(
            f"initial quaternion norm {norm:.12f} deviates from 1 by more than {UNIT_NORM_TOL}"
        )
    return q
