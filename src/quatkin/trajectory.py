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
    "integrate",
    "propagate",
    "check_unit_quaternion",
    "UNIT_NORM_TOL",
    "MAX_STEPS",
]

UNIT_NORM_TOL = 1e-9

# Most steps one run may take: _check_horizon refuses a tau that exceeds it,
# for every run and, naming 'tau', for parse_config and
# run_sweep.  A whole run_scenario peaks (tracemalloc, 1e6 coning steps, the
# propagation workspace built) at 40-42 bytes a step: SGA-NA 40.4, RK4 41.6,
# EUB 40.3, GL2 42.2, so 1e7 steps take ~0.42 GB; it keeps 40.0 once it
# returns.  The times and the states, 8 and 32 bytes a step, are the only
# arrays that grow with the run: every other pass over it (the step sizes
# and step ends, the norms, component_errors, emit_series) takes one block
# of _BLOCK_STEPS steps at a time.
MAX_STEPS = 10_000_000

# Steps in one block of every pass over a run: the steps a builder is handed,
# with their step sizes and step ends, and propagation holds at once, the
# rows whose norms _block_norms takes (for Trajectory.norms, run_scenario's
# norm check and emit_series' norm column), the samples component_errors
# hands the oracle, and the rows emit_series renders.  Measured on the 1e5
# coning-long steps at blocks of 1024, 2048 and 4096 (2 vCPU, 2 MB L2 a core): integration takes the same
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
    the final sample, which is always exactly the requested end time tf.
    Every integrator returns this same record, whatever its method.
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
        """|q| at every sample, computed on each call, one block of
        _BLOCK_STEPS rows at a time by :func:`_block_norms`; bitwise
        np.linalg.norm(states, axis=1)."""
        states = self.states
        norms = np.empty(len(states))
        for start in range(0, len(states), _BLOCK_STEPS):
            _block_norms(states[start:start + _BLOCK_STEPS], norms[start:start + _BLOCK_STEPS])
        return norms


def _block_norms(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|q| of each row of a block of states q (n, 4), written into out (n,)
    and returned: the one norm rule of Trajectory.norms, run_scenario's norm
    check and emit_series' norm column.

    Bitwise np.linalg.norm(q, axis=1), which sums each row's squares left to
    right, ((x0² + x1²) + x2²) + x3²: summed column by column in that order
    it takes 0.3x np.linalg.norm's time at 1e5 rows and 1.3x its ~6 us at
    110, and builds no squares array longer than the block.  Any other
    grouping of the four squares rounds differently in about one row in
    eight.  out may be a strided column of a larger buffer."""
    with np.errstate(over="ignore", invalid="ignore"):  # run_scenario names it
        x0, x1, x2, x3 = (q * q).T
        np.add(x0, x1, out=out)
        out += x2
        out += x3
        np.sqrt(out, out=out)
    return out


def _sample_times(t0: float, tf: float, tau: float):
    """Sample times (K + 1,) of the fixed-step horizon [t0, tf] and the size
    of its last step: the schedule of every run.

    A run takes K = ceil((tf - t0)/tau) steps; when the horizon is not an
    integer multiple of tau the last step is shortened to land on tf, and
    the last time is always tf.  A 1e-9 relative slack keeps float noise in
    the division from adding a spurious zero-length step, and a final step
    whose start t0 + (K - 1) tau already rounds to tf is dropped (the one
    before it then ends on tf), so the times strictly increase.
    """
    t0, tf, tau = _as_float(t0), _as_float(tf), _as_float(tau)
    _check_horizon(t0, tf, tau)
    span = tf - t0
    k = max(1, math.ceil(span / tau - 1e-9))
    if k > 1 and t0 + (k - 1) * tau >= tf:
        # span / tau passes k - 1 by more than the slack, but the start of
        # step k - 1 rounds to tf: that step would not move the time.
        k -= 1
    last = span - (k - 1) * tau if abs(span - k * tau) > 1e-9 * tau else tau
    # Only the K interior times are formed: t0 + K tau may overflow past tf.
    times = np.empty(k + 1)
    np.multiply(np.arange(k), tau, out=times[:k])
    times[:k] += t0
    times[k] = tf
    return times, last


def _as_float(x) -> float:
    """float(x), with an int past the float range read as an infinity of its
    sign, which _check_horizon refuses as parse_config does."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_horizon(t0: float, tf: float, tau: float) -> None:
    """Raise InvalidHorizonError unless [t0, tf] is finite and ordered, and
    tau is a finite positive step that takes at most MAX_STEPS steps and
    that the float times of :func:`_sample_times` resolve: the one horizon
    rule of every run, which parse_config and run_sweep apply too, naming
    'tau'.  Checked before any array exists."""
    if not (math.isfinite(t0) and math.isfinite(tf)) or not tf > t0:
        raise InvalidHorizonError(f"need finite tf > t0, got [{t0}, {tf}]")
    if not math.isfinite(tau):
        raise InvalidHorizonError(f"step size must be finite, got {tau}")
    if not tau > 0.0:
        raise InvalidHorizonError(f"step size must be positive, got {tau}")
    # Compared as a float: a tiny tau would otherwise ask for an arbitrarily
    # large allocation.
    steps = (tf - t0) / tau
    if steps > MAX_STEPS:
        raise InvalidHorizonError(
            f"{tau} gives {steps:.4g} steps over [{t0}, {tf}], "
            f"more than the budget of {MAX_STEPS}"
        )
    # Sample k is fl(t0 + fl(k tau)); where two round to one time, the
    # profile and any oracle are sampled at the wrong ones.  Let u be the
    # float spacing at the horizon's larger end.  Below tau = 2^25 u the
    # budget keeps tf - t0 under 2^49 u, far below |t0| and |tf| (at least
    # 2^52 u), so each rounding moves a time by at most u/2 and consecutive
    # times differ by at least tau - 2u: positive for tau > 2u, and at
    # tau = 2u, a power of two whose multiples are exact, at least tau - u.
    # (Above 2^25 u a product rounds by at most u: tau - 3u > 0.)  One
    # spacing is not enough: from t0 = 2^53 - 1, steps of 2 land on ties
    # above 2^53 that round in pairs to one time.  It is when t0 and tau are
    # both multiples of u, as every time is then exact.
    spacing = math.ulp(max(abs(t0), abs(tf)))
    if tau < 2.0 * spacing and not (t0 % spacing == 0.0 and tau % spacing == 0.0):
        raise InvalidHorizonError(
            f"{tau} is below two float spacings ({2.0 * spacing:.4g}) of times "
            f"on [{t0}, {tf}] and off their grid, so the times cannot resolve the steps"
        )


def integrate(steps, q0, t0: float, tf: float, tau: float) -> Trajectory:
    """Run a fixed-step method over [t0, tf]: check q0, take the steps of
    :func:`_sample_times`, and propagate q0 through them one block of
    _BLOCK_STEPS steps at a time.  Each block's step quaternions (n, 4) come
    from one call steps(t_k, tau_k, t_end) on that block's slice of the
    sample times, with its step sizes (tau, and the last step's size on the
    run's final step) and its ends t_k + tau_k, capped at tf (the sum can
    round one ulp past tf, outside a profile whose samples end there), made
    for that block alone.  They go straight into the kernel of
    :func:`propagate`; so a builder is handed one block, never the whole
    run, and the times and states are the only arrays that grow with the
    run.  A ConsistencyError a builder raises names the run's step, not the
    block's.  States are never renormalized."""
    q = check_unit_quaternion(q0)
    times, last = _sample_times(t0, tf, tau)
    k = len(times) - 1

    def block(start, stop):
        t = times[start:stop]
        tau_k = np.empty(stop - start)
        tau_k.fill(tau)  # np.full's Python-level frame does the same
        if stop == k:
            tau_k[-1] = last
        try:
            return steps(t, tau_k, np.minimum(t + tau_k, tf))
        except _NotFinite as exc:
            raise _NotFinite(exc.args[0], start + exc.args[1]) from None

    return Trajectory(times=times, states=_propagate(block, q, k))


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
