import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from quatkin.baselines import BaselineMethod, baseline_steps, integrate_baseline
from quatkin.diagnostics import euler_formula_gap, frobenius_norm, symplecticity_defect
from quatkin.errors import (
    ConfigError,
    ConsistencyError,
    InvalidHorizonError,
    NonUnitStateError,
)
from quatkin.model import (
    I4,
    SYMPLECTIC_J4,
    ConstantProfile,
    FormulaProfile,
    MidpointSamplingMode,
    analytic_constant_transition,
    coefficient_matrix,
    coning_analytic_state,
    coning_oracle,
    constant_oracle,
    midpoint_omega,
    right_matrix,
)
from quatkin.scenario import parse_config, profile_from_name
from quatkin.symplectic import (
    StepSizeWarning,
    autonomous_transition,
    b_matrix,
    cayley_steps,
    corrected_rate,
    integrate_autonomous,
    integrate_nonautonomous,
    nonautonomous_transition,
)
from quatkin.trajectory import (
    _BLOCK_STEPS,
    Trajectory,
    check_unit_quaternion,
    integrate,
    propagate,
)
from harness import traced
from reference_impl import schedule, solve_linear_4

W_REF = np.array([2.0, 10.0, 3.0])
E0 = np.array([1.0, 0.0, 0.0, 0.0])


# --- closed-form Cayley transform ----------------------------------------------

def test_cayley_zero_argument_is_identity():
    npt.assert_array_equal(right_matrix(cayley_steps([0.0, 1.0, 0.0], 0.0)), I4)


def test_cayley_quarter_turn_case():
    # w = e2, tau = 4: tau |w| / 4 = 1, theta = 2 atan 1 = pi/2, so the map
    # is A(e2) = -J and the trig branch agrees with the rational one.
    g = right_matrix(cayley_steps([0.0, 1.0, 0.0], 4.0))
    npt.assert_allclose(g, -SYMPLECTIC_J4, atol=1e-15)
    theta = 2.0 * math.atan(1.0)
    trig = math.cos(theta) * I4 + math.sin(theta) * (-SYMPLECTIC_J4)
    npt.assert_allclose(g, trig, atol=1e-15)


def test_cayley_orthogonal_and_matches_trig_branch():
    rng = np.random.default_rng(21)
    for _ in range(100):
        w = rng.normal(0.0, 4.0, 3)
        gamma = float(np.linalg.norm(w))
        if gamma < 1e-3:
            continue
        tau = rng.uniform(-2.0, 2.0)
        g = right_matrix(cayley_steps(w, tau))
        assert frobenius_norm(g.T @ g - I4) <= 1e-14
        theta = 2.0 * math.atan(tau * gamma / 4.0)
        trig = math.cos(theta) * I4 + (math.sin(theta) / gamma) * coefficient_matrix(w)
        npt.assert_allclose(g, trig, atol=1e-14)


# --- constant-rate transition ----------------------------------------------------

def test_autonomous_zero_rate():
    npt.assert_array_equal(autonomous_transition(np.zeros(3), 0.5), I4)


def test_autonomous_alpha_value():
    # a = tau^2 |w|^2 / 16 = 1e-4 * 113 / 16 sets the diagonal (1 - a)/(1 + a).
    a = 7.0625e-4
    g = autonomous_transition(W_REF, 0.01)
    npt.assert_allclose(g[0, 0], (1.0 - a) / (1.0 + a), rtol=1e-12)


def test_autonomous_matches_cayley_closed_form():
    # (1/(1 + a)) [(1 - a) I + (tau/2) A] with a = tau^2 |w|^2 / 16.
    a = 0.01**2 * 113.0 / 16.0
    g = ((1.0 - a) * I4 + 0.005 * coefficient_matrix(W_REF)) / (1.0 + a)
    npt.assert_allclose(autonomous_transition(W_REF, 0.01), g, atol=1e-15)


def test_autonomous_close_to_analytic_flow():
    g = autonomous_transition(W_REF, 0.01)
    gap = np.max(np.abs(g - analytic_constant_transition(W_REF, 0.01)))
    assert gap <= 1.25e-4  # |w| tau ~ 0.106 <= 0.2
    assert gap <= euler_formula_gap(float(np.linalg.norm(W_REF)) * 0.01) * (1 + 1e-12)


def test_autonomous_one_step_gap_bounded_by_gap_function():
    rng = np.random.default_rng(23)
    for _ in range(100):
        w = rng.normal(0.0, 4.0, 3)
        tau = rng.uniform(0.0, 0.2 / max(np.linalg.norm(w), 1e-9))
        g = autonomous_transition(w, tau)
        gap = np.max(np.abs(g - analytic_constant_transition(w, tau)))
        assert gap <= euler_formula_gap(float(np.linalg.norm(w)) * tau) * (1 + 1e-9) + 1e-17


def test_autonomous_reversal_transpose_inverse():
    rng = np.random.default_rng(22)
    for _ in range(200):
        w = rng.normal(0.0, 4.0, 3)
        tau = rng.uniform(1e-4, 1.0)
        g = autonomous_transition(w, tau)
        g_rev = autonomous_transition(w, -tau)
        assert frobenius_norm(g_rev - g.T) <= 1e-13
        assert frobenius_norm(g.T @ g - I4) <= 1e-13


def test_autonomous_step_size_warning():
    n = float(np.linalg.norm(W_REF))
    with pytest.warns(StepSizeWarning):
        autonomous_transition(W_REF, 1.1 / (5.0 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepSizeWarning)
        autonomous_transition(W_REF, 0.9 / (5.0 * n))  # below the guideline: silent


def test_autonomous_equals_direct_cayley_assembly():
    # Closed form vs (I - (tau/4) A)^-1 (I + (tau/4) A), column by column.
    rng = np.random.default_rng(24)
    for _ in range(100):
        w = rng.normal(0.0, 4.0, 3)
        tau = rng.uniform(1e-4, 1.0)
        g = autonomous_transition(w, tau)
        a = coefficient_matrix(w)
        lhs = I4 - (tau / 4.0) * a
        rhs = I4 + (tau / 4.0) * a
        assembled = np.column_stack([solve_linear_4(lhs, rhs[:, j]) for j in range(4)])
        assert frobenius_norm(g - assembled) <= 1e-13


# --- constant-rate integration loop ----------------------------------------------

def test_integrate_autonomous_zero_rate_constant_states():
    traj = integrate_autonomous(np.zeros(3), E0, 0.0, 1.0, 0.1)
    assert traj.steps == 10
    npt.assert_array_equal(traj.states, np.tile(E0, (11, 1)))


def test_integrate_autonomous_tracks_analytic_flow():
    w = np.array([2.0, 0.0, 0.0])
    traj = integrate_autonomous(w, E0, 0.0, 5.0, 0.005)
    oracle = constant_oracle(w, E0)
    err = np.max(np.abs(traj.states - oracle(traj.times)))
    assert err <= 1e-4  # second-order global accuracy at this step
    npt.assert_allclose(traj.states[:, 0], np.cos(traj.times), atol=1e-4)


def test_integrate_autonomous_step_count_and_partial_step():
    traj = integrate_autonomous(W_REF, E0, 0.0, 1.05, 0.1)
    assert traj.steps == 11
    assert traj.times[-1] == 1.05
    npt.assert_allclose(traj.times[:-1], 0.1 * np.arange(11), atol=1e-15)
    # exact-multiple horizon: no spurious extra step
    traj2 = integrate_autonomous(W_REF, E0, 0.0, 10.0, 0.01)
    assert traj2.steps == 1000


def test_integrate_autonomous_partial_step_stays_on_flow():
    # A mistimed final step would err by ~|w| tau / 2 ~ 5e-2; the closed
    # form itself only accumulates ~1e-3 here.
    w = np.array([1.0, 2.0, -0.5])
    traj = integrate_autonomous(w, E0, 0.0, 0.95, 0.1)
    oracle = constant_oracle(w, E0)
    assert traj.times[-1] == 0.95
    assert np.max(np.abs(traj.states - oracle(traj.times))) <= 5e-3


@pytest.mark.parametrize("tf", [1.05, 1.0], ids=["shortened-last-step", "whole-steps"])
def test_integrate_autonomous_matches_one_map_per_step(tf):
    # Reference: one Cayley map built for every step and applied in turn.
    traj = integrate_autonomous(W_REF, E0, 0.0, tf, 0.1)
    _, tau_k, _ = schedule(0.0, tf, 0.1)
    npt.assert_array_equal(traj.states, propagate(cayley_steps(W_REF, tau_k), E0))


@pytest.mark.parametrize("norm", [1e-3, 1.0, 1e3], ids=["norm-1e-3", "norm-1", "norm-1e3"])
def test_propagate_matches_sequential_products_across_blocks(norm):
    # Step norms alternate norm and 1/norm (the scale of EUB's damping and
    # RK4's drift): every product runs at that scale, and the states stay
    # finite, so no row compares an overflowed or underflowed value.
    rng = np.random.default_rng(8)
    p = rng.normal(size=(2 * _BLOCK_STEPS + 5, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    p[0::2] *= norm
    p[1::2] /= norm
    q, expected = E0, [E0]
    for pk in p:
        q = right_matrix(pk) @ q
        expected.append(q)
    assert np.all(np.abs(expected) < 10.0 * max(norm, 1.0))
    assert propagate(p, E0).tobytes() == np.array(expected).tobytes()


def sequential_products(p, q):
    """States of q_{k+1} = R(p_k) @ q_k, one `@` product per step."""
    states = [q]
    for pk in p:
        q = right_matrix(pk) @ q
        states.append(q)
    return np.array(states)


@pytest.mark.parametrize(
    "steps",
    [1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 5],
    ids=["1", "block-1", "block", "block+1", "2block+5"],
)
def test_propagate_matches_sequential_products_at_block_edges(steps):
    # Unit step quaternions at a random start: a partial block, an exact
    # block and one step either side of a seam.
    rng = np.random.default_rng(steps)
    p = rng.normal(size=(steps, 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    q = rng.normal(size=4)
    assert propagate(p, q).tobytes() == sequential_products(p, q).tobytes()


def test_propagate_calls_do_not_share_buffers():
    # A long call then a short one: the second reuses nothing the first
    # returned, and neither call writes to its inputs.
    rng = np.random.default_rng(21)
    p_long = rng.normal(size=(_BLOCK_STEPS + 7, 4))
    p_long /= np.linalg.norm(p_long, axis=1, keepdims=True)
    p_short = p_long[:5][::-1].copy()
    q = rng.normal(size=4)
    p_before, q_before = p_long.copy(), q.copy()
    first = propagate(p_long, q)
    second = propagate(p_short, -q)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == sequential_products(p_long, q).tobytes()
    assert second.tobytes() == sequential_products(p_short, -q).tobytes()
    assert p_long.tobytes() == p_before.tobytes() and q.tobytes() == q_before.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("first_bad", [3, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 40])
def test_propagate_names_the_first_non_finite_state(first_bad):
    # Unit steps, then one of norm 1e300 and one of 1e10: the state
    # overflows at step first_bad, inside a block or at its last row, in the
    # first block or the second; the error names that step.
    p = np.tile([0.6, 0.8, 0.0, 0.0], (2 * _BLOCK_STEPS + 3, 1))
    p[first_bad - 2] *= 1e300
    p[first_bad - 1] *= 1e10
    with pytest.raises(ConsistencyError, match=f"state is not finite at step {first_bad}$"):
        propagate(p, E0)


def test_propagate_keeps_large_finite_states():
    # RK4 past its stability bound grows the norm 21.5x a step; 200 steps
    # reach ~1e266, still finite, so the run is not an error.
    p = np.tile([0.0, 21.5, 0.0, 0.0], (200, 1))
    states = propagate(p, E0)
    assert np.all(np.isfinite(states))
    assert 1e266 < np.max(np.abs(states[-1])) < 1e267


def unit_steps(rng, steps):
    p = rng.normal(size=(steps, 4))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def in_fresh_thread(fn, *args):
    """fn(*args) run on a new thread, whose propagation workspace starts
    empty; its exception, if any, is raised here."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def test_propagate_on_two_threads_at_once():
    # Each thread owns its workspace: two threads propagating different
    # steps at the same time each get their own sequential products.
    rng = np.random.default_rng(31)
    runs = [(unit_steps(rng, 2 * _BLOCK_STEPS + 5), rng.normal(size=4)) for _ in range(2)]
    expected = [sequential_products(p, q).tobytes() for p, q in runs]
    start = threading.Barrier(2)

    def run(p, q):
        start.wait()
        return [propagate(p, q).tobytes() for _ in range(10)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = [f.result() for f in [pool.submit(run, p, q) for p, q in runs]]
    for got, want in zip(results, expected):
        assert got == [want] * 10


@pytest.mark.parametrize(
    "outer, inner",
    [(10, 50), (2 * _BLOCK_STEPS + 5, 7)],
    ids=["inner-grows-the-workspace", "inner-shares-the-workspace"],
)
def test_builder_may_propagate_inside_integrate(outer, inner):
    # A builder that calls propagate on every block: a longer nested call
    # replaces the thread's workspace under the outer call, a shorter one
    # writes over the outer call's buffers; both outer and inner states
    # stay the sequential products.
    rng = np.random.default_rng(outer)
    p, p_inner = unit_steps(rng, outer), unit_steps(rng, inner)
    inner_expected = sequential_products(p_inner, E0).tobytes()
    nested = []

    def steps(t, h, t_end):  # unit steps from t0 = 0: t is the step index
        nested.append(propagate(p_inner, E0).tobytes() == inner_expected)
        return p[int(t[0]):int(t[0]) + len(t)]

    traj = in_fresh_thread(integrate, steps, E0, 0.0, float(outer), 1.0)
    assert nested == [True] * -(-outer // _BLOCK_STEPS)
    assert traj.states.tobytes() == sequential_products(p, E0).tobytes()


def test_propagate_short_long_short_on_one_thread():
    # The workspace grows for the long call and is kept for the short one
    # after it; every call gets its own sequential products.
    rng = np.random.default_rng(33)
    calls = [(unit_steps(rng, k), rng.normal(size=4)) for k in (5, 2 * _BLOCK_STEPS + 5, 3)]
    got = in_fresh_thread(lambda: [propagate(p, q).tobytes() for p, q in calls])
    assert got == [sequential_products(p, q).tobytes() for p, q in calls]


def test_propagate_on_a_warm_thread_allocates_no_workspace():
    # Once the thread's workspace holds 110 steps, a 110-step call makes no
    # buffer and no row view: its traced peak is the result plus the R(p)
    # gather's (110, 8) input, not ~2 x 110 views.
    rng = np.random.default_rng(34)
    p, q = unit_steps(rng, 110), rng.normal(size=4)
    propagate(p, q)
    with traced() as memory:
        states = propagate(p, q)
    assert memory.peak <= states.nbytes + 16 * 1024


@pytest.mark.parametrize("method", ["SGA-A", "SGA-NA", "RK4", "EUB", "GL2"])
def test_integrator_states_are_sequential_products_of_its_steps(method):
    # Across a block seam and a shortened final step, every integrator's
    # states are its own builder's R(p_k) applied in turn with `@`.
    profile = profile_from_name("coning")
    tau = 0.01
    tf = (_BLOCK_STEPS + 2.5) * tau
    times, tau_k, t_end = schedule(0.0, tf, tau)
    assert len(tau_k) == _BLOCK_STEPS + 3
    if method == "SGA-A":
        traj = integrate_autonomous(W_REF, E0, 0.0, tf, tau)
        p = cayley_steps(W_REF, tau_k)
    elif method == "SGA-NA":
        traj = integrate_nonautonomous(profile, E0, 0.0, tf, tau)
        w = midpoint_omega(profile, times[:-1], tau_k, MidpointSamplingMode.EXACT, t_end)
        p = cayley_steps(corrected_rate(w, tau_k), tau_k)
    else:
        traj = integrate_baseline(BaselineMethod(method), profile, E0, 0.0, tf, tau)
        p = baseline_steps(BaselineMethod(method), profile, times[:-1], tau_k, t_end)
    q, expected = E0, [E0]
    for pk in p:
        q = right_matrix(pk) @ q
        expected.append(q)
    assert traj.states.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "tf, tau", [(0.7, 0.1), (1.0, 0.3)], ids=["end-rounds-past-tf", "short-last-step"]
)
def test_integrate_hands_one_builder_call_the_schedule(tf, tau):
    # The builder gets the step start times, the step sizes and the step end
    # times capped at tf (at tf = 0.7, tau = 0.1 the last t_k + tau_k rounds
    # past tf); its step quaternions are propagated from q0.
    times, tau_k, ends = schedule(0.0, tf, tau)
    p = np.random.default_rng(9).normal(size=(len(tau_k), 4))
    calls = []

    def steps(t, h, t_end):
        calls.append((t.copy(), h.copy(), t_end.copy()))
        return p

    traj = integrate(steps, E0, 0.0, tf, tau)
    [(t, h, t_end)] = calls
    assert t.tobytes() == times[:-1].tobytes()
    assert h.tobytes() == tau_k.tobytes()
    assert t_end.tobytes() == ends.tobytes()
    assert t_end[-1] == tf
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == propagate(p, E0).tobytes()


@pytest.mark.parametrize(
    "tf, steps, last",
    [(1.0 + 1e-8, 11, pytest.approx(1e-8, rel=1e-6)), (1.0 + 1e-11, 10, 0.1)],
    ids=["past-the-slack", "within-the-slack"],
)
def test_schedule_slack_is_1e_9_of_a_step(tf, steps, last):
    # Ten steps of 0.1 and 1e-7 of a step more take an eleventh step, ~1e-8
    # long; 1e-10 of a step more is float noise, and the tenth step is tau.
    # A slack of 1e-6 would take ten steps in the first case.
    times, tau_k, _ = schedule(0.0, tf, 0.1)
    calls = []

    def identity_steps(t, h, t_end):
        calls.append(h.copy())
        return np.tile(E0, (len(t), 1))

    traj = integrate(identity_steps, E0, 0.0, tf, 0.1)
    [h] = calls
    assert traj.steps == len(tau_k) == steps
    assert traj.times.tobytes() == times.tobytes()
    assert h.tobytes() == tau_k.tobytes()
    assert h[-1] == last


def test_integrate_hands_the_builder_one_block_at_a_time():
    # Two whole blocks and a partial one: one builder call per block, on
    # consecutive slices of the schedule, none longer than _BLOCK_STEPS.
    tau = 0.01
    tf = (2 * _BLOCK_STEPS + 0.5) * tau
    times, tau_k, ends = schedule(0.0, tf, tau)
    assert len(tau_k) == 2 * _BLOCK_STEPS + 1
    p = np.random.default_rng(10).normal(size=(len(tau_k), 4))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    calls = []

    def steps(t, h, t_end):
        calls.append((t.copy(), h.copy(), t_end.copy()))
        done = sum(len(c[0]) for c in calls[:-1])
        return p[done:done + len(t)]

    traj = integrate(steps, E0, 0.0, tf, tau)
    assert [len(t) for t, _, _ in calls] == [_BLOCK_STEPS, _BLOCK_STEPS, 1]
    t, h, t_end = (np.concatenate(parts) for parts in zip(*calls))
    assert t.tobytes() == times[:-1].tobytes()
    assert h.tobytes() == tau_k.tobytes()
    assert t_end.tobytes() == ends.tobytes()
    assert traj.states.tobytes() == propagate(p, E0).tobytes()


INTEGRATORS = {
    "SGA-A": lambda profile, tf: integrate_autonomous(profile.omega_at(0.0), E0, 0.0, tf, 0.01),
    "SGA-NA": lambda profile, tf: integrate_nonautonomous(profile, E0, 0.0, tf, 0.01),
    **{
        m.value: (lambda profile, tf, m=m: integrate_baseline(m, profile, E0, 0.0, tf, 0.01))
        for m in BaselineMethod
    },
}


@pytest.mark.parametrize("method", list(INTEGRATORS))
def test_integration_memory_grows_only_by_the_run_arrays(method):
    # K = 4 blocks of coning steps against 2K: the peak grows by the run's
    # own arrays (times and states: 40 bytes a step), not by the builder's
    # temporaries, which a block bounds.
    profile, k = profile_from_name("coning"), 4 * _BLOCK_STEPS
    run = INTEGRATORS[method]
    run(profile, 1.0)  # first-call allocations out of the way
    peaks = []
    for steps in (k, 2 * k):
        with traced() as memory:
            traj = run(profile, steps * 0.01)
        peaks.append(memory.peak)
        assert traj.steps == steps
    assert peaks[1] - peaks[0] <= 100 * k


@pytest.mark.parametrize("method", list(INTEGRATORS))
def test_integration_memory_grows_by_the_times_and_states_alone(method):
    # As above, on a workspace already at full size, whose growth would
    # otherwise count in the K-step peak alone: from K to 2K steps the peak
    # grows by the times and states, 40 bytes a step.  The step sizes and
    # step end times are made a block at a time (whole-run arrays of them
    # would add 16).
    profile, k = profile_from_name("coning"), 4 * _BLOCK_STEPS
    run = INTEGRATORS[method]
    run(profile, 2 * _BLOCK_STEPS * 0.01)
    peaks = []
    for steps in (k, 2 * k):
        with traced() as memory:
            traj = run(profile, steps * 0.01)
        peaks.append(memory.peak)
        assert traj.steps == steps
    assert peaks[1] - peaks[0] <= 44 * k, (peaks[1] - peaks[0]) / k


def nan_from_50(t):
    return np.where(t[..., None] >= 50.0, np.nan, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "method, sampling, message",
    [
        ("SGA-NA", MidpointSamplingMode.EXACT, "rate is not finite at step 5000"),
        ("SGA-NA", MidpointSamplingMode.LINEAR_INTERP, "rate is not finite at step 4999"),
        ("RK4", MidpointSamplingMode.EXACT, "rate is not finite at step 4999"),
        ("EUB", MidpointSamplingMode.EXACT, "rate is not finite at step 4999"),
        ("GL2", MidpointSamplingMode.EXACT, "rate is not finite at step 5000"),
        ("GL2", MidpointSamplingMode.LINEAR_INTERP, "rate is not finite at step 4999"),
    ],
    ids=["SGA-NA-exact", "SGA-NA-interp", "RK4", "EUB", "GL2", "GL2-interp"],
)
def test_builder_error_past_the_first_block_names_the_run_step(method, sampling, message):
    # The rate is nan from t = 50 on (tau 0.01), past the first block; the
    # step sampling it first is named by its place in the run.  GL2's nodes
    # stay inside step 4999, whose end sample its interp chords use.
    assert _BLOCK_STEPS <= 4999
    profile = FormulaProfile("nan-from-50", nan_from_50)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        if method == "SGA-NA":
            integrate_nonautonomous(profile, E0, 0.0, 60.0, 0.01, sampling)
        else:
            integrate_baseline(BaselineMethod(method), profile, E0, 0.0, 60.0, 0.01, sampling)


def test_integrate_checks_q0_before_building_steps():
    def steps(t, h, t_end):
        raise AssertionError("builder called")

    with pytest.raises(NonUnitStateError):
        integrate(steps, [2.0, 0.0, 0.0, 0.0], 0.0, 1.0, 0.1)


def test_integrate_autonomous_builds_only_distinct_maps():
    with traced() as memory:
        traj = integrate_autonomous(W_REF, E0, 0.0, 1000.005, 0.01)
    assert traj.steps == 100_001
    # (K, 4, 4) step matrices alone would take 128 bytes a step.
    assert memory.peak < 100 * traj.steps


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: check_unit_quaternion([1.0, 0.0, 0.0]), r"4-component quaternion, got \(3,\)"),
        (lambda: Trajectory(times=np.zeros(2), states=np.zeros((2, 3))), r"non-empty \(n, 4\)"),
        (lambda: Trajectory(times=np.zeros(0), states=np.zeros((0, 4))), r"non-empty \(n, 4\)"),
        (lambda: Trajectory(times=np.zeros(3), states=np.zeros((2, 4))), "lengths differ"),
    ],
    ids=["q0-shape", "states-shape", "states-empty", "times-length"],
)
def test_state_shapes_are_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_integrate_autonomous_norm_preservation_long_run():
    traj = integrate_autonomous(W_REF, E0, 0.0, 2000.0, 0.01)  # 2e5 steps
    assert traj.steps == 200000
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-10


def test_integrate_autonomous_input_validation():
    with pytest.raises(InvalidHorizonError):
        integrate_autonomous(W_REF, E0, 1.0, 1.0, 0.1)
    with pytest.raises(InvalidHorizonError):
        integrate_autonomous(W_REF, E0, 0.0, 1.0, -0.1)
    with pytest.raises(NonUnitStateError):
        integrate_autonomous(W_REF, np.array([1.0, 1.0, 0.0, 0.0]), 0.0, 1.0, 0.1)


LIBRARY_RUNS = {
    "autonomous": lambda h: integrate_autonomous(W_REF, E0, *h),
    "nonautonomous": lambda h: integrate_nonautonomous(profile_from_name("fig2"), E0, *h),
    "baseline": lambda h: integrate_baseline(
        BaselineMethod.RK4, profile_from_name("fig2"), E0, *h
    ),
    "integrate": lambda h: integrate(lambda t, tau_k, t_end: np.zeros((len(t), 4)), E0, *h),
}


@pytest.mark.parametrize(
    "horizon",
    [
        (1e16, 1e16 + 4, 0.1),  # times 2 apart
        (2**53 - 1, 2**53 + 9, 2.0),  # one spacing across a binade edge
        (0, 1, 1e-12),  # 1e12 steps
        (-1e308, 1e308, 1.0),  # a span that overflows
    ],
    ids=["spacing", "binade", "budget", "overflow"],
)
@pytest.mark.parametrize("run", LIBRARY_RUNS.values(), ids=LIBRARY_RUNS.keys())
def test_library_runs_refuse_what_parsing_refuses(run, horizon):
    # One horizon rule: the library refuses with the parse error's text, and
    # before any step array exists.
    t0, tf, tau = horizon
    with pytest.raises(ConfigError) as parsed:
        parse_config({"profile": "fig2", "t0": t0, "tf": tf, "tau": tau})
    prefix, _, expected = str(parsed.value).partition("field 'tau': ")
    assert prefix == "" and expected
    with traced() as memory, pytest.raises(InvalidHorizonError) as refused:
        run(horizon)
    assert str(refused.value) == expected
    assert memory.peak < 64 << 10


BEYOND_FLOATS = 10**400


@pytest.mark.parametrize(
    "horizon, expected",
    [
        ((BEYOND_FLOATS, 1, 0.1), "need finite tf > t0, got [inf, 1.0]"),
        ((-BEYOND_FLOATS, 1, 0.1), "need finite tf > t0, got [-inf, 1.0]"),
        ((0, BEYOND_FLOATS, 0.1), "need finite tf > t0, got [0.0, inf]"),
        ((0, -BEYOND_FLOATS, 0.1), "need finite tf > t0, got [0.0, -inf]"),
        ((0, 1, BEYOND_FLOATS), "step size must be finite, got inf"),
        ((0, 1, -BEYOND_FLOATS), "step size must be finite, got -inf"),
    ],
    ids=["t0+", "t0-", "tf+", "tf-", "tau+", "tau-"],
)
@pytest.mark.parametrize("run", LIBRARY_RUNS.values(), ids=LIBRARY_RUNS.keys())
def test_int_past_the_float_range_is_refused_by_the_horizon_rule(run, horizon, expected):
    # An int that no float holds is read as an infinity of its sign, as the
    # parser reads it, and refused by the horizon rule, not by float().
    with pytest.raises(InvalidHorizonError) as refused:
        run(horizon)
    assert str(refused.value) == expected


# --- time-varying generator and transition ----------------------------------------

def test_b_matrix_reduces_to_half_a_when_second_component_zero():
    w = np.array([2.0, 0.0, 3.0])
    npt.assert_array_equal(b_matrix(w, 0.25), 0.5 * coefficient_matrix(w))


def test_b_matrix_zero_step_reduction():
    npt.assert_array_equal(b_matrix(W_REF, 0.0), 0.5 * coefficient_matrix(W_REF))


def test_b_matrix_structure_coefficient():
    # J-coefficient beta = -(tau^2/96) w2 |w|^2 = -(1e-4 * 10 * 113)/96.
    tau = 0.01
    beta_expected = -(tau * tau / 96.0) * 10.0 * 113.0
    npt.assert_allclose(beta_expected, -1.1770833333333333e-3, rtol=1e-12)
    b = b_matrix(W_REF, tau)
    residual = b - 0.5 * coefficient_matrix(W_REF)
    npt.assert_allclose(residual, beta_expected * SYMPLECTIC_J4, atol=1e-18)
    npt.assert_array_equal(b.T, -b)


def test_nonautonomous_coefficients_reference_values():
    # The correction moves only w2, by -2 beta; gamma^2 = |w'|^2 / 4 is the
    # squared norm of the generator B = A(w')/2.
    tau = 0.01
    w_prime = corrected_rate(W_REF, tau)
    assert w_prime[0] == 2.0 and w_prime[2] == 3.0
    beta = -(w_prime[1] - 10.0) / 2.0
    npt.assert_allclose(beta, -1.1770833333333333e-3, rtol=1e-12)
    gamma_sq = float(w_prime @ w_prime) / 4.0
    npt.assert_allclose(gamma_sq, 113.0 / 4.0 - beta * 10.0 + beta**2, rtol=1e-15)
    npt.assert_allclose(gamma_sq, 28.261772218858507, rtol=1e-12)
    # the map's diagonal is (1 - a)/(1 + a) with a = tau^2 gamma^2 / 4
    a = tau * tau / 4.0 * gamma_sq
    g = nonautonomous_transition(W_REF, tau)
    npt.assert_allclose(np.diag(g), (1.0 - a) / (1.0 + a), rtol=1e-15)
    # generator identity backing the closed form
    b = b_matrix(W_REF, tau)
    assert frobenius_norm(b @ b + gamma_sq * I4) <= 1e-10 * (1.0 + gamma_sq)


def test_nonautonomous_equals_autonomous_when_second_component_zero():
    w = np.array([2.0, 0.0, 3.0])
    for tau in [0.3, 0.01]:
        g_na = nonautonomous_transition(w, tau)
        g_a = autonomous_transition(w, tau)
        npt.assert_array_equal(g_na, g_a)


def test_nonautonomous_small_step_limit():
    # |G - I| ~ tau |B|_F = tau |w| for small tau.
    tau = 1e-6
    g = nonautonomous_transition(W_REF, tau)
    assert frobenius_norm(g - I4) <= 1.1 * tau * float(np.linalg.norm(W_REF))
    assert frobenius_norm((g - I4) / tau - b_matrix(W_REF, tau)) <= 1e-4


def test_nonautonomous_orthogonality_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        w = rng.normal(0.0, 5.0, 3)
        tau = rng.uniform(1e-4, 1.0)
        g = nonautonomous_transition(w, tau)
        assert frobenius_norm(g.T @ g - I4) <= 1e-13


# --- time-varying integration loop -------------------------------------------------

def test_integrate_nonautonomous_constant_profile_matches_autonomous():
    w = (2.0, 0.0, 3.0)
    profile = ConstantProfile(w)
    t_na = integrate_nonautonomous(profile, E0, 0.0, 2.0, 0.01)
    t_a = integrate_autonomous(np.array(w), E0, 0.0, 2.0, 0.01)
    npt.assert_array_equal(t_na.states, t_a.states)


def test_integrate_nonautonomous_steps_match_scalar_transitions():
    # The batch-constructed transitions must be the scalar-op matrices.
    profile = profile_from_name("fig2")
    tau = 0.05
    traj = integrate_nonautonomous(profile, E0, 0.0, 1.0, tau)
    q = E0.copy()
    for k in range(traj.steps):
        w_k = profile.omega_at(traj.times[k] + tau / 2.0)
        q = nonautonomous_transition(w_k, tau) @ q
        npt.assert_array_equal(traj.states[k + 1], q)


def test_integrate_nonautonomous_coning_short_horizon_error():
    w0, beta = 2.0 * math.pi, math.pi / 80.0
    q0 = coning_analytic_state(w0, beta, 0.0)
    traj = integrate_nonautonomous(profile_from_name("coning"), q0, 0.0, 10.0, 0.01)
    err = np.max(np.abs(traj.states - coning_oracle(w0, beta)(traj.times)))
    assert err <= 2e-5


def test_integrate_nonautonomous_fig1b_keeps_vector_components_zero():
    traj = integrate_nonautonomous(profile_from_name("fig1b"), E0, 0.0, 50.0, 0.01)
    assert np.max(np.abs(traj.states[:, 2])) == 0.0
    assert np.max(np.abs(traj.states[:, 3])) == 0.0
    pair = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    assert np.max(np.abs(pair - 1.0)) <= 1e-12


def test_integrate_nonautonomous_interp_mode_close_to_exact():
    profile = profile_from_name("fig2")
    exact = integrate_nonautonomous(profile, E0, 0.0, 5.0, 0.01)
    interp = integrate_nonautonomous(
        profile, E0, 0.0, 5.0, 0.01, MidpointSamplingMode.LINEAR_INTERP
    )
    assert np.max(np.abs(exact.states - interp.states)) <= 1e-3
    assert np.max(np.abs(interp.norms() - 1.0)) <= 1e-12


# --- reduced planar transition ------------------------------------------------------

def test_reduced_2x2_matches_upper_block_of_full_map():
    # For rates along the first axis the full map decouples into two planes,
    # each turned by the rotation cos(theta) I2 - sin(theta) J2.
    omega1, tau = 1.7, 0.05
    J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g4 = autonomous_transition(np.array([omega1, 0.0, 0.0]), tau)
    theta = 2.0 * math.atan(omega1 * tau / 4.0)
    npt.assert_allclose(g4[:2, :2], math.cos(theta) * np.eye(2) - math.sin(theta) * J2, atol=1e-15)
    npt.assert_array_equal(g4[:2, 2:], np.zeros((2, 2)))


# --- symplecticity-defect behaviour --------------------------------------------------

def test_defect_first_order_autonomous_ladder():
    # d(tau/2)/d(tau) ~ 1/2 for the constant-rate map.
    taus = [0.1, 0.05, 0.025, 0.0125]
    defects = [symplecticity_defect(autonomous_transition(W_REF, t)) for t in taus]
    ratios = [b / a for a, b in zip(defects, defects[1:])]
    assert all(0.4 <= r <= 0.6 for r in ratios), ratios


@pytest.mark.xfail(
    strict=True,
    reason="the correction term scales the structure matrix itself, so it "
    "cannot cancel the first-order commutator defect; the time-varying map's "
    "defect halves like the constant-rate one (ratio ~0.5, not ~0.25)",
)
def test_defect_second_order_nonautonomous_ladder():
    taus = [0.1, 0.05, 0.025, 0.0125]
    defects = [symplecticity_defect(nonautonomous_transition(W_REF, t)) for t in taus]
    ratios = [b / a for a, b in zip(defects, defects[1:])]
    assert all(0.2 <= r <= 0.3 for r in ratios), ratios


@pytest.mark.xfail(
    strict=True,
    reason="the defect term is (J + q2hat Ahat)(-2 sin^2 I + sin 2th Ahat); "
    "the pure-J part survives at q2hat = 0, so the defect stays O(tau) "
    "instead of vanishing",
)
def test_defect_vanishes_when_second_component_zero():
    w = np.array([2.0, 0.0, 3.0])
    for tau in [0.1, 0.0125]:
        assert symplecticity_defect(autonomous_transition(w, tau)) <= 1e-14
        assert symplecticity_defect(nonautonomous_transition(w, tau)) <= 1e-14


def test_transitions_broadcast_over_step_arrays():
    taus = np.array([0.1, 0.05, 0.025, 0.0125])
    npt.assert_array_equal(
        autonomous_transition(W_REF, taus), [autonomous_transition(W_REF, t) for t in taus]
    )
    w = np.array([[2.0, 10.0, 3.0], [1.0, -2.0, 0.5], [0.0, 4.0, 0.0], [3.0, 0.0, 1.0]])
    npt.assert_array_equal(
        nonautonomous_transition(w, taus),
        [nonautonomous_transition(wk, t) for wk, t in zip(w, taus)],
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_autonomous_transition_rejects_any_non_finite_step(bad):
    with pytest.raises(ValueError, match="step size must be finite"):
        autonomous_transition(W_REF, np.array([0.1, bad, 0.1]))


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
def test_nonautonomous_transition_rejects_any_non_positive_step(bad):
    reason = "positive" if math.isfinite(bad) else "finite"
    with pytest.raises(ValueError, match=f"step size must be {reason}"):
        nonautonomous_transition(W_REF, np.array([0.1, bad]))
    with pytest.raises(ValueError, match=f"step size must be {reason}, got {bad}$"):
        nonautonomous_transition(W_REF, bad)


def test_consistency_check_is_enforced():
    with pytest.raises(ValueError):
        nonautonomous_transition(np.array([1.0, 2.0]), 0.1)
    # Rates large enough to overflow the generator identity trip the guard
    # instead of silently propagating NaNs.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConsistencyError):
            nonautonomous_transition(np.array([1e200, 1e200, 1e200]), 1.0)


def four_wide(t):
    return np.ones(t.shape + (4,))


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda: cayley_steps(np.ones(4), 0.1), r"\(4,\)"),
        (
            lambda: integrate_nonautonomous(FormulaProfile("four", four_wide), E0, 0.0, 0.2, 0.1),
            r"\(2, 4\)",
        ),
        (
            lambda: integrate_nonautonomous(
                FormulaProfile("four", four_wide), E0, 0.0, 0.2, 0.1,
                MidpointSamplingMode.LINEAR_INTERP,
            ),
            r"\(2, 4\)",
        ),
    ],
    ids=["SGA-A", "SGA-NA-exact", "SGA-NA-interp"],
)
def test_rate_without_three_components_is_named(build, shape):
    with pytest.raises(ValueError, match=f"last axis 3, got {shape}$"):
        build()


def test_consistency_error_names_the_step():
    w = np.array([[1.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConsistencyError, match="rate is not finite at step 1"):
        cayley_steps(w, 0.1)


def test_corrected_rate_names_the_sample_then_the_overflow():
    # Step 1's finite sample overflows w' in float64 (tau^2/48 w2 |w|^2 ~
    # 1.6e328); step 2's sample is not finite.  The sample check comes first,
    # and the overflow lets no RuntimeWarning out.
    w = np.array([[1.0, 2.0, 3.0], [1e110, 1e110, 1e110], [np.nan, 0.0, 0.0]])
    with pytest.raises(ConsistencyError, match="^rate is not finite at step 2$"):
        corrected_rate(w, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConsistencyError, match="^corrected rate is not finite at step 1$"):
            corrected_rate(w[:2], 0.5)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_consistency_error_on_overflowing_rates(scale):
    # 1e200 overflows the corrected rate itself; 1e100 leaves it finite but
    # overflows tau^2 |w'|^2 / 16, so the map is NaN.
    w = scale * np.ones(3) / math.sqrt(3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConsistencyError, match="not finite at step 0"):
            nonautonomous_transition(w, 1.0)


def test_zero_rate_is_the_identity_at_a_step_whose_square_overflows():
    # tau^2 overflows past tau ~1.3e154, and inf * |w|^2 = inf * 0 is nan; a
    # zero rate is still the identity step and beta is 0.  A nonzero rate
    # whose |w|^2 underflows to 0 keeps its refusal.
    traj = integrate_autonomous(np.zeros(3), E0, 0.0, 1e155, 1e155)
    npt.assert_array_equal(traj.states, [E0, E0])
    npt.assert_array_equal(corrected_rate(np.zeros(3), 1e200), np.zeros(3))
    with np.errstate(over="ignore", invalid="ignore"):
        npt.assert_array_equal(cayley_steps(np.zeros((2, 3)), 1e200), [E0, E0])
        with pytest.raises(ConsistencyError, match="^step map is not finite at step 1$"):
            cayley_steps([[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0]], 1e200)
    with pytest.raises(ConsistencyError, match="^corrected rate is not finite at step 0$"):
        corrected_rate([1e-170, 0.0, 0.0], 1e200)


def test_large_finite_rate_gives_orthogonal_map():
    # Near the top of the range the map is still finite and orthogonal.
    g = nonautonomous_transition(1e45 * np.ones(3) / math.sqrt(3.0), 1.0)
    assert np.all(np.isfinite(g))
    assert frobenius_norm(g.T @ g - I4) <= 1e-13


# --- one Cayley form for both maps ---------------------------------------------------

def test_b_matrix_is_half_rate_matrix_at_corrected_rate():
    # beta_k J = -beta_k A(e2), so B_k = A(w')/2 with w' = w - 2 beta_k e2.
    rng = np.random.default_rng(41)
    for _ in range(200):
        w = rng.normal(0.0, 5.0, 3)
        tau = rng.uniform(1e-4, 1.0)
        npt.assert_array_equal(0.5 * coefficient_matrix(corrected_rate(w, tau)), b_matrix(w, tau))
    w_prime = corrected_rate(W_REF, 0.01)
    npt.assert_allclose(w_prime, W_REF + [0.0, (0.01**2 / 48.0) * 10.0 * 113.0, 0.0], rtol=1e-15)


def test_cayley_steps_batch_matches_single_steps():
    rng = np.random.default_rng(42)
    w = rng.normal(0.0, 2.0, (50, 3))
    tau = rng.uniform(1e-3, 0.05, 50)
    g = right_matrix(cayley_steps(w, tau))
    assert g.shape == (50, 4, 4)
    for k in range(50):
        npt.assert_array_equal(g[k], autonomous_transition(w[k], float(tau[k])))


# --- one step-size rule for both maps ------------------------------------------------

def _step_size_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    return [str(w.message) for w in caught if issubclass(w.category, StepSizeWarning)]


def test_nonautonomous_large_step_warns_once():
    caught = _step_size_warnings(
        integrate_nonautonomous, profile_from_name("fig2"), E0, 0.0, 15.0, 0.25
    )
    assert len(caught) == 1
    assert caught[0].startswith("60 of 60 steps exceed")


def test_nonautonomous_coning_small_step_is_silent():
    q0 = coning_analytic_state(2.0 * math.pi, math.pi / 80.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepSizeWarning)
        integrate_nonautonomous(profile_from_name("coning"), q0, 0.0, 10.0, 0.01)


def test_integrate_autonomous_partial_step_warns_once():
    # tau |w| = 0.266 on the 40 full steps; the final 0.01 step is within the
    # guideline and is not counted.
    caught = _step_size_warnings(integrate_autonomous, W_REF, E0, 0.0, 1.01, 0.025)
    assert len(caught) == 1
    assert caught[0].startswith("40 of 41 steps exceed")


@pytest.mark.parametrize(
    "method, tau, tf, expected",
    [
        ("SGA-A", 0.025, 8292.4 * 0.025, 8292),
        ("SGA-NA", 0.25, 8293 * 0.25, 8293),
    ],
)
def test_run_of_several_blocks_warns_once_with_whole_run_counts(method, tau, tf, expected):
    # Two whole blocks and a partial one at least, every full step past the
    # guideline (tau |w| = 0.266 for W_REF, at least 0.95 on fig2); the
    # constant-rate run's shortened last step is within it.
    assert expected > 2 * _BLOCK_STEPS and expected % _BLOCK_STEPS
    if method == "SGA-A":
        caught = _step_size_warnings(integrate_autonomous, W_REF, E0, 0.0, tf, tau)
    else:
        fig2 = profile_from_name("fig2")
        caught = _step_size_warnings(integrate_nonautonomous, fig2, E0, 0.0, tf, tau)
    assert len(caught) == 1
    assert caught[0].startswith(f"{expected} of 8293 steps exceed")
