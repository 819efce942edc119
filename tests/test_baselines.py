import math

import numpy as np
import numpy.testing as npt
import pytest

from quatkin.baselines import (
    GL2_MATRIX,
    GL2_NODES,
    GL2_WEIGHTS,
    BaselineMethod,
    baseline_steps,
    integrate_baseline,
)
from quatkin.diagnostics import convergence_order
from quatkin.errors import ConsistencyError, SingularMatrixError
from quatkin.model import (
    I4,
    ConstantProfile,
    FormulaProfile,
    MidpointSamplingMode,
    analytic_constant_transition,
    coefficient_matrix,
    coning_analytic_state,
    constant_oracle,
    midpoint_omega,
    right_matrix,
)
from quatkin.scenario import profile_from_name
from quatkin.symplectic import cayley_steps, corrected_rate, integrate_nonautonomous
from reference_impl import gl2_steps, rk4_steps, schedule, solve_linear_4

E0 = np.array([1.0, 0.0, 0.0, 0.0])
ZERO = ConstantProfile((0.0, 0.0, 0.0))
W_REF = ConstantProfile((2.0, 10.0, 3.0))
RK4, EUB, GL2 = (
    BaselineMethod.RK4,
    BaselineMethod.EULER_BACKWARD,
    BaselineMethod.GAUSS_LEGENDRE2,
)


def one_step(method, profile, q, t, tau):
    """One step of `method` from q at time t, through its step matrix."""
    return right_matrix(baseline_steps(method, profile, t, tau)) @ q


@pytest.mark.parametrize(
    "method", [RK4, EUB, GL2], ids=["rk4_step", "euler_backward_step", "gauss_legendre_step"]
)
def test_zero_field_leaves_state_unchanged(method):
    q = np.array([0.5, 0.5, 0.5, 0.5])
    npt.assert_allclose(one_step(method, ZERO, q, 0.3, 0.25), q, atol=1e-15)


def test_non_finite_step_is_named():
    # Backward Euler samples the rate at each step end; a rate that is nan at
    # t = 0.5 is the sample of the step over [0.25, 0.5], step 1, and is named
    # before the step map it would make non-finite.
    def rate(t):
        return np.where(t[..., None] == 0.5, np.nan, W_REF.vector)

    profile = FormulaProfile("nan-at-half", rate)
    with pytest.raises(ConsistencyError, match="rate is not finite at step 1"):
        integrate_baseline(EUB, profile, E0, 0.0, 1.0, 0.25)


def nan_from_half(t):
    return np.where(t[..., None] >= 0.5, np.nan, W_REF.vector)


@pytest.mark.parametrize("method, step", [(RK4, 1), (EUB, 1), (GL2, 2)])
def test_non_finite_rate_names_the_lowest_step_of_any_stage(method, step):
    # The rate is nan from t = 0.5 on (tau 0.25): RK4's last stage and EUB's
    # step end reach it in step 1, over [0.25, 0.5]; GL2's interior nodes
    # only in step 2.
    profile = FormulaProfile("nan-from-half", nan_from_half)
    with pytest.raises(ConsistencyError, match=f"not finite at step {step}$"):
        integrate_baseline(method, profile, E0, 0.0, 1.0, 0.25)


@pytest.mark.parametrize("method", [RK4, EUB, GL2], ids=["RK4", "EUB", "GL2"])
def test_stage_rate_without_three_components_is_named(method):
    four = FormulaProfile("four", lambda t: np.ones(np.shape(t) + (4,)))
    with pytest.raises(ValueError, match=r"last axis 3, got \(2, 4\)"):
        baseline_steps(method, four, np.array([0.0, 0.1]), np.array([0.1, 0.1]))


def test_singular_stage_system_is_named(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularMatrixError, match="^stage system is singular: Singular matrix$"):
        baseline_steps(GL2, W_REF, 0.0, 0.1)


# --- RK4 ------------------------------------------------------------------------

def test_rk4_one_step_error_follows_series_remainder():
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = rng.normal(0.0, 3.0, 3)
        n = max(np.linalg.norm(w), 1e-9)
        tau = rng.uniform(0.01 / n, 0.5 / n)
        q0 = rng.normal(size=4)
        q0 /= np.linalg.norm(q0)
        stepped = one_step(RK4, ConstantProfile(tuple(w)), q0, 0.0, tau)
        exact = analytic_constant_transition(w, tau) @ q0
        x = np.linalg.norm(w) * tau / 2.0
        assert np.linalg.norm(stepped - exact) <= 1.1 * x**5 / 120.0


def test_rk4_does_not_preserve_norm_at_large_step():
    q1 = one_step(RK4, W_REF, E0, 0.0, 0.25)
    assert abs(np.linalg.norm(q1) - 1.0) > 1e-6


def test_rk4_global_order_four():
    oracle = constant_oracle(np.array([2.0, 10.0, 3.0]), E0)
    errors = []
    for tau in [0.05, 0.025, 0.0125, 0.00625]:
        traj = integrate_baseline(BaselineMethod.RK4, W_REF, E0, 0.0, 10.0, tau)
        errors.append((tau, float(np.max(np.abs(traj.states - oracle(traj.times))))))
    # tau-halving ratios land near 2^4 = 16
    for (_, e0), (_, e1) in zip(errors, errors[1:]):
        assert 14.0 <= e0 / e1 <= 18.0
    assert 3.7 <= convergence_order(errors) <= 4.3


# --- backward Euler ----------------------------------------------------------------

def test_euler_backward_hand_solvable_case():
    q1 = one_step(EUB, ConstantProfile((2.0, 0.0, 0.0)), E0, 0.0, 0.1)
    npt.assert_allclose(q1, [1.0 / 1.01, 0.1 / 1.01, 0.0, 0.0], rtol=1e-14)
    npt.assert_allclose(np.linalg.norm(q1), 1.0 / math.sqrt(1.01), rtol=1e-14)


def test_euler_backward_strictly_contracts():
    rng = np.random.default_rng(8)
    for _ in range(200):
        w = rng.normal(0.0, 3.0, 3)
        if np.linalg.norm(w) < 1e-3:
            continue
        tau = rng.uniform(1e-3, 1.0)
        q0 = rng.normal(size=4)
        q1 = one_step(EUB, ConstantProfile(tuple(w)), q0, 0.0, tau)
        assert np.linalg.norm(q1) < np.linalg.norm(q0)


def test_euler_backward_zero_rate_is_the_identity_at_any_finite_step():
    # (tau/2)^2 overflows at tau = 1e200; at a zero rate the step is e0 all
    # the same, and a nonzero rate whose |w|^2 underflows keeps its refusal.
    with np.errstate(over="ignore", invalid="ignore"):
        p = baseline_steps(EUB, ConstantProfile((0.0, 0.0, 0.0)), [0.0, 0.0], [1e200, 0.5])
        npt.assert_array_equal(p, [E0, E0])
        with pytest.raises(ConsistencyError, match="^step map is not finite at step 0$"):
            baseline_steps(EUB, ConstantProfile((1e-170, 0.0, 0.0)), 0.0, 1e200)


def test_euler_backward_samples_rate_at_step_end():
    # Profile jumps after t=0; the implicit step must see the t+tau value.
    from quatkin.model import TabulatedProfile

    profile = TabulatedProfile(
        np.array([0.0, 0.1]), np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    )
    q1 = one_step(EUB, profile, E0, 0.0, 0.1)
    npt.assert_allclose(q1, [1.0 / 1.01, 0.1 / 1.01, 0.0, 0.0], rtol=1e-14)


def test_tabulated_profile_ending_at_tf_runs_every_method():
    # The step-end time t_k + tau_k can round one ulp past tf; with samples
    # ending exactly at tf that sample must still lie inside the table.
    from quatkin.model import TabulatedProfile

    rng = np.random.default_rng(2024)
    runners = [
        lambda p, t0, tf, tau, m=m: integrate_baseline(m, p, E0, t0, tf, tau)
        for m in BaselineMethod
    ] + [
        lambda p, t0, tf, tau, mode=mode: integrate_nonautonomous(p, E0, t0, tf, tau, mode)
        for mode in MidpointSamplingMode
    ]
    for _ in range(400):
        t0 = rng.uniform(-5.0, 5.0)
        tf = t0 + rng.uniform(0.1, 10.0)
        tau = float(rng.choice([0.01, 0.03, 0.07, 0.1]))
        times = np.linspace(t0, tf, 50)
        times[-1] = tf
        profile = TabulatedProfile(times, rng.normal(size=(50, 3)))
        for run in runners:
            assert run(profile, t0, tf, tau).times[-1] == tf


# --- step norm |p_k| -------------------------------------------------------------

def test_step_norm_ranks_the_methods_on_fig2():
    # Every step map is R(p_k) with R(p_k).T R(p_k) = |p_k|^2 I, so |p_k| is
    # the per-step norm factor: 1 for the Cayley maps and GL2, a strict
    # contraction for EUB, and a drift for RK4.
    profile = profile_from_name("fig2")
    times, tau_k, t_end = schedule(0.0, 15.0, 0.1)
    t = times[:-1]
    w = midpoint_omega(profile, t, tau_k, MidpointSamplingMode.EXACT, t_end)

    def step_norms(p):
        return np.linalg.norm(p, axis=-1)

    npt.assert_allclose(step_norms(cayley_steps(w, tau_k)), 1.0, rtol=0.0, atol=1e-15)
    sga_na = cayley_steps(corrected_rate(w, tau_k), tau_k)
    npt.assert_allclose(step_norms(sga_na), 1.0, rtol=0.0, atol=1e-15)
    gl2 = baseline_steps(GL2, profile, t, tau_k, t_end)
    npt.assert_allclose(step_norms(gl2), 1.0, rtol=0.0, atol=1e-14)
    w_end = profile.omega_at(t_end)
    damping = 1.0 / np.sqrt(1.0 + tau_k**2 * np.sum(w_end * w_end, axis=-1) / 4.0)
    eub = baseline_steps(EUB, profile, t, tau_k, t_end)
    npt.assert_allclose(step_norms(eub), damping, rtol=0.0, atol=1e-15)
    rk4 = baseline_steps(RK4, profile, t, tau_k, t_end)
    assert np.max(np.abs(step_norms(rk4) - 1.0)) > 1e-8


# --- Gauss-Legendre -----------------------------------------------------------------

def test_gauss_legendre_local_order_five():
    w = np.array([2.0, 10.0, 3.0])
    q0 = E0
    errs = []
    for tau in [0.02, 0.01]:
        stepped = one_step(GL2, W_REF, q0, 0.0, tau)
        errs.append(np.linalg.norm(stepped - analytic_constant_transition(w, tau) @ q0))
    ratio = errs[0] / errs[1]
    assert 25.0 <= ratio <= 40.0  # local error ~ tau^5 halves by ~32


def test_gauss_legendre_preserves_norm_per_step():
    rng = np.random.default_rng(9)
    for _ in range(100):
        w = tuple(rng.normal(0.0, 3.0, 3))
        tau = rng.uniform(1e-3, 0.3)
        q0 = rng.normal(size=4)
        q0 /= np.linalg.norm(q0)
        q1 = one_step(GL2, ConstantProfile(w), q0, 0.0, tau)
        assert abs(np.linalg.norm(q1) - 1.0) <= 1e-13


def test_gauss_legendre_norm_drift_long_run():
    # Quadrature nodes sit on the imaginary-axis stability boundary for the
    # skew field, so only rounding accumulates.
    traj = integrate_baseline(BaselineMethod.GAUSS_LEGENDRE2, W_REF, E0, 0.0, 1000.0, 0.01)
    assert traj.steps == 100000
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-10


def test_gauss_legendre_global_order_four():
    oracle = constant_oracle(np.array([2.0, 10.0, 3.0]), E0)
    errors = []
    for tau in [0.1, 0.05, 0.025, 0.0125]:
        traj = integrate_baseline(BaselineMethod.GAUSS_LEGENDRE2, W_REF, E0, 0.0, 10.0, tau)
        errors.append((tau, float(np.max(np.abs(traj.states - oracle(traj.times))))))
    assert 3.7 <= convergence_order(errors) <= 4.3


@pytest.mark.parametrize("method", [RK4, GL2], ids=["RK4", "GL2"])
def test_interp_sampling_caps_order_at_two(method):
    # The chord of the endpoint samples is a second-order approximation of
    # the rate, so it caps the fourth-order methods at order 2 on coning.
    profile = profile_from_name("coning")
    q0 = coning_analytic_state(profile.omega0, profile.beta, 0.0)
    errors = []
    for tau in [0.1, 0.05, 0.025, 0.0125]:
        traj = integrate_baseline(
            method, profile, q0, 0.0, 10.0, tau, MidpointSamplingMode.LINEAR_INTERP
        )
        oracle = coning_analytic_state(profile.omega0, profile.beta, traj.times)
        errors.append((tau, float(np.max(np.abs(traj.states - oracle)))))
    assert 1.7 <= convergence_order(errors) <= 2.3


# --- shared loop conventions ----------------------------------------------------------

def test_euler_backward_damps_fig2_run():
    traj = integrate_baseline(
        BaselineMethod.EULER_BACKWARD, profile_from_name("fig2"), E0, 0.0, 15.0, 0.25
    )
    norms = traj.norms()
    assert norms[-1] < 0.9
    assert np.all(np.diff(norms) < 0.0)


def test_rk4_fig2_small_step_norm_deviation():
    traj = integrate_baseline(
        BaselineMethod.RK4, profile_from_name("fig2"), E0, 0.0, 15.0, 0.10
    )
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-3


def test_all_methods_share_horizon_convention():
    profile = profile_from_name("fig2")
    reference = integrate_nonautonomous(profile, E0, 0.0, 1.23, 0.1)
    for method in BaselineMethod:
        traj = integrate_baseline(method, profile, E0, 0.0, 1.23, 0.1)
        assert traj.steps == reference.steps
        npt.assert_array_equal(traj.times, reference.times)


# --- batched step matrices against the per-step formulas ------------------------------
# The stage recurrences below are the per-step vector forms the batched
# builders replace; they are kept here only as a reference.

def _ref_rate(profile, t):
    return 0.5 * coefficient_matrix(profile.omega_at(t))


def _ref_rk4(profile, q, t, tau):
    k1 = _ref_rate(profile, t) @ q
    l_mid = _ref_rate(profile, t + tau / 2.0)
    k2 = l_mid @ (q + (tau / 2.0) * k1)
    k3 = l_mid @ (q + (tau / 2.0) * k2)
    k4 = _ref_rate(profile, t + tau) @ (q + tau * k3)
    return q + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_euler_backward(profile, q, t, tau):
    m = I4 - (tau / 2.0) * coefficient_matrix(profile.omega_at(t + tau))
    return solve_linear_4(m, q)


def _ref_gauss_legendre(profile, q, t, tau):
    l1 = _ref_rate(profile, t + GL2_NODES[0] * tau)
    l2 = _ref_rate(profile, t + GL2_NODES[1] * tau)
    m = np.eye(8)
    m[0:4, 0:4] -= tau * GL2_MATRIX[0][0] * l1
    m[0:4, 4:8] -= tau * GL2_MATRIX[0][1] * l1
    m[4:8, 0:4] -= tau * GL2_MATRIX[1][0] * l2
    m[4:8, 4:8] -= tau * GL2_MATRIX[1][1] * l2
    stages = np.linalg.solve(m, np.concatenate([l1 @ q, l2 @ q]))
    return q + tau * (GL2_WEIGHTS[0] * stages[0:4] + GL2_WEIGHTS[1] * stages[4:8])


REFERENCE_STEPS = {
    BaselineMethod.RK4: _ref_rk4,
    BaselineMethod.EULER_BACKWARD: _ref_euler_backward,
    BaselineMethod.GAUSS_LEGENDRE2: _ref_gauss_legendre,
}


@pytest.mark.parametrize("method", list(BaselineMethod), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "name, tf, tau",
    [("fig2", 15.0, 0.1), ("coning", 100.0, 0.01)],
    ids=["fig2", "coning-1e4"],
)
def test_batched_matrices_match_per_step_formulas(method, name, tf, tau):
    profile = profile_from_name(name)
    q0 = coning_analytic_state(2.0 * math.pi, math.pi / 80.0, 0.0) if name == "coning" else E0
    traj = integrate_baseline(method, profile, q0, 0.0, tf, tau)
    times, tau_k, _ = schedule(0.0, tf, tau)
    q, worst = q0, 0.0
    for k in range(len(tau_k)):
        q = REFERENCE_STEPS[method](profile, q, float(times[k]), float(tau_k[k]))
        worst = max(worst, float(np.max(np.abs(traj.states[k + 1] - q))))
    assert worst <= traj.steps * 1e-14, worst


@pytest.mark.parametrize("method", list(BaselineMethod), ids=lambda m: m.value)
def test_one_step_wrappers_apply_the_step_matrix(method):
    # A scalar step is the matching row of a batch, and one step through the
    # step matrix agrees with the per-step stage formula.
    profile = profile_from_name("fig2")
    q = np.array([0.2, -0.4, 0.8, 0.4])
    p = baseline_steps(method, profile, np.array([0.3, 1.1]), np.array([0.05, 0.02]))
    g = right_matrix(p)
    assert g.shape == (2, 4, 4)
    npt.assert_array_equal(one_step(method, profile, q, 1.1, 0.02), g[1] @ q)
    reference = REFERENCE_STEPS[method](profile, q, 0.3, 0.05)
    npt.assert_allclose(one_step(method, profile, q, 0.3, 0.05), reference, atol=1e-15)


@pytest.mark.parametrize(
    "method, reference", [(RK4, rk4_steps), (GL2, gl2_steps)], ids=["RK4", "GL2"]
)
@pytest.mark.parametrize("name", ["fig1a", "fig1c", "fig2", "coning"])
def test_batched_builders_match_their_first_formulation_bitwise(method, reference, name):
    # RK4's stage matrices from one right_matrix call and GL2's stage matrix
    # written block by block do the reference's arithmetic, entry for entry:
    # on a run's block of steps, and on a ladder's scalar time and four step
    # sizes, where the stage rates come with unequal shapes.
    profile = profile_from_name(name)
    times, tau_k, _ = schedule(0.3, 4.0, 0.1)
    for t, tau in [(times[:-1], tau_k), (0.3, np.array([0.1, 0.05, 0.025, 0.0125]))]:
        p = baseline_steps(method, profile, t, tau)
        assert p.tobytes() == reference(profile, t, tau).tobytes()
