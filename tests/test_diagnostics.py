import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from quatkin.baselines import BaselineMethod, integrate_baseline
from quatkin.diagnostics import (
    DefectSeries,
    component_errors,
    convergence_order,
    euler_formula_gap,
    frobenius_norm,
    symplecticity_defect,
)
from quatkin.errors import DegenerateDataError
from quatkin.model import (
    I4,
    LEFT_J,
    SYMPLECTIC_J4,
    ConstantProfile,
    coning_oracle,
    constant_oracle,
)
from quatkin.scenario import one_step_matrix, parse_config, profile_from_name
from quatkin.symplectic import autonomous_transition, integrate_autonomous
from quatkin.trajectory import _BLOCK_STEPS, Trajectory
from harness import traced

E0 = np.array([1.0, 0.0, 0.0, 0.0])
W_REF = np.array([2.0, 10.0, 3.0])


def test_norm_history_orthogonal_propagation():
    traj = integrate_autonomous(W_REF, E0, 0.0, 50.0, 0.01)
    norms = traj.norms()
    assert norms.shape == (traj.steps + 1,)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_norm_history_damped_run_strictly_decreasing():
    traj = integrate_baseline(
        BaselineMethod.EULER_BACKWARD, profile_from_name("fig2"), E0, 0.0, 10.0, 0.1
    )
    assert np.all(np.diff(traj.norms()) < 0.0)


def test_norm_history_single_state():
    traj = Trajectory(times=np.array([0.0]), states=E0.reshape(1, 4))
    assert traj.norms().shape == (1,)


def test_norms_are_bitwise_linalg_norm():
    # Random rows, rows whose squares overflow or underflow into the
    # subnormals, and rows holding nan or inf: every norm is the one
    # np.linalg.norm gives, bit for bit (the CSV's norm column is compared
    # against it byte for byte).
    rng = np.random.default_rng(23)
    states = rng.standard_normal((4000, 4))
    states[1000:2000] *= 1e200
    states[2000:3000] *= 1e-160
    states[3000:3100] *= 5e-324
    states[3100:3200, 1] = np.nan
    states[3200:3300, 2] = -np.inf
    states[3300:3400] = 0.0
    traj = Trajectory(times=np.arange(len(states), dtype=float), states=states)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linalg.norm(states, axis=1)
    assert traj.norms().tobytes() == expected.tobytes()


def test_orthogonality_defect_values():
    g = autonomous_transition(W_REF, 0.05)
    assert frobenius_norm(g.T @ g - I4) <= 1e-13


def test_symplecticity_defect_of_j_is_zero():
    assert symplecticity_defect(SYMPLECTIC_J4) == 0.0


def test_symplecticity_defect_halving():
    d1 = symplecticity_defect(autonomous_transition(W_REF, 0.02))
    d2 = symplecticity_defect(autonomous_transition(W_REF, 0.01))
    assert 0.4 <= d2 / d1 <= 0.6


def test_symplecticity_defect_default_structure_is_j4():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = autonomous_transition(rng.normal(0.0, 4.0, 3), rng.uniform(0.01, 0.5))
        assert symplecticity_defect(g) == symplecticity_defect(g, SYMPLECTIC_J4)
        assert symplecticity_defect(g) == symplecticity_defect(g, structure=SYMPLECTIC_J4)


@pytest.mark.parametrize("structure", [SYMPLECTIC_J4, LEFT_J], ids=["J4", "left-j"])
def test_symplecticity_defect_of_a_stack_is_each_maps_defect_bitwise(structure):
    rng = np.random.default_rng(29)
    stack = I4 + rng.normal(0.0, 0.3, (50, 3, 4, 4))
    defects = symplecticity_defect(stack, structure)
    assert defects.shape == (50, 3)
    for g, d in zip(stack.reshape(-1, 4, 4), defects.reshape(-1).tolist()):
        alone = symplecticity_defect(g, structure)
        assert type(alone) is float
        assert d == alone == frobenius_norm(g.T @ structure @ g - structure)


def _constant_w_ref_step(method: str, tau: float) -> np.ndarray:
    cfg = parse_config(
        json.dumps(
            {
                "profile": {"type": "constant", "omega": W_REF.tolist()},
                "tf": 1.0,
                "tau": tau,
                "method": method,
            }
        )
    )
    return one_step_matrix(cfg, tau)


def test_left_structure_defect_separates_symplectic_maps():
    # Negative control for acceptance criterion 4: the 1e-14 bound against
    # the left-multiplication structures holds for the orthogonal maps and
    # fails for the norm-damping (EUB) and norm-drifting (RK4) steps.
    defects = {
        m: symplecticity_defect(_constant_w_ref_step(m, 0.1), LEFT_J)
        for m in ("SGA-A", "SGA-NA", "GL2", "EUB", "RK4")
    }
    assert defects["SGA-A"] <= 1e-14
    assert defects["SGA-NA"] <= 1e-14
    assert defects["GL2"] <= 1e-14
    assert defects["EUB"] >= 1e-4
    assert defects["RK4"] >= 1e-4


def test_defects_invariant_under_structure_preserving_conjugation():
    rng = np.random.default_rng(17)
    powers = [I4, SYMPLECTIC_J4, -I4, -SYMPLECTIC_J4]
    for _ in range(50):
        g = autonomous_transition(rng.normal(0.0, 4.0, 3), rng.uniform(0.01, 0.5))
        for q in powers:
            conj = q.T @ g @ q
            npt.assert_allclose(
                symplecticity_defect(conj), symplecticity_defect(g), atol=1e-12
            )
            npt.assert_allclose(
                frobenius_norm(conj.T @ conj - I4), frobenius_norm(g.T @ g - I4), atol=1e-12
            )


def row_wise_component_errors(traj, oracle):
    """The per-component maxima as first computed: a reduction over (n, 4) rows."""
    return np.abs(traj.states - np.asarray(oracle(traj.times), dtype=float)).max(axis=0)


@pytest.mark.parametrize("with_nan", [False, True])
def test_component_errors_bitwise_equal_to_row_wise_formulation(with_nan):
    # Dyadic states and offsets make every error exact, so many rows tie for
    # each component's maximum.  A nan error wins wherever it sits.
    rng = np.random.default_rng(41)
    n = 5000
    states = rng.integers(-8, 9, (n, 4)) / 8.0
    ref = states - rng.choice([-0.5, -0.25, 0.0, 0.25, 0.5], (n, 4))
    if with_nan:
        ref[[1234, 4321], [2, 0]] = np.nan
    traj = Trajectory(times=0.01 * np.arange(n), states=states)

    def oracle(t):  # the rows of ref at the sample times t
        return ref[np.searchsorted(traj.times, t)]

    report = component_errors(traj, oracle)
    per_component = row_wise_component_errors(traj, oracle)
    assert report.max_component_error.tobytes() == per_component.tobytes()
    if with_nan:
        assert np.isnan(per_component[[0, 2]]).all()
    else:
        assert np.all(per_component == 0.5)


def test_component_errors_rejects_an_oracle_of_the_wrong_shape():
    traj = Trajectory(times=np.arange(3.0), states=np.tile(E0, (3, 1)))
    with pytest.raises(ValueError, match=r"oracle returned shape \(3, 3\), expected \(3, 4\)"):
        component_errors(traj, lambda t: np.zeros((len(t), 3)))


def test_component_errors_memory_does_not_grow_with_the_run():
    # The oracle is called one block of samples at a time, so a run of 4
    # blocks peaks where a run of 1 block does: no whole-run reference or
    # error array (64 bytes a step).
    oracle = coning_oracle(1.0, 0.1)
    peaks = []
    for blocks in (1, 4):
        times = 0.01 * np.arange(blocks * _BLOCK_STEPS)
        traj = Trajectory(times=times, states=oracle(times) + 1e-3)
        component_errors(traj, oracle)  # first-call allocations out of the way
        with traced() as memory:
            report = component_errors(traj, oracle)
        peaks.append(memory.peak)
        npt.assert_allclose(report.max_component_error, 1e-3, rtol=1e-9)
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_component_errors_self_oracle_is_zero():
    traj = integrate_autonomous(W_REF, E0, 0.0, 1.0, 0.01)

    def oracle(t):
        return traj.states.copy()

    report = component_errors(traj, oracle)
    npt.assert_array_equal(report.max_component_error, np.zeros(4))


def test_component_errors_swap_symmetric():
    w = np.array([1.0, -2.0, 0.5])
    traj = integrate_autonomous(w, E0, 0.0, 2.0, 0.05)
    oracle = constant_oracle(w, E0)
    forward = component_errors(traj, oracle)
    swapped_traj = Trajectory(times=traj.times, states=oracle(traj.times))
    states = traj.states

    def swapped_oracle(t):
        return states

    backward = component_errors(swapped_traj, swapped_oracle)
    npt.assert_array_equal(
        forward.max_component_error, backward.max_component_error
    )


def test_component_errors_halving_ratio_near_four():
    w = np.array([2.0, 10.0, 3.0])
    oracle = constant_oracle(w, E0)
    errs = []
    for tau in [0.02, 0.01]:
        traj = integrate_autonomous(w, E0, 0.0, 10.0, tau)
        errs.append(component_errors(traj, oracle).max_error)
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_convergence_order_synthetic():
    quadratic = [(0.1, 1.0e-2), (0.05, 2.5e-3), (0.025, 6.25e-4)]
    npt.assert_allclose(convergence_order(quadratic), 2.0, atol=1e-12)
    linear = [(0.1, 0.2), (0.05, 0.1)]
    npt.assert_allclose(convergence_order(linear), 1.0, atol=1e-12)


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1.0)])
    with pytest.raises(ValueError, match=r"^taus must halve: got 0\.1 -> 0\.03$"):
        convergence_order([(0.1, 1.0), (0.03, 0.5)])
    with pytest.raises(DegenerateDataError):
        convergence_order([(0.1, 1.0), (0.05, 0.0)])


def test_convergence_order_on_sga_ladder():
    oracle = constant_oracle(W_REF, E0)
    errors = []
    for tau in [0.02, 0.01, 0.005, 0.0025]:
        traj = integrate_autonomous(W_REF, E0, 0.0, 10.0, tau)
        errors.append((tau, component_errors(traj, oracle).max_error))
    assert 1.8 <= convergence_order(errors) <= 2.2


def test_euler_formula_gap_values():
    assert euler_formula_gap(0.0) == 0.0
    assert euler_formula_gap(0.2) < 1.25e-4
    assert euler_formula_gap(0.01) < 1.57e-8


def test_euler_formula_gap_monotone_on_small_arguments():
    grid = euler_formula_gap(np.linspace(0.0, 0.5, 1000))
    assert np.all(np.diff(grid) >= 0.0)


def test_euler_formula_gap_rejects_negative():
    with pytest.raises(ValueError):
        euler_formula_gap(-0.1)


@pytest.mark.parametrize("x", [math.nan, math.inf, [0.1, math.nan]])
def test_euler_formula_gap_rejects_non_finite(x):
    with pytest.raises(ValueError, match="finite"):
        euler_formula_gap(x)


def test_cosine_fit_sga_component_at_map_frequency():
    # From E0 the propagated e0 component is exactly cos(k theta) at the map's
    # own angle theta = 2 atan(tau |w| / 4) per step (the true rate |w|/2 up
    # to the per-step closed-form gap), to rounding.
    traj = integrate_autonomous(W_REF, E0, 0.0, 10.0, 0.01)
    theta = 2.0 * math.atan(0.01 * float(np.linalg.norm(W_REF)) / 4.0)
    k = np.arange(traj.steps + 1)
    npt.assert_allclose(traj.states[:, 0], np.cos(k * theta), rtol=0.0, atol=1e-12)


def test_defect_series_validation_and_order():
    series = DefectSeries(taus=(0.1, 0.05, 0.025), defects=(0.4, 0.2, 0.1))
    npt.assert_allclose(series.estimated_order, 1.0, atol=1e-12)
    with pytest.raises(ValueError, match=r"^taus must halve: got 0\.1 -> 0\.04$"):
        DefectSeries(taus=(0.1, 0.04), defects=(0.4, 0.2))
    with pytest.raises(DegenerateDataError):
        DefectSeries(taus=(0.1, 0.05), defects=(0.0, 0.0)).estimated_order
    with pytest.raises(ValueError, match="at least two rungs"):
        DefectSeries(taus=(0.1,), defects=(0.4,))


def test_taus_that_halve_only_to_1e_6_are_refused():
    # Steps must halve to 1e-9: a second step 1e-6 off half the first is
    # refused by the order fit and the defect ladder alike.
    taus = (0.1, 0.05 * (1.0 + 1e-6))
    with pytest.raises(ValueError, match="^taus must halve"):
        convergence_order([(taus[0], 1.0), (taus[1], 0.25)])
    with pytest.raises(ValueError, match="^taus must halve"):
        DefectSeries(taus=taus, defects=(0.4, 0.1))


def test_subnorm_pair_history_conserved_for_planar_profile():
    from quatkin.symplectic import integrate_nonautonomous

    traj = integrate_nonautonomous(profile_from_name("fig1b"), E0, 0.0, 30.0, 0.01)
    s = traj.states[traj.times >= 5.0]
    assert len(s) == 2501
    assert np.max(np.abs(s[:, 0] ** 2 + s[:, 1] ** 2 - 1.0)) <= 1e-12
    assert np.max(np.abs(s[:, 2] ** 2 + s[:, 3] ** 2)) == 0.0
