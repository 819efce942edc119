"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 states the symplecticity claim against the structures the
quaternion flow preserves.  Every step map here is a right multiplication
q -> q (x) p, so it commutes with the left multiplications LEFT_I, LEFT_J and
LEFT_K; an orthogonal map G then satisfies G.T L G = L to rounding.  The block
matrix SYMPLECTIC_J4 = R(-j) is itself a right multiplication that does not
commute with A(w) unless w is parallel to e2, so against it every consistent
map, the exact flow exp(tau A/2) included, has a defect of order tau (ratio
~0.5 per halving); criterion 4 checks that ratio rather than a band no
convergent integrator meets (see README "Install and test").
"""
import json
import math
import time
import warnings

import numpy as np

from quatkin.baselines import BaselineMethod, integrate_baseline
from quatkin.diagnostics import (
    component_errors,
    convergence_order,
    euler_formula_gap,
    symplecticity_defect,
)
from quatkin.model import (
    coning_analytic_state,
    coning_oracle,
    constant_oracle,
)
from quatkin.scenario import parse_config, profile_from_name, run_scenario, run_sweep
from quatkin.symplectic import (
    StepSizeWarning,
    autonomous_transition,
    integrate_autonomous,
    integrate_nonautonomous,
    nonautonomous_transition,
)
from quatkin.linalg import I4, LEFT_I, LEFT_J, LEFT_K, frobenius_norm, solve_linear_4
from quatkin.model import coefficient_matrix

E0 = np.array([1.0, 0.0, 0.0, 0.0])
W_REF = np.array([2.0, 10.0, 3.0])
CONING_W0 = 2.0 * math.pi
CONING_BETA = math.pi / 80.0
CONING_Q0 = coning_analytic_state(CONING_W0, CONING_BETA, 0.0)


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_01_norm_preservation():
    scenarios = [
        ("fig1a", "SGA-A", E0),
        ("fig1b", "SGA-NA", E0),
        ("fig1c", "SGA-NA", E0),
        ("fig1d", "SGA-NA", E0),
        ("fig2", "SGA-NA", E0),
        ("coning", "SGA-NA", CONING_Q0),
    ]
    worst_dev, worst_time = 0.0, 0.0
    for name, method, q0 in scenarios:
        profile = profile_from_name(name)
        start = time.perf_counter()
        if method == "SGA-A":
            traj = integrate_autonomous(np.array(profile.vector), q0, 0.0, 100.0, 0.01)
        else:
            traj = integrate_nonautonomous(profile, q0, 0.0, 100.0, 0.01)
        elapsed = time.perf_counter() - start
        dev = float(np.max(np.abs(traj.norms() - 1.0)))
        worst_dev = max(worst_dev, dev)
        worst_time = max(worst_time, elapsed)
    ok = worst_dev <= 1e-10 and worst_time <= 1.0
    _line(
        1,
        ok,
        f"max |norm-1| = {worst_dev:.2e} (<= 1e-10), slowest scenario "
        f"{worst_time:.2f} s (<= 1 s) over 6 scenarios at tau=0.01, 100 s",
    )
    assert worst_dev <= 1e-10
    assert worst_time <= 1.0


def test_criterion_02_coning_long_horizon_error():
    start = time.perf_counter()
    traj = integrate_nonautonomous(
        profile_from_name("coning"), CONING_Q0, 0.0, 1000.0, 0.01
    )
    report = component_errors(traj, coning_oracle(CONING_W0, CONING_BETA))
    elapsed = time.perf_counter() - start
    e0_err = float(report.max_component_error[0])
    vec_err = float(np.max(report.max_component_error[1:]))
    ok = 1e-8 <= e0_err <= 1e-6 and vec_err <= 1e-3 and elapsed <= 10.0
    _line(
        2,
        ok,
        f"max |e0 err| = {e0_err:.3e} (in [1e-8, 1e-6]), max e1..e3 err = "
        f"{vec_err:.3e} (<= 1e-3), runtime {elapsed:.2f} s (<= 10 s)",
    )
    assert 1e-8 <= e0_err <= 1e-6
    assert vec_err <= 1e-3
    assert elapsed <= 10.0


def test_criterion_03_rotation_gap_bounds():
    start = time.perf_counter()
    grid_02 = euler_formula_gap(np.linspace(0.0, 0.2, 1000))
    grid_001 = euler_formula_gap(np.linspace(0.0, 0.01, 1000))
    elapsed = time.perf_counter() - start
    ok = (
        bool(np.all(grid_02 < 1.25e-4))
        and bool(np.all(grid_001 < 1.57e-8))
        and elapsed < 0.1
    )
    _line(
        3,
        ok,
        f"h(x) max {np.max(grid_02):.3e} on [0, 0.2] (< 1.25e-4), "
        f"{np.max(grid_001):.3e} on [0, 0.01] (< 1.57e-8), {elapsed * 1e3:.1f} ms",
    )
    assert np.all(grid_02 < 1.25e-4)
    assert np.all(grid_001 < 1.57e-8)
    assert elapsed < 0.1


def test_criterion_04_defect_order_ladders():
    start = time.perf_counter()
    taus = [0.1, 0.05, 0.025, 0.0125]

    def worst_left_defect(g):
        return max(symplecticity_defect(g, s) for s in (LEFT_I, LEFT_J, LEFT_K))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)  # coarse taus on purpose
        g_auto = [autonomous_transition(W_REF, t) for t in taus]
        g_na = [nonautonomous_transition(W_REF, t) for t in taus]
        d_auto = [symplecticity_defect(g) for g in g_auto]
        d_na = [symplecticity_defect(g) for g in g_na]
        r_auto = [b / a for a, b in zip(d_auto, d_auto[1:])]
        r_na = [b / a for a, b in zip(d_na, d_na[1:])]
        dl_na = max(worst_left_defect(g) for g in g_na)
        w_zero = np.array([2.0, 0.0, 3.0])
        d0_auto = max(
            worst_left_defect(autonomous_transition(w_zero, t)) for t in taus
        )
        d0_na = max(
            worst_left_defect(nonautonomous_transition(w_zero, t)) for t in taus
        )
    elapsed = time.perf_counter() - start

    ok_auto = all(0.4 <= r <= 0.6 for r in r_auto)
    ok_na = dl_na <= 1e-14 and all(0.4 <= r <= 0.6 for r in r_na)
    ok_zero = d0_auto <= 1e-14 and d0_na <= 1e-14
    print(f"  sub-check autonomous J4 ratios in [0.4, 0.6]: {ok_auto} ({r_auto})")
    print(
        f"  sub-check time-varying LEFT_I/J/K defects <= 1e-14 ({dl_na:.2e}) "
        f"and J4 ratios in [0.4, 0.6]: {ok_na} ({r_na})"
    )
    print(
        f"  sub-check LEFT_I/J/K defects <= 1e-14 at omega=(2,0,3): {ok_zero} "
        f"(auto {d0_auto:.2e}, time-varying {d0_na:.2e})"
    )
    ok = ok_auto and ok_na and ok_zero and elapsed < 0.1
    _line(
        4,
        ok,
        "both maps exactly symplectic for the left-multiplication structures "
        "LEFT_I/J/K on every rung (<= 1e-14); against J4, which the exact flow "
        f"does not preserve, both defects halve with tau; {elapsed * 1e3:.1f} ms",
    )
    assert ok_auto, f"autonomous J4 ratios {r_auto} outside [0.4, 0.6]"
    assert elapsed < 0.1
    assert dl_na <= 1e-14, f"time-varying LEFT_I/J/K defect {dl_na:.2e} above 1e-14"
    assert all(0.4 <= r <= 0.6 for r in r_na), (
        f"time-varying J4 ratios {r_na} outside [0.4, 0.6]"
    )
    assert ok_zero, (
        f"LEFT_I/J/K defects at omega2=0: {d0_auto:.2e}, {d0_na:.2e} above 1e-14"
    )


def test_criterion_05_reversal_and_orthogonality_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_rev, worst_orth = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        for _ in range(1000):
            w = rng.normal(0.0, 4.0, 3)
            tau = rng.uniform(1e-6, 1.0)
            g = autonomous_transition(w, tau)
            g_rev = autonomous_transition(w, -tau)
            worst_rev = max(worst_rev, frobenius_norm(g_rev - g.T))
            worst_orth = max(worst_orth, frobenius_norm(g.T @ g - I4))
    elapsed = time.perf_counter() - start
    ok = worst_rev <= 1e-13 and worst_orth <= 1e-13 and elapsed < 0.5
    _line(
        5,
        ok,
        f"1000 random transitions: max |G(-tau) - G.T| = {worst_rev:.2e}, "
        f"max |G.T G - I| = {worst_orth:.2e} (both <= 1e-13), {elapsed:.2f} s",
    )
    assert worst_rev <= 1e-13
    assert worst_orth <= 1e-13
    assert elapsed < 0.5


def test_criterion_06_closed_form_vs_implicit_assembly():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        for _ in range(1000):
            w = rng.normal(0.0, 4.0, 3)
            tau = rng.uniform(1e-6, 1.0)
            g = autonomous_transition(w, tau)
            a = coefficient_matrix(w)
            lhs = I4 - (tau / 4.0) * a
            rhs = I4 + (tau / 4.0) * a
            assembled = np.column_stack(
                [solve_linear_4(lhs, rhs[:, j]) for j in range(4)]
            )
            worst = max(worst, frobenius_norm(g - assembled))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 0.5
    _line(
        6,
        ok,
        f"1000 random cases: max |closed form - assembled Cayley| = "
        f"{worst:.2e} (<= 1e-13), {elapsed:.2f} s",
    )
    assert worst <= 1e-13
    assert elapsed < 0.5


def test_criterion_07_baseline_qualitative_ordering():
    fig2 = profile_from_name("fig2")
    eub = integrate_baseline(BaselineMethod.EULER_BACKWARD, fig2, E0, 0.0, 15.0, 0.25)
    eub_norms = eub.norms()
    eub_final = float(eub_norms[-1])
    eub_monotone = bool(np.all(np.diff(eub_norms) < 0.0))
    sga = integrate_nonautonomous(fig2, E0, 0.0, 15.0, 0.25)
    sga_dev = float(np.max(np.abs(sga.norms() - 1.0)))
    rk4 = integrate_baseline(BaselineMethod.RK4, fig2, E0, 0.0, 15.0, 0.10)
    rk4_dev = float(np.max(np.abs(rk4.norms() - 1.0)))
    ok = eub_final < 0.99 and eub_monotone and sga_dev <= 1e-10 and rk4_dev <= 1e-3
    _line(
        7,
        ok,
        f"EUB final norm {eub_final:.2e} (< 0.99, monotone={eub_monotone}), "
        f"SGA max dev {sga_dev:.2e} (<= 1e-10), RK4 max dev {rk4_dev:.2e} (<= 1e-3)",
    )
    assert eub_final < 0.99
    assert eub_monotone
    assert sga_dev <= 1e-10
    assert rk4_dev <= 1e-3


def test_criterion_08_accuracy_cost_frontier():
    taus = [0.1, 0.05, 0.025, 0.0125]
    base = {
        "profile": "coning",
        "q0": list(CONING_Q0),
        "tf": 500.0,
        "tau": 0.1,
        "outputs": ["error-report", "benchmark"],
    }
    sga_cfg = parse_config(json.dumps({**base, "method": "SGA-NA"}))
    gl_cfg = parse_config(json.dumps({**base, "method": "GL2"}))
    sga_runs = run_sweep(sga_cfg, taus)
    gl_runs = run_sweep(gl_cfg, taus)
    rows = []
    ok = True
    for s, g in zip(sga_runs, gl_runs):
        better_error = g.error_report.max_error < s.error_report.max_error
        faster = s.timing.wall_clock_s < g.timing.wall_clock_s
        within_budget = s.timing.wall_clock_s <= 1.0
        ok = ok and better_error and faster and within_budget
        rows.append(
            f"tau={s.config.tau:g}: SGA err {s.error_report.max_error:.2e} "
            f"in {s.timing.wall_clock_s:.3f}s vs GL2 err "
            f"{g.error_report.max_error:.2e} in {g.timing.wall_clock_s:.3f}s"
        )
    for row in rows:
        print("  " + row)
    _line(
        8,
        ok,
        "coning 500 s sweep: GL2 more accurate at every tau, SGA-NA faster "
        "at every tau and within 1 s",
    )
    for s, g in zip(sga_runs, gl_runs):
        assert g.error_report.max_error < s.error_report.max_error
        assert s.timing.wall_clock_s < g.timing.wall_clock_s
        assert s.timing.wall_clock_s <= 1.0


def test_criterion_09_convergence_orders():
    start = time.perf_counter()
    results = {}

    oracle_const = constant_oracle(W_REF, E0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        ladder = []
        for tau in [0.02, 0.01, 0.005, 0.0025]:
            traj = integrate_autonomous(W_REF, E0, 0.0, 10.0, tau)
            ladder.append((tau, component_errors(traj, oracle_const).max_error))
        results["SGA-A"] = convergence_order(ladder)

    coning = profile_from_name("coning")
    oracle_c = coning_oracle(CONING_W0, CONING_BETA)
    ladder = []
    for tau in [0.1, 0.05, 0.025, 0.0125]:
        traj = integrate_nonautonomous(coning, CONING_Q0, 0.0, 100.0, tau)
        ladder.append((tau, component_errors(traj, oracle_c).max_error))
    results["SGA-NA"] = convergence_order(ladder)

    const_profile = profile_from_name("fig1a")
    ladder = []
    for tau in [0.05, 0.025, 0.0125, 0.00625]:
        traj = integrate_baseline(BaselineMethod.RK4, const_profile, E0, 0.0, 10.0, tau)
        ladder.append((tau, component_errors(traj, oracle_const).max_error))
    results["RK4"] = convergence_order(ladder)

    ladder = []
    for tau in [0.1, 0.05, 0.025, 0.0125]:
        traj = integrate_baseline(
            BaselineMethod.GAUSS_LEGENDRE2, const_profile, E0, 0.0, 10.0, tau
        )
        ladder.append((tau, component_errors(traj, oracle_const).max_error))
    results["GL2"] = convergence_order(ladder)
    elapsed = time.perf_counter() - start

    bands = {
        "SGA-A": (1.8, 2.2),
        "SGA-NA": (1.8, 2.3),
        "RK4": (3.7, 4.3),
        "GL2": (3.7, 4.3),
    }
    ok = elapsed <= 10.0 and all(
        bands[k][0] <= results[k] <= bands[k][1] for k in bands
    )
    detail = ", ".join(f"{k} = {results[k]:.2f}" for k in bands)
    _line(9, ok, f"global orders: {detail}; runtime {elapsed:.1f} s (<= 10 s)")
    for k, (lo, hi) in bands.items():
        assert lo <= results[k] <= hi, f"{k} order {results[k]:.3f} outside [{lo}, {hi}]"
    assert elapsed <= 10.0


def test_criterion_10_subnorm_conservation():
    traj = integrate_nonautonomous(profile_from_name("fig1b"), E0, 0.0, 100.0, 0.01)
    e2_max = float(np.max(np.abs(traj.states[:, 2])))
    e3_max = float(np.max(np.abs(traj.states[:, 3])))
    pair_dev = float(
        np.max(np.abs(traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2 - 1.0))
    )
    ok = e2_max <= 1e-14 and e3_max <= 1e-14 and pair_dev <= 1e-12
    _line(
        10,
        ok,
        f"max |e2| = {e2_max:.2e}, max |e3| = {e3_max:.2e} (<= 1e-14), "
        f"max |e0^2 + e1^2 - 1| = {pair_dev:.2e} (<= 1e-12)",
    )
    assert e2_max <= 1e-14
    assert e3_max <= 1e-14
    assert pair_dev <= 1e-12
