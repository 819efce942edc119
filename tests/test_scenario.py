import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from quatkin import scenario
from quatkin.cli import main
from quatkin.errors import ConfigError, InvalidHorizonError
from quatkin.diagnostics import frobenius_norm, symplecticity_defect
from quatkin.model import (
    I4,
    LEFT_I,
    LEFT_J,
    LEFT_K,
    AngularVelocityProfile,
    ConingProfile,
    ConstantProfile,
    FormulaProfile,
    MidpointSamplingMode,
    right_matrix,
)
from quatkin.scenario import (
    DEFAULT_SWEEP_TAUS,
    MAX_STEPS,
    PROFILE_REGISTRY,
    defect_ladder,
    emit_series,
    emit_summary,
    one_step_matrix,
    parse_config,
    parse_number,
    profile_from_name,
    registry_names,
    run_scenario,
    run_sweep,
)
from quatkin.symplectic import StepSizeWarning, autonomous_transition, integrate_nonautonomous
from quatkin.trajectory import _BLOCK_STEPS, Trajectory, integrate
from reference_impl import FORMULA_PROFILES_STACKED, schedule

CONING_Q0 = [
    math.cos(math.pi / 160.0),
    0.0,
    math.sin(math.pi / 160.0),
    0.0,
]


def make_config(**overrides):
    base = {"profile": "fig1a", "tau": 0.01, "tf": 1.0}
    base.update(overrides)
    return json.dumps(base)


# --- registry -------------------------------------------------------------------

def test_registry_contains_exactly_the_frozen_names():
    assert registry_names() == ("fig1a", "fig1b", "fig1c", "fig1d", "fig2", "coning")


def test_registry_profiles_resolve():
    assert isinstance(PROFILE_REGISTRY["fig1a"](), ConstantProfile)
    coning = PROFILE_REGISTRY["coning"]()
    assert isinstance(coning, ConingProfile)
    npt.assert_allclose([coning.omega0, coning.beta], [2.0 * math.pi, math.pi / 80.0])


# --- config parsing --------------------------------------------------------------

def test_parse_minimal_fig1a_config():
    cfg = parse_config(make_config())
    assert cfg.name == "fig1a"
    assert isinstance(cfg.profile, ConstantProfile)
    assert cfg.profile.vector == (2.0, 10.0, 3.0)
    npt.assert_array_equal(cfg.q0, [1.0, 0.0, 0.0, 0.0])
    assert cfg.method == "SGA-A"
    assert cfg.sampling is MidpointSamplingMode.EXACT
    assert cfg.oracle is None
    assert cfg.outputs == ("series",)


def test_parse_config_accepts_bytes():
    cfg = parse_config(make_config().encode("utf-8"))
    assert cfg.tau == 0.01


def test_parse_config_accepts_mapping():
    raw = {"profile": "fig1a", "tau": 0.01, "tf": 1.0, "q0": ["1", 0, 0, 0]}
    cfg = parse_config(raw)
    ref = parse_config(json.dumps(raw))
    assert (cfg.name, cfg.tau, cfg.tf, cfg.method) == (ref.name, ref.tau, ref.tf, ref.method)
    npt.assert_array_equal(cfg.q0, ref.q0)
    assert raw == {"profile": "fig1a", "tau": 0.01, "tf": 1.0, "q0": ["1", 0, 0, 0]}
    with pytest.raises(ConfigError, match="unknown config keys.*horizon"):
        parse_config({**raw, "horizon": 10})


@pytest.mark.parametrize("source", [None, 42, ["profile", "fig1a"]])
def test_parse_config_rejects_other_input_types(source):
    with pytest.raises(ConfigError, match=f"JSON text or a mapping, got {type(source).__name__}"):
        parse_config(source)


@pytest.mark.parametrize("profile", [5, None, ["fig2"], True], ids=["number", "null", "list", "true"])
def test_profile_neither_a_name_nor_an_object_is_refused(profile, check_cli):
    message = "field 'profile': expected a registry name or an object"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(make_config(profile=profile))
    check_cli(make_config(profile=profile), ["run"], 1, f"error: {message}\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys.*horizon"):
        parse_config(make_config(horizon=10))


def test_parse_validates_horizon_and_step():
    with pytest.raises(ConfigError, match="'tf'"):
        parse_config(make_config(tf=0.0, t0=0.0))
    with pytest.raises(ConfigError, match="'tau'"):
        parse_config(make_config(tau=-0.1))


def test_parse_validates_q0():
    with pytest.raises(ConfigError, match="'q0'"):
        parse_config(make_config(q0=[1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ConfigError, match="'q0'"):
        parse_config(make_config(q0=[1.0, 0.0, 0.0]))
    with pytest.raises(
        ConfigError,
        match=r"^field 'q0': initial quaternion norm 1\.000000002000 deviates from 1 "
        r"by more than 1e-09$",
    ):
        parse_config(make_config(q0=[1.0 + 2e-9, 0.0, 0.0, 0.0]))
    assert parse_config(make_config(q0=[1.0 + 5e-10, 0.0, 0.0, 0.0])).q0[0] == 1.0 + 5e-10


def test_parse_reports_json_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config('{"profile": fig1a}')


def test_parse_pi_literals():
    assert parse_number("pi/80", "x") == math.pi / 80.0
    assert parse_number("2pi", "x") == 2.0 * math.pi
    assert parse_number("-pi/2", "x") == -math.pi / 2.0
    assert parse_number("2*pi/5", "x") == 2.0 * math.pi / 5.0
    assert parse_number(0.25, "x") == 0.25
    with pytest.raises(ConfigError, match="'x'"):
        parse_number("two pi", "x")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", float("nan"), -math.inf, 10**400, "1e400"])
def test_parse_number_rejects_non_finite(value):
    with pytest.raises(ConfigError, match="'x': expected a finite number"):
        parse_number(value, "x")


@pytest.mark.parametrize(
    "value",
    ["pi/0", "0pi/0", "2*pi/0.0", "pi/0." + "0" * 400 + "1"],
    ids=["pi/0", "0pi/0", "2*pi/0.0", "underflow"],
)
def test_parse_number_rejects_a_zero_divisor(value):
    # The last divisor is nonzero text that rounds to 0.0.
    with pytest.raises(ConfigError, match="'x': zero divisor"):
        parse_number(value, "x")


def test_parse_rejects_integer_literal_past_digit_limit():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config('{"profile": "fig1a", "tau": 0.01, "tf": 1' + "0" * 5000 + "}")


def test_parse_rejects_non_finite_tabulated_samples():
    samples = [[0.0, [1.0, 0.0, 0.0]], [2.0, ["nan", 0.0, 0.0]]]
    with pytest.raises(ConfigError, match="'profile.samples'.*finite"):
        parse_config(make_config(profile={"type": "tabulated", "samples": samples}))


def test_parse_coning_config_auto_wires_oracle():
    cfg = parse_config(
        make_config(
            profile={"type": "coning", "omega0": "2pi", "beta": "pi/80"},
            q0=CONING_Q0,
        )
    )
    assert cfg.method == "SGA-NA"
    assert cfg.oracle is not None
    ref = cfg.oracle(np.array([0.0]))[0]
    npt.assert_allclose(ref, CONING_Q0, atol=1e-15)


def test_parse_registry_coning_also_auto_wires():
    cfg = parse_config(make_config(profile="coning", q0=CONING_Q0))
    assert cfg.oracle is not None


def test_parse_oracle_none_disables_auto_wiring():
    cfg = parse_config(make_config(profile="coning", q0=CONING_Q0, oracle="none"))
    assert cfg.oracle is None


def test_parse_constant_analytic_oracle_requires_constant_profile():
    cfg = parse_config(make_config(oracle="constant-analytic"))
    assert cfg.oracle is not None
    with pytest.raises(ConfigError, match="constant-analytic"):
        parse_config(make_config(profile="fig1b", oracle="constant-analytic"))


def test_parse_method_profile_compatibility():
    with pytest.raises(ConfigError, match="SGA-A requires"):
        parse_config(make_config(profile="fig1b", method="SGA-A"))
    cfg = parse_config(make_config(profile="fig1b"))
    assert cfg.method == "SGA-NA"


def test_parse_rejects_unknown_method_sampling_outputs():
    with pytest.raises(ConfigError, match="'method'"):
        parse_config(make_config(method="RK45"))
    with pytest.raises(ConfigError, match="'sampling'"):
        parse_config(make_config(sampling="midpoint"))
    with pytest.raises(ConfigError, match="'outputs'"):
        parse_config(make_config(outputs=["series", "plots"]))


_BASE = {"profile": "fig1a", "tau": 0.01, "tf": 1.0}
_CONING = {"type": "coning", "omega0": "2pi", "beta": "pi/80"}


@pytest.mark.parametrize(
    "config, message",
    [
        ({**_BASE, "bogus": 1, "extra": 2}, "unknown config keys: ['bogus', 'extra']"),
        ({"tau": 0.01, "tf": 1.0}, "field 'profile' is required"),
        ({"profile": "fig1a", "tf": 1.0}, "field 'tau' is required"),
        ({"profile": "fig1a", "tau": 0.01}, "field 'tf' is required"),
        ({}, "field 'profile' is required"),
        (
            {**_BASE, "profile": {"type": "constant", "omega": [1, 2, 3], "x": 1}},
            "field 'profile': unknown keys ['x']",
        ),
        ({**_BASE, "profile": {**_CONING, "omega": 1}}, "field 'profile': unknown keys ['omega']"),
        (
            {**_BASE, "profile": {"type": "tabulated", "samples": [], "beta": 1}},
            "field 'profile': unknown keys ['beta']",
        ),
        ({**_BASE, "oracle": {**_CONING, "samples": 1}}, "field 'oracle': unknown keys ['samples']"),
        (
            {**_BASE, "profile": {"type": "spiral", "x": 1}},
            "field 'profile.type': expected one of constant/coning/tabulated, got 'spiral'",
        ),
        (
            {**_BASE, "profile": {"omega": [1, 2, 3]}},
            "field 'profile.type': expected one of constant/coning/tabulated, got None",
        ),
        (
            {**_BASE, "profile": {"type": ["constant"]}},
            "field 'profile.type': expected one of constant/coning/tabulated, got ['constant']",
        ),
        (
            {**_BASE, "profile": {**_CONING, "omega0": "nan"}},
            "field 'profile.omega0': expected a finite number, got 'nan'",
        ),
        (
            {**_BASE, "profile": {**_CONING, "omega0": 0}},
            "field 'profile': coning profile requires omega0 != 0",
        ),
        (
            {**_BASE, "profile": {"type": "coning", "omega0": "2pi"}},
            "field 'profile.beta': expected a number, got NoneType",
        ),
        (
            {**_BASE, "profile": {**_CONING, "beta": "pi/x"}},
            "field 'profile.beta': cannot parse 'pi/x' as a number or pi literal",
        ),
        (
            {**_BASE, "oracle": {**_CONING, "omega0": "inf"}},
            "field 'oracle.omega0': expected a finite number, got 'inf'",
        ),
        (
            {**_BASE, "oracle": {**_CONING, "omega0": True}},
            "field 'oracle.omega0': expected a number, got True",
        ),
        (
            {**_BASE, "oracle": {"type": "coning", "omega0": 1.0}},
            "field 'oracle.beta': expected a number, got NoneType",
        ),
        (
            {**_BASE, "oracle": {**_CONING, "beta": [1]}},
            "field 'oracle.beta': expected a number, got list",
        ),
        (
            {**_BASE, "profile": {"type": "constant", "omega": "abc"}},
            "field 'profile.omega': expected a list of 3 numbers",
        ),
        (
            {**_BASE, "profile": {"type": "tabulated", "samples": "ab"}},
            "field 'profile.samples': need at least two [t, [w1,w2,w3]] pairs",
        ),
        ({**_BASE, "q0": "abcd"}, "field 'q0': expected a list of 4 numbers"),
        ({**_BASE, "outputs": "series"}, "field 'outputs': expected a list of output kinds"),
    ],
    ids=[
        "unknown-config-keys",
        "missing-profile",
        "missing-tau",
        "missing-tf",
        "empty-config",
        "constant-unknown-key",
        "coning-unknown-key",
        "tabulated-unknown-key",
        "oracle-unknown-key",
        "unknown-profile-type",
        "missing-profile-type",
        "unhashable-profile-type",
        "profile-omega0-nan",
        "profile-omega0-zero",
        "profile-beta-missing",
        "profile-beta-unparsable",
        "oracle-omega0-inf",
        "oracle-omega0-bool",
        "oracle-beta-missing",
        "oracle-beta-list",
        "omega-a-string-of-3",
        "samples-a-string-of-2",
        "q0-a-string-of-4",
        "outputs-a-string",
    ],
)
def test_config_object_messages(config, message):
    # The full text of each message, pinned: unknown and missing keys, every
    # profile kind, the coning oracle, and the coning parameters of both.
    # A string of the right length is no list: the type check names it.
    # The ids name the cases, so correcting a message renames no test.
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config)
    assert str(excinfo.value) == message


def test_parse_tabulated_profile():
    cfg = parse_config(
        make_config(
            profile={
                "type": "tabulated",
                "samples": [[0.0, [0.0, 0.0, 0.0]], [2.0, [2.0, 0.0, 0.0]]],
            },
            tf=1.5,
        )
    )
    npt.assert_allclose(cfg.profile.omega_at(1.0), [1.0, 0.0, 0.0])


# --- running ----------------------------------------------------------------------

def test_run_scenario_fig1a_norm_preserved():
    cfg = parse_config(make_config(tf=10.0))
    artifacts = run_scenario(cfg)
    assert artifacts.timing.steps == 1000
    assert artifacts.timing.wall_clock_s >= 0.0
    assert np.max(np.abs(artifacts.trajectory.norms() - 1.0)) <= 1e-10
    assert artifacts.error_report is None


def test_run_scenario_is_deterministic():
    cfg = parse_config(make_config(profile="fig2", tf=5.0))
    a1, a2 = run_scenario(cfg), run_scenario(cfg)
    npt.assert_array_equal(a1.trajectory.states, a2.trajectory.states)


def test_run_scenario_benchmark_protocol_repeats(monkeypatch):
    cfg = parse_config(make_config(tf=0.5, outputs=["series", "benchmark"]))
    artifacts = run_scenario(cfg)
    assert artifacts.timing.repeats >= 3
    assert artifacts.timing.wall_clock_s > 0.0
    # Under a clock by which the k-th timed run takes seconds[k]: a plain run
    # is timed once; a benchmark runs 3 times at least, and until its runs
    # sum to 0.2 s (exactly, in the last row), and reports the fastest.
    for outputs, seconds, repeats in [
        (["series"], [1.0], 1),
        (["benchmark"], [1.0] * 3, 3),
        (["benchmark"], [0.0625] * 3 + [0.2 - 0.1875], 4),
    ]:
        clock = iter(x for run in seconds for x in (0.0, run))
        # A run past seconds reads None and fails the subtraction.
        monkeypatch.setattr(scenario, "time", types.SimpleNamespace(
            perf_counter=lambda: next(clock, None)))
        timing = run_scenario(parse_config(make_config(tf=0.05, outputs=outputs))).timing
        assert (timing.repeats, timing.wall_clock_s) == (repeats, min(seconds)), seconds


@pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")
def test_run_scenario_defect_ladder_output():
    cfg = parse_config(make_config(tf=1.0, tau=0.1, outputs=["defect-ladder"]))
    artifacts = run_scenario(cfg)
    ladder = artifacts.defect_ladder
    assert ladder is not None
    npt.assert_allclose(ladder.taus, [0.1, 0.05, 0.025, 0.0125], rtol=1e-12)
    assert 0.8 <= ladder.estimated_order <= 1.2  # first-order defect


def test_one_step_matrix_matches_method_maps():
    cfg = parse_config(make_config())
    npt.assert_array_equal(
        one_step_matrix(cfg, 0.01),
        autonomous_transition(np.array([2.0, 10.0, 3.0]), 0.01),
    )
    cfg_rk4 = parse_config(make_config(method="RK4"))
    m = one_step_matrix(cfg_rk4, 0.01)
    from quatkin.baselines import BaselineMethod, baseline_steps

    q = np.array([0.2, -0.4, 0.8, 0.4])
    rk4 = right_matrix(baseline_steps(BaselineMethod.RK4, cfg_rk4.profile, 0.0, 0.01))
    npt.assert_allclose(m @ q, rk4 @ q, atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("method", ["SGA-A", "SGA-NA", "RK4", "EUB", "GL2"])
def test_one_step_matrix_rejects_a_step_that_is_not_finite(method, bad):
    # One contract for every method: a ValueError, not a ConsistencyError
    # about the rate or the map that the step would make non-finite.
    profile = "fig1a" if method == "SGA-A" else "fig2"
    cfg = parse_config(make_config(profile=profile, method=method))
    with pytest.raises(ValueError, match="^step size must be finite$"):
        one_step_matrix(cfg, np.array([0.1, bad]))
    with pytest.raises(ValueError, match="^step size must be finite$"):
        one_step_matrix(cfg, bad)


@pytest.mark.parametrize("bad", [0.0, -0.1], ids=["zero", "negative"])
@pytest.mark.parametrize("method", ["SGA-A", "SGA-NA", "RK4", "EUB", "GL2"])
def test_one_step_matrix_rejects_a_step_that_is_not_positive(method, bad):
    # The same contract, checked after finiteness and before any builder
    # runs: no method returns a map for a step that does not move forward.
    profile = "fig1a" if method == "SGA-A" else "fig2"
    cfg = parse_config(make_config(profile=profile, method=method))
    with pytest.raises(ValueError, match="^step size must be positive$"):
        one_step_matrix(cfg, np.array([0.1, bad]))
    with pytest.raises(ValueError, match="^step size must be positive$"):
        one_step_matrix(cfg, bad)
    with pytest.raises(ValueError, match="^step size must be finite$"):
        one_step_matrix(cfg, np.array([bad, math.nan]))


@settings(max_examples=100, deadline=None)
@given(
    method=st.sampled_from(("SGA-A", "SGA-NA", "RK4", "EUB", "GL2")),
    omega=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    tau=st.floats(1e-4, 0.2),
    t0=st.floats(0.0, 10.0),
    varying=st.booleans(),
)
def test_every_step_is_a_right_multiplication(method, omega, tau, t0, varying):
    # Each step map is q -> q (x) p_k, so it commutes with the left
    # multiplications; the propagation loop relies on nothing else.
    profile = "fig2" if varying and method != "SGA-A" else {"type": "constant", "omega": omega}
    cfg = parse_config(
        {"profile": profile, "t0": t0, "tf": t0 + 1.0, "tau": tau, "method": method}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        g = one_step_matrix(cfg, tau)
    for left in (LEFT_I, LEFT_J, LEFT_K):
        assert frobenius_norm(g @ left - left @ g) <= 1e-13
    if method in ("SGA-A", "SGA-NA", "GL2"):
        assert frobenius_norm(g.T @ g - I4) <= 1e-13


@pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")
def test_defect_ladder_uses_scenario_tau():
    cfg = parse_config(make_config(tau=0.2))
    ladder = defect_ladder(cfg)
    npt.assert_allclose(ladder.taus, [0.2, 0.1, 0.05, 0.025], rtol=1e-12)


class CountingProfile(AngularVelocityProfile):
    """fig2, counting omega_at calls."""

    def __init__(self):
        self.inner, self.calls = profile_from_name("fig2"), 0

    def omega_at(self, t):
        self.calls += 1
        return self.inner.omega_at(t)


@pytest.mark.parametrize(
    "method, sampling, calls",
    [("RK4", "exact", 3), ("GL2", "exact", 2), ("EUB", "exact", 1), ("SGA-NA", "exact", 1),
     ("SGA-NA", "interp", 2), ("RK4", "interp", 2), ("GL2", "interp", 2), ("EUB", "interp", 1)],
)
def test_defect_ladder_samples_each_stage_once(method, sampling, calls):
    # The four rungs come from one builder call: one omega_at call per stage
    # time, and under interp one per step end the chords use.
    cfg = parse_config(make_config(profile="fig2", tau=0.1, method=method, sampling=sampling))
    cfg = dataclasses.replace(cfg, profile=CountingProfile())
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        defect_ladder(cfg)
    assert cfg.profile.calls == calls
    assert len(record) <= 1


def test_defect_ladder_warns_once_counting_rungs():
    # fig1a at tau 0.1: tau|w| = 1.06, 0.53, 0.27 and 0.13 on the four rungs.
    cfg = parse_config(make_config(tau=0.1, outputs=["defect-ladder"]))
    with pytest.warns(StepSizeWarning) as record:
        defect_ladder(cfg)
    assert [str(w.message)[:20] for w in record] == ["3 of 4 steps exceed "]


@pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")
@pytest.mark.parametrize(
    "profile, method, sampling",
    [("fig1a", "SGA-A", "exact"), ("fig2", "SGA-NA", "exact"), ("fig2", "SGA-NA", "interp"),
     ("fig1c", "RK4", "exact"), ("fig1c", "EUB", "exact"), ("fig1c", "GL2", "exact"),
     ("fig1c", "RK4", "interp"), ("fig1c", "GL2", "interp")],
)
def test_defect_ladder_matches_per_rung_maps(profile, method, sampling):
    cfg = parse_config(
        make_config(profile=profile, t0=0.3, tau=0.1, method=method, sampling=sampling)
    )
    ladder = defect_ladder(cfg)
    assert ladder.taus == (0.1, 0.05, 0.025, 0.0125)
    per_rung = [symplecticity_defect(one_step_matrix(cfg, t)) for t in ladder.taus]
    assert list(ladder.defects) == per_rung  # bitwise


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
SHIPPED_CONFIGS = sorted(os.listdir(CONFIG_DIR))


def shipped_config(config):
    """The text of the shipped config file `config` (a file name)."""
    with open(os.path.join(CONFIG_DIR, config), encoding="utf-8") as fh:
        return fh.read()


def allowed_methods(config):
    """Every method the config's profile allows: SGA-A needs a constant rate."""
    constant = isinstance(parse_config(config).profile, ConstantProfile)
    return [m for m in scenario.METHODS if constant or m != "SGA-A"]


@pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")
@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_ladder_maps_are_the_steps_a_run_takes(config):
    # Each rung's map, applied to q0, is bitwise the first state of a
    # two-step run at that rung's step, for every method the profile allows
    # under both samplings: the ladder measures the step the run applies.
    raw = json.loads(shipped_config(config))
    constant = isinstance(parse_config(raw).profile, ConstantProfile)
    rungs = 0
    for method in allowed_methods(raw):
        for sampling in ("exact", "interp"):
            cfg = parse_config({**raw, "method": method, "sampling": sampling})
            taus = np.array([cfg.tau / 2.0**i for i in range(4)])
            for tau, g in zip(taus, one_step_matrix(cfg, taus)):
                run = dataclasses.replace(cfg, tau=float(tau), tf=cfg.t0 + 2.0 * tau, outputs=())
                states = run_scenario(run).trajectory.states
                assert len(states) == 3
                assert np.dot(g, cfg.q0).tobytes() == states[1].tobytes(), (method, sampling, tau)
                rungs += 1
    assert rungs == (40 if constant else 32)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_shipped_configs_run_every_method_and_sampling(config, tmp_path, monkeypatch):
    # `quatkin run` (`quatkin sweep` for coning-sweep) on each shipped config,
    # with --method and --sampling set to every method its profile allows
    # and both samplings: each exits 0, and run_cli fails the test on any
    # numpy RuntimeWarning that leaks.  coning-sweep's benchmark output
    # still repeats each run 3 times, without the 0.2 s floor.
    monkeypatch.setattr(scenario, "_BENCH_MIN_SECONDS", 0.0)
    text = shipped_config(config)
    verb = "sweep" if config == "coning-sweep.json" else "run"
    for method in allowed_methods(text):
        for sampling in ("exact", "interp"):
            argv = ["--method", method, "--sampling", sampling]
            assert run_cli(tmp_path, text, *argv, verb=verb)[0] == 0, (method, sampling)


def test_rebound_integrators_and_midpoint_sampler_are_reached(monkeypatch):
    # A tracer that rebinds these functions in every quatkin module holding
    # them, by identity, sees every run reach its integrator and SGA-NA's
    # run and ladder both reach midpoint_omega: no builder may hold one of
    # them in a table or a default argument.
    calls, stack = [], []
    for module, name in [("quatkin.symplectic", "integrate_autonomous"),
                         ("quatkin.symplectic", "integrate_nonautonomous"),
                         ("quatkin.baselines", "integrate_baseline"),
                         ("quatkin.model", "midpoint_omega")]:
        fn = getattr(sys.modules[module], name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls.append((_name, stack[-1] if stack else None))
            stack.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                stack.pop()

        for modname, mod in list(sys.modules.items()):
            if modname == "quatkin" or modname.startswith("quatkin."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, counting)
    expected = {
        "SGA-A": [("integrate_autonomous", None)],
        "SGA-NA": [("integrate_nonautonomous", None),
                   ("midpoint_omega", "integrate_nonautonomous"), ("midpoint_omega", None)],
        **{m: [("integrate_baseline", None)] for m in ("RK4", "EUB", "GL2")},
    }
    for method, want in expected.items():
        calls.clear()
        profile = "fig1a" if method == "SGA-A" else "fig2"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            run_scenario(parse_config(make_config(
                profile=profile, method=method, tau=0.01, tf=0.02, outputs=["defect-ladder"]
            )))
        assert calls == want, method


@pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")
def test_sampling_reaches_every_time_varying_method():
    # interp replaces every interior stage rate by the chord of the step's
    # endpoint samples: RK4's and GL2's trajectories move.  EUB samples only
    # the step end, where the chord is the sample, and SGA-A the constant rate.
    def states(method, profile="fig2"):
        return [
            run_scenario(parse_config(make_config(
                profile=profile, tf=3.0, tau=0.1, method=method, sampling=sampling
            ))).trajectory.states
            for sampling in ("exact", "interp")
        ]

    for method in ("RK4", "GL2"):
        exact, interp = states(method)
        assert np.max(np.abs(exact - interp)) > 1e-6
    for method, profile in (("EUB", "fig2"), ("SGA-A", "fig1a")):
        exact, interp = states(method, profile)
        assert exact.tobytes() == interp.tobytes()


def test_run_sweep_errors_decrease():
    cfg = parse_config(
        make_config(profile="coning", q0=CONING_Q0, tf=50.0, method="SGA-NA")
    )
    runs = run_sweep(cfg, [0.1, 0.05, 0.025])
    errs = [a.error_report.max_error for a in runs]
    assert errs[0] > errs[1] > errs[2]
    assert [a.config.tau for a in runs] == [0.1, 0.05, 0.025]


def test_run_sweep_rejects_bad_taus():
    cfg = parse_config(make_config())
    with pytest.raises(ConfigError):
        run_sweep(cfg, [])
    with pytest.raises(ConfigError):
        run_sweep(cfg, [0.1, -0.05])
    # Each run's summary entries are keyed by its step, so a repeat is refused.
    with pytest.raises(ConfigError, match="sweep step sizes must be distinct; 0.1 is repeated"):
        run_sweep(cfg, [0.1, 0.05, 0.1])


# --- emission ----------------------------------------------------------------------

def reference_series_csv(artifacts) -> bytes:
    """The CSV emit_series must write, formatted one value at a time."""
    traj = artifacts.trajectory
    norms = traj.norms()
    oracle = artifacts.config.oracle
    errors = None if oracle is None else np.abs(traj.states - oracle(traj.times))
    lines = ["t,e0,e1,e2,e3,norm" + ("" if errors is None else ",err0,err1,err2,err3")]
    for i in range(len(traj.states)):
        row = [traj.times[i], *traj.states[i], norms[i]]
        if errors is not None:
            row.extend(errors[i])
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def special_values_artifacts(repeats=1):
    """Four rows of special and edge values, repeated `repeats` times."""
    artifacts = run_scenario(parse_config(make_config(tf=0.05)))
    states = np.array(
        [
            [np.nan, np.inf, -np.inf, -0.0],
            [5e-324, 1e308, -1e308, 0.1],
            [1.0 / 3.0, 1e16, -5e-324, 0.0],
            [1e-14, -9.9999999999999995e-05, 1e15 + 0.25, 2.0**-25],
        ]
    )
    times = np.array([-0.0, 5e-324, 1e308, 0.01])
    tiled = Trajectory(times=np.tile(times, repeats), states=np.tile(states, (repeats, 1)))
    return dataclasses.replace(artifacts, trajectory=tiled)


def coning_artifacts(oracle):
    """A 10001-row coning run, with or without its analytic oracle."""
    extra = {} if oracle else {"oracle": "none"}
    cfg = make_config(profile="coning", q0=CONING_Q0, tf=100.0, method="SGA-NA", **extra)
    artifacts = run_scenario(parse_config(cfg))
    assert (artifacts.config.oracle is not None) == oracle
    return artifacts


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "case", ["coning-oracle", "coning-no-oracle", "special-values", "special-values-tiled"]
)
def test_emit_series_bytes_match_per_value_format(tmp_path, case):
    # The special-value tables (6 columns) are one block of 24 values and
    # one of 1200; the coning tables span several blocks.
    if case == "special-values":
        artifacts = special_values_artifacts()
        assert len(artifacts.trajectory.states) == 4
    elif case == "special-values-tiled":
        artifacts = special_values_artifacts(repeats=50)
        assert len(artifacts.trajectory.states) == 200
    else:
        artifacts = coning_artifacts(oracle=case == "coning-oracle")
        # Two full blocks and a partial third, at least.
        rows = len(artifacts.trajectory.states)
        assert rows > 2 * _BLOCK_STEPS and rows % _BLOCK_STEPS
    path = tmp_path / "series.csv"
    emit_series(artifacts, path)
    assert path.read_bytes() == reference_series_csv(artifacts)


@pytest.mark.parametrize(
    "block_rows",
    [25, 409, _BLOCK_STEPS],
    ids=["small", "prime", "default"],
)
def test_emit_series_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, block_rows):
    # Blocks of 409 rows, a prime, share no block boundary with the default's
    # 2048 rows in this run.
    monkeypatch.setattr(scenario, "_BLOCK_STEPS", block_rows)
    artifacts = coning_artifacts(oracle=True)
    path = tmp_path / "series.csv"
    emit_series(artifacts, path)
    assert path.read_bytes() == reference_series_csv(artifacts)


def test_emit_series_roundtrip_bit_exact(tmp_path):
    cfg = parse_config(make_config(tf=0.5))
    artifacts = run_scenario(cfg)
    path = tmp_path / "series.csv"
    emit_series(artifacts, path)
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "t,e0,e1,e2,e3,norm"
    assert len(lines) == artifacts.timing.steps + 2
    parsed = np.array(
        [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    )
    npt.assert_array_equal(parsed[:, 0], artifacts.trajectory.times)
    npt.assert_array_equal(parsed[:, 1:5], artifacts.trajectory.states)
    npt.assert_array_equal(parsed[:, 5], artifacts.trajectory.norms())


def test_emit_series_with_oracle_columns(tmp_path):
    cfg = parse_config(
        make_config(profile="coning", q0=CONING_Q0, tf=1.0, method="SGA-NA")
    )
    artifacts = run_scenario(cfg)
    path = tmp_path / "series.csv"
    emit_series(artifacts, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "t,e0,e1,e2,e3,norm,err0,err1,err2,err3"
    first = [float(tok) for tok in lines[1].split(",")]
    assert len(first) == 10
    # row 0 compares the initial state against the oracle at t0: zero error
    assert max(first[6:]) <= 1e-16


def test_emit_series_single_state(tmp_path):
    cfg = parse_config(make_config(tf=0.5))
    artifacts = run_scenario(cfg)
    single = Trajectory(times=np.array([0.0]), states=np.array([[1.0, 0.0, 0.0, 0.0]]))
    artifacts = dataclasses.replace(artifacts, trajectory=single)
    path = tmp_path / "one.csv"
    emit_series(artifacts, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    assert path.read_bytes() == reference_series_csv(artifacts)


def test_emit_series_deterministic_bytes(tmp_path):
    cfg = parse_config(make_config(profile="fig1c", tf=2.0))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_series(run_scenario(cfg), p1)
    emit_series(run_scenario(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def emission_peaks(tmp_path, **oracle):
    """Traced peaks of emit_series on coning runs of 25 k and 100 k rows."""
    peaks = []
    for rows in (25_000, 100_000):
        cfg = parse_config(
            make_config(profile="coning", q0=CONING_Q0, tf=rows / 100.0, tau=0.01, **oracle)
        )
        artifacts = run_scenario(cfg)
        assert (artifacts.config.oracle is None) == bool(oracle)
        assert artifacts.timing.steps == rows
        tracemalloc.start()
        try:
            emit_series(artifacts, tmp_path / "series.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_emit_series_memory_flat_in_run_length(tmp_path):
    # The norm and error columns are computed one row block at a time into
    # the block's buffer, so emission's traced peak is the same for 25 k and
    # 100 k rows.
    peaks = emission_peaks(tmp_path)
    assert peaks[1] <= peaks[0] + (64 << 10), peaks


def test_emit_series_memory_flat_in_run_length_without_oracle(tmp_path):
    peaks = emission_peaks(tmp_path, oracle="none")
    assert peaks[1] <= peaks[0] + (64 << 10), peaks


@pytest.mark.parametrize("method", ["SGA-NA", "EUB"])
def test_run_scenario_peak_memory_per_step(method):
    # The run's own arrays set the peak: the times and the states (40 bytes
    # a step; the step sizes and step end times, 16 more, are made a block
    # at a time).  No squares array or deviation array the size of the run
    # is built after it (with them, every method peaked at 80 bytes a step).
    steps = 200_000
    cfg = parse_config(
        make_config(profile="coning", q0=CONING_Q0, tf=steps / 100.0, tau=0.01, method=method)
    )
    tracemalloc.start()
    try:
        artifacts = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert artifacts.timing.steps == steps and artifacts.error_report is not None
    assert peak <= 64 * steps, peak / steps


@pytest.mark.parametrize("method", ["SGA-NA", "EUB"])
def test_run_scenario_keeps_only_the_times_and_states(method):
    # What the artifacts hold once run_scenario returns: the times and the
    # states, 40 bytes a step, and nothing else that grows with the run (a
    # cache of the norms would add 8).
    steps = 200_000

    def run(tf):
        cfg = make_config(profile="coning", q0=CONING_Q0, tf=tf, tau=0.01, method=method)
        return run_scenario(parse_config(cfg))

    run(2 * _BLOCK_STEPS / 100.0)  # the thread's propagation workspace, at full size
    tracemalloc.start()
    try:
        artifacts = run(steps / 100.0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert artifacts.timing.steps == steps and artifacts.error_report is not None
    assert kept <= 40 * steps + (64 << 10), kept / steps


def norm_states(case, n=5000):
    """(n, 4) states whose norms lie above 1, below 1, on both sides, or all
    exactly at 1, or on both sides with the first state's the farthest."""
    rng = np.random.default_rng(17)
    if case == "exact":
        return np.tile([0.6, 0.0, 0.8, 0.0], (n, 1))
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]  # |q| within a few ulp of 1, either side
    if case == "mixed":
        return q
    if case == "first":
        q[0] *= 1.0 + 1e-3
        return q
    spread = 10.0 ** rng.uniform(-15, -1, n)
    return q * (1.0 + spread if case == "above" else 1.0 - spread)[:, None]


@pytest.mark.parametrize("case", ["above", "below", "mixed", "exact", "first"])
def test_max_norm_deviation_bitwise_max_abs_deviation(monkeypatch, case):
    states = norm_states(case)
    traj = Trajectory(times=0.01 * np.arange(len(states)), states=states)
    monkeypatch.setattr(scenario, "integrate_autonomous", lambda *args: traj)  # fig1a: SGA-A
    dev = run_scenario(parse_config(make_config())).max_norm_deviation
    norms = np.linalg.norm(states, axis=1)
    sides = {"above": (True, False), "below": (False, True), "mixed": (True, True),
             "exact": (False, False), "first": (True, True)}[case]
    assert ((norms > 1.0).any(), (norms < 1.0).any()) == sides
    expected = float(np.max(np.abs(norms - 1.0)))
    if case == "first":
        assert int(np.argmax(np.abs(norms - 1.0))) == 0
    assert dev == expected and math.copysign(1.0, dev) == math.copysign(1.0, expected)
    if case == "exact":
        assert math.copysign(1.0, dev) == 1.0 and dev == 0.0


def test_emit_summary_single_run(tmp_path):
    cfg = parse_config(make_config(tf=1.0, oracle="constant-analytic"))
    artifacts = run_scenario(cfg)
    path = tmp_path / "summary.json"
    emit_summary(artifacts, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(doc["runs"]) == 1
    entry = doc["runs"][0]
    assert entry["method"] == "SGA-A"
    assert entry["tau"] == 0.01
    assert entry["steps"] == 100
    assert len(entry["max_component_errors"]) == 4
    assert entry["max_norm_deviation"] <= 1e-10
    assert entry["wall_clock_s"] >= 0.0
    assert "estimated_order" not in doc


def test_emit_summary_sweep_estimates_order(tmp_path):
    cfg = parse_config(
        make_config(profile="coning", q0=CONING_Q0, tf=50.0, method="SGA-NA")
    )
    runs = run_sweep(cfg, [0.1, 0.05, 0.025, 0.0125])
    path = tmp_path / "sweep.json"
    emit_summary(runs, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(doc["runs"]) == 4
    assert 1.8 <= doc["estimated_order"] <= 2.3


def assert_summary_is_dumps_text(path):
    """The summary at path is, byte for byte, the text of json.dumps(doc,
    indent=2, allow_nan=False) and a newline for the document it holds."""
    text = path.read_bytes().decode("ascii")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    return doc


def test_emit_summary_text_is_json_dumps_for_a_sweep_with_ladders(tmp_path):
    cfg = parse_config(
        make_config(
            profile="coning",
            q0=CONING_Q0,
            tf=5.0,
            method="SGA-NA",
            outputs=["series", "error-report", "defect-ladder"],
        )
    )
    path = tmp_path / "sweep.json"
    emit_summary(run_sweep(cfg, [0.1, 0.05, 0.025]), path)
    doc = assert_summary_is_dumps_text(path)
    assert list(doc) == ["runs", "estimated_order", "defect_ladders"]
    assert list(doc["defect_ladders"]) == [f"coning@tau={t!r}" for t in (0.1, 0.05, 0.025)]
    assert all(len(run["max_component_errors"]) == 4 for run in doc["runs"])


def test_emit_summary_text_is_json_dumps_for_a_run_without_an_oracle(tmp_path):
    artifacts = run_scenario(parse_config(make_config(profile="fig1c", tf=0.5)))
    assert artifacts.error_report is None
    path = tmp_path / "summary.json"
    emit_summary(artifacts, path)
    doc = assert_summary_is_dumps_text(path)
    assert list(doc) == ["runs"]
    assert doc["runs"][0]["max_component_errors"] is None


@pytest.mark.parametrize("name", sorted(FORMULA_PROFILES_STACKED))
@pytest.mark.parametrize("shape", [(), (101,), (4,), (2, 101)], ids=["0d", "K", "4", "2xK"])
def test_formula_profiles_match_their_stacked_form_bitwise(name, shape):
    t = np.random.default_rng(7).uniform(-3.0, 12.0, shape)
    got = profile_from_name(name).omega_at(t)
    expected = FORMULA_PROFILES_STACKED[name](np.asarray(t))
    assert got.dtype == expected.dtype and got.shape == expected.shape == shape + (3,)
    assert got.tobytes() == expected.tobytes()


def test_emit_summary_rejects_non_finite_and_keeps_the_old_file(tmp_path):
    # Strict JSON: a nan fails before the file is opened, so the summary
    # already at that path is left byte for byte, and unmodified.
    artifacts = run_scenario(parse_config(make_config(tf=0.1)))
    path = tmp_path / "summary.json"
    emit_summary(artifacts, path)
    before, stat_before = path.read_bytes(), path.stat()
    broken = dataclasses.replace(artifacts, max_norm_deviation=float("nan"))
    with pytest.raises(ValueError, match="JSON compliant"):
        emit_summary(broken, path)
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == stat_before.st_mtime_ns


def test_emitters_over_a_longer_file_write_what_a_fresh_path_gets(tmp_path, monkeypatch):
    # Files are written over in place, then cut: no byte of the longer file
    # they replace survives after the new output, from the emitters and
    # through the command.
    long_run = coning_artifacts(oracle=True)
    short_run = run_scenario(parse_config(make_config(tf=0.05)))
    for emit, longer, shorter in [
        (emit_series, long_run, short_run),
        (emit_summary, [long_run, long_run], short_run),
    ]:
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        emit(shorter, fresh)
        emit(longer, over)
        assert over.stat().st_size > fresh.stat().st_size
        emit(shorter, over)
        assert over.read_bytes() == fresh.read_bytes()
    # The command, on shipped configs: fig1a's CSV over coning-long's, and a
    # run's summary over a sweep's (one without the 0.2 s benchmark floor).
    # Summaries carry wall_clock_s, so the summary is parsed, not compared.
    monkeypatch.setattr(scenario, "_BENCH_MIN_SECONDS", 0.0)
    over, fresh, summary = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "s.json"
    for config, verb, flag, path in [
        ("coning-long", "run", "--out", over),
        ("fig1a", "run", "--out", over),
        ("fig1a", "run", "--out", fresh),
        ("coning-sweep", "sweep", "--summary", summary),
        ("fig1a", "run", "--summary", summary),
    ]:
        text = shipped_config(f"{config}.json")
        assert run_cli(tmp_path, text, flag, str(path), verb=verb)[0] == 0, config
    assert over.read_bytes() == fresh.read_bytes()
    assert len(json.loads(summary.read_text(encoding="utf-8"))["runs"]) == 1


def limited_write(limit=None, most=7):
    """A stand-in for os.write that takes at most `most` bytes a call (all
    it is given if None) and, once `limit` bytes are written, raises ENOSPC;
    returns it and the list of byte counts it wrote, one a call."""
    real_write, written = os.write, []

    def write(fd, data):
        if limit is not None and sum(written) >= limit:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        written.append(real_write(fd, bytes(data[:most])))
        return written[-1]

    return write, written


@pytest.mark.parametrize(
    "limit, most",
    [(None, 7), (50, 7), (None, None)],
    ids=["short-writes", "failing-write", "whole-writes"],
)
def test_emitters_retry_short_writes_and_cut_where_writing_stopped(
    tmp_path, monkeypatch, limit, most
):
    # A descriptor may take fewer bytes than asked: the rest is written
    # again.  A write that fails propagates, and the file ends at the bytes
    # written before it, with no byte of the longer file it was over after.
    # A descriptor that takes all it is given gets a one-block CSV (header
    # included) and a summary in one call each.
    long_run = run_scenario(parse_config(make_config(tf=0.5)))
    short_run = run_scenario(parse_config(make_config(tf=0.05)))
    for emit, longer in [(emit_series, long_run), (emit_summary, [long_run, long_run])]:
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        emit(short_run, fresh)
        emit(longer, over)
        write, written = limited_write(limit, most)
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", write)
            if limit is None:
                emit(short_run, over)
            else:
                with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
                    emit(short_run, over)
        full, kept = fresh.read_bytes(), sum(written)
        assert kept == len(full) if limit is None else limit <= kept < len(full)
        assert over.read_bytes() == full[:kept]
        if limit is None:
            assert len(written) == (1 if most is None else math.ceil(len(full) / most))


def test_emit_series_stops_where_a_failing_block_stops_it(tmp_path):
    # An oracle that fails on the second block: the error propagates and the
    # file ends after the header and the first block, with no old bytes after.
    # One that fails on the first block leaves nothing, not even the header.
    artifacts = coning_artifacts(oracle=True)
    full = reference_series_csv(artifacts)
    first_block = _BLOCK_STEPS
    for failing_block, kept_lines in [(2, 1 + first_block), (1, 0)]:
        calls = []

        def failing_oracle(t):
            calls.append(len(t))
            if len(calls) == failing_block:
                raise RuntimeError("oracle failed")
            return artifacts.config.oracle(t)

        broken = dataclasses.replace(
            artifacts, config=dataclasses.replace(artifacts.config, oracle=failing_oracle)
        )
        path = tmp_path / "series.csv"
        path.write_bytes(full + b"old tail")
        with pytest.raises(RuntimeError, match="oracle failed"):
            emit_series(broken, path)
        assert calls[0] == first_block
        assert path.read_bytes() == b"".join(full.splitlines(keepends=True)[:kept_lines])


def test_emitters_create_files_with_the_mode_open_gives(tmp_path):
    # 0o666 & ~umask, under a umask that clears every bit of others and one
    # that clears only write bits, so an execute bit would show.
    artifacts = run_scenario(parse_config(make_config(tf=0.05)))
    for umask, mode in [(0o027, 0o640), (0o022, 0o644)]:
        folder = tmp_path / oct(umask)
        folder.mkdir()
        old_umask = os.umask(umask)
        try:
            with open(folder / "by-open", "wb"):
                pass
            emit_series(artifacts, folder / "series.csv")
            emit_summary(artifacts, folder / "summary.json")
        finally:
            os.umask(old_umask)
        modes = {p.name: p.stat().st_mode & 0o777 for p in folder.iterdir()}
        assert modes == {"by-open": mode, "series.csv": mode, "summary.json": mode}


# --- CLI ----------------------------------------------------------------------------

def run_cli(tmp_path, config, *argv, verb="run"):
    """Write config (a dict, or JSON text) to tmp_path/cfg.json and run
    `quatkin <verb> <that file> *argv` in process with every warning recorded.
    No numpy RuntimeWarning may leak from the command.  Returns the exit code
    and the category of each warning recorded, in order."""
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code = main([verb, str(path), *argv])
    warned = [w.category for w in record]
    assert not [c for c in warned if issubclass(c, RuntimeWarning)], record
    return code, warned


@pytest.fixture
def check_cli(tmp_path, capsys):
    """check_cli(config, argv, code, err) checks the whole outcome of
    `quatkin <argv[0]> cfg.json <argv[1:]>` on config: the exit code and
    stderr, exactly; stdout empty unless it exits 0; no warning of any kind;
    and no file written beside the config."""
    def check(config, argv, code, err):
        assert run_cli(tmp_path, config, *argv[1:], verb=argv[0]) == (code, [])
        out, got = capsys.readouterr()
        assert (got, out == "") == (err, code != 0)
        assert os.listdir(tmp_path) == ["cfg.json"]

    return check


def test_cli_gap_prints_value(capsys):
    assert main(["gap", "0.2"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) < 1.25e-4
    assert float(out) > 0.0
    assert main(["gap", "0"]) == 0  # the least x accepted
    assert capsys.readouterr() == ("0\n", "")


@pytest.mark.parametrize("x", ["-0.1", "nan", "inf"])
def test_cli_gap_rejects_negative_and_non_finite(capsys, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gap", x]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument x:")


def test_cli_registry_lists_names(capsys):
    assert main(["registry"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2", "coning"):
        assert name in out


def test_cli_run_with_overrides_and_outputs(tmp_path, capsys):
    # --out names a file that exists, --summary one not yet made: both written.
    out_csv, out_json = tmp_path / "series.csv", tmp_path / "summary.json"
    out_csv.write_bytes(b"an older file")
    argv = ["--tau", "0.02", "--out", str(out_csv), "--summary", str(out_json)]
    assert run_cli(tmp_path, make_config(tf=2.0), *argv)[0] == 0
    assert "tau=0.02" in capsys.readouterr().out
    assert out_csv.read_bytes().startswith(b"t,e0,e1,e2,e3,norm\n")
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["runs"][0]["tau"] == 0.02
    assert doc["runs"][0]["steps"] == 100


def test_cli_sweep(tmp_path):
    config = make_config(profile="coning", q0=CONING_Q0, tf=20.0, method="SGA-NA")
    out_json = tmp_path / "sweep.json"
    argv = ["--taus", "0.1", "0.05", "--summary", str(out_json)]
    assert run_cli(tmp_path, config, *argv, verb="sweep")[0] == 0
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert [r["tau"] for r in doc["runs"]] == [0.1, 0.05]
    assert "estimated_order" in doc  # two runs are a ladder


def test_cli_sweep_takes_no_tau(tmp_path, capsys):
    # --taus sets every run's step, so a --tau could only reject a valid
    # sweep (here with the step budget); argparse rejects it instead, and
    # does not read it as an abbreviation of --taus.
    with pytest.raises(SystemExit) as excinfo:
        run_cli(tmp_path, make_config(tf=2.0), "--taus", "0.1", "--tau", "1e-12", verb="sweep")
    assert excinfo.value.code == 1
    assert "error: unrecognized arguments: --tau 1e-12" in capsys.readouterr().err


def test_cli_run_and_one_step_sweep_write_the_same_summary(tmp_path, capsys):
    config = make_config(
        profile="coning", q0=CONING_Q0, tf=2.0, tau=0.05, outputs=["defect-ladder"]
    )
    docs, lines = [], []
    for verb, taus in (("run", []), ("sweep", ["--taus", "0.05"])):
        summary = tmp_path / f"{verb}.json"
        assert run_cli(tmp_path, config, *taus, "--summary", str(summary), verb=verb)[0] == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["runs"][0].pop("wall_clock_s") > 0.0
        docs.append(doc)
        lines.append(capsys.readouterr().out.split(" wall=")[0])
    assert docs[0] == docs[1]
    assert lines[0] == lines[1] == "coning: method=SGA-NA tau=0.05 steps=40"


@pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")
def test_summary_keeps_every_defect_ladder_of_a_sweep(tmp_path):
    # Every run of a sweep has the config's name, so each ladder is keyed by
    # its tau as well; runs with names of their own keep the plain name.
    cfg = {"profile": "fig2", "tau": 0.1, "tf": 1, "method": "SGA-NA", "outputs": ["defect-ladder"]}
    out_json = tmp_path / "sweep.json"
    argv = ["--taus", "0.1", "0.05", "--summary", str(out_json)]
    assert run_cli(tmp_path, cfg, *argv, verb="sweep")[0] == 0
    ladders = json.loads(out_json.read_text(encoding="utf-8"))["defect_ladders"]
    assert list(ladders) == ["fig2@tau=0.1", "fig2@tau=0.05"]
    for tau in (0.1, 0.05):
        expected = defect_ladder(parse_config({**cfg, "tau": tau}))
        assert ladders[f"fig2@tau={tau!r}"]["taus"] == list(expected.taus)
        assert ladders[f"fig2@tau={tau!r}"]["defects"] == list(expected.defects)
    runs = [run_scenario(parse_config({**cfg, "name": name})) for name in ("a", "b")]
    emit_summary(runs, out_json)
    assert list(json.loads(out_json.read_text(encoding="utf-8"))["defect_ladders"]) == ["a", "b"]


def test_cli_summary_keeps_a_ladder_with_undefined_order(tmp_path):
    # A zero rate gives zero defects on every rung, so the order is undefined.
    out_json = tmp_path / "summary.json"
    still = {"type": "constant", "omega": [0, 0, 0]}
    config = make_config(profile=still, tau=0.1, outputs=["defect-ladder"])
    assert run_cli(tmp_path, config, "--summary", str(out_json))[0] == 0
    ladder = json.loads(out_json.read_text(encoding="utf-8"))["defect_ladders"]["scenario"]
    assert ladder["defects"] == [0.0, 0.0, 0.0, 0.0]
    assert ladder["estimated_order"] is None


def test_cli_validation_error_exit_code(check_cli):
    expected = "error: field 'tf': must exceed t0, got t0=0.0, tf=-1.0\n"
    check_cli(make_config(tf=-1.0), ["run"], 1, expected)


def test_cli_config_root_not_an_object_exit_code(check_cli):
    expected = "error: config root must be a JSON object\n"
    check_cli("[1, 2]", ["run"], 1, expected)


def test_cli_out_of_memory_is_a_runtime_error(monkeypatch, check_cli):
    import quatkin.cli

    def out_of_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(quatkin.cli, "run_scenario", out_of_memory)
    check_cli(make_config(), ["run"], 2, "runtime error: out of memory\n")


@pytest.fixture
def no_integration(monkeypatch):
    """Make the CLI fail the test if it integrates."""
    import quatkin.cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("integrated before checking the output paths")

    monkeypatch.setattr(quatkin.cli, "run_scenario", must_not_run)
    monkeypatch.setattr(quatkin.cli, "run_sweep", must_not_run)


OUTPUT_FLAGS = [("run", "--out"), ("run", "--summary"), ("sweep", "--summary")]


@pytest.mark.parametrize("verb, flag", OUTPUT_FLAGS)
def test_cli_rejects_missing_output_directory_before_running(
    tmp_path, no_integration, verb, flag, check_cli
):
    target = str(tmp_path / "missing-dir" / "out.file")
    expected = f"error: {flag}: directory of {target!r} does not exist\n"
    check_cli(make_config(), [verb, flag, target], 1, expected)


@pytest.mark.parametrize("verb, flag", OUTPUT_FLAGS)
def test_cli_rejects_a_directory_as_output_before_running(
    tmp_path, capsys, no_integration, verb, flag
):
    target = tmp_path / "a-dir"
    target.mkdir()
    assert run_cli(tmp_path, make_config(), flag, str(target), verb=verb)[0] == 1
    assert capsys.readouterr().err == f"error: {flag}: {str(target)!r} is a directory\n"


@pytest.mark.parametrize(
    "argv, flag",
    [(["run", "--out", ""], "--out"), (["run", "--summary", ""], "--summary"),
     (["sweep", "--summary", ""], "--summary"), (["run", "--out", "", "--summary", ""], "--out")],
    ids=["run-out", "run-summary", "sweep-summary", "run-both"],
)
def test_cli_rejects_an_empty_output_path_before_running(no_integration, argv, flag, check_cli):
    # An unset shell variable gives an empty path, which would otherwise run
    # and write nothing without a word.
    check_cli(make_config(), argv, 1, f"error: {flag}: the path is empty\n")


@pytest.mark.parametrize("same", ["new-file", "existing-file", "symlink", "hard-link"])
def test_cli_rejects_out_and_summary_naming_one_file(tmp_path, capsys, no_integration, same):
    out = summary = tmp_path / "both"
    if same != "new-file":
        out.write_bytes(b"kept")
    if same == "symlink":
        summary = tmp_path / "link"
        summary.symlink_to(out)
    if same == "hard-link":
        summary = tmp_path / "link"
        os.link(out, summary)
    assert run_cli(tmp_path, make_config(), "--out", str(out), "--summary", str(summary))[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and "--summary" in err and "same file" in err
    assert out.exists() == (same != "new-file")
    if out.exists():
        assert out.read_bytes() == b"kept"


def test_cli_writes_both_outputs_to_devnull(tmp_path):
    # /dev/null is no regular file: both flags may name it, and it is
    # written without the cut that ftruncate refuses there.
    config = make_config(profile="coning", q0=CONING_Q0, tf=1.0)
    assert run_cli(tmp_path, config, "--out", os.devnull, "--summary", os.devnull)[0] == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--out", "--summary"])
def test_cli_failed_output_write_is_a_runtime_error(tmp_path, capsys, flag):
    assert run_cli(tmp_path, make_config(tf=0.1), flag, "/dev/full")[0] == 2
    assert capsys.readouterr().err.startswith("runtime error: [Errno 28]")


def test_cli_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/config.json"]) == 1


def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys):
    # A directory given as the config is a config error naming the path.
    assert main(["run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config") and str(tmp_path) in err


def test_cli_malformed_json_exit_code(check_cli):
    expected = (
        "error: config is not valid JSON at line 1, column 2: "
        "Expecting property name enclosed in double quotes\n"
    )
    check_cli("{not json", ["run"], 1, expected)


def test_cli_runtime_error_exit_code(tmp_path, check_cli):
    # A finite rate whose step map overflows passes parsing and fails at run
    # time; RK4's stage products overflow too: no NaN rows are written.
    cfg = {"profile": {"type": "constant", "omega": [1e200, 0.0, 0.0]}, "tau": 0.1, "tf": 1.0}
    expected = "runtime error: step map is not finite at step 0\n"
    check_cli(cfg, ["run"], 2, expected)
    argv = ["run", "--method", "RK4", "--out", str(tmp_path / "huge.csv")]
    check_cli(cfg, argv, 2, expected)


def nan_from_half(monkeypatch):
    """Register a profile that is nan from t = 0.5 on as 'nan-from-half'."""
    def rate(t):
        return np.where(t[..., None] >= 0.5, np.nan, [1.0, 2.0, 3.0])

    monkeypatch.setitem(PROFILE_REGISTRY, "nan-from-half", lambda: FormulaProfile("nan", rate))


@pytest.mark.parametrize("method, step", [("RK4", 1), ("EUB", 1), ("GL2", 2)])
def test_cli_non_finite_rate_exit_code(method, step, monkeypatch, check_cli):
    # A profile that is nan from t = 0.5 on fails at run time, naming the step.
    nan_from_half(monkeypatch)
    config = make_config(profile="nan-from-half", tau=0.25, method=method)
    check_cli(config, ["run"], 2, f"runtime error: rate is not finite at step {step}\n")


@pytest.mark.parametrize("tf, code", [(100.0, 2), (10.0, 0)], ids=["diverges", "large-finite"])
def test_cli_rk4_past_its_stability_bound(tf, code, tmp_path, capsys):
    # tau |w| = 10: every RK4 step multiplies the norm by ~21.5.  Over 1000
    # steps the state overflows at step 232 and the run stops there, writing
    # nothing; over 100 it reaches ~1e133, still finite, and the run writes
    # a strict-JSON summary.
    profile = {"type": "constant", "omega": [100, 0, 0]}
    cfg = {"profile": profile, "method": "RK4", "tau": 0.1, "tf": tf}
    out, summary = tmp_path / "rk4.csv", tmp_path / "summary.json"
    assert run_cli(tmp_path, cfg, "--out", str(out), "--summary", str(summary))[0] == code
    err = capsys.readouterr().err
    if code:
        assert err == "runtime error: state is not finite at step 232\n"
        assert not out.exists() and not summary.exists()
    else:
        doc = json.loads(summary.read_text(encoding="utf-8"), parse_constant=pytest.fail)
        assert 1e133 < doc["runs"][0]["max_norm_deviation"] < 1e134
        text = out.read_text(encoding="utf-8")
        assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize(
    "profile, tau, message",
    [
        ({"type": "constant", "omega": [1e110] * 3}, 0.5, "corrected rate is not finite at step 0"),
        ("nan-from-half", 0.25, "rate is not finite at step 2"),
    ],
    ids=["overflow", "nan"],
)
def test_cli_sga_na_names_the_rate_that_is_not_finite(
    profile, tau, message, monkeypatch, check_cli
):
    # A finite sample whose correction w' = w + (tau^2/48) w2 |w|^2 e2
    # overflows is named as the corrected rate, with no numpy RuntimeWarning;
    # a nan sample (step 2's midpoint is 0.625) is still named as the rate.
    nan_from_half(monkeypatch)
    cfg = {"profile": profile, "method": "SGA-NA", "tau": tau, "tf": 1}
    check_cli(cfg, ["run"], 2, f"runtime error: {message}\n")


@pytest.mark.parametrize(
    "method, code, err",
    [
        ("SGA-A", 2, "step map is not finite at step 0"),
        ("SGA-NA", 2, "corrected rate is not finite at step 0"),
        ("RK4", 2, "step map is not finite at step 0"),
        ("EUB", 0, None),
        ("GL2", 0, None),
    ],
    ids=["SGA-A", "SGA-NA", "RK4", "EUB", "GL2"],
)
def test_cli_interp_names_what_exact_names_on_a_1e308_rate(method, code, err, check_cli):
    # The chord (1 - c) w(t) + c w(t_end) of two finite samples is finite, so
    # at a constant 1e308 rate interp gives exact's outcome, with the one
    # named error (or none) and no numpy RuntimeWarning.
    omega = {"type": "constant", "omega": [1e308] * 3}
    for sampling in ("exact", "interp"):
        cfg = {"profile": omega, "method": method, "sampling": sampling, "tau": 0.5, "tf": 1}
        check_cli(cfg, ["run"], code, f"runtime error: {err}\n" if err else "")


@pytest.mark.parametrize("sampling", ["exact", "interp"])
@pytest.mark.parametrize("method", ["SGA-NA", "RK4", "EUB", "GL2"])
def test_cli_profile_that_overflows_names_the_rate_with_no_warning(method, sampling, check_cli):
    # fig1c's e^{-t} overflows at t = -1000: the profile's own arithmetic runs
    # inside the run's one np.errstate, so only the named error comes out.
    cfg = {"profile": "fig1c", "t0": -1000, "tf": -999, "tau": 0.1, "method": method,
           "sampling": sampling}
    expected = "runtime error: rate is not finite at step 0\n"
    check_cli(cfg, ["run"], 2, expected)


def test_cli_constant_oracle_whose_square_overflows_is_a_config_error(tmp_path, check_cli):
    # The oracle's |w|^2 is checked at parse time, before the oracle is built.
    cfg = {"profile": {"type": "constant", "omega": [1e200] * 3}, "method": "EUB",
           "oracle": "constant-analytic", "tau": 0.5, "tf": 1}
    expected = "error: field 'oracle': constant-analytic needs a finite |omega|^2\n"
    argv = ["run", "--summary", str(tmp_path / "summary.json")]
    check_cli(cfg, argv, 1, expected)


def test_cli_constant_oracle_whose_half_angle_overflows_is_a_config_error(tmp_path, check_cli):
    # |w|^2 = 1e300 is finite, but the half angle |w| (tf - t0) / 2 the oracle
    # takes at tf is not: refused at parse time, before any step runs.
    cfg = {"profile": {"type": "constant", "omega": [1e150, 0, 0]}, "method": "EUB",
           "oracle": "constant-analytic", "tau": 1e158, "tf": 1e159}
    expected = (
        "error: field 'oracle': constant-analytic half angle |omega|(t - t0)/2 is not "
        'finite on [0.0, 1e+159]; "oracle": "none" runs without the oracle\n'
    )
    argv = ["run", "--out", str(tmp_path / "s.csv"), "--summary", str(tmp_path / "s.json")]
    check_cli(cfg, argv, 1, expected)
    # At the edge: a half angle of 1.79e308 is finite, 1.8e308 is not.
    assert parse_config({**cfg, "tf": 3.58e158}).oracle is not None
    with pytest.raises(ConfigError, match="half angle"):
        parse_config({**cfg, "tf": 3.6e158})


# omega0 * t overflows at an end of the horizon: the coning oracle the profile
# wires by default at t = tf, and an explicit one over fig2 at t = t0.
CONING_PHASE_OVERFLOWS = {
    "auto-wired": (
        {"profile": {"type": "coning", "omega0": 1.7e308, "beta": 1e-300}, "tau": 1.1, "tf": 1.1},
        "[0.0, 1.1]",
    ),
    "explicit": (
        {"profile": "fig2", "oracle": {"type": "coning", "omega0": 1e308, "beta": 0.1},
         "t0": -5, "tau": 0.5, "tf": 1},
        "[-5.0, 1.0]",
    ),
}


@pytest.mark.parametrize("method", ["SGA-NA", "RK4", "EUB", "GL2"])
@pytest.mark.parametrize("case", sorted(CONING_PHASE_OVERFLOWS))
def test_cli_coning_oracle_whose_phase_overflows_is_a_config_error(
    case, method, tmp_path, check_cli
):
    # Checked at parse time, before any step runs or any file is written.
    cfg, horizon = CONING_PHASE_OVERFLOWS[case]
    expected = (
        f"error: field 'oracle': coning phase omega0*t is not finite on {horizon}; "
        '"oracle": "none" runs without the oracle\n'
    )
    argv = ["run", "--out", str(tmp_path / "s.csv"), "--summary", str(tmp_path / "s.json")]
    check_cli(dict(cfg, method=method), argv, 1, expected)


@pytest.mark.parametrize("method", ["SGA-NA", "GL2"])
def test_cli_coning_profile_whose_phase_overflows_runs_without_its_oracle(
    method, tmp_path, capsys
):
    # Every rate sample these methods take is finite; only the oracle was not.
    cfg, _ = CONING_PHASE_OVERFLOWS["auto-wired"]
    summary = tmp_path / "s.json"
    cfg = dict(cfg, method=method, oracle="none")
    assert run_cli(tmp_path, cfg, "--summary", str(summary))[0] == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["runs"][0]["max_component_errors"] is None


def test_cli_sweep_with_a_repeated_step_is_a_config_error(tmp_path, check_cli):
    # Both 0.1 runs would key their ladders fig2@tau=0.1: refused before any
    # run, as is a nan step of the same sweep.
    cfg = {"profile": "fig2", "tau": 0.1, "tf": 1, "outputs": ["defect-ladder"]}
    summary = ["--summary", str(tmp_path / "sweep.json")]
    expected = "error: sweep step sizes must be distinct; 0.1 is repeated\n"
    check_cli(cfg, ["sweep", "--taus", "0.1", "0.1", "0.05", *summary], 1, expected)
    expected = "error: field 'tau': step size must be finite, got nan\n"
    check_cli(cfg, ["sweep", "--taus", "0.1", "nan", *summary], 1, expected)


@pytest.mark.parametrize(
    "taus, reason",
    [(["0.1", "nan"], "must be finite, got nan"), (["0"], "must be positive, got 0.0")],
    ids=["nan", "zero"],
)
def test_cli_sweep_step_that_is_not_positive_names_tau(tmp_path, taus, reason, check_cli):
    argv = ["sweep", "--taus", *taus, "--summary", str(tmp_path / "sweep.json")]
    expected = f"error: field 'tau': step size {reason}\n"
    check_cli(make_config(), argv, 1, expected)


@pytest.mark.parametrize(
    "method, outputs, code, err",
    [
        ("SGA-A", ["series"], 2, "runtime error: step map is not finite at step 0\n"),
        ("EUB", ["series"], 0, ""),
        ("EUB", ["defect-ladder"], 0, ""),
    ],
    ids=["SGA-A", "EUB", "EUB-ladder"],
)
def test_cli_rate_whose_square_overflows_lets_no_warning_out(
    method, outputs, code, err, check_cli
):
    # |w|^2 overflows at this finite rate: SGA-A's map is nan and named; EUB's
    # closed form gives p_k = 0, a finite, fully damped step, in the run and
    # on the ladder, whose maps one_step_matrix builds outside any run.
    omega = {"type": "constant", "omega": [1e200] * 3}
    cfg = {"profile": omega, "method": method, "tau": 0.5, "tf": 1, "outputs": outputs}
    check_cli(cfg, ["run"], code, err)


@pytest.mark.parametrize(
    "method, rate, code, err",
    [
        *((m, 0.0, 0, "") for m in scenario.METHODS),
        ("SGA-A", 1e-170, 2, "runtime error: step map is not finite at step 0\n"),
        ("SGA-NA", 1e-170, 2, "runtime error: corrected rate is not finite at step 0\n"),
        ("RK4", 1e-170, 0, ""),
        ("EUB", 1e-170, 2, "runtime error: step map is not finite at step 0\n"),
        ("GL2", 1e-170, 0, ""),
    ],
    ids=[f"{m}-{rate}" for rate in ("zero", "1e-170") for m in scenario.METHODS],
)
def test_cli_zero_rate_is_the_identity_at_a_step_whose_square_overflows(
    method, rate, code, err, tmp_path, capsys
):
    # tau^2 overflows at tau = 1e200.  A zero rate is the identity step for
    # every method; a rate of 1e-170, whose |w|^2 underflows to 0 too, keeps
    # each method's result, and neither lets a RuntimeWarning out.
    omega = {"type": "constant", "omega": [rate, 0, 0]}
    cfg = {"profile": omega, "method": method, "tau": 1e200, "tf": 1e200}
    assert run_cli(tmp_path, cfg)[0] == code
    out, got = capsys.readouterr()
    assert got == err
    assert ("max|norm-1|=0.000e+00" in out) == (rate == 0.0 or method == "GL2")


@pytest.mark.parametrize(
    "tf, message",
    [(100.0, "state is not finite at step 232"), (20.0, "state norm is not finite at step 116")],
    ids=["state-overflow", "norm-overflow"],
)
def test_cli_diverging_rk4_prints_only_the_named_error(tf, message, tmp_path, check_cli):
    # At tf = 20 the states stay finite (~2.4e266) but their norms overflow.
    # Neither run lets a numpy RuntimeWarning out, and neither writes a file.
    profile = {"type": "constant", "omega": [100, 0, 0]}
    cfg = {"profile": profile, "method": "RK4", "tau": 0.1, "tf": tf}
    argv = ["run", "--out", str(tmp_path / "rk4.csv"), "--summary", str(tmp_path / "summary.json")]
    check_cli(cfg, argv, 2, f"runtime error: {message}\n")


@pytest.mark.parametrize(
    "call", ["integrate_nonautonomous", "run_scenario", "defect_ladder", "autonomous_transition"]
)
def test_step_size_warning_names_the_caller(call):
    # fig1a at tau 0.1 is past the 1/(5|w|) guideline on every path.
    cfg = parse_config(make_config(tau=0.1))
    calls = {
        "integrate_nonautonomous": lambda: integrate_nonautonomous(
            cfg.profile, cfg.q0, 0.0, 1.0, 0.1
        ),
        "run_scenario": lambda: run_scenario(cfg),
        "defect_ladder": lambda: defect_ladder(cfg),
        "autonomous_transition": lambda: autonomous_transition(cfg.profile.vector, 0.1),
    }
    with pytest.warns(StepSizeWarning) as record:
        calls[call]()
    assert [w.filename for w in record] == [__file__] * len(record)


def _python(*args):
    """A fresh interpreter with this checkout's quatkin on its path, run from
    the repository root: (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(scenario.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=root, check=False
    )
    return done.returncode, done.stderr


@pytest.mark.parametrize(
    "config, warning",
    [
        ("fig2-sga", "60 of 60 steps exceed the accuracy guideline tau <= 1/(5|omega|); "
         "worst tau|omega| = 1.535"),
        ("fig1d", "1095 of 2000 steps exceed the accuracy guideline tau <= 1/(5|omega|); "
         "worst tau|omega| = 0.4185"),
    ],
    ids=["fig2-sga", "fig1d"],
)
@pytest.mark.parametrize(
    "flags, code, prefix",
    [([], 0, "warning: "), (["-W", "ignore::UserWarning"], 0, None),
     (["-W", "error::UserWarning"], 2, "runtime error: ")],
    ids=["default", "ignored", "error"],
)
def test_cli_prints_a_step_size_warning_as_one_line(config, warning, flags, code, prefix, tmp_path):
    # The command's warning names no file or line, so it does not move with
    # an edit of cli.py; a -W filter still applies to it.  Raised as an
    # error, it is a runtime error: exit 2, one line, no summary written.
    summary = tmp_path / "summary.json"
    argv = ["run", f"configs/{config}.json", "--summary", str(summary)]
    expected = (code, f"{prefix}{warning}\n" if prefix else "")
    assert _python(*flags, "-m", "quatkin.cli", *argv) == expected
    assert summary.exists() == (code == 0)


def test_cli_step_size_warning_raised_as_an_error_is_a_runtime_error(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepSizeWarning)
        code = main(["run", os.path.join(CONFIG_DIR, "fig2-sga.json"), "--summary", str(summary)])
    assert code == 2
    assert capsys.readouterr() == ("", (
        "runtime error: 60 of 60 steps exceed the accuracy guideline tau <= 1/(5|omega|); "
        "worst tau|omega| = 1.535\n"
    ))
    assert not summary.exists()


def test_step_size_warning_under_python_c_names_the_string():
    code, err = _python(
        "-W", "always", "-c",
        "import numpy as np, quatkin\n"
        "quatkin.integrate_autonomous(np.array([2., 10, 3]), [1, 0, 0, 0], 0, 1, 0.1)",
    )
    assert code == 0, err
    assert err.startswith("<string>:2: StepSizeWarning: 10 of 10 steps"), err


@pytest.mark.parametrize(
    "overrides, err",
    [
        ({"tf": "inf"}, "'tf': expected a finite number, got 'inf'"),
        (
            {"profile": {"type": "coning", "omega0": "nan", "beta": "pi/80"}},
            "'profile.omega0': expected a finite number, got 'nan'",
        ),
        (
            {"profile": {"type": "coning", "omega0": "2pi", "beta": "pi/0"}},
            "'profile.beta': zero divisor in 'pi/0'",
        ),
        (
            {"profile": {"type": "coning", "omega0": "2pi", "beta": "pi/0"}, "tau": 0.1, "tf": 1},
            "'profile.beta': zero divisor in 'pi/0'",
        ),
        *(
            (
                {"tf": 5.0,
                 "profile": {"type": "tabulated", "samples": [[t, [1.0, 0.0, 0.0]] for t in (a, b)]}},
                f"'profile.samples': span [{a}, {b}] does not cover the horizon [0.0, 5.0]",
            )
            for a, b in [(0.0, 1.0), (0.5, 9.0)]
        ),
    ],
    ids=["tf-inf", "omega0-nan", "beta-pi-over-0", "beta-pi-over-0-tau-0.1", "samples-end-early",
         "samples-start-late"],
)
def test_cli_rejects_out_of_range_config_values(overrides, err, tmp_path, check_cli):
    argv = ["run", "--summary", str(tmp_path / "summary.json")]
    check_cli(make_config(**overrides), argv, 1, f"error: field {err}\n")


def test_cli_rejects_tau_over_step_budget(tmp_path, capsys, check_cli):
    tracemalloc.start()
    try:
        codes = [
            run_cli(tmp_path, make_config(tau=1e-300))[0],
            run_cli(tmp_path, make_config(), "--taus", "0.1", "1e-300", verb="sweep")[0],
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == [1, 1]
    assert peak < 1 << 20  # rejected before any step array exists
    expected = f"1e-300 gives 1e+300 steps over [0.0, 1.0], more than the budget of {MAX_STEPS}"
    assert capsys.readouterr().err == f"error: field 'tau': {expected}\n" * 2
    # Ten times the budget, with no summary written.
    expected = f"1e-08 gives 1e+08 steps over [0.0, 1.0], more than the budget of {MAX_STEPS}"
    argv = ["run", "--summary", str(tmp_path / "summary.json")]
    check_cli({"profile": "fig2", "tau": 1e-8, "tf": 1}, argv, 1, f"error: field 'tau': {expected}\n")


LADDER_TABLE = {"type": "tabulated", "samples": [[0.0, [1.0, 2.0, 0.5]], [1.0, [2.0, 1.0, 0.0]]]}


@pytest.mark.parametrize(
    "method, sampling", [("RK4", "exact"), ("SGA-NA", "interp")], ids=["RK4", "SGA-NA-interp"]
)
def test_cli_rejects_defect_ladder_step_past_table(tmp_path, method, sampling, check_cli):
    # One ladder step of tau = 1.5 from t0 = 0 samples the table past its end
    # at t = 1, although the run itself takes one shortened step.
    fields = dict(
        profile=LADDER_TABLE, tf=1.0, method=method, sampling=sampling, outputs=["defect-ladder"]
    )
    out, short_step = str(tmp_path / "out.csv"), make_config(tau=0.1, **fields)
    expected = "error: field 'tau': defect ladder samples t0 + tau = 1.5 > 1.0\n"
    check_cli(make_config(tau=1.5, **fields), ["run", "--out", out], 1, expected)
    argv = ["sweep", "--taus", "0.5", "1.5", "--summary", out]
    check_cli(short_step, argv, 1, expected)
    assert run_cli(tmp_path, short_step, "--out", out)[0] == 0
    assert os.path.exists(out)
    # A ladder step that ends on the table's last time samples inside it.
    assert run_cli(tmp_path, make_config(tau=1.0, **fields))[0] == 0


def test_cli_rejects_tau_the_float_times_cannot_resolve(tmp_path, check_cli):
    # Float times near 1e16 lie 2 apart: a 0.1 step would give 21 CSV rows
    # holding 2 distinct times.  The config's step, a --tau and a sweep's
    # step are each refused, after the budget check, before any run.
    horizon = dict(profile="fig2", t0=1e16, tf=1.0000000000000002e16, method="RK4")
    bad, ok = make_config(tau=0.1, **horizon), make_config(tau=2.0, **horizon)
    out = str(tmp_path / "out.csv")
    reason = (
        "is below two float spacings (4) of times on [1e+16, 1.0000000000000002e+16] and off "
        "their grid, so the times cannot resolve the steps"
    )
    for config, argv, tau in [(bad, ["run", "--out", out], 0.1),
                              (ok, ["run", "--tau", "0.5", "--out", out], 0.5),
                              (ok, ["sweep", "--taus", "2.0", "1.0", "--summary", out], 1.0)]:
        check_cli(config, argv, 1, f"error: field 'tau': {tau} {reason}\n")
    assert run_cli(tmp_path, ok, "--out", out)[0] == 0  # one spacing is a step
    assert len(set(np.loadtxt(out, delimiter=",", skiprows=1)[:, 0])) == 2


def test_parse_float_spacing_boundary():
    spacing = math.ulp(1e16)
    horizon = dict(t0=1e16, tf=1e16 + 4 * spacing)
    assert parse_config(make_config(tau=spacing, **horizon)).tau == spacing
    with pytest.raises(ConfigError, match="'tau'.*float spacing"):
        parse_config(make_config(tau=math.nextafter(spacing, 0.0), **horizon))
    # The larger end sets the spacing, whichever its sign.
    with pytest.raises(ConfigError, match="'tau'.*float spacing"):
        parse_config(make_config(t0=-1e16, tf=-1e16 + 4 * spacing, tau=spacing / 2))
    # The budget's message comes first.
    with pytest.raises(ConfigError, match="'tau'.*budget"):
        parse_config(make_config(t0=1e16, tf=2e16, tau=1.0))


def test_parse_float_spacing_across_a_binade():
    # Below 2^53 the spacing is 1, above it 2: from t0 = 2^53 - 1, steps of
    # one spacing (at tf) land on ties that round in pairs, giving the times
    # 2^53 + [-1, 0, 4, 4, 8, 8].  Two spacings resolve the steps, and so
    # does one from a t0 on the spacing's grid, where every time is exact.
    horizon = dict(profile="fig2", method="RK4", tf=2**53 + 8)
    with pytest.raises(ConfigError, match="'tau'.*two float spacings"):
        parse_config(make_config(t0=2**53 - 1, tau=2.0, **horizon))
    with pytest.raises(ConfigError, match="'tau'.*two float spacings"):
        parse_config(make_config(t0=2**53 - 1, tau=math.nextafter(4.0, 0.0), **horizon))
    for t0, tau in [(2**53 - 1, 4.0), (2**53 - 2, 2.0)]:
        cfg = parse_config(make_config(t0=t0, tau=tau, **horizon))
        times = run_scenario(cfg).trajectory.times
        assert np.all(np.diff(times) > 0.0) and times[-1] == cfg.tf


def test_cli_rejects_one_spacing_across_a_binade(tmp_path, check_cli):
    # The config's step, a --tau and a sweep's step are each refused.
    horizon = dict(profile="fig2", t0=2**53 - 1, tf=2**53 + 8, method="RK4")
    bad, ok = make_config(tau=2.0, **horizon), make_config(tau=4.0, **horizon)
    out = str(tmp_path / "out.csv")
    expected = (
        "error: field 'tau': 2.0 is below two float spacings (4) of times on "
        "[9007199254740991.0, 9007199254741000.0] and off their grid, so the times cannot "
        "resolve the steps\n"
    )
    for config, argv in [(bad, ["run", "--out", out]), (ok, ["run", "--tau", "2", "--out", out]),
                         (ok, ["sweep", "--taus", "4", "2", "--summary", out])]:
        check_cli(config, argv, 1, expected)


def test_defect_ladder_rungs_keep_the_float_spacing_rule(tmp_path, check_cli):
    # Near 1e16 the times lie 2 apart.  The run's step of 4 resolves them,
    # but the ladder's rungs 1 and 0.5 end where t0 + rung rounds to t0, so
    # their maps would sample the profile at t0 alone: refused at parse
    # time, by a sweep and by the CLI, naming the rung.
    fields = dict(profile="fig2", t0=1e16, tf=1.0000000000000008e16, method="RK4")
    ladder = make_config(tau=4, outputs=["defect-ladder"], **fields)
    reason = r"^field 'tau': 1\.0 is below two float spacings \(4\) of times on \[1e\+16, "
    with pytest.raises(ConfigError, match=reason):
        parse_config(ladder)
    base = parse_config(make_config(tau=4, **fields))
    with pytest.raises(ConfigError, match=reason):
        run_sweep(dataclasses.replace(base, outputs=("defect-ladder",)), [4.0])
    expected = (
        "error: field 'tau': 1.0 is below two float spacings (4) of times on [1e+16, "
        "1.0000000000000004e+16] and off their grid, so the times cannot resolve the steps\n"
    )
    argv = ["run", "--summary", str(tmp_path / "out.json")]
    check_cli(ladder, argv, 1, expected)
    # Without the ladder the run's own step is enough.
    assert len(run_sweep(base, [4.0])[0].trajectory.times) == 3


FAR_HORIZON = dict(profile="fig1a", t0=1e308, tf=1.5e308, tau=1e308)


@pytest.mark.parametrize(
    "method, err",
    [
        ("SGA-A", "step map"),
        ("SGA-NA", "corrected rate"),
        ("RK4", "step map"),
        ("EUB", "step map"),
        ("GL2", "step map"),
    ],
    ids=["SGA-A", "SGA-NA", "RK4", "EUB", "GL2"],
)
def test_cli_sample_times_past_the_float_range_leak_no_warning(method, err, check_cli):
    # One step of 1e308 from t0 = 1e308 would end past the float range, but
    # the run ends at tf = 1.5e308: the sample times never form t0 + tau, so
    # only the run's one named error comes out.
    expected = f"runtime error: {err} is not finite at step 0\n"
    check_cli(make_config(method=method, **FAR_HORIZON), ["run"], 2, expected)


def test_defect_ladder_whose_step_end_overflows_names_tau(tmp_path, check_cli):
    # The run of FAR_HORIZON ends on tf, but the ladder's step ends at
    # t0 + tau = inf: refused at parse time, by a sweep and by the CLI,
    # naming 'tau' and that end, not a horizon the config never states.
    reason = "field 'tau': defect ladder step end t0 + tau = inf is not finite"
    ladder = make_config(method="RK4", outputs=["defect-ladder"], **FAR_HORIZON)
    with pytest.raises(ConfigError, match=f"^{re.escape(reason)}$"):
        parse_config(ladder)
    base = parse_config(make_config(method="RK4", **FAR_HORIZON))
    with pytest.raises(ConfigError, match=f"^{re.escape(reason)}$"):
        run_sweep(dataclasses.replace(base, outputs=("defect-ladder",)), [1e308])
    for verb in ("run", "sweep"):
        argv = [verb, "--summary", str(tmp_path / "out.json")]
        check_cli(ladder, argv, 1, f"error: {reason}\n")


def test_step_that_is_not_finite_is_named_before_positivity(tmp_path, check_cli):
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidHorizonError, match=f"^step size must be finite, got {tau}$"):
            integrate(lambda t, tau_k, t_end: np.zeros((len(t), 4)), [1, 0, 0, 0], 0.0, 1.0, tau)
    argv = ["sweep", "--taus", "0.1", "nan", "--summary", str(tmp_path / "sweep.json")]
    expected = "error: field 'tau': step size must be finite, got nan\n"
    check_cli(make_config(), argv, 1, expected)


def test_schedule_drops_a_final_step_that_does_not_move_the_time(tmp_path):
    # span / tau passes 27 by 2.8e-7, past the 1e-9 slack, but t0 + 27 tau
    # rounds to tf: a 28th step, 3.6e-10 s long, would repeat tf in the CSV.
    fields = dict(t0=7848848.616051737, tf=7848848.650750056, tau=0.0012851229012380413)
    times, tau_k, t_end = schedule(fields["t0"], fields["tf"], fields["tau"])
    assert len(tau_k) == 27 and np.all(np.diff(times) > 0.0) and times[-1] == fields["tf"]
    assert t_end[-1] == fields["tf"]
    out = tmp_path / "out.csv"
    config = make_config(profile="fig2", method="RK4", **fields)
    assert run_cli(tmp_path, config, "--out", str(out))[0] == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1)[:, 0].tobytes() == times.tobytes()


def test_parse_step_budget_boundary():
    assert parse_config(make_config(tf=float(MAX_STEPS), tau=1.0)).tau == 1.0
    with pytest.raises(ConfigError, match=f"'tau'.*budget of {MAX_STEPS}"):
        parse_config(make_config(tf=float(MAX_STEPS), tau=0.5))


def test_cli_default_sweep_taus_constant():
    assert DEFAULT_SWEEP_TAUS == (0.1, 0.05, 0.025, 0.0125, 0.00625)
