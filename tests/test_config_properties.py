"""Property tests over scenario config mappings.

A valid mapping parses and runs through `quatkin run` with exit 0.  A valid
mapping with one field corrupted (a bad value, a missing required field or an
unknown key) raises a ConfigError naming that field, and `quatkin run` exits
1 for it; neither ever raises out of cli.main.  Runs take at most 1000 steps,
and the `benchmark` output, which repeats a run for 0.2 s, is left out of the
drawn outputs to keep the suite fast.

The library's integrators refuse exactly the horizons the parser refuses.
"""
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quatkin.cli import main
from quatkin.errors import ConfigError, InvalidHorizonError, QuatkinError
from quatkin.scenario import parse_config
from quatkin.symplectic import integrate_autonomous

pytestmark = pytest.mark.filterwarnings("ignore::quatkin.symplectic.StepSizeWarning")

RATES = st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3)
CONSTANT_REGISTRY = ("fig1a",)
VARYING_REGISTRY = ("fig1b", "fig1c", "fig1d", "fig2", "coning")

# Values each field rejects on its own, whatever the rest of the config.
BAD_VALUES = {
    "name": ["", 7, ["x"]],
    "profile": [
        "fig9",
        3,
        {"type": "spiral"},
        {"type": "constant", "omega": [1.0, 2.0]},
        {"type": "constant", "omega": [1.0, "nan", 0.0]},
        {"type": "coning", "omega0": 0.0, "beta": 0.1},
        {"type": "tabulated", "samples": [[0.0, [1.0, 0.0, 0.0]]]},
    ],
    "q0": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], "1,0,0,0", [1.0, 0.0, 0.0, "inf"]],
    "t0": ["soon", "nan", True, None, [0.0]],
    "tf": ["later", "inf", False, None],
    "tau": ["small", "nan", -0.01, 0.0, True, None, 1e-300],
    "method": ["RK5", 4, None],
    "sampling": ["midpoint", 1],
    "oracle": ["exact", 2, {"type": "coning", "omega0": "x", "beta": 0.1}, {"type": "constant"}],
    "outputs": ["series", ["plot"], [1]],
}
REQUIRED = ("profile", "tau", "tf")


@st.composite
def valid_configs(draw):
    t0 = draw(st.floats(-5.0, 5.0))
    span = draw(st.floats(0.05, 2.0))
    tf = t0 + span
    doc = {"t0": t0, "tf": tf, "tau": span / draw(st.integers(1, 1000))}
    kind = draw(st.sampled_from(["registry", "constant", "coning", "tabulated"]))
    if kind == "registry":
        doc["profile"] = draw(st.sampled_from(CONSTANT_REGISTRY + VARYING_REGISTRY))
    elif kind == "constant":
        doc["profile"] = {"type": "constant", "omega": draw(RATES)}
    elif kind == "coning":
        doc["profile"] = {
            "type": "coning",
            "omega0": draw(st.floats(0.5, 10.0) | st.just("2pi")),
            "beta": draw(st.floats(-1.0, 1.0) | st.just("pi/80")),
        }
    else:
        times = np.linspace(t0 - 1.0, tf + 1.0, draw(st.integers(2, 6)))
        doc["profile"] = {
            "type": "tabulated",
            "samples": [[t, draw(RATES)] for t in times.tolist()],
        }
    constant = kind == "constant" or doc["profile"] in CONSTANT_REGISTRY
    methods = ["SGA-NA", "RK4", "EUB", "GL2"] + (["SGA-A"] if constant else [])
    oracles = ["none", {"type": "coning", "omega0": "2pi", "beta": "pi/80"}]
    optional = {
        "name": st.text(min_size=1, max_size=10),
        "q0": st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
        .filter(lambda q: math.hypot(*q) > 0.1)
        .map(lambda q: (np.array(q) / np.linalg.norm(q)).tolist()),
        "method": st.sampled_from(methods),
        "sampling": st.sampled_from(["exact", "interp"]),
        "oracle": st.sampled_from(oracles + (["constant-analytic"] if constant else [])),
        "outputs": st.lists(
            st.sampled_from(["series", "error-report", "defect-ladder"]), unique=True
        ),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


@st.composite
def configs_missing_or_unknown_field(draw):
    """(config, field) with a required field dropped or an unknown key added."""
    doc = draw(valid_configs())
    if draw(st.booleans()):
        field = draw(st.sampled_from(REQUIRED))
        del doc[field]
    else:
        field = draw(st.text("abcxyz_", min_size=1, max_size=8))
        doc[field] = 1.0
    return doc, field


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "config.json"


def run_cli(path, doc) -> int:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["run", str(path)])


@settings(max_examples=60, deadline=None)
@given(doc=valid_configs())
def test_valid_config_parses_and_runs(config_path, doc):
    cfg = parse_config(doc)
    assert cfg.tf > cfg.t0 and (cfg.tf - cfg.t0) / cfg.tau <= 1000.0 * (1.0 + 1e-9)
    assert run_cli(config_path, doc) == 0


def check_rejected(path, doc, field):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(doc)
    assert f"'{field}" in str(excinfo.value)
    assert run_cli(path, doc) == 1


@pytest.mark.parametrize("field", sorted(BAD_VALUES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bad_field_value_is_named(config_path, field, data):
    doc = data.draw(valid_configs())
    doc[field] = data.draw(st.sampled_from(BAD_VALUES[field]))
    check_rejected(config_path, doc, field)


@settings(max_examples=30, deadline=None)
@given(case=configs_missing_or_unknown_field())
def test_missing_or_unknown_field_is_named(config_path, case):
    check_rejected(config_path, *case)


# t0, tf and tau as a config or a library call may give them: any float, the
# edges of the float times' resolution and range, and ints, some past the
# float range.  Bools and numpy scalars are left out: the parser refuses
# those as types, not as horizons.
HORIZON_EDGES = [0.0, 2.0**52, 2.0**53 - 1, 2.0**53, 1e16, sys.float_info.max]
HORIZON_VALUES = (
    st.floats(allow_subnormal=True)
    | st.sampled_from(HORIZON_EDGES + [-x for x in HORIZON_EDGES])
    | st.integers()
    | st.sampled_from([10**400, -10**400])
)


@settings(max_examples=1000, deadline=None)
@given(t0=HORIZON_VALUES, tf=HORIZON_VALUES, tau=HORIZON_VALUES)
def test_library_refuses_exactly_the_horizons_parsing_refuses(t0, tf, tau):
    try:
        cfg = parse_config({"profile": "fig1a", "t0": t0, "tf": tf, "tau": tau})
    except ConfigError:
        cfg = None
    if cfg is not None:
        assume((cfg.tf - cfg.t0) / cfg.tau <= 2e4)  # accepted runs stay small
    try:
        integrate_autonomous(np.zeros(3), [1, 0, 0, 0], t0, tf, tau)
        refused = False
    except InvalidHorizonError:
        refused = True
    except QuatkinError:  # a runtime error of an accepted horizon
        refused = False
    assert refused == (cfg is None)
