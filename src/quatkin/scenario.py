"""Declarative scenario configs, the frozen profile registry, run/sweep
drivers with wall-clock benchmarking, and CSV/JSON emission.

A scenario is one experiment: a named angular-velocity profile, an initial
quaternion, a horizon, a step size, an integration method, and the set of
artifacts to produce.  Configs are JSON documents; see parse_config.
"""
from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import re
import stat
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._g17 import render_rows
from .baselines import BaselineMethod, baseline_builder, integrate_baseline
from .diagnostics import (
    DefectSeries,
    ErrorReport,
    component_errors,
    convergence_order,
    symplecticity_defect,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    InvalidHorizonError,
    NonUnitStateError,
    _NotFinite,
)
from .model import (
    AngularVelocityProfile,
    ConingProfile,
    ConstantProfile,
    FormulaProfile,
    MidpointSamplingMode,
    TabulatedProfile,
    coning_oracle,
    constant_oracle,
    right_matrix,
)
from .symplectic import (
    _warn_once,
    autonomous_builder,
    integrate_autonomous,
    integrate_nonautonomous,
    nonautonomous_builder,
)
from .trajectory import (
    _BLOCK_STEPS,
    MAX_STEPS,
    Trajectory,
    _block_norms,
    _check_horizon,
    check_unit_quaternion,
)

__all__ = [
    "PROFILE_REGISTRY",
    "registry_names",
    "profile_from_name",
    "ScenarioConfig",
    "TimingRecord",
    "RunArtifacts",
    "parse_number",
    "config_document",
    "parse_config",
    "run_scenario",
    "run_sweep",
    "one_step_matrix",
    "defect_ladder",
    "emit_series",
    "emit_summary",
    "DEFAULT_SWEEP_TAUS",
    "MAX_STEPS",
]

METHODS = ("SGA-A", "SGA-NA", *(m.value for m in BaselineMethod))
OUTPUT_KINDS = ("series", "error-report", "defect-ladder", "benchmark")

# Reproduction default when a sweep gets no explicit tau grid.
DEFAULT_SWEEP_TAUS = (0.1, 0.05, 0.025, 0.0125, 0.00625)

# Benchmark protocol: repeat until >= 200 ms of cumulative time, at least
# 3 runs, and report the minimum.
_BENCH_MIN_SECONDS = 0.2
_BENCH_MIN_REPEATS = 3

# The formula profiles fill one (..., 3) array component by component, each
# component bitwise what np.stack of the three would hold, without its
# Python-level frames.  t is the float array FormulaProfile.omega_at passes.


def _fig1b(t):
    out = np.empty(t.shape + (3,))
    out[..., 0] = 2.0 * (1.0 + np.sin(t) * np.exp(-t / 4.0))
    out[..., 1:] = 0.0
    return out


def _fig1c(t):
    out = np.empty(t.shape + (3,))
    out[..., 0] = 2.0 * (1.0 + np.sin(t) * np.exp(-t / 4.0))
    out[..., 1] = (-3.0 + t * t) * np.exp(-t / 3.0)
    out[..., 2] = (1.0 + t) * np.exp(-t)
    return out


def _fig1d(t):
    out = np.empty(t.shape + (3,))
    out[..., 0] = np.sin(10.0 * t) - 2.0
    out[..., 1] = 2.0 * t + 1.4
    out[..., 2] = 4.0 - 0.2 * np.cos(3.0 * t)
    return out


def _fig2(t):
    out = np.empty(t.shape + (3,))
    out[..., 0] = np.sin(10.0 * t) - 2.0
    out[..., 1] = 2.0 * np.sin(t) + 1.4
    out[..., 2] = 4.0 - 0.2 * np.cos(3.0 * t)
    return out


PROFILE_REGISTRY: dict[str, Callable[[], AngularVelocityProfile]] = {
    "fig1a": lambda: ConstantProfile((2.0, 10.0, 3.0)),
    "fig1b": lambda: FormulaProfile("fig1b", _fig1b),
    "fig1c": lambda: FormulaProfile("fig1c", _fig1c),
    "fig1d": lambda: FormulaProfile("fig1d", _fig1d),
    "fig2": lambda: FormulaProfile("fig2", _fig2),
    "coning": lambda: ConingProfile(2.0 * math.pi, math.pi / 80.0),
}

REGISTRY_DESCRIPTIONS = {
    "fig1a": "constant rate [2, 10, 3] rad/s",
    "fig1b": "[2(1 + sin t e^{-t/4}), 0, 0]",
    "fig1c": "[2(1 + sin t e^{-t/4}), (-3 + t^2) e^{-t/3}, (1 + t) e^{-t}]",
    "fig1d": "[sin 10t - 2, 2t + 1.4, 4 - 0.2 cos 3t]",
    "fig2": "[sin 10t - 2, 2 sin t + 1.4, 4 - 0.2 cos 3t]",
    "coning": "coning motion, spin 2*pi rad/s, half-cone angle pi/80",
}


def registry_names() -> tuple[str, ...]:
    return tuple(PROFILE_REGISTRY)


def profile_from_name(name: str) -> AngularVelocityProfile:
    try:
        return PROFILE_REGISTRY[name]()
    except KeyError:
        raise ConfigError(
            f"field 'profile': unknown registry name {name!r}; "
            f"known names: {', '.join(PROFILE_REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated description of one experiment."""

    name: str
    profile: AngularVelocityProfile
    q0: np.ndarray
    t0: float
    tf: float
    tau: float
    method: str
    sampling: MidpointSamplingMode
    oracle: Callable | None
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class TimingRecord:
    wall_clock_s: float
    steps: int
    repeats: int


@dataclass(frozen=True)
class RunArtifacts:
    config: ScenarioConfig
    trajectory: Trajectory
    error_report: ErrorReport | None
    defect_ladder: DefectSeries | None
    timing: TimingRecord
    max_norm_deviation: float  # max |(|q| - 1)| over the trajectory


_PI_PATTERN = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<mult>\d+(?:\.\d*)?)?\s*\*?\s*pi\s*"
    r"(?:/\s*(?P<div>\d+(?:\.\d*)?))?\s*$"
)


def parse_number(value, field: str) -> float:
    """Accept a finite numeric literal or a pi expression like "pi/80" or
    "2pi"; nan and infinities are rejected."""
    if type(value) is float:  # most config numbers: skip the checks below
        out = value
    elif isinstance(value, bool):
        raise ConfigError(f"field {field!r}: expected a number, got {value!r}")
    elif isinstance(value, (int, float)):
        try:
            out = float(value)
        except OverflowError:  # an int beyond float range
            out = math.inf
    elif isinstance(value, str):
        m = _PI_PATTERN.match(value)
        if m:
            out = math.pi
            if m.group("mult"):
                out *= float(m.group("mult"))
            if m.group("div"):
                div = float(m.group("div"))
                if div == 0.0:  # "pi/0", or a divisor that rounds to zero
                    raise ConfigError(f"field {field!r}: zero divisor in {value!r}")
                out /= div
            if m.group("sign") == "-":
                out = -out
        else:
            try:
                out = float(value)
            except ValueError:
                raise ConfigError(
                    f"field {field!r}: cannot parse {value!r} as a number or pi literal"
                ) from None
    else:
        raise ConfigError(f"field {field!r}: expected a number, got {type(value).__name__}")
    if not math.isfinite(out):
        raise ConfigError(f"field {field!r}: expected a finite number, got {value!r}")
    return out


# Keys of each profile object kind; a coning oracle takes the coning keys.
_PROFILE_KEYS = {
    "constant": {"type", "omega"},
    "coning": {"type", "omega0", "beta"},
    "tabulated": {"type", "samples"},
}


def _reject_unknown_keys(obj: dict, allowed, message: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{message} {sorted(extra)}")


def _coning_params(value: dict, field: str) -> list[float]:
    """omega0 and beta of a coning object at `field` (profile or oracle)."""
    return [parse_number(value.get(key), f"{field}.{key}") for key in ("omega0", "beta")]


def _parse_profile(value) -> AngularVelocityProfile:
    if isinstance(value, str):
        return profile_from_name(value)
    if not isinstance(value, dict):
        raise ConfigError("field 'profile': expected a registry name or an object")
    kind = value.get("type")
    if kind not in tuple(_PROFILE_KEYS):  # a tuple: kind may be unhashable
        raise ConfigError(
            f"field 'profile.type': expected one of {'/'.join(_PROFILE_KEYS)}, got {kind!r}"
        )
    _reject_unknown_keys(value, _PROFILE_KEYS[kind], "field 'profile': unknown keys")
    if kind == "constant":
        omega = value.get("omega")
        if not isinstance(omega, list) or len(omega) != 3:
            raise ConfigError("field 'profile.omega': expected a list of 3 numbers")
        return ConstantProfile(tuple(parse_number(c, "profile.omega") for c in omega))
    if kind == "coning":
        # Parsed first: a parameter's ConfigError (a ValueError) names its own field.
        params = _coning_params(value, "profile")
        try:
            return ConingProfile(*params)
        except ValueError as exc:
            raise ConfigError(f"field 'profile': {exc}") from None
    samples = value.get("samples")
    if not isinstance(samples, list) or len(samples) < 2:
        raise ConfigError("field 'profile.samples': need at least two [t, [w1,w2,w3]] pairs")
    try:
        times = np.array([s[0] for s in samples], dtype=float)
        vals = np.array([s[1] for s in samples], dtype=float)
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(vals))):
            raise ValueError("samples must be finite")
        return TabulatedProfile(times, vals)
    except (ValueError, IndexError, TypeError) as exc:
        raise ConfigError(f"field 'profile.samples': {exc}") from None


def _parse_oracle(value, profile, q0, t0, tf):
    if value is None or value == "none":
        return None
    if value == "constant-analytic":
        if not isinstance(profile, ConstantProfile):
            raise ConfigError(
                "field 'oracle': constant-analytic requires a constant profile"
            )
        if not math.isfinite(sum(c * c for c in profile.vector)):  # Python floats: no warning
            raise ConfigError("field 'oracle': constant-analytic needs a finite |omega|^2")
        w = np.array(profile.vector)
        # The oracle's half angle 0.5 n (t - t0), with n as it computes it, is
        # largest at t = tf.
        if not math.isfinite(0.5 * math.sqrt(float(w @ w)) * (tf - t0)):
            raise ConfigError(
                f"field 'oracle': constant-analytic half angle |omega|(t - t0)/2 is not "
                f'finite on [{t0}, {tf}]; "oracle": "none" runs without the oracle'
            )
        return constant_oracle(w, q0, t0)
    if isinstance(value, dict) and value.get("type") == "coning":
        _reject_unknown_keys(value, _PROFILE_KEYS["coning"], "field 'oracle': unknown keys")
        omega0, beta = _coning_params(value, "oracle")
        # |omega0 t| is largest at an end; Python floats, so the check warns about nothing.
        if not math.isfinite(omega0 * t0) or not math.isfinite(omega0 * tf):
            raise ConfigError(
                f"field 'oracle': coning phase omega0*t is not finite on [{t0}, {tf}]; "
                '"oracle": "none" runs without the oracle'
            )
        return coning_oracle(omega0, beta)
    raise ConfigError(
        "field 'oracle': expected 'none', 'constant-analytic', or a coning object"
    )


_CONFIG_KEYS = {
    "name",
    "profile",
    "q0",
    "t0",
    "tf",
    "tau",
    "method",
    "sampling",
    "oracle",
    "outputs",
}


def config_document(source) -> dict:
    """The top-level object of a config given as JSON text (str or bytes) or
    as a mapping; raises ConfigError for anything else.  Text is tested for
    first: isinstance against typing.Mapping runs Python-level hooks."""
    if not isinstance(source, (str, bytes, bytearray)):
        if isinstance(source, Mapping):
            return dict(source)
        raise ConfigError(f"config must be JSON text or a mapping, got {type(source).__name__}")
    try:
        raw = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _check_tau(profile, t0: float, tf: float, tau: float, outputs) -> None:
    """The horizon rule of every run (see trajectory._check_horizon), naming
    'tau', which each defect ladder rung's step also keeps on [t0, t0 + tau],
    a finite end, and the defect ladder's reach past a tabulated profile's
    end."""
    ladder = "defect-ladder" in outputs
    try:
        _check_horizon(t0, tf, tau)
        if ladder and not math.isfinite(t0 + tau):
            raise InvalidHorizonError(f"defect ladder step end t0 + tau = {t0 + tau} is not finite")
        for rung in _ladder_taus(tau) if ladder else ():
            _check_horizon(t0, t0 + tau, rung)
    except InvalidHorizonError as exc:
        raise ConfigError(f"field 'tau': {exc}") from None
    # A ladder step samples the profile at t0 + tau, whatever the horizon.
    end = profile.times[-1] if isinstance(profile, TabulatedProfile) else math.inf
    if ladder and t0 + tau > end:
        raise ConfigError(f"field 'tau': defect ladder samples t0 + tau = {t0 + tau} > {end}")


def parse_config(source) -> ScenarioConfig:
    """Parse and validate a scenario config: JSON text or a mapping.

    Unknown keys are rejected; validation errors name the offending field.
    Defaults: t0 = 0, q0 = [1, 0, 0, 0], sampling = exact, outputs =
    ("series",), method = SGA-A for constant profiles else SGA-NA.  A
    coning profile auto-wires the matching analytic oracle unless the
    config says otherwise.
    """
    raw = config_document(source)
    _reject_unknown_keys(raw, _CONFIG_KEYS, "unknown config keys:")
    for key in ("profile", "tau", "tf"):
        if key not in raw:
            raise ConfigError(f"field {key!r} is required")

    profile = _parse_profile(raw["profile"])
    t0 = parse_number(raw.get("t0", 0.0), "t0")
    tf = parse_number(raw["tf"], "tf")
    tau = parse_number(raw["tau"], "tau")
    if not tf > t0:
        raise ConfigError(f"field 'tf': must exceed t0, got t0={t0}, tf={tf}")
    if isinstance(profile, TabulatedProfile) and not (
        profile.times[0] <= t0 and tf <= profile.times[-1]
    ):
        raise ConfigError(
            f"field 'profile.samples': span [{profile.times[0]}, {profile.times[-1]}] "
            f"does not cover the horizon [{t0}, {tf}]"
        )

    q0_raw = raw.get("q0", [1.0, 0.0, 0.0, 0.0])
    if not isinstance(q0_raw, list) or len(q0_raw) != 4:
        raise ConfigError("field 'q0': expected a list of 4 numbers")
    try:
        q0 = check_unit_quaternion([parse_number(c, "q0") for c in q0_raw])
    except NonUnitStateError as exc:
        raise ConfigError(f"field 'q0': {exc}") from None

    default_method = "SGA-A" if isinstance(profile, ConstantProfile) else "SGA-NA"
    method = raw.get("method", default_method)
    if method not in METHODS:
        raise ConfigError(f"field 'method': expected one of {METHODS}, got {method!r}")
    if method == "SGA-A" and not isinstance(profile, ConstantProfile):
        raise ConfigError("field 'method': SGA-A requires a constant profile")

    sampling_raw = raw.get("sampling", "exact")
    try:
        sampling = MidpointSamplingMode(sampling_raw)
    except ValueError:
        raise ConfigError(
            f"field 'sampling': expected 'exact' or 'interp', got {sampling_raw!r}"
        ) from None

    default = "none"
    if isinstance(profile, ConingProfile):  # auto-wires its analytic oracle
        default = {"type": "coning", "omega0": profile.omega0, "beta": profile.beta}
    oracle = _parse_oracle(raw.get("oracle", default), profile, q0, t0, tf)

    outputs_raw = raw.get("outputs", ["series"])
    if not isinstance(outputs_raw, list) or not all(
        isinstance(o, str) for o in outputs_raw
    ):
        raise ConfigError("field 'outputs': expected a list of output kinds")
    bad = [o for o in outputs_raw if o not in OUTPUT_KINDS]
    if bad:
        raise ConfigError(
            f"field 'outputs': unknown kinds {bad}; expected subset of {OUTPUT_KINDS}"
        )
    _check_tau(profile, t0, tf, tau, outputs_raw)

    name = raw.get("name")
    if name is None:
        name = raw["profile"] if isinstance(raw["profile"], str) else "scenario"
    if not isinstance(name, str) or not name:
        raise ConfigError("field 'name': expected a non-empty string")

    return ScenarioConfig(
        name=name,
        profile=profile,
        q0=q0,
        t0=t0,
        tf=tf,
        tau=tau,
        method=method,
        sampling=sampling,
        oracle=oracle,
        outputs=tuple(outputs_raw),
    )


def _method(cfg: ScenarioConfig, tally: list):
    """cfg's method as (run, steps), one arm per method: run() integrates the
    scenario through the method's integrate_*, called by its module-global
    name so that a tracer which rebinds it sees every run, and steps is the
    builder (t, tau_k, t_end) -> p that integrator runs, for the defect
    ladder; SGA-A's and SGA-NA's append their guideline counts to tally."""
    profile, mode, args = cfg.profile, cfg.sampling, (cfg.q0, cfg.t0, cfg.tf, cfg.tau)
    if cfg.method == "SGA-A":
        omega = np.array(profile.vector)
        return lambda: integrate_autonomous(omega, *args), autonomous_builder(omega, tally)
    if cfg.method == "SGA-NA":
        return (lambda: integrate_nonautonomous(profile, *args, mode),
                nonautonomous_builder(profile, mode, tally))
    method = BaselineMethod(cfg.method)
    return (lambda: integrate_baseline(method, profile, *args, mode),
            baseline_builder(method, profile, mode))


def one_step_matrix(cfg: ScenarioConfig, tau) -> np.ndarray:
    """4x4 matrix R(p) of one integration step taken at the scenario start,
    p from the step builder the method's integrator runs; (..., 4, 4) for a
    step array tau (...), one step of each size, from one builder call and
    with one StepSizeWarning at most.  The step ends at t0 + tau, uncapped
    by the horizon.  A step that is not finite, then one that is not
    positive, raises ValueError, whatever the method."""
    if not np.isfinite(tau).all():
        raise ValueError("step size must be finite")
    if not np.greater(tau, 0.0).all():
        raise ValueError("step size must be positive")
    tally = []
    _, steps = _method(cfg, tally)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite names it
        p = steps(cfg.t0, tau, cfg.t0 + tau)
    return _warn_once(tally, right_matrix(p))


def _ladder_taus(tau: float) -> tuple:
    """The defect ladder's steps tau, tau/2, tau/4, tau/8."""
    return tuple(tau / (2.0**i) for i in range(4))


def defect_ladder(cfg: ScenarioConfig) -> DefectSeries:
    """Symplecticity defects of the one-step map on the ladder tau, tau/2,
    tau/4, tau/8, whose four maps come from one builder call (so one
    StepSizeWarning at most, counting the rungs past the guideline) and
    whose four defects come from one symplecticity_defect call."""
    taus = _ladder_taus(cfg.tau)
    maps = one_step_matrix(cfg, np.array(taus))
    return DefectSeries(taus=taus, defects=tuple(symplecticity_defect(maps).tolist()))


def _timed_integration(cfg: ScenarioConfig, benchmark: bool):
    run, _ = _method(cfg, [])
    elapsed = []
    while not elapsed or benchmark and (
        sum(elapsed) < _BENCH_MIN_SECONDS or len(elapsed) < _BENCH_MIN_REPEATS
    ):
        start = time.perf_counter()
        traj = run()
        elapsed.append(time.perf_counter() - start)
    return traj, min(elapsed), len(elapsed)


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    """Run one scenario and collect its requested artifacts.

    The trajectory and any error report are deterministic for a given
    config; the timing record measures only the integration loop and, when
    'benchmark' is among the outputs, follows the repeat-until-200ms
    minimum-of-runs protocol.
    """
    traj, wall, repeats = _timed_integration(cfg, "benchmark" in cfg.outputs)
    norm_dev = _max_norm_deviation(traj.states)
    report = component_errors(traj, cfg.oracle) if cfg.oracle is not None else None
    ladder = defect_ladder(cfg) if "defect-ladder" in cfg.outputs else None
    timing = TimingRecord(wall_clock_s=wall, steps=traj.steps, repeats=repeats)
    return RunArtifacts(
        config=cfg,
        trajectory=traj,
        error_report=report,
        defect_ladder=ladder,
        timing=timing,
        max_norm_deviation=norm_dev,
    )


def _max_norm_deviation(states: np.ndarray) -> float:
    """max |(|q| - 1)| over the states, from each block's norms' minimum and
    maximum: bitwise np.max(np.abs(norms - 1.0)), as x -> fl(x - 1) is
    monotone and fl(1 - x) = -fl(x - 1), with no array the size of the run.
    A norm that is not finite (states past ~1e154 overflow it) raises
    ConsistencyError naming its step."""
    norms = np.empty(min(len(states), _BLOCK_STEPS))
    lo, hi = math.inf, -math.inf
    for start in range(0, len(states), _BLOCK_STEPS):
        block = _block_norms(states[start:start + _BLOCK_STEPS], norms[:len(states) - start])
        block_lo, block_hi = block.min(), block.max()  # a nan carries through both
        if not (math.isfinite(block_lo) and math.isfinite(block_hi)):
            step = int(np.argmin(np.isfinite(block)))
            raise _NotFinite("state norm", start + step)
        lo, hi = min(lo, block_lo), max(hi, block_hi)
    return float(max(hi - 1.0, 1.0 - lo))


def run_sweep(base: ScenarioConfig, taus: Sequence[float]) -> list[RunArtifacts]:
    """Run the base scenario once per step size, sequentially.

    Sequential execution keeps benchmark timings free of contention skew.
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ConfigError("sweep requires a non-empty list of step sizes")
    for i, t in enumerate(taus):
        if t in taus[:i]:  # each run's outputs are keyed by its step
            raise ConfigError(f"sweep step sizes must be distinct; {t} is repeated")
        _check_tau(base.profile, base.t0, base.tf, t, base.outputs)
    return [run_scenario(dataclasses.replace(base, tau=t)) for t in taus]


def _write_over(path, chunks) -> None:
    """Write the byte chunks over the file at path from its start, creating it
    (mode 0o666 & ~umask) if missing, and cut a regular file at the last byte
    written, even when a write or the making of a chunk raises.

    Opened without O_TRUNC: on ext4, truncating a file that holds blocks
    frees them and makes close start writeback, which cost more than
    writing a short file.  A special file (/dev/null, a FIFO, a terminal)
    is written without the cut, which ftruncate refuses there.  The bytes go
    straight to the descriptor, a short write retried with the rest: a
    700-byte file takes ~2/3 of the time it took through a buffered file
    object (7.4-10.8 against 11.3-16.2 us).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                n = os.write(fd, view)
                written += n
                view = view[n:]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def emit_series(artifacts: RunArtifacts, path) -> None:
    """Write the trajectory as CSV: t,e0,e1,e2,e3,norm[,err0,err1,err2,err3].

    Absolute per-component errors against the oracle are appended when the
    scenario has one.  Every value is written as format(x, ".17g") writes
    it, LF line endings.  _g17.render_rows renders blocks of _BLOCK_STEPS
    rows, the run's one block size, and produces that text byte for byte
    (a 2048-row block of 10 columns peaks at ~2.3 MB, tracemalloc).  Each
    block's columns are filled into one reused (rows, columns) buffer: the
    norm column, by the norm rule of Trajectory.norms, and the error columns
    are computed there block by block, so no column of the whole run is
    built, and no per-block array besides the oracle's and the norms' block
    of squares.  A generator hands
    the blocks to _write_over one at a time, the header joined to the first.
    """
    traj = artifacts.trajectory
    oracle = artifacts.config.oracle
    header = "t,e0,e1,e2,e3,norm" + ("" if oracle is None else ",err0,err1,err2,err3")
    step = _BLOCK_STEPS
    buf = np.empty((min(step, len(traj.states)), header.count(",") + 1))

    def blocks():
        head = header.encode("ascii") + b"\n"
        for start in range(0, len(traj.states), step):
            rows = slice(start, start + step)
            t, q = traj.times[rows], traj.states[rows]
            block = buf[:len(t)]
            block[:, 0] = t
            block[:, 1:5] = q
            _block_norms(q, block[:, 5])
            if oracle is not None:
                err = block[:, 6:]
                np.subtract(q, oracle(t), out=err)
                np.abs(err, out=err)
            yield head + render_rows(block)
            head = b""

    _write_over(path, blocks())


# The text json.dumps(doc, indent=2, allow_nan=False) writes, from one encoder
# built once: dumps builds an encoder, and its cycle-check markers, on every
# call.  A summary is built fresh from plain containers, so it holds no cycle.
_SUMMARY_ENCODER = json.JSONEncoder(indent=2, allow_nan=False, check_circular=False)


def _run_entry(a: RunArtifacts) -> dict:
    report = a.error_report
    return {
        "name": a.config.name,
        "method": a.config.method,
        "tau": a.config.tau,
        "steps": a.timing.steps,
        "max_component_errors": (
            report.max_component_error.tolist() if report else None
        ),
        "max_norm_deviation": a.max_norm_deviation,
        "wall_clock_s": a.timing.wall_clock_s,
        "benchmark_repeats": a.timing.repeats,
    }


def emit_summary(artifacts, path) -> None:
    """Write a JSON summary for one run or a sweep.

    Per-run entries carry method, tau, steps, per-component max errors, max
    norm deviation, and wall-clock seconds.  When the runs form a
    tau-halving ladder with error reports, the estimated convergence order
    is included.  Defect ladders are keyed by run name, or by
    "<name>@tau=<repr(tau)>" for runs whose name another run shares (a
    sweep's); a ladder's order is null when a defect is zero.
    The text is strict JSON: a non-finite value raises ValueError before
    the file is opened, so an existing file at path is left as it was.
    """
    runs = artifacts if isinstance(artifacts, list) else [artifacts]
    doc = {"runs": [_run_entry(a) for a in runs]}
    if len(runs) >= 2 and all(a.error_report is not None for a in runs):
        try:
            doc["estimated_order"] = convergence_order(
                [(a.config.tau, a.error_report.max_error) for a in runs]
            )
        except (ValueError, DegenerateDataError):
            pass
    ladders = {}
    names = collections.Counter(a.config.name for a in runs)
    for a in runs:
        if a.defect_ladder is not None:
            try:
                order = a.defect_ladder.estimated_order
            except DegenerateDataError:
                order = None
            key = a.config.name
            if names[key] > 1:
                key = f"{key}@tau={a.config.tau!r}"
            ladders[key] = {
                "taus": list(a.defect_ladder.taus),
                "defects": list(a.defect_ladder.defects),
                "estimated_order": order,
            }
    if ladders:
        doc["defect_ladders"] = ladders
    text = _SUMMARY_ENCODER.encode(doc)  # fails before the file opens
    _write_over(path, (text.encode() + b"\n",))  # ASCII: json.dumps escapes the rest
