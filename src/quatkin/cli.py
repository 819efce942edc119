"""Command-line front end.

Verbs:
    run <config.json>     integrate one scenario, optionally emit CSV/JSON
    sweep <config.json>   rerun the scenario over a list of step sizes
    gap <x>               print the closed-form-vs-exact rotation gap h(x)
    registry              list the frozen scenario profile names

Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

import numpy as np

from .diagnostics import euler_formula_gap
from .errors import ConfigError, QuatkinError
from .scenario import (
    DEFAULT_SWEEP_TAUS,
    REGISTRY_DESCRIPTIONS,
    ScenarioConfig,
    config_document,
    emit_series,
    emit_summary,
    parse_config,
    registry_names,
    run_scenario,
    run_sweep,
)
from .symplectic import StepSizeWarning


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Built once per process: every main call parses with the same parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quatkin",
        description="Structure-preserving quaternion attitude propagation",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--tau", type=float, help="override the config step size")
    _add_overrides(run_p)
    run_p.add_argument("--out", help="write the trajectory series CSV here")
    run_p.add_argument("--summary", help="write the JSON summary here")

    # No abbreviations: a --tau (moot, --taus sets every step) is rejected, not read as --taus.
    sweep_p = sub.add_parser("sweep", help="run a scenario across step sizes", allow_abbrev=False)
    sweep_p.add_argument("config", help="path to a JSON scenario config")
    sweep_p.add_argument(
        "--taus",
        nargs="+",
        type=float,
        default=DEFAULT_SWEEP_TAUS,  # a tuple: the cached parser gives every call this object
        help="step sizes to sweep (default: %(default)s)",
    )
    _add_overrides(sweep_p)
    sweep_p.add_argument("--summary", help="write the JSON summary here")

    gap_p = sub.add_parser("gap", help="print the rotation-gap function h(x)")
    gap_p.add_argument("x", type=float)

    sub.add_parser("registry", help="list frozen scenario profiles")
    return parser


def _add_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t0", type=float, help="override the start time")
    p.add_argument("--tf", type=float, help="override the end time")
    p.add_argument("--method", help="override the integration method")
    p.add_argument("--sampling", choices=["exact", "interp"], help="override rate sampling")


def _load_config(args) -> ScenarioConfig:
    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config {args.config!r} cannot be read: {exc.strerror}") from None
    raw = config_document(text)
    for key in ("tau", "t0", "tf", "method", "sampling"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return parse_config(raw)


def _check_output_paths(args) -> None:
    """Reject, before any integration runs, a --out/--summary path that is
    empty (an unset shell variable), is a directory or whose directory is
    missing, and a --out and --summary that name one file."""
    out, summary = getattr(args, "out", None), args.summary
    for flag, path in (("out", out), ("summary", summary)):
        if path == "":
            raise ConfigError(f"--{flag}: the path is empty")
        if path and os.path.isdir(path):
            raise ConfigError(f"--{flag}: {path!r} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"--{flag}: directory of {path!r} does not exist")
    if out and summary and _same_regular_file(out, summary):
        raise ConfigError(f"--out {out!r} and --summary {summary!r} name the same file")


def _same_regular_file(a: str, b: str) -> bool:
    """Whether paths a and b name one regular file, or one yet to be made:
    the second output written would replace the first.  Existing paths are
    compared by device and inode, so a symlink or hard link to the other
    counts; a special file such as /dev/null takes both outputs."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.isfile(a) and os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _print_run(a) -> None:
    cfg, timing = a.config, a.timing
    line = (
        f"{cfg.name}: method={cfg.method} tau={cfg.tau:g} steps={timing.steps} "
        f"wall={timing.wall_clock_s:.4f}s "
        f"max|norm-1|={a.max_norm_deviation:.3e}"
    )
    if a.error_report is not None:
        line += f" max_err={a.error_report.max_error:.3e}"
    print(line)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "gap":
            if not 0.0 <= args.x < np.inf:  # false for nan too
                raise ConfigError(f"argument x: expected a finite number >= 0, got {args.x}")
            print(format(euler_formula_gap(args.x), ".17g"))
            return 0
        if args.verb == "registry":
            for name in registry_names():
                print(f"{name}: {REGISTRY_DESCRIPTIONS[name]}")
            return 0
        # run and sweep: a run is a sweep of one; only run takes --out.
        cfg = _load_config(args)
        _check_output_paths(args)
        runs = run_sweep(cfg, args.taus) if args.verb == "sweep" else [run_scenario(cfg)]
        for a in runs:
            _print_run(a)
        if getattr(args, "out", None):
            emit_series(runs[0], args.out)
        if args.summary:
            emit_summary(runs, args.summary)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # A StepSizeWarning that -W error raises is a runtime error; a numpy
    # RuntimeWarning it raises still ends in a traceback that counts as a leak.
    except (QuatkinError, OSError, ValueError, MemoryError, StepSizeWarning) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"runtime error: {reason}", file=sys.stderr)
        return 2


def entry_point() -> None:
    # A warning prints as one line, without a source line no user of the command wrote.
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
