"""The reference computation, timed next to every operation.

The shared virtual machines this benchmark runs on change speed for
stretches of seconds to minutes, and a whole run can land in a slow
stretch, so raw wall time repeats badly from run to run.  The end-to-end
time is therefore reported relative to a reference computation timed on
the same thread between operations: a slowdown of the host stretches both,
and their ratio keeps the program's cost.

A slow stretch does not slow all work alike (file writes and code with a
large footprint suffer more than a small loop), so the reference is the
program itself, frozen: ``quatkin_ref`` is a copy of ``src/quatkin`` as it
stood when the benchmark was defined, and each workload runs it on a small
fixed input of the workload's own kind.  It belongs to the benchmark and
must not change, or ratios taken before and after a change stop being
comparable.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path
from typing import Callable

from quatkin_ref import cli, scenario

# configs/coning-long.json cut to 1e4 steps: one unit is a tenth of a
# coning-run operation.
CONING = {
    "name": "coning-reference",
    "profile": "coning",
    "q0": [0.99980724048206482, 0.0, 0.019633692460628301, 0.0],
    "t0": 0.0,
    "tf": 100.0,
    "tau": 0.01,
    "method": "SGA-NA",
    "outputs": ["series", "error-report"],
}


def coning_unit(workdir: Path) -> Callable[[], None]:
    """One frozen `quatkin run` of CONING, CSV and summary written."""
    config = workdir / "reference-coning.json"
    config.write_text(json.dumps(CONING), encoding="utf-8")
    argv = ["run", str(config), "--out", str(workdir / "reference.csv"),
            "--summary", str(workdir / "reference.json")]

    def unit() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"reference run exited with {rc}")

    return unit


def scenarios_unit(workdir: Path, texts: list[str]) -> Callable[[], None]:
    """The frozen parse, run and emit path over fixed scenario texts."""
    csv, summary = workdir / "reference.csv", workdir / "reference.json"

    def unit() -> None:
        for text in texts:
            art = scenario.run_scenario(scenario.parse_config(text))
            scenario.emit_series(art, csv)
            scenario.emit_summary(art, summary)

    return unit


def per_unit_seconds(unit: Callable[[], None], budget_s: float) -> float:
    """Run `unit` for about `budget_s` seconds (at least once); return the
    mean wall seconds of one run."""
    start = time.perf_counter()
    n = 0
    while True:
        unit()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / n
