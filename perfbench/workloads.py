"""The benchmark workloads and their correctness checks.

Each workload is a closed loop on one thread: an operation starts only
after the previous one has returned and been checked.  ``setup`` is the
program's own set-up (configs, profiles, oracles and one warm-up call) and
is what ``setup_s`` times; ``prepare_checks`` builds the checker's
references and is not timed.  ``run_op`` times the program's part of one
operation, then checks its outputs outside the timed part.
``reference_unit`` gives the fixed work that operations are timed against
(see reference.py).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import shortruns

NORM_TOL = 1e-10  # acceptance criterion 1
E0_BAND = (1e-8, 1e-6)  # acceptance criterion 2


@dataclass
class OpResult:
    """One operation: its timed seconds (None when it raised), integration
    steps, failed checks, a fingerprint of its outputs for the traced
    against untraced comparison, and the workload's own figures."""

    seconds: float | None
    steps: int
    failures: list[str] = field(default_factory=list)
    fingerprint: bytes = b""
    detail: dict = field(default_factory=dict)


def _file_digest(path: Path) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


def expected_csv_digest(traj, oracle) -> bytes:
    """SHA-256 of the series CSV that `traj` should produce: every value
    rendered with format(x, ".17g"), LF line endings."""
    cols = [traj.times[:, None], traj.states, np.linalg.norm(traj.states, axis=1)[:, None]]
    header = "t,e0,e1,e2,e3,norm"
    if oracle is not None:
        cols.append(np.abs(traj.states - oracle(traj.times)))
        header += ",err0,err1,err2,err3"
    h = hashlib.sha256((header + "\n").encode())
    for row in np.hstack(cols).tolist():
        h.update((",".join(format(v, ".17g") for v in row) + "\n").encode())
    return h.digest()


class ConingRun:
    """configs/coning-long.json through cli.main, CSV and summary written."""

    name = "coning-run"

    def __init__(self, root: Path, seed: int, workdir: Path, tf: float | None = None):
        del seed  # fixed input: the shipped config
        self.config = root / "configs" / "coning-long.json"
        self.tf = tf
        self.csv = workdir / "coning.csv"
        self.summary = workdir / "coning.json"
        self.workdir = workdir

    def _argv(self, csv, summary, tf=None):
        tf = tf if tf is not None else self.tf
        extra = ["--tf", repr(tf)] if tf is not None else []
        return ["run", str(self.config), *extra, "--out", str(csv), "--summary", str(summary)]

    def setup(self) -> None:
        from quatkin import cli

        warm = self.workdir / "warm"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self._argv(f"{warm}.csv", f"{warm}.json", tf=10.0))
        if rc != 0:
            raise RuntimeError(f"warm-up run exited with {rc}")

    def reference_unit(self):
        """The frozen program on coning-long cut to 1e4 steps."""
        import reference

        return reference.coning_unit(self.workdir)

    def prepare_checks(self) -> None:
        from quatkin import scenario

        raw = json.loads(self.config.read_text(encoding="utf-8"))
        if self.tf is not None:
            raw["tf"] = self.tf
        cfg = scenario.parse_config(json.dumps(raw))
        self.reference = scenario.run_scenario(cfg).trajectory
        self.steps = self.reference.steps
        self.digest = expected_csv_digest(self.reference, cfg.oracle)

    def run_op(self, i: int, tracer=None) -> OpResult:
        from quatkin import cli

        argv = self._argv(self.csv, self.summary)
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                rc = cli.main(argv)
                seconds = time.perf_counter() - start
        res = OpResult(seconds, self.steps)
        if rc != 0:
            res.failures.append(f"exit code {rc}")
            return res
        res.fingerprint = _file_digest(self.csv)
        if res.fingerprint != self.digest:
            res.failures.append("CSV is not the .17g rendering of the reference trajectory")
        run = json.loads(self.summary.read_text(encoding="utf-8"))["runs"][0]
        e0 = run["max_component_errors"][0]
        if not E0_BAND[0] <= e0 <= E0_BAND[1]:
            res.failures.append(f"e0 error {e0:.3e} outside {E0_BAND}")
        if not run["max_norm_deviation"] <= NORM_TOL:
            res.failures.append(f"max|norm-1| {run['max_norm_deviation']:.3e} > {NORM_TOL}")
        if run["steps"] != self.steps:
            res.failures.append(f"summary steps {run['steps']} != {self.steps}")
        return res

    def final_check(self, results: list[OpResult]) -> None:
        """Parse the last CSV back and compare it bitwise with the reference."""
        last = next((r for r in reversed(results) if r.fingerprint), None)
        if last is None:
            return
        table = np.loadtxt(self.csv, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] != self.steps + 1:
            last.failures.append(f"CSV has {table.shape[0]} rows, expected {self.steps + 1}")
        elif (table[:, 0].tobytes() != self.reference.times.tobytes()
              or np.ascontiguousarray(table[:, 1:5]).tobytes() != self.reference.states.tobytes()):
            last.failures.append("CSV does not parse back bitwise to the trajectory")

    def report(self, results: list[OpResult]) -> list[str]:
        secs = [r.seconds for r in results if r.seconds is not None]
        return [f"run_s = {statistics.median(secs):.6g} s (median of {len(secs)} cli runs)"]


class ShortRuns:
    """A seeded stream of small scenarios given to the program as JSON text.

    One operation is one block of the stream (shortruns.BLOCK scenarios with
    the same mix in every block), so operation times are comparable.
    """

    name = "short-runs"

    def __init__(self, root: Path, seed: int, workdir: Path, blocks: int = 150):
        del root
        self.pool = shortruns.generate(seed, blocks)
        self.blocks = blocks
        self.csv = workdir / "short.csv"
        self.summary = workdir / "short.json"
        self.workdir = workdir

    def setup(self) -> None:
        for sc in self.pool[: shortruns.BLOCK]:
            self._run(sc)

    def reference_unit(self):
        """Two scenarios per method from a fixed block (generator seed 0)."""
        import reference

        block = shortruns.generate(0, 1)
        texts = [sc.text for m in shortruns.METHODS
                 for sc in [sc for sc in block if sc.method == m][:2]]
        return reference.scenarios_unit(self.workdir, texts)

    def prepare_checks(self) -> None:
        pass

    def _run(self, sc):
        from quatkin import scenario

        start = time.perf_counter()
        cfg = scenario.parse_config(sc.text)
        art = scenario.run_scenario(cfg)
        scenario.emit_series(art, self.csv)
        scenario.emit_summary(art, self.summary)
        return time.perf_counter() - start, art

    def _check(self, sc) -> str | None:
        with open(self.csv, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        if rows != sc.steps + 1:
            return f"CSV has {rows} rows, expected {sc.steps + 1}"
        try:
            run = json.loads(self.summary.read_text(encoding="utf-8"))["runs"][0]
        except (ValueError, KeyError, IndexError) as exc:
            return f"summary does not parse: {exc!r}"
        if run["steps"] != sc.steps:
            return f"summary steps {run['steps']} != {sc.steps}"
        if sc.method.startswith("SGA") and not run["max_norm_deviation"] <= NORM_TOL:
            return f"max|norm-1| {run['max_norm_deviation']:.3e} > {NORM_TOL}"
        return None

    def run_op(self, i: int, tracer=None) -> OpResult:
        b = (i % self.blocks) * shortruns.BLOCK
        res = OpResult(0.0, 0, detail={"scenarios": []})
        h = hashlib.sha256()
        for sc in self.pool[b : b + shortruns.BLOCK]:
            try:
                seconds, art = self._run(sc)
            except Exception as exc:  # the other scenarios of the block still run
                res.failures.append(f"{sc.method} {sc.kind}: raised {exc!r}")
                continue
            res.seconds += seconds
            res.steps += sc.steps
            res.detail["scenarios"].append((sc, seconds))
            bad = self._check(sc)
            if bad:
                res.failures.append(f"{sc.method} {sc.kind}: {bad}")
            h.update(art.trajectory.states.tobytes() + _file_digest(self.csv))
        res.fingerprint = h.digest()
        return res

    def final_check(self, results: list[OpResult]) -> None:
        pass

    def report(self, results: list[OpResult]) -> list[str]:
        done = [x for r in results for x in r.detail["scenarios"]]
        secs = sorted(s for _, s in done)
        n = len(secs)
        failed = sum(len(r.failures) for r in results)
        lines = [f"scenarios_per_s = {n / sum(secs):.6g} 1/s ({n} scenarios, {failed} failed)",
                 f"scenario_ms.p50 = {1e3 * statistics.median(secs):.6g} ms (n={n})"]
        for method in shortruns.METHODS:
            mine = [(sc.steps, s) for sc, s in done if sc.method == method]
            lines.append(f"steps_per_s.{method} = "
                         f"{sum(k for k, _ in mine) / sum(s for _, s in mine):.6g} 1/s "
                         f"(whole scenarios, {len(mine)} of them)")
        for p in (99, 90):
            beyond = n - math.ceil(p / 100 * n)
            if beyond >= 10:
                q = statistics.quantiles(secs, n=100)[p - 1]
                lines.append(f"scenario_ms.p{p} = {1e3 * q:.6g} ms (n={n}, {beyond} beyond)")
                break
        for label, key in (("method", "method"), ("profile kind", "kind"),
                           ("sampling", "sampling"), ("defect-ladder", "ladder")):
            counts: dict = {}
            for sc, _ in done:
                counts[getattr(sc, key)] = counts.get(getattr(sc, key), 0) + 1
            mix = ", ".join(f"{k}={100.0 * v / n:.1f}%" for k, v in sorted(
                counts.items(), key=lambda kv: str(kv[0])))
            lines.append(f"mix {label}: {mix}")
        return lines


WORKLOADS = {w.name: w for w in (ConingRun, ShortRuns)}
