#!/usr/bin/env python3
"""Benchmark for quatkin: closed-loop workloads, end-to-end and traced runs.

    python3 perfbench/run.py --workload coning-run --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give the same metrics by name and unit, the workload's own
figures, and the run's provenance.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` interleaves untraced and traced operations on the
same inputs and reports per-layer metrics and the tracing overhead.  See
README.md for the workloads and which layer metric should move which
end-to-end metric.
"""
import time

_T0 = time.perf_counter()  # set-up probes time from here, before numpy loads

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_PROBES = 9
REF_SHARE = 0.5  # reference time after an operation, as a share of its time
REF_FIRST_S = 0.05  # reference time before the first operation (at least one unit)


def _fail(message: str) -> SystemExit:
    return SystemExit(f"perfbench: {message}")


def load_program():
    """Import quatkin from this checkout's src/ and the benchmark modules."""
    for v in BLAS_VARS:
        os.environ[v] = "1"
    package = ROOT / "src" / "quatkin"
    for needed in (package / "__init__.py", ROOT / "configs" / "coning-long.json"):
        if not needed.is_file():
            raise _fail(f"{needed.relative_to(ROOT)} not found; run from a quatkin checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import quatkin

    if Path(quatkin.__file__).resolve().parent != package:
        raise _fail(f"imported quatkin from {quatkin.__file__}, not from {package}")
    import workloads

    return quatkin, workloads


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Time set-up in fresh interpreters: import, configs, warm-up call."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise _fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def attempt(wl, i, tracer=None):
    from workloads import OpResult

    try:
        return wl.run_op(i, tracer)
    except Exception as exc:  # an operation that raises counts as failed
        return OpResult(None, 0, [f"op {i} raised {exc!r}"])


def closed_loop(wl, seconds: float):
    """Run operations back to back.  Before the first operation and after
    each one, run units of the workload's reference computation (see
    reference.py) for REF_SHARE of that operation's time.  Returns the
    results and the mean seconds of a reference unit in each of those
    stretches, one more than there are results."""
    from reference import per_unit_seconds

    unit = wl.reference_unit()
    per_unit_seconds(unit, REF_FIRST_S)  # warm-up, not used
    results, refs, i = [], [per_unit_seconds(unit, REF_FIRST_S)], 0
    deadline = time.perf_counter() + seconds
    while True:
        res = attempt(wl, i)
        results.append(res)
        refs.append(per_unit_seconds(unit, REF_SHARE * (res.seconds or REF_FIRST_S)))
        i += 1
        if time.perf_counter() >= deadline:
            return results, refs


def relative_time(results, refs) -> float:
    """Mean operation time over mean reference-unit time.  Both are spread
    over the whole run in step, so a slow stretch of the host stretches both."""
    return statistics.fmean(r.seconds for r in timed(results)) / statistics.fmean(refs)


def traced_loop(wl, seconds: float):
    """Alternate untraced and traced runs of each operation's inputs."""
    from tracing import OP, Tracer, patched

    untraced, traced = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        u = attempt(wl, i)
        tracer.run_id = i
        with patched(tracer), tracer.span(OP):
            t = attempt(wl, i, tracer)
        if u.fingerprint != t.fingerprint:
            t.failures.append(f"op {i}: traced output differs from untraced output")
        untraced.append(u)
        traced.append(t)
        i += 1
        if time.perf_counter() >= deadline:
            break
    # Memory pass: tracemalloc only around integrator calls, not timed.
    memory = Tracer(measure_memory=True)
    with patched(memory), memory.span(OP):
        traced.append(attempt(wl, 0, memory))
    return untraced, traced, tracer, memory


def timed(results):
    return [r for r in results if r.seconds is not None]


def end_to_end(results, refs, setup_samples) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_time.rel": (relative_time(results, refs), "ref_units"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def summary_lines(results, refs) -> list[str]:
    ok = timed(results)
    secs = [r.seconds for r in ok]
    return [
        f"operations: {len(ok)} timed, op_ms.min = {1e3 * min(secs):.6g} ms, "
        f"op_ms.p50 = {1e3 * statistics.median(secs):.6g} ms, "
        f"op_ms.mean = {1e3 * statistics.fmean(secs):.6g} ms, "
        f"op_ms.max = {1e3 * max(secs):.6g} ms",
        f"reference unit min / p50 / mean / max = {1e3 * min(refs):.4g} / "
        f"{1e3 * statistics.median(refs):.4g} / "
        f"{1e3 * statistics.fmean(refs):.4g} / {1e3 * max(refs):.4g} ms "
        f"({len(refs)} samples; their range shows how the host's speed moved)",
        f"steps_per_s (all timed operations) = "
        f"{sum(r.steps for r in ok) / sum(secs):.6g} 1/s",
    ]


def tracing_metrics(untraced, traced) -> dict:
    """Traced against untraced runs of the same inputs, taken back to back."""
    pairs = [(u.seconds, t.seconds) for u, t in zip(untraced, traced)
             if u.seconds is not None and t.seconds is not None]
    return {
        "trace.op_ms.p50.untraced": (1e3 * statistics.median(u for u, _ in pairs), "ms"),
        "trace.op_ms.p50.traced": (1e3 * statistics.median(t for _, t in pairs), "ms"),
        "trace.overhead": (statistics.median(t / u for u, t in pairs), "ratio"),
    }


def run(wl, seconds: float, trace: bool, setup_samples=(), spans_path=None) -> dict:
    """Measure one workload; return the result object printed last."""
    wl.prepare_checks()
    lines = []
    if trace:
        from tracing import layer_metrics, span_table

        untraced, traced, tracer, memory = traced_loop(wl, seconds)
        results = untraced + traced
        metrics = layer_metrics(tracer, memory)
        metrics.update(tracing_metrics(untraced, traced))
        lines.append(f"traced operations: {len(untraced)} pairs + 1 memory pass")
        lines.append("span                                    calls   median_s     self_s")
        for name, calls, med, self_s in span_table(tracer):
            lines.append(f"{name:<38} {calls:>7} {med:>10.4g} {self_s:>10.4g}")
        if spans_path is not None:
            tracer.write(spans_path)
            lines.append(f"spans written to {spans_path}")
    else:
        results, refs = closed_loop(wl, seconds)
        metrics = end_to_end(results, refs, setup_samples)
        lines.extend(summary_lines(results, refs))
        lines.extend(wl.report(timed(results)))
        lines.append(f"setup_s samples: {[round(s, 4) for s in setup_samples]}")
    wl.final_check(results)
    failed = sum(1 for r in results if r.failures)
    lines.append(f"failed_ratio = {failed}/{len(results)} = {failed / len(results):.6g}")
    lines.extend([f"failure: {r.failures[0]}" for r in results if r.failures][:5])
    lines.extend(f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("coning-run", "short-runs"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the seconds it took (used by set-up probes)")
    args = p.parse_args(argv)
    # Exit through SystemExit on SIGTERM so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    quatkin, workloads = load_program()
    import_s = time.perf_counter() - _T0
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        # Generating the workload's inputs is not the program's set-up.
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, Path(work))
        if args.setup_only:
            start = time.perf_counter()
            wl.setup()
            print(import_s + time.perf_counter() - start)
            return 0
        import numpy

        load_start = loadavg()
        probes = [] if args.trace else setup_seconds(args.workload, args.seed, SETUP_PROBES)
        wl.setup()
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out = run(wl, args.seconds, bool(args.trace), probes, spans)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quatkin": quatkin.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "load": "closed loop, 1 process, 1 thread",
    }
    print("provenance: " + json.dumps(provenance))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
