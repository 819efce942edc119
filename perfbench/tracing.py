"""In-memory spans around calls into quatkin's layers, recorded from outside.

Nothing under ``src/`` is edited.  While a :func:`patched` block is open,
every public function listed in :data:`TRACED` is replaced, in each
``quatkin`` module namespace that holds it, by a wrapper that opens a span.
Callers look those names up at call time, so ``cli.main`` and
``run_scenario`` run their usual path with a span at every layer boundary.
``omega_at`` is a method, not a module function, so it is counted by a
delegating profile (:meth:`Tracer.wrap_profile`) that the traced
``parse_config`` hands out, or that the benchmark passes to an integrator.

A span holds its name, start, end, parent and run id (the operation it
belongs to).  Calls to ``omega_at`` are too many to keep one by one (the
baselines make one to three per step), so each is folded into its open
span as a leaf count and time.  Spans stay in memory and are written out
once, by :meth:`Tracer.write`, when the run ends.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

OMEGA_AT = "model.omega_at"
OP = "bench.op"

# (defining module, public function); the span is named "module.function".
TRACED = (
    ("quatkin.scenario", "parse_config"),
    ("quatkin.scenario", "run_scenario"),
    ("quatkin.scenario", "defect_ladder"),
    ("quatkin.scenario", "emit_series"),
    ("quatkin.scenario", "emit_summary"),
    ("quatkin.symplectic", "integrate_autonomous"),
    ("quatkin.symplectic", "integrate_nonautonomous"),
    ("quatkin.baselines", "integrate_baseline"),
    ("quatkin.model", "midpoint_omega"),
    ("quatkin.diagnostics", "component_errors"),
)

# Integrator spans, which record steps (and peak bytes in a memory pass),
# with the method label used for omega_at calls per step.
SPAN_METHOD = {
    "symplectic.integrate_autonomous": "SGA-A",
    "symplectic.integrate_nonautonomous": "SGA-NA",
    "baselines.integrate_baseline.RK4": "RK4",
    "baselines.integrate_baseline.EUB": "EUB",
    "baselines.integrate_baseline.GL2": "GL2",
}
INTEGRATORS = tuple(SPAN_METHOD)

# Every span name a traced run can produce, in report order.
SPAN_NAMES = (
    OP,
    "cli.main",
    "scenario.parse_config",
    "scenario.run_scenario",
    *INTEGRATORS,
    "model.midpoint_omega",
    OMEGA_AT,
    "diagnostics.component_errors",
    "scenario.defect_ladder",
    "scenario.emit_series",
    "scenario.emit_summary",
)

@dataclass
class Span:
    name: str
    run_id: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    leaf_calls: int = 0
    leaf_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """Keeps spans in memory; one instance per traced run."""

    def __init__(self, measure_memory: bool = False):
        self.spans: list[Span] = []
        self.run_id = 0
        self.measure_memory = measure_memory
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.run_id, parent, time.perf_counter_ns())
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_ns += s.ns

    def leaf(self, ns: int) -> None:
        """Fold one omega_at call into the innermost open span."""
        if self._stack:
            s = self.spans[self._stack[-1]]
            s.leaf_calls += 1
            s.leaf_ns += ns
            s.child_ns += ns

    def wrap_profile(self, profile):
        """A delegating profile that records each omega_at call here."""
        from quatkin.model import AngularVelocityProfile

        tracer = self

        class CountingProfile(AngularVelocityProfile):
            def omega_at(self, t):
                start = time.perf_counter_ns()
                out = profile.omega_at(t)
                tracer.leaf(time.perf_counter_ns() - start)
                return out

            def __getattr__(self, name):
                return getattr(profile, name)

        return CountingProfile()

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "run": s.run_id,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    **({"omega_at_calls": s.leaf_calls, "omega_at_ns": s.leaf_ns}
                       if s.leaf_calls else {}),
                    **s.attrs,
                }
                fh.write(json.dumps(rec) + "\n")


def _span_name(module: str, fname: str, args) -> str:
    base = f"{module.rsplit('.', 1)[-1]}.{fname}"
    if fname == "integrate_baseline":
        return f"{base}.{args[0].value}"
    return base


def _wrap(tracer: Tracer, module: str, fname: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = _span_name(module, fname, args)
        with tracer.span(name) as s:
            if tracer.measure_memory and name in INTEGRATORS:
                tracemalloc.start()
                try:
                    out = fn(*args, **kwargs)
                    s.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            else:
                out = fn(*args, **kwargs)
            if name in INTEGRATORS:
                s.attrs["steps"] = out.steps
            elif fname == "emit_series":
                s.attrs["bytes"] = os.path.getsize(args[1])
        if fname == "parse_config":
            out = dataclasses.replace(out, profile=tracer.wrap_profile(out.profile))
        return out

    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the TRACED functions through span wrappers; restore on exit."""
    saved = []
    try:
        for module, fname in TRACED:
            fn = getattr(importlib.import_module(module), fname)
            wrapper = _wrap(tracer, module, fname, fn)
            for modname, mod in list(sys.modules.items()):
                if modname != "quatkin" and not modname.startswith("quatkin."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(tracer: Tracer, memory: Tracer) -> dict:
    """Per-layer figures from the timed spans and the memory-pass spans."""
    spans = tracer.spans
    ops = [s for s in spans if s.parent is None]
    total_ns = sum(s.ns for s in ops) or 1
    self_ns = {name: 0 for name in SPAN_NAMES}
    per_call: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    self_per_call: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    omega_calls = 0
    # A parent is opened, and so listed, before its children: walking the
    # list backwards sums each subtree's omega_at calls into its root.
    subtree_calls = [s.leaf_calls for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i].parent
        if p is not None:
            subtree_calls[p] += subtree_calls[i]
    calls_per_step: dict[str, list[float]] = {m: [] for m in SPAN_METHOD.values()}
    emit_bytes, emit_ns = [], 0
    for i, s in enumerate(spans):
        self_ns[s.name] += s.self_ns
        per_call[s.name].append(s.ns)
        self_per_call[s.name].append(s.self_ns)
        self_ns[OMEGA_AT] += s.leaf_ns
        omega_calls += s.leaf_calls
        if s.name in SPAN_METHOD:
            calls_per_step[SPAN_METHOD[s.name]].append(subtree_calls[i] / s.attrs["steps"])
        if s.name == "scenario.emit_series":
            emit_bytes.append(s.attrs["bytes"])
            emit_ns += s.ns
    peaks = {name: 0 for name in INTEGRATORS}
    for s in memory.spans:
        if "peak_bytes" in s.attrs:
            peaks[s.name] = max(peaks[s.name], s.attrs["peak_bytes"])

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_pct"] = (100.0 * self_ns[name] / total_ns, "%")
    na = "symplectic.integrate_nonautonomous"
    out[f"{na}.s"] = (_median(per_call[na]) / 1e9, "s")
    out[f"{na}.self_s"] = (_median(self_per_call[na]) / 1e9, "s")
    for name in ("model.midpoint_omega", "diagnostics.component_errors"):
        out[f"{name}.s"] = (_median(per_call[name]) / 1e9, "s")
    # omega_at calls are folded into their spans, so this one is a mean.
    out[f"{OMEGA_AT}.s"] = (self_ns[OMEGA_AT] / max(omega_calls, 1) / 1e9, "s")
    out[f"{OMEGA_AT}.calls"] = (omega_calls / max(len(ops), 1), "count")
    for method in ("SGA-NA", "RK4", "EUB", "GL2"):
        out[f"{OMEGA_AT}.calls_per_step.{method}"] = (_median(calls_per_step[method]), "count")
    out[f"{na}.peak_bytes"] = (peaks[na], "bytes")
    out["symplectic.integrate_autonomous.peak_bytes"] = (
        peaks["symplectic.integrate_autonomous"], "bytes"
    )
    out["scenario.emit_series.bytes"] = (_median(emit_bytes), "bytes")
    out["scenario.emit_series.bytes_per_s"] = (
        sum(emit_bytes) / (emit_ns / 1e9) if emit_ns else 0.0, "B/s"
    )
    return out


def span_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, median seconds per call, total self seconds) per span."""
    rows = []
    for name in SPAN_NAMES:
        if name == OMEGA_AT:
            calls = sum(s.leaf_calls for s in tracer.spans)
            total = sum(s.leaf_ns for s in tracer.spans)
            med = total / calls if calls else 0.0
            rows.append((name, calls, med / 1e9, total / 1e9))
            continue
        mine = [s for s in tracer.spans if s.name == name]
        if mine:
            rows.append((
                name,
                len(mine),
                statistics.median(s.ns for s in mine) / 1e9,
                sum(s.self_ns for s in mine) / 1e9,
            ))
    return rows
