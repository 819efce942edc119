"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
quatkin, workloads = bench.load_program()

TINY = {
    "coning-run": {"tf": 100.0},  # 1e4 steps: e0 error already inside the band
    "short-runs": {"blocks": 2},
}


def tiny(name, tmp_path):
    wl = workloads.WORKLOADS[name](bench.ROOT, 7, tmp_path, **TINY[name])
    wl.setup()
    return wl


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    out = bench.run(tiny(name, tmp_path), 0.01, trace, setup_samples=[0.5])
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    text = "\n".join(out["lines"])
    for metric, unit in expected.items():
        assert re.search(rf"^{re.escape(metric)} = \S+ {re.escape(unit)}$", text, re.M), metric
    assert "failed_ratio = 0/" in text


def test_corrupted_csv_row_counts_as_failure(tmp_path, monkeypatch):
    wl = tiny("coning-run", tmp_path)
    emit = quatkin.cli.emit_series

    def emit_with_one_bad_row(artifacts, path):
        emit(artifacts, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[5] = lines[5].replace(",", ",9", 1)
        Path(path).write_text("".join(lines), encoding="utf-8")

    monkeypatch.setattr(quatkin.cli, "emit_series", emit_with_one_bad_row)
    result = bench.run(wl, 0.01, False, setup_samples=[0.5])["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_setup_probe_reports_seconds():
    (seconds,) = bench.setup_seconds("short-runs", 0, 1)
    assert 0.0 < seconds < 60.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "short-runs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
