"""Tiny-size runs of every workload through the command line, checked
against the result contract in BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from kgbench import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "kgbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for m in SPEC["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert run.PER_LAYER[m["name"]] == m["unit"]
    from kgbench.workloads import WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload,trace", [
    ("extract-bulk", 0), ("construct-fresh", 0), ("append-stream", 0),
    ("append-stream", 1),
])
def test_tiny_run_prints_one_correct_result(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.splitlines()
    assert len(lines) == 1
    r = json.loads(lines[0])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(r["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert r["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in r["metrics"].items()}
    if trace:
        assert values["trace.span_coverage_frac"] >= 0.9
        assert values["pipeline.kg_construct.self_s"] > 0
        assert values["joins.semi_join.s"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "kgbench"), tmp_path / "kgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("construct-fresh", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout == ""
