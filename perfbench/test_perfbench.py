"""Smoke test of the benchmark's own code.

    python3 -m pytest -q perfbench

Runs every workload at the tiny size in both modes and checks the result line
against BENCHMARK.json, and checks the self-time arithmetic on synthetic
span trees.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_times_subtract_the_union_of_children():
    # root [0, 10]; a [1, 4] holds [2, 3]; b [5, 9] and c [8, 11] overlap,
    # and c sticks out of root, so root's children cover [1, 4] + [5, 10]
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == [2.0, 2.0, 1.0, 4.0, 3.0]


def test_tracer_nests_spans_and_adds_up():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)
    with tracer.span("root"):
        middle()
        leaf()
    # root 0..9; middle 1..6 with leaves 2..3 and 4..5; leaf 7..8
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    totals = tracing.layer_totals(tracer, ["root", "middle", "leaf"])
    assert totals == {"root": (1, 3.0), "middle": (1, 3.0), "leaf": (3, 3.0)}
    assert sum(s for _, s in totals.values()) == tracing.durations(tracer, "root")[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
