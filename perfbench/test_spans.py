"""Tests for the benchmark's span recorder and self-time arithmetic.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

import pytest

from spans import (
    Tracer,
    covered,
    layer_self_times,
    outermost_calls,
    rebind,
    self_times,
    with_root,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "generation": 0, "error": False}


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_overlapping_children_are_subtracted_once():
    spans = [
        span("parent", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),
        span("c", 8.0, 12.0, 0),  # runs past its parent: clipped
        span("a", 1.5, 2.0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 7)
    assert own[1] == pytest.approx(3 - 0.5)
    assert own[2] == pytest.approx(3)
    assert own[4] == pytest.approx(0.5)
    assert layer_self_times(spans)["a"] == pytest.approx(3.0)


def test_reentrant_call_counts_once_and_partitions_time():
    tracer = Tracer("reentrant")

    def countdown(n):
        if n:
            traced(n - 1)
        return n

    traced = tracer.wrap("layer", countdown)
    t0 = time.perf_counter()
    traced(3)
    t1 = time.perf_counter()
    spans = with_root(tracer.records(), t0, t1)
    assert len(spans) == 5
    assert outermost_calls(spans, "layer") == 1
    # The nested spans each sit inside the previous one.
    assert [s["parent"] for s in spans] == [-1, 0, 1, 2, 3]
    assert sum(self_times(spans)) == pytest.approx(t1 - t0, abs=1e-9)
    totals = layer_self_times(spans)
    assert totals["layer"] == pytest.approx(spans[1]["end"] - spans[1]["start"])


def test_span_whose_body_raises_is_closed_and_flagged(tmp_path):
    tracer = Tracer("raises")

    def boom():
        raise ValueError("no")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    after = tracer.wrap("after", lambda: None)
    after()
    records = tracer.records()
    assert [r["error"] for r in records] == [True, False]
    assert all(r["end"] >= r["start"] for r in records)
    # The stack unwound: the next span is top level, not a child of boom.
    assert records[1]["parent"] == -1
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    assert json.loads(path.read_text())["spans"][0]["name"] == "boom"


def test_rebind_reaches_names_imported_by_value():
    def original():
        return "original"

    home = types.ModuleType("home")
    home.f = original
    user = types.ModuleType("user")
    user.g = original
    user.other = len
    assert rebind(original, lambda: "wrapped", [home, user]) == 2
    assert home.f() == user.g() == "wrapped"
    assert user.other is len


@pytest.mark.parametrize(
    "workload", ["evolve-cartpole", "soc-mountaincar", "durable-mountaincar"]
)
def test_traced_run_self_times_add_up_to_wall(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["import.s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6
    )
    assert metrics["other.self_s"] >= 0
    assert metrics["neat.compiled.compile.calls"] > 0
    if workload == "soc-mountaincar":
        assert metrics["hw.eve.reproduce.self_s"] > 0
        assert metrics["hw.sim.cycles"] > 0
    if workload == "durable-mountaincar":
        assert metrics["runs.artifacts.checkpoint_bytes"] > 0
        assert metrics["neat.serialize.from_state.self_s"] > 0
