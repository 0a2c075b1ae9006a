"""The benchmark's own tests: output format, traced run, checks, fault injection.

    python3 -m pytest perfbench/tests -q

Each end-to-end test runs ``run.py --smoke`` (tiny inputs) in a
subprocess, as the benchmark is run for real.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from checks import PartitionOracle, check_replay  # noqa: E402
from tracing import SpanRecorder, self_times, summarize  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = ["replay-n10"] + [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
         "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def last_json(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    code, lines = bench("--workload", workload, "--trace", "0")
    out = last_json(lines)
    assert code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        assert got["value"] > 0
        assert any(line.split()[:2] == ["metric", m["name"]] and line.endswith(m["unit"])
                   for line in lines)
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", ["replay-n10", "live-n10"])
def test_traced_run_reports_every_per_layer_metric(workload):
    code, lines = bench("--workload", workload, "--trace", "1")
    out = last_json(lines)
    assert code == 0 and out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert values["assigner.assign.calls"] > 0
    assert values["trace.traced_ms"] > 0
    if workload == "replay-n10":
        # the search dominates a 10-person replay
        assert values["assigner.assign.self_ms"] > 0.5 * values["trace.traced_ms"]
    else:
        assert values["server.pump_once.self_ms"] > 0
        assert values["mixer.mix_frame.calls"] > 0
        assert values["transport.jitter.played"] > 0


def test_dropped_listener_frame_is_a_failed_operation():
    code, lines = bench("--workload", "live-n10", "--inject", "drop-frame")
    out = last_json(lines)
    assert code != 0 and not out["correct"] and out["failed"] >= 1
    assert any(line.startswith("failure") and "missing mixes" in line for line in lines)


def test_non_optimal_partition_is_a_failed_operation():
    code, lines = bench("--workload", "offline-n4", "--inject", "wrong-partition")
    out = last_json(lines)
    assert code != 0 and not out["correct"] and out["failed"] >= 1
    assert any(line.startswith("failure") and "exhaustive search" in line for line in lines)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_self_time_subtracts_direct_children():
    # root [0, 10) with children [1, 3) and [4, 8); the second has a child [5, 6)
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert list(self_times(parent, end - start)) == [4.0, 2.0, 3.0, 1.0]
    a = {"name_id": np.array([0, 1, 1, 2]), "parent": parent, "start": start, "end": end,
         "root_kind": np.array([1, 0, 0, 0])}
    s = summarize(a, ["root", "mid", "leaf"])
    assert s["mid"] == {"calls": 2, "self_ms": 5000.0, "total_ms": 6000.0}
    total_self = sum(v["self_ms"] for k, v in s.items() if k != "<roots>")
    assert total_self == s["<roots>"]["total_ms"] == 10000.0


def test_spans_outside_a_root_are_not_recorded():
    rec = SpanRecorder()
    leaf = rec.wrap(lambda: 1, "leaf")
    root = rec.wrap(lambda: leaf(), "root", root=True)
    leaf()
    rec.timed = True
    root()
    s = rec.summary()
    assert s["leaf"]["calls"] == 1 and s["root"]["calls"] == 1


def test_oracle_prefilter_agrees_with_scoring_every_partition(monkeypatch):
    import checks

    rng = np.random.default_rng(5)
    ids = (0, 1, 2, 3, 4, 5)
    exact = PartitionOracle(ids)
    monkeypatch.setattr(checks, "EXACT_LIMIT", 10)
    filtered = PartitionOracle(ids)
    assert filtered._within is not None
    for _ in range(20):
        # coarse posteriors make exact ties common, as real ones do
        post = {p: float(rng.integers(0, 5)) / 4 for p in exact.pairs}
        previous = exact.partitions[int(rng.integers(len(exact.partitions)))]
        assert filtered.best(post, previous) == exact.best(post, previous)


def test_check_replay_flags_non_optimal_and_uncovering_choices():
    from types import SimpleNamespace

    from floorspace.assigner import score

    oracle = PartitionOracle((0, 1, 2))
    post = {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.2}
    best = ((0, 1), (2,))
    worse = ((0, 1, 2),)
    result = SimpleNamespace(
        participants=(0, 1, 2), pairs=oracle.pairs, ticks=np.array([30, 60, 90]),
        chosen=[best, worse, ((0, 1),)],
        scores=np.array([score(best, post), score(worse, post), 0.5]),
        posteriors=np.array([[post[p] for p in oracle.pairs]] * 3),
    )
    failed, deviations, reasons = check_replay(result, oracle)
    assert failed == 2 and deviations == 0
    assert "exhaustive search" in reasons[0] and "does not cover" in reasons[1]
