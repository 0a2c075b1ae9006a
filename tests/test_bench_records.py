"""The checked-in benchmark records (``BENCH_*.json`` at the repository root).

Each record holds, per gated workload and end-to-end metric of
``BENCHMARK.json``, the per-seed runs of alternating parent/change
pairs, their medians and quartiles, and how many pairs the change won.
The summaries must follow from the runs, so a record can be read as a
trajectory point without trusting whoever wrote it.
"""

import glob
import json
import os
import statistics

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def _check_metric(metric, declared, seeds):
    """Unit and direction as declared; medians, quartiles and wins
    follow from the per-seed runs of both sides."""
    assert metric["unit"] == declared["unit"]
    assert metric["better"] == declared["better"]
    runs = metric["runs"]
    for side in ("parent", "change"):
        values = runs[side]
        assert len(values) == len(seeds)
        q1, q3 = np.percentile(values, [25, 75])
        summary = metric[side]
        assert summary["median"] == pytest.approx(statistics.median(values))
        assert (summary["q1"], summary["q3"]) == pytest.approx((q1, q3))
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p)
               for c, p in zip(runs["change"], runs["parent"]))
    assert metric["wins"] == wins


def _check_seeds(seeds):
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert len(set(seeds)) == len(seeds)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_a_record_has_pair_medians_quartiles_and_wins(path):
    workloads, end_to_end, _ = _spec()
    with open(path) as fh:
        record = json.load(fh)
    label = os.path.basename(path)[len("BENCH_"):-len(".json")]
    assert record["label"] == label
    for key in ("change", "command", "pairs", "quartiles"):
        assert isinstance(record[key], str) and record[key]
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(record["machine"])
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for workload in record["workloads"].values():
        _check_seeds(workload["seeds"])
        assert set(workload["metrics"]) == set(end_to_end)
        for name, metric in workload["metrics"].items():
            _check_metric(metric, end_to_end[name], workload["seeds"])


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_per_layer_figures_in_a_record_say_how_they_were_taken(path):
    # optional: traced per-layer figures, by their own command, each
    # marked as raw wall times or not, since only the end-to-end times
    # are scaled by the machine's calibration
    workloads, _, per_layer = _spec()
    with open(path) as fh:
        record = json.load(fh)
    for name, workload in record.get("per_layer", {}).items():
        assert name in workloads
        assert "--trace 1" in workload["command"]
        assert isinstance(workload["note"], str) and workload["note"]
        _check_seeds(workload["seeds"])
        assert workload["metrics"]
        for metric_name, metric in workload["metrics"].items():
            assert isinstance(metric["raw"], bool)
            _check_metric(metric, per_layer[metric_name], workload["seeds"])
