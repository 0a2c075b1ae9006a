"""floorspace benchmark: one workload, one seed, measured in fresh processes.

    python3 perfbench/run.py --workload replay-n10 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every measurement runs in a new
Python process (``worker.py``), so the lazily built partition tables,
peak RSS and set-up time of one run never carry over into another.
With ``--trace 0`` set-up is repeated in fresh processes and
``setup_s`` is their median; the last process goes on to the timed
section. With ``--trace 1`` one process measures an untraced pass and
then a traced pass of fixed size, and reports the per-layer figures.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
Details of each run, with machine info, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # fresh-process set-ups per untraced run; setup_s is their median
# BENCHMARK.json gates the steady ones; replay-n10 runs on request (see README)
WORKLOADS = ("replay-n10", "offline-n4", "live-n10")
DEADLINE_S = 170.0

# The workload's own figures, printed for reading; the gated metrics are in BENCHMARK.json.
FIGURES = (
    ("raw_x_realtime", "s/s"),
    ("raw_setup_s", "s"),
    ("replay_x_realtime", "s/s"),
    ("train_x_realtime", "s/s"),
    ("mixdown_x_realtime", "s/s"),
    ("pair_accuracy", "fraction"),
    ("config_accuracy", "fraction"),
    ("pump_p50_ms", "ms"),
    ("pump_p99_ms", "ms"),
    ("membership_p50_ms", "ms"),
    ("rss_growth_mb_per_min", "MB/min"),
    ("frames_over_budget", "count"),
    ("tie_rule_deviations", "count"),
)


def machine_info() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class ChildFailed(RuntimeError):
    pass


def run_child(args, setup_only: bool, deadline: float) -> tuple:
    """((set-up s, calibration slice s), result or None) of one fresh worker."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        setup_s = calibration = last = None
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("CALIBRATION ") and setup_s is not None:
                spent, slice_s = map(float, line.split()[1:])
                setup_s -= spent
                calibration = slice_s
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or calibration is None or (not setup_only and last is None):
        raise ChildFailed(f"worker exited with code {code}")
    return (setup_s, calibration), (None if setup_only else json.loads(last))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, two set-ups")
    ap.add_argument("--inject", choices=("drop-frame", "wrong-partition"),
                    help="inject a program fault (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "floorspace")):
        print(f"no floorspace sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        if not args.trace:
            for _ in range(1 if args.smoke else SETUPS - 1):
                setups.append(run_child(args, True, deadline)[0])
        setup, result = run_child(args, False, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    e2e = result["end_to_end"]
    e2e["raw_setup_s"] = statistics.median(s for s, _ in setups)
    setup_scaled = statistics.median(s * REFERENCE_S / c for s, c in setups)
    values = dict(e2e, setup_s=setup_scaled, peak_rss_mb=result["peak_rss_mb"])
    if args.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark does not produce {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    machine = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("machine  " + "  ".join(f"{k} {v}" for k, v in machine.items()))
    if not args.trace:
        print("set-ups  " + "  ".join(f"{s:.3f}" for s, _ in setups)
              + " s raw (fresh processes); calibration slices "
              + "  ".join(f"{c * 1000:.1f}" for _, c in setups)
              + f" ms (reference {REFERENCE_S * 1000:.1f} ms)")
    print(f"units    {e2e['units']} timed units, {e2e['room_s']:.1f} s of room time")
    for name, m in metrics.items():
        print(f"metric   {name:<40} {m['value']:>12.4f} {m['unit']}")
    for name, unit in FIGURES:
        if name in e2e:
            extra = ""
            if name.startswith("pump"):
                extra = f"  (n={e2e['pump_samples']} pumps)"
            elif name.startswith("membership"):
                extra = f"  (n={e2e['membership_samples']} requests)"
            print(f"figure   {name:<40} {e2e[name]:>12.4f} {unit}{extra}")
    print(f"checks   {result['attempted']} operations attempted, {result['failed']} failed")
    for why in result["reasons"]:
        print(f"failure  {why}")

    correct = result["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setups": setups,
        "end_to_end": e2e, "metrics": metrics, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "reasons": result["reasons"],
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
