"""One fresh process of the benchmark: set up one workload, then measure it.

Run by ``run.py``; not meant to be started by hand. Prints ``READY``
when set-up is done (the parent times set-up up to that line), then,
unless ``--setup-only``, one JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FRAME_MS = 20
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program() -> None:
    """Import floorspace from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import floorspace

    if not os.path.abspath(floorspace.__file__).startswith(SRC + os.sep):
        raise ImportError(f"floorspace imported from {floorspace.__file__}, not {SRC}")


def run_units(workload, seconds: float) -> list:
    """Whole units, back to back, until ``seconds`` have passed (at least one)."""
    out = []
    t0 = time.monotonic()
    while not out or time.monotonic() - t0 < seconds:
        out.append(workload.unit(len(out)))
    return out


def quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def end_to_end(units: list) -> dict:
    """Figures of a run's units: the gated one and the workload's own."""
    first = units[0]
    out = {"units": len(units), "room_s": sum(u["room_s"] for u in units)}
    for key in ("replay_x_realtime", "train_x_realtime", "mixdown_x_realtime",
                "rss_growth_mb_per_min"):
        if key in first:
            out[key] = statistics.median(u[key] for u in units)
    for key in ("pair_accuracy", "config_accuracy"):
        if key in first:
            out[key] = first[key]  # unit 0 only: the same inputs on every run of a seed
    if "pump_ms" in first:
        pumps = [ms for u in units for ms in u["pump_ms"]]
        members = [ms for u in units for ms in u["membership_ms"]]
        scaled = [ms for u in units for ms in u["scaled_pump_ms"]]
        out.update(
            x_realtime=FRAME_MS / statistics.mean(scaled),
            raw_x_realtime=FRAME_MS / statistics.mean(pumps),
            pump_p50_ms=statistics.median(pumps),
            pump_p99_ms=quantile(pumps, 0.99),
            pump_samples=len(pumps),
            membership_p50_ms=statistics.median(members),
            membership_samples=len(members),
            frames_over_budget=sum(ms > FRAME_MS for ms in pumps),
        )
    else:
        out["x_realtime"] = statistics.median(u["x_realtime"] for u in units)
        out["raw_x_realtime"] = statistics.median(u["raw_x_realtime"] for u in units)
    return out


def per_layer(rec, workload, untraced: dict, traced_units: list, deviations: int) -> dict:
    """The traced run's layer figures, zero for layers the workload never calls."""
    import numpy as np
    from tracing import root_of

    summary = rec.summary()

    def self_ms(name):
        return summary.get(name, {}).get("self_ms", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    a = rec.arrays()
    names = np.array(rec.names + [""])
    root = root_of(a["parent"])
    timed = a["root_kind"][root] == 1
    span_name = names[a["name_id"]]
    under_control = timed & (names[a["name_id"][root]] == "server.control")
    rebuild = under_control & np.isin(span_name, ["evaluation.tracker_init",
                                                  "evaluation.add_activity"])
    rebuilds = int((under_control & (span_name == "evaluation.tracker_init")).sum())
    rebuild_ms = 1000.0 * float((a["end"] - a["start"])[rebuild].sum()) / max(rebuilds, 1)

    c = rec.counters
    state = getattr(workload, "last_state", {})
    traced_x = end_to_end(traced_units)["x_realtime"]
    out = {
        "assigner.assign.self_ms": self_ms("assigner.assign"),
        "assigner.assign.calls": calls("assigner.assign"),
        "assigner.partitions_scored": c.get("assigner.partitions_scored", 0),
        "assigner.first_assign_ms": max(rec.first_assign_ms.values(), default=0.0),
        "assigner.gains.self_ms": self_ms("assigner.gains"),
        "assigner.tie_rule_deviations": deviations,
        "assigner.config_changes": state.get(
            "assigner.config_changes", sum(u.get("config_changes", 0) for u in traced_units)),
        "evaluation.evaluate.self_ms": self_ms("evaluation.evaluate"),
        "evaluation.replay_corpus.self_ms": self_ms("evaluation.replay_corpus"),
        "evaluation.add_activity.self_ms": self_ms("evaluation.add_activity"),
        "evaluation.pair_posteriors.self_ms": self_ms("evaluation.pair_posteriors"),
        "evaluation.process_due.self_ms": self_ms("evaluation.process_due"),
        "evaluation.tracker_rebuild_ms": rebuild_ms,
        "evaluation.periods_retained": state.get(
            "evaluation.periods_retained", max(u.get("periods", 0) for u in traced_units)),
        "features.trp_gap.calls": calls("features.trp_gap"),
        "features.trp_gap.self_ms": self_ms("features.trp_gap"),
        "features.simultaneous_speech.calls": calls("features.simultaneous_speech"),
        "features.simultaneous_speech.self_ms": self_ms("features.simultaneous_speech"),
        "learner.posterior_batch.self_ms": self_ms("learner.posterior_batch"),
        "learner.posterior_batch.rows": c.get("learner.posterior_batch.rows", 0),
        "learner.make_training_instances.self_ms": self_ms("learner.make_training_instances"),
        "learner.instances": c.get("learner.instances", 0),
        "learner.train.self_ms": self_ms("learner.train"),
        "corpus.streams.self_ms": self_ms("corpus.streams"),
        "corpus.utterances.self_ms": self_ms("corpus.utterances"),
        "segmenter.feed.self_ms": self_ms("segmenter.feed"),
        "segmenter.view.self_ms": self_ms("segmenter.view"),
        "segmenter.view.utterances": state.get("segmenter.view.utterances", 0),
        "timeline.retained_ticks": state.get("timeline.retained_ticks", 0),
        "mixer.mix_frame.self_ms": self_ms("mixer.mix_frame"),
        "mixer.mix_frame.calls": calls("mixer.mix_frame"),
        "mixdown.render_listener_mix.self_ms": self_ms("mixdown.render_listener_mix"),
        "mixdown.tone_audio.self_ms": self_ms("mixdown.tone_audio"),
        "ulaw.encode.self_ms": self_ms("ulaw.encode"),
        "ulaw.decode.self_ms": self_ms("ulaw.decode"),
        "transport.packetize.self_ms": self_ms("transport.packetize"),
        "transport.jitter_push.self_ms": self_ms("transport.jitter_push"),
        "transport.jitter_pop.self_ms": self_ms("transport.jitter_pop"),
        "vad.frame_bits.self_ms": self_ms("vad.frame_bits"),
        "vad.speech_share": c.get("vad.speech_bits", 0) / max(c.get("vad.bits", 0), 1),
        "server.pump_once.self_ms": self_ms("server.pump_once"),
        "server.control.self_ms": self_ms("server.control"),
        "server.audio_rx.self_ms": self_ms("server.audio_rx"),
        "server.frames_over_budget": untraced.get("frames_over_budget", 0),
        "server.overload_drops": state.get("server.overload_drops", 0),
        "server.rss_growth_mb_per_min": untraced.get("rss_growth_mb_per_min", 0.0),
        "trace.traced_ms": summary["<roots>"]["total_ms"],
        "trace.overhead_pct": 100.0 * (untraced["x_realtime"] / traced_x - 1.0),
    }
    for k in ("received", "played", "lost", "late", "duplicate"):
        out[f"transport.jitter.{k}"] = state.get(f"transport.jitter.{k}", 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject", choices=("drop-frame", "wrong-partition"))
    args = ap.parse_args(argv)

    import_program()
    import faults
    import workloads
    from calibrate import calibrate

    rec = remove = None
    if args.trace:
        import tracing

        rec = tracing.SpanRecorder()
        remove = tracing.install(rec)
    if args.inject:
        faults.inject(args.inject)
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Sizes(args.smoke))
    # calibration slices next to set-up measure the machine's speed for
    # it; the parent subtracts the time of those taken before READY
    before = [calibrate() for _ in range(3)]
    workload.setup()
    print("READY", flush=True)
    after = [calibrate() for _ in range(3)]
    print(f"CALIBRATION {sum(before)!r} {statistics.median(before + after)!r}", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if not args.trace:
        result["end_to_end"] = end_to_end(run_units(workload, args.seconds))
    else:
        remove()
        untraced = end_to_end(run_units(workload, args.seconds / 2))
        untraced_deviations = getattr(workload, "tie_rule_deviations", 0)
        remove = tracing.install(rec)
        rec.timed = True
        traced_units = [workload.unit(k) for k in range(workload.traced_units)]
        rec.timed = False
        remove()
        deviations = getattr(workload, "tie_rule_deviations", 0) - untraced_deviations
        result["end_to_end"] = untraced
        result["per_layer"] = per_layer(rec, workload, untraced, traced_units, deviations)
        result["spans"] = len(rec.start)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        rec.save(os.path.join(HERE, "results", f"spans-{args.workload}-seed{args.seed}.npz"))
    if hasattr(workload, "tie_rule_deviations"):
        result["end_to_end"]["tie_rule_deviations"] = workload.tie_rule_deviations
    result.update(
        attempted=workload.attempted,
        failed=workload.failed,
        reasons=workload.reasons,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
