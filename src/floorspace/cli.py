"""Command-line entry point.

One executable, six subcommands: train a model from labeled corpora,
evaluate a model against a corpus, generate a synthetic corpus,
replay a corpus through the detection pipeline, run the live server,
and render the mix a listener would have heard. Every command exits
zero on success and nonzero with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .corpus import Corpus, GeneratorConfig, generate, load_corpus, save_corpus
from .errors import ConfigError, CorpusError, FloorspaceError, read_json
from .evaluation import (
    evaluate,
    replay_corpus,
    write_report,
    write_timeline,
)
from .learner import (
    DEFAULT_SAMPLE_PERIOD_MS,
    TrainingSet,
    load_model,
    make_training_instances,
    save_model,
    summarize_training,
    train,
)


def _load_labeled(path: str) -> Corpus:
    corpus = load_corpus(path)
    if not corpus.records:
        raise FloorspaceError(f"{path}: corpus has no turns")
    return corpus


def cmd_train(args) -> int:
    sets = []
    for path in args.corpus:
        corpus = _load_labeled(path)
        sets.append(
            make_training_instances(
                corpus.streams(),
                corpus.utterances(),
                duration_ms=corpus.duration_ms,
                sample_period_ms=args.sample_period,
            )
        )
    instances = TrainingSet(
        np.concatenate([s.labels for s in sets]),
        np.concatenate([s.gaps for s in sets]),
        np.concatenate([s.overlaps for s in sets]),
        sets[0].binning,  # every set is made with the default binning
    )
    model = train(instances)
    save_model(model, args.out)
    stats = summarize_training(instances)
    counts = stats["instances"]
    print(
        f"trained on {counts['same'] + counts['diff']} instances "
        f"(same {counts['same']}, diff {counts['diff']}) "
        f"from {len(args.corpus)} corpus file(s)"
    )
    for name, occ in stats["occupied_bins"].items():
        total = stats["total_bins"][name]
        print(
            f"  {name:<12} occupied bins: same {occ['same']}/{total}, "
            f"diff {occ['diff']}/{total}"
        )
    print(f"model written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    corpus = _load_labeled(args.corpus)
    model = load_model(args.model)
    report, result = evaluate(corpus, model, oracle_posteriors=args.oracle)
    print(report.to_text())
    if args.report:
        write_report(args.report, report)
        print(f"report written to {args.report}")
    if args.timeline:
        write_timeline(args.timeline, result)
        print(f"timeline written to {args.timeline}")
    return 0


def cmd_simulate(args) -> int:
    cfg = GeneratorConfig.from_dict(read_json(args.gen_config, "generator config", CorpusError))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    corpus = generate(cfg)
    save_corpus(corpus, args.out)
    print(
        f"generated {len(corpus.records)} turns over {corpus.duration_ms} ms "
        f"for {len(corpus.participants)} participants (seed {cfg.seed})"
    )
    print(f"corpus written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    corpus = _load_labeled(args.corpus)
    model = load_model(args.model)
    result = replay_corpus(corpus, model, oracle_posteriors=args.oracle)
    names = {pid: name for name, pid in corpus.ids.items()}
    for event in result.events:
        floors = " | ".join(
            ",".join(names[m] for m in block) for block in event.partition
        )
        print(f"@{event.tick:>8} ms  [{floors}]  score={event.score:.3f}")
    print(
        f"{len(result.ticks)} evaluation periods, "
        f"{len(result.events)} configuration changes"
    )
    if args.timeline:
        write_timeline(args.timeline, result)
        print(f"timeline written to {args.timeline}")
    return 0


def cmd_serve(args) -> int:
    from .server import RealtimeServer, ServerConfig

    if args.config:
        cfg = ServerConfig.from_dict(read_json(args.config, "server config", ConfigError))
    else:
        cfg = ServerConfig()
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.audio_port is not None:
        overrides["audio_port"] = args.audio_port
    if args.control_port is not None:
        overrides["control_port"] = args.control_port
    if args.model is not None:
        overrides["model_path"] = args.model
    if args.max_participants is not None:
        overrides["max_participants"] = args.max_participants
    if overrides:
        cfg = replace(cfg, **overrides)
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s"
    )
    server = RealtimeServer(cfg)
    print(
        f"serving on {cfg.host} (audio {server.audio_addr[1]}, "
        f"control {server.control_addr[1]}); ctrl-c to stop"
    )
    server.run()
    return 0


def cmd_mixdown(args) -> int:
    import os

    from .mixdown import (
        load_participant_tracks,
        render_listener_mix,
        tone_audio_for_corpus,
        write_wav,
    )

    corpus = _load_labeled(args.corpus)
    model = load_model(args.model)
    if args.listener not in corpus.ids:
        raise FloorspaceError(f"unknown participant {args.listener!r}")
    if args.tones:
        tracks = tone_audio_for_corpus(corpus)
    else:
        audio_dir = args.audio_dir or os.path.dirname(os.path.abspath(args.corpus))
        tracks = load_participant_tracks(corpus, audio_dir)
    result = replay_corpus(corpus, model)
    pcm = render_listener_mix(
        corpus, result, corpus.ids[args.listener], tracks=tracks
    )
    write_wav(args.out, pcm)
    print(f"mix for {args.listener} written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorspace",
        description="conversational-floor detection and mixing for a shared audio space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a floor model from labeled corpora")
    p.add_argument("--corpus", action="append", required=True,
                   help="labeled corpus file; repeatable")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--sample-period", type=int, default=DEFAULT_SAMPLE_PERIOD_MS,
                   help="ms between training samples (default %(default)s)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model against a labeled corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--timeline", help="write per-period chosen/truth partitions here")
    p.add_argument("--oracle", action="store_true",
                   help="bypass the model; feed ground-truth posteriors")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="generate a synthetic labeled corpus")
    p.add_argument("--gen-config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="corpus file to write")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="run a corpus through the live pipeline, fast")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--timeline", help="write per-period chosen/truth partitions here")
    p.add_argument("--oracle", action="store_true",
                   help="bypass the model; feed ground-truth posteriors")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("serve", help="run the real-time audio space server")
    p.add_argument("--config", help="server config JSON")
    p.add_argument("--host")
    p.add_argument("--audio-port", type=int)
    p.add_argument("--control-port", type=int)
    p.add_argument("--model", help="model file (overrides config)")
    p.add_argument("--max-participants", type=int)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("mixdown", help="render what one listener would have heard")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--listener", required=True, help="participant name")
    p.add_argument("--out", required=True, help="WAV file to write")
    p.add_argument("--audio-dir",
                   help="directory of <participant>.wav inputs "
                        "(default: the corpus directory)")
    p.add_argument("--tones", action="store_true",
                   help="synthesize tone tracks instead of reading WAV inputs")
    p.set_defaults(func=cmd_mixdown)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FloorspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
