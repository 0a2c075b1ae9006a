"""Byte-identical outputs on fixed seeds.

The model file, the ``eval --report`` JSON, the ``replay --timeline``
TSV (with the model's posteriors and with ``--oracle``) and the
``mixdown --tones`` WAVs of the conftest corpora are pinned by their
sha256, and so is what an in-process 10-person live room decides and
sends. A change that moves any of these bytes changes what the
program decides; a pure refactor or speed-up must leave them alone.
"""

import hashlib

import pytest

from floorspace.cli import main
from floorspace.corpus import save_corpus
from floorspace.learner import save_model

from conftest import SentDatagrams

MODEL_SHA256 = "5a3b5db4d2ea0071db5be200fa03d19c7c83a3afb0e3e7e5a8fda32a7b829210"

REPORT_SHA256 = {
    11: "f81241ad282d4a1d6b7f0f768de5a4ff401ad8dd9235aaa21895d26b4c22260e",
    99: "30ab3dc1829949b9718bd00c3f3e06950ddf0429e97a58b2c76d5f0a987651a7",
}

TIMELINE_SHA256 = {
    11: "c3bd0e3b97b1dd8936d08813cd478f4d009a4604c180d073e911221459c5ebd7",
    99: "6d7933fee70366338dfd589730c4ca3493a51096dd9773e2b9f669cd24e732c0",
}

# the same two commands with --oracle, on the seed-99 corpus: posteriors
# straight from the truth, which bypass the model
ORACLE_SHA256 = {
    "report": "ca8db5c2bbfc82556b855ab2beffdbc738892263aeaef7a09aacd38b267204f6",
    "timeline": "32bee028ba35fc14f7af49eee4cecfb87473af1aa2bddd765ad34734045e16ef",
}

# listeners of the seed-99 corpus
MIX_SHA256 = {
    "A": "f8b9d6e24d82172434a48eb964949ece2562de7b457cc43efbcd98939c3991b4",
    "B": "335adf24186047c460b4acc47b5b3c230ef9d34861d17523663683eab8c22fbd",
    "C": "e433c6442ea132c2fe13cbfe0feeb9750b2891a545ee41e6c9d2bb2bfebe689f",
    "D": "b970eb68cfcfe8e5ef8f01c5460b8e5a44e4428060ce762093eb45b1e3c4e44e",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory, train_corpus, eval_corpus, floor_model):
    d = tmp_path_factory.mktemp("golden")
    model = d / "model.json"
    save_model(floor_model, str(model))
    corpora = {11: d / "seed11.corpus", 99: d / "seed99.corpus"}
    save_corpus(train_corpus, str(corpora[11]))
    save_corpus(eval_corpus, str(corpora[99]))
    return d, model, corpora


def test_model_file_is_unchanged(files):
    _, model, _ = files
    assert sha256(model) == MODEL_SHA256


@pytest.mark.parametrize("seed", [11, 99])
def test_eval_report_and_replay_timeline_are_unchanged(files, seed, capsys):
    d, model, corpora = files
    report = d / f"report{seed}.json"
    timeline = d / f"timeline{seed}.tsv"
    corpus = str(corpora[seed])
    assert main(["eval", "--model", str(model), "--corpus", corpus,
                 "--report", str(report)]) == 0
    assert main(["replay", "--model", str(model), "--corpus", corpus,
                 "--timeline", str(timeline)]) == 0
    capsys.readouterr()
    assert sha256(report) == REPORT_SHA256[seed]
    assert sha256(timeline) == TIMELINE_SHA256[seed]


def test_oracle_report_and_timeline_are_unchanged(files, capsys):
    d, model, corpora = files
    report, timeline = d / "oracle.json", d / "oracle.tsv"
    corpus = str(corpora[99])
    assert main(["eval", "--oracle", "--model", str(model), "--corpus", corpus,
                 "--report", str(report)]) == 0
    assert main(["replay", "--oracle", "--model", str(model), "--corpus", corpus,
                 "--timeline", str(timeline)]) == 0
    capsys.readouterr()
    assert {"report": sha256(report), "timeline": sha256(timeline)} == ORACLE_SHA256


def test_tone_mixdowns_are_unchanged(files, eval_corpus, capsys):
    d, model, corpora = files
    got = {}
    for name in eval_corpus.participants:
        out = d / f"mix-{name}.wav"
        assert main(["mixdown", "--model", str(model), "--corpus", str(corpora[99]),
                     "--listener", name, "--tones", "--out", str(out)]) == 0
        got[name] = sha256(out)
    capsys.readouterr()
    assert got == MIX_SHA256


# --- live server --------------------------------------------------------------

# the in-process 10-person room of ``_live_room``; "decisions" holds each
# period's score bits too, so it moved when the search's sum did, with
# every (tick, partition) unchanged and no score off by more than 3.4e-16
LIVE_SHA256 = {
    "vad": "776d66be248de14aae80368c6dc6334f3920c6bf8f0aa99f7ea233fb835224f6",
    "segments": "9644c6830cbd04b4bbcbd006349d1aeb981d70586f86646b63a122abca20d486",
    "decisions": "22af2e9d60396dc33720e0e66a608614ad45f5c55259fe7781f260a0f5c3ee8e",
    "mixes": "d264c47e6432f5dc199a3cc6237006b677214e024297a41d9c8e313b1f782ac5",
}


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else repr(item).encode())
    return h.hexdigest()


def _live_room(model, periods):
    """600 frames of a 10-person room driven in process, one leave and rejoin.

    Returns each session's VAD bits, the segmenter views after every
    frame, the room tracker's (tick, partition, score) log and every mix
    datagram with its address. A view drops the turns no later period
    reads, only ever from its front, so each frame's whole view is the
    turns seen before the view's first, then the view.
    """
    from bisect import bisect_left

    import numpy as np

    from floorspace.corpus import GeneratorConfig, generate
    from floorspace.server import RealtimeServer, ServerConfig
    from floorspace.transport import FRAME_SAMPLES, Packetizer

    frame_ms, frames, n = 20, 600, 10
    names = [f"p{i}" for i in range(n)]
    pairs = tuple((2 * i, 2 * i + 1) for i in range(5))
    halves = (tuple(range(5)), tuple(range(5, 10)))
    corpus = generate(GeneratorConfig(
        participants=n, duration_ms=frames * frame_ms, seed=23, turn_median_ms=700.0,
        schedule=[(0, pairs), (6000, halves)]))
    bits = [s.bits for s in corpus.streams().values()]
    rng = np.random.default_rng(23)
    t = np.arange(FRAME_SAMPLES)
    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=model)
    socket, srv.audio_sock = srv.audio_sock, SentDatagrams()
    vad, segments = {}, []
    seen = {}  # per session, every turn its views have shown
    packetizers = {}

    def join(i):
        srv._join(names[i], 100 + i, ("127.0.0.1", 9000 + i))
        packetizers[i] = Packetizer(ssrc=100 + i)

    try:
        for i in range(n):
            join(i)
        for frame in range(frames):
            if frame == 250:
                srv._leave("p3")
            if frame == 330:
                join(3)
            tick = srv.tick
            for i, name in enumerate(names):
                if name not in srv.sessions:
                    continue
                mask = np.repeat(bits[i][tick : tick + frame_ms], FRAME_SAMPLES // frame_ms)
                tone = 9000 * np.sin(2 * np.pi * (300 + 45 * i) * (t + tick * 8) / 8000)
                hiss = rng.normal(0.0, 8.0 + 2.0 * i, FRAME_SAMPLES)
                pcm = np.clip(np.rint(tone * mask + hiss), -32768, 32767).astype(np.int16)
                srv._handle_audio(packetizers[i].packetize(pcm).to_bytes(),
                                  ("127.0.0.1", 7000 + i))
            srv.pump_once()
            for s in sorted(srv.sessions.values(), key=lambda s: s.participant):
                vad.setdefault(s.name, []).append(s.stream.bits[-frame_ms:].tobytes())
                starts, ends = s.segmenter.view()
                old_starts, old_ends = seen.get(s, ([], []))
                kept = bisect_left(old_starts, starts[0]) if starts else len(old_starts)
                starts, ends = old_starts[:kept] + starts, old_ends[:kept] + ends
                seen[s] = starts, ends
                segments.append((s.name, [int(x) for x in starts], [int(x) for x in ends]))
        log = periods[srv.tracker]
        mixes = srv.audio_sock.sent
    finally:
        srv.audio_sock = socket
        srv.stop()
    decisions = [(t, c.partition, c.score) for t, c in zip(log.ticks, log.configs)]
    return vad, segments, decisions, mixes


def test_live_room_outputs_are_unchanged(floor_model, periods):
    vad, segments, decisions, mixes = _live_room(floor_model, periods)
    got = {
        "vad": _digest(item for name in sorted(vad) for item in [name, *vad[name]]),
        "segments": _digest(segments),
        "decisions": _digest(decisions),
        "mixes": _digest(item for datagram, addr in mixes for item in (datagram, addr)),
    }
    assert got == LIVE_SHA256
