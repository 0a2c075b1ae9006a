"""The three workloads: inputs generated from the seed, timed operations, checks.

Each workload has a ``setup`` (everything up to the first timed
operation: model, corpora, for live the server, the joins and the
warm-up pumps up to the first full-room evaluation) and a ``unit``
method that runs one timed unit of work and checks its outputs:

- ``replay-n10``: one ``evaluate()`` of a 10-person corpus whose
  schedule moves from pairs to halves to one floor.
- ``offline-n4``: one train -> evaluate -> mixdown cycle on 4-party
  split/merge corpora, evaluated on a held-out seed.
- ``live-n10``: one live session of fixed length against a real
  ``RealtimeServer`` on loopback, driven in a closed loop by one
  generator thread for ten clients, with one leave/rejoin at a fixed
  session-time interval.

Units are of fixed size, so a metric read from the n-th unit does not
depend on how fast earlier ones ran.
"""

from __future__ import annotations

import resource
import socket
import statistics
import time
from typing import Dict, List

import numpy as np

import floorspace.evaluation as evaluation
import floorspace.learner as learner
import floorspace.mixdown as mixdown
from floorspace.corpus import GeneratorConfig, generate
from floorspace.errors import FloorspaceError
from floorspace.server import RealtimeServer, ServerConfig, decode_message, encode_message
from floorspace.transport import AudioPacket, FRAME_MS, FRAME_SAMPLES, Packetizer, depacketize
from floorspace.vad import SAMPLE_RATE, SAMPLES_PER_MS

from calibrate import REFERENCE_S, calibrate
from checks import PartitionOracle, check_replay

SPLIT4 = ((0, 1), (2, 3))
MERGED4 = ((0, 1, 2, 3),)
PAIRS10 = tuple((2 * i, 2 * i + 1) for i in range(5))
HALVES10 = (tuple(range(5)), tuple(range(5, 10)))
ONE10 = (tuple(range(10)),)
MODEL_SEED = 11  # the fixed 4-party training corpus of the n=10 workloads


def split_merge(seed: int, duration_ms: int, epoch_ms: int) -> GeneratorConfig:
    schedule = [
        (t, SPLIT4 if i % 2 == 0 else MERGED4)
        for i, t in enumerate(range(0, duration_ms, epoch_ms))
    ]
    return GeneratorConfig(participants=4, duration_ms=duration_ms,
                           schedule=schedule, seed=seed)


def pairs_halves_one(seed: int, duration_ms: int) -> GeneratorConfig:
    e = duration_ms // 3
    return GeneratorConfig(participants=10, duration_ms=duration_ms,
                           schedule=[(0, PAIRS10), (e, HALVES10), (2 * e, ONE10)], seed=seed)


def unit_seed(seed: int, k: int, salt: int = 0) -> int:
    return (seed * 1_000_003 + k * 7919 + salt) % (2 ** 31)


def fit(corpus):
    instances = learner.make_training_instances(
        corpus.streams(), corpus.utterances(), duration_ms=corpus.duration_ms
    )
    return learner.train(instances), len(instances)


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2 ** 20


class Sizes:
    """Input sizes; ``smoke`` shrinks everything for the benchmark's own tests."""

    def __init__(self, smoke: bool):
        self.model_ms = 120_000 if smoke else 600_000
        self.replay_ms = 40_000 if smoke else 120_000
        self.train_ms = 120_000 if smoke else 300_000
        self.heldout_ms = 40_000 if smoke else 60_000
        self.session_frames = 150 if smoke else 1500
        self.membership_every = 50 if smoke else 150
        self.calibrate_every = 25 if smoke else 50
        self.sample_every = 25 if smoke else 50


class Offline:
    """Shared by the two offline workloads: an evaluate with its checks."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.oracles: Dict[tuple, PartitionOracle] = {}
        self.failed = 0
        self.attempted = 0
        self.tie_rule_deviations = 0
        self.reasons: List[str] = []

    def evaluate(self, corpus, model, sample_every: int) -> dict:
        t0 = time.perf_counter()
        report, result = evaluation.evaluate(corpus, model)
        dt = time.perf_counter() - t0
        ids = tuple(result.participants)
        if ids not in self.oracles:
            self.oracles[ids] = PartitionOracle(ids)
        failed, deviations, reasons = check_replay(result, self.oracles[ids], sample_every)
        self.attempted += len(result.ticks)
        self.failed += failed
        self.tie_rule_deviations += deviations
        self.reasons.extend(reasons[: max(0, 3 - len(self.reasons))])
        return {
            "replay_s": dt,
            "replay_x_realtime": corpus.duration_ms / 1000.0 / dt,
            "pair_accuracy": report.pairwise_accuracy,
            "config_accuracy": report.configuration_accuracy,
            "periods": len(result.ticks),
            "config_changes": len(result.events),
            "result": result,
        }


class ReplayN10(Offline):
    name = "replay-n10"
    traced_units = 1

    def setup(self) -> None:
        self.model, _ = fit(generate(split_merge(MODEL_SEED, self.sizes.model_ms, 100_000)))
        # the first 10-way evaluation builds the partition table lazily;
        # a short replay through the program's own path lands it here
        evaluation.replay_corpus(generate(pairs_halves_one(unit_seed(self.seed, 0, 1), 3000)),
                                 self.model)
        self.corpora = {0: generate(pairs_halves_one(unit_seed(self.seed, 0), self.sizes.replay_ms))}

    def unit(self, k: int) -> dict:
        corpus = self.corpora.pop(k, None) or generate(
            pairs_halves_one(unit_seed(self.seed, k), self.sizes.replay_ms))
        out = self.evaluate(corpus, self.model, self.sizes.sample_every)
        out.pop("result")
        # not scaled by calibration: most of this time is one matrix-vector
        # product over a 42 MB table per period, whose speed on a shared
        # machine does not follow the interpreter-bound calibration slice
        out.update(room_s=corpus.duration_ms / 1000.0, raw_x_realtime=out["replay_x_realtime"],
                   x_realtime=out["replay_x_realtime"])
        return out


class OfflineN4(Offline):
    name = "offline-n4"
    traced_units = 3
    CALIBRATIONS = 2  # slices before and after each unit

    def setup(self) -> None:
        model, _ = fit(generate(split_merge(MODEL_SEED, 60_000, 20_000)))
        # lazy set-up of the 4-way search, as on the first real evaluate
        evaluation.replay_corpus(generate(split_merge(unit_seed(self.seed, 0, 1), 3000, 1000)),
                                 model)
        self.inputs = {0: self._inputs(0)}

    def _inputs(self, k: int):
        return (generate(split_merge(unit_seed(self.seed, k, 2), self.sizes.train_ms, 100_000)),
                generate(split_merge(unit_seed(self.seed, k, 3), self.sizes.heldout_ms, 20_000)))

    def unit(self, k: int) -> dict:
        train_corpus, heldout = self.inputs.pop(k, None) or self._inputs(k)
        cals = [calibrate() for _ in range(self.CALIBRATIONS)]
        t0 = time.perf_counter()
        model, n_instances = fit(train_corpus)
        train_s = time.perf_counter() - t0
        out = self.evaluate(heldout, model, 1)
        result = out.pop("result")
        t0 = time.perf_counter()
        tracks = mixdown.tone_audio_for_corpus(heldout)
        mixes = [mixdown.render_listener_mix(heldout, result, pid, tracks=tracks)
                 for pid in sorted(heldout.ids.values())]
        mix_s = time.perf_counter() - t0
        cals += [calibrate() for _ in range(self.CALIBRATIONS)]
        want = heldout.duration_ms * SAMPLES_PER_MS
        for pid, pcm in zip(sorted(heldout.ids.values()), mixes):
            self.attempted += 1
            if len(pcm) != want:
                self.failed += 1
                self.reasons.append(f"mix of listener {pid}: {len(pcm)} samples, want {want}")
        room_s = heldout.duration_ms / 1000.0
        out.update(
            room_s=room_s,
            train_x_realtime=train_corpus.duration_ms / 1000.0 / train_s,
            mixdown_x_realtime=len(mixes) * room_s / mix_s,
            raw_x_realtime=room_s / (train_s + out["replay_s"] + mix_s),
            x_realtime=room_s / (train_s + out["replay_s"] + mix_s)
            * statistics.median(cals) / REFERENCE_S,
            instances=n_instances,
        )
        return out


class LiveSession:
    """One server, ten clients multiplexed on one audio and one control socket."""

    N = 10
    TIMEOUT_S = 1.0

    def __init__(self, model, corpus, owner: "LiveN10"):
        self.owner = owner
        self.server = RealtimeServer(
            ServerConfig(host="127.0.0.1", audio_port=0, control_port=0), model=model)
        self.server.start()
        self.audio = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.audio.bind(("127.0.0.1", 0))
        self.audio.settimeout(self.TIMEOUT_S)
        self.control = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.control.bind(("127.0.0.1", 0))
        self.control.settimeout(5.0)
        self.names = [f"p{i}" for i in range(self.N)]
        self.ssrc = [0x5EED0000 + i for i in range(self.N)]
        self.packetizers = [Packetizer(ssrc=s) for s in self.ssrc]
        streams = corpus.streams()
        ids = corpus.ids
        self.bits = [streams[ids[name]].bits for name in corpus.participants]
        n = SAMPLE_RATE
        t = np.arange(n)
        self.tones = [
            np.rint(10000 * np.sin(2 * np.pi * (300 + 45 * i) * t / n)).astype(np.int16)
            for i in range(self.N)
        ]
        self.frame = 0
        self.pump_ms: List[float] = []
        self.membership_ms: List[float] = []
        self.periods_retained = 0  # most evaluation periods one tracker held

    def request(self, msg: dict, want: str) -> float:
        t0 = time.perf_counter()
        self.control.sendto(encode_message(msg), self.server.control_addr)
        try:
            reply = decode_message(self.control.recvfrom(65536)[0])
        except socket.timeout:
            reply = {"type": "timeout"}
        ms = 1000.0 * (time.perf_counter() - t0)
        self.owner.record(reply.get("type") == want and reply.get("name") == msg["name"],
                          f"{msg['type']} {msg['name']}: got {reply}")
        return ms

    def join_all(self) -> None:
        for name, ssrc in zip(self.names, self.ssrc):
            self.request({"type": "join", "name": name, "ssrc": ssrc}, "joined")

    def _pcm(self, i: int) -> np.ndarray:
        tick = (self.frame * FRAME_MS) % len(self.bits[i])
        mask = np.repeat(self.bits[i][tick: tick + FRAME_MS], SAMPLES_PER_MS)
        a = (self.frame * FRAME_SAMPLES) % SAMPLE_RATE
        return self.tones[i][a: a + FRAME_SAMPLES] * mask

    def step(self, timed: bool) -> None:
        """Send one frame per client, pump once, collect and check every mix."""
        server = self.server
        for i in range(self.N):
            self.audio.sendto(self.packetizers[i].packetize(self._pcm(i)).to_bytes(),
                              server.audio_addr)
        deadline = time.perf_counter() + self.TIMEOUT_S
        while not all(s.inbox for s in list(server.sessions.values())):
            if time.perf_counter() > deadline:
                break
            time.sleep(0.0001)
        expect = len(server.sessions)
        t0 = time.perf_counter()
        server.pump_once()
        dt = 1000.0 * (time.perf_counter() - t0)
        heard = set()
        bad = []
        for _ in range(expect):
            try:
                data = self.audio.recvfrom(65536)[0]
            except socket.timeout:
                break
            try:
                pkt = AudioPacket.from_bytes(data)
                if len(depacketize(pkt)) != FRAME_SAMPLES:
                    bad.append(pkt.ssrc)
            except FloorspaceError as exc:
                bad.append(repr(exc))
                continue
            heard.add(pkt.ssrc ^ 0xFFFFFFFF)
        missing = sorted(set(self.ssrc) - heard)
        self.owner.record(not missing and not bad,
                          f"frame {self.frame}: missing mixes for {missing}, bad {bad}")
        self.frame += 1
        if timed:
            self.pump_ms.append(dt)

    def warm_up(self) -> None:
        """Pump until the first full-room evaluation has happened."""
        while True:
            self.step(timed=False)
            tracker = self.server.tracker
            if tracker is not None and tracker.configs:
                return

    def membership(self, k: int) -> None:
        tracker = self.server.tracker
        self.periods_retained = max(self.periods_retained, len(tracker.ticks) if tracker else 0)
        name = self.names[k]
        self.membership_ms.append(self.request({"type": "leave", "name": name}, "left"))
        self.membership_ms.append(
            self.request({"type": "join", "name": name, "ssrc": self.ssrc[k]}, "joined"))

    def status(self) -> dict:
        self.control.sendto(encode_message({"type": "status"}),
                            self.server.control_addr)
        return decode_message(self.control.recvfrom(65536)[0])

    def close(self) -> None:
        self.server.stop()
        self.audio.close()
        self.control.close()


class LiveN10:
    name = "live-n10"
    traced_units = 1

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.failed = 0
        self.attempted = 0
        self.reasons: List[str] = []
        self.last_state: dict = {}

    def record(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 3:
                self.reasons.append(why)

    def _open(self, k: int) -> LiveSession:
        corpus = generate(pairs_halves_one(unit_seed(self.seed, k),
                                           self.sizes.session_frames * FRAME_MS))
        session = LiveSession(self.model, corpus, self)
        session.join_all()
        session.warm_up()
        return session

    def setup(self) -> None:
        self.model, _ = fit(generate(split_merge(MODEL_SEED, self.sizes.model_ms, 100_000)))
        self.session = self._open(0)

    def unit(self, k: int) -> dict:
        session = self.session or self._open(k)
        self.session = None
        rss0 = rss_mb()
        start = session.frame
        every = self.sizes.calibrate_every
        cals = []
        try:
            while session.frame - start < self.sizes.session_frames:
                if (session.frame - start) % every == 0:
                    cals.append(calibrate())
                if session.frame % self.sizes.membership_every == 0:
                    session.membership((session.frame // self.sizes.membership_every) % session.N)
                session.step(timed=True)
            growth = rss_mb() - rss0
            status = session.status()
            self.last_state = live_state(session, status)
        finally:
            session.close()
        pumps = session.pump_ms
        cals.append(calibrate())
        # each block of pumps is scaled by the median of the three
        # calibration slices around it
        scaled = [
            ms * REFERENCE_S / statistics.median(cals[max(i // every - 1, 0): i // every + 2])
            for i, ms in enumerate(pumps)
        ]
        minutes = len(pumps) * FRAME_MS / 60000.0
        return {
            "room_s": len(pumps) * FRAME_MS / 1000.0,
            "pump_ms": pumps,
            "membership_ms": session.membership_ms,
            "rss_growth_mb_per_min": growth / minutes,
            "scaled_pump_ms": scaled,
        }


def live_state(session: LiveSession, status: dict) -> dict:
    """State sizes and the server's own counters at the end of a session."""
    server = session.server
    jitter = {k: 0 for k in ("received", "played", "lost", "late", "duplicate")}
    drops = 0
    for info in status.get("participants", {}).values():
        for k in jitter:
            jitter[k] += info["jitter"][k]
        drops += info["overload_drops"]
    tracker = server.tracker
    sessions = list(server.sessions.values())
    return {
        "transport.jitter.received": jitter["received"],
        "transport.jitter.played": jitter["played"],
        "transport.jitter.lost": jitter["lost"],
        "transport.jitter.late": jitter["late"],
        "transport.jitter.duplicate": jitter["duplicate"],
        "server.overload_drops": drops,
        "evaluation.periods_retained": max(session.periods_retained,
                                           len(tracker.ticks) if tracker else 0),
        "segmenter.view.utterances": sum(len(s.segmenter.view()[0]) for s in sessions),
        "timeline.retained_ticks": sum(len(s.stream) for s in sessions)
        + (sum(len(st) for st in tracker.streams.values()) if tracker else 0),
        "assigner.config_changes": len(server.events),
    }


WORKLOADS = {cls.name: cls for cls in (ReplayN10, OfflineN4, LiveN10)}
