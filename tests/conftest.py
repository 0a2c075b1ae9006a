"""Shared fixtures: synthetic corpora plus a model trained on one of them.

The two corpora use the same schedule but independent seeds, so any
test that trains on one and evaluates on the other sees genuinely
held-out turn timing. The loopback latency oracle is shared by the
transport tests and the acceptance gate, and the whole-stream
segmenter by the segmenter, feature and bounded-state tests. A tracker
keeps only its last period; the ``periods`` fixture collects every one
it returns. ``exact`` and ``unbinned`` read the feature values back out
of an engine's bins, for the tests that hold them to the scalar
definitions.
"""

from collections import defaultdict

import numpy as np
import pytest

from floorspace.corpus import GeneratorConfig, generate
from floorspace.evaluation import FloorTracker
from floorspace.features import NO_GAP, FeatureBinning
from floorspace.learner import make_training_instances, train
from floorspace.segmenter import BRIDGE_GAP_MS, MIN_UTTERANCE_MS
from floorspace.timeline import Utterance
from floorspace.transport import (
    FRAME_MS,
    FRAME_SAMPLES,
    SAMPLES_PER_MS,
    JitterBuffer,
    Packetizer,
    decode_ulaw,
)

SPLIT = ((0, 1), (2, 3))
MERGED = ((0, 1, 2, 3),)


def split_merge_schedule(duration_ms, epoch_ms):
    """Alternate two 2-person floors with one merged floor of four."""
    schedule = []
    t, i = 0, 0
    while t < duration_ms:
        schedule.append((t, SPLIT if i % 2 == 0 else MERGED))
        t += epoch_ms
        i += 1
    return schedule


def four_party_config(seed, duration_ms=600_000, epoch_ms=100_000):
    return GeneratorConfig(
        participants=4,
        duration_ms=duration_ms,
        schedule=split_merge_schedule(duration_ms, epoch_ms),
        seed=seed,
    )


@pytest.fixture(scope="session")
def train_corpus():
    return generate(four_party_config(seed=11))


@pytest.fixture(scope="session")
def eval_corpus():
    return generate(four_party_config(seed=99))


def instances_for(corpus, sample_period_ms=1000):
    return make_training_instances(
        corpus.streams(),
        corpus.utterances(),
        duration_ms=corpus.duration_ms,
        sample_period_ms=sample_period_ms,
    )


@pytest.fixture(scope="session")
def floor_model(train_corpus):
    return train(instances_for(train_corpus))


# far past any tick a test reaches, so ``exact`` clips no gap
EXACT_CLIP_MS = 10**9


def exact(binning=FeatureBinning()):
    """A binning over ``binning``'s windows that loses nothing: every gap
    within EXACT_CLIP_MS and every count of a window of up to 15 000 ms
    has a bin of its own."""
    return FeatureBinning(trp_bin_width_ms=1, trp_clip_ms=EXACT_CLIP_MS,
                          overlap_bins_per_window=15_001,
                          window_lengths_ms=binning.window_lengths_ms)


def unbinned(engine, ticks):
    """The (k, 2m) gaps, NO_GAP for a missing one, and the (k, m, 3)
    overlap counts that an engine serving an ``exact`` binning bins at
    ``ticks``, read back from its ``binned``."""
    b = engine.binning
    assert b.trp_bin_width_ms == 1 and b.overlap_bins_per_window > max(b.window_lengths_ms)
    bins = engine.binned(ticks).astype(np.int64)
    m = bins.shape[1] // 2
    # both directions of a pair bin its counts alike
    assert np.array_equal(bins[:, :m, 1:], bins[:, m:, 1:])
    gaps = np.where(bins[..., 0] == b.missing_bin, NO_GAP, bins[..., 0] - b.trp_clip_ms)
    # with more bins than a window has ticks, count * bins // length gives
    # each count a bin of its own, and the count is the least that reaches it
    lengths = np.array(b.window_lengths_ms)
    overlaps = -(-bins[:, :m, 1:] * lengths // b.overlap_bins_per_window)
    return gaps, overlaps


def loopback_latency_ms(depth_ms=60, marker_tick=5):
    """Latency the framing and jitter stages add on a lossless loopback.

    A marker impulse is captured into its frame at each 20 ms boundary,
    packetized, pushed, and a frame is popped for playout at the same
    cadence. The return value is how many milliseconds pass between the
    marker entering capture and leaving toward the speaker. With the
    defaults this is exactly the jitter depth; device and network
    delays sit outside the measurement.
    """
    packetizer = Packetizer(ssrc=1)
    buffer = JitterBuffer(depth_ms=depth_ms)
    boundary = FRAME_MS
    while boundary <= marker_tick + 100 * depth_ms + 1000:
        start = boundary - FRAME_MS
        frame = np.zeros(FRAME_SAMPLES, dtype=np.int16)
        if start <= marker_tick < boundary:
            frame[(marker_tick - start) * SAMPLES_PER_MS] = 8000
        buffer.push(packetizer.packetize(frame))
        played = decode_ulaw(buffer.pop())
        hits = np.flatnonzero(np.abs(played.astype(np.int32)) > 2000)
        if hits.size:
            return boundary + int(hits[0]) // SAMPLES_PER_MS - marker_tick
        boundary += FRAME_MS
    raise RuntimeError("marker never played out")


class SentDatagrams:
    """Stands in for a server socket and keeps what it sends."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((bytes(data), addr))
        return len(data)


def room_block(streams, ids, lo=0, hi=None):
    """Ticks [lo, hi) of the ``ids``' streams, one row each: a room block."""
    return np.stack([streams[pid].bits[lo:hi] for pid in ids])


def segment(stream):
    """The utterances of a whole ``ActivityStream`` at once, ordered: the
    reference ``OnlineSegmenter`` is checked against. Runs of speech
    less than BRIDGE_GAP_MS apart are bridged, then those shorter than
    MIN_UTTERANCE_MS are dropped."""
    padded = np.concatenate([[False], np.asarray(stream.bits, dtype=bool), [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    merged = []
    for s, e in zip(edges[::2], edges[1::2]):
        if merged and s - merged[-1][1] < BRIDGE_GAP_MS:
            merged[-1][1] = e
        else:
            merged.append([s, e])
    base = stream.start_tick
    return [
        Utterance(stream.participant, base + s, base + e)
        for s, e in merged
        if e - s >= MIN_UTTERANCE_MS
    ]


def changes(ticks, configs):
    """(tick, partition) of every period whose partition differs from the last."""
    out, last = [], None
    for t, c in zip(ticks, configs):
        if c.partition != last:
            out.append((t, c.partition))
            last = c.partition
    return out


class PeriodLog:
    """Every period one tracker's ``process_due`` calls returned, oldest first."""

    def __init__(self):
        self.ticks = []
        self.posteriors = []  # one row per period, in the pairs of its time
        self.configs = []
        self.events = []

    def add(self, due):
        self.ticks.extend(due.ticks)
        self.posteriors.extend(due.posteriors)
        self.configs.extend(due.configs)
        self.events.extend(due.events)


@pytest.fixture
def periods(monkeypatch):
    """A ``PeriodLog`` per tracker, of every period its ``process_due``
    returns while the test runs, the server's own trackers included."""
    logs = defaultdict(PeriodLog)
    process_due = FloorTracker.process_due

    def logged(self, *args, **kwargs):
        due = process_due(self, *args, **kwargs)
        logs[self].add(due)
        return due

    monkeypatch.setattr(FloorTracker, "process_due", logged)
    return logs
