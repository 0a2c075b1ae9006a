"""Shared fixtures: synthetic corpora plus a model trained on one of them.

The two corpora use the same schedule but independent seeds, so any
test that trains on one and evaluates on the other sees genuinely
held-out turn timing. The loopback latency oracle is shared by the
transport tests and the acceptance gate. A tracker keeps only its
last period; the ``periods`` fixture collects every one it returns.
"""

from collections import defaultdict

import numpy as np
import pytest

from floorspace.corpus import GeneratorConfig, generate
from floorspace.evaluation import FloorTracker
from floorspace.learner import make_training_instances, train
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
