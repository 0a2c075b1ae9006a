"""Turning activity bits into discrete utterances as they arrive.

The thresholds are checked on ``OnlineSegmenter`` fed a stream whole
and 20 ms at a time, as the live pump feeds it. Its views on every
chunking are checked against ``conftest.segment``, the whole-stream
reference.
"""

import json

import numpy as np

from floorspace.segmenter import MIN_UTTERANCE_MS, OnlineSegmenter, _runs
from floorspace.timeline import ActivityStream, stream_from_intervals

from conftest import segment


def bits_of(intervals, duration):
    return stream_from_intervals(0, intervals, duration).bits


def turns(bits, start_tick=0):
    """(start, end) of each utterance an ``OnlineSegmenter`` finds in
    ``bits`` fed whole, the same as when they are fed 20 ms at a time."""
    whole = OnlineSegmenter(0, start_tick)
    whole.feed(bits)
    chunked = OnlineSegmenter(0, start_tick)
    for fed in range(0, len(bits), 20):
        chunked.feed(bits[fed : fed + 20])
    assert chunked.view() == whole.view()
    return list(zip(*whole.view()))


def test_continuous_speech_is_one_utterance():
    assert turns(bits_of([(0, 1000)], 1000)) == [(0, 1000)]


def test_short_gap_is_bridged():
    # a gap of 199 ms, one under the bridge
    assert turns(bits_of([(0, 300), (499, 800)], 1000)) == [(0, 800)]


def test_gap_at_bridge_threshold_stays_split():
    assert turns(bits_of([(0, 300), (500, 800)], 1000)) == [(0, 300), (500, 800)]


def test_short_blip_is_dropped():
    assert turns(bits_of([(0, 50)], 1000)) == []


def test_bridged_runs_can_pass_the_minimum_together():
    # two 60 ms blips 100 ms apart: each under the minimum, bridged
    # they form a 220 ms utterance
    assert turns(bits_of([(0, 60), (160, 220)], 1000)) == [(0, 220)]


def test_zero_thresholds_reproduce_maximal_runs():
    rng = np.random.default_rng(13)
    for _ in range(100):
        bits = rng.random(int(rng.integers(1, 400))) < 0.3
        got = _runs(bits)
        expected = []
        t = 0
        while t < len(bits):
            if bits[t]:
                u = t
                while t < len(bits) and bits[t]:
                    t += 1
                expected.append((u, t))
            else:
                t += 1
        assert got == expected


def test_speech_runs_edge_patterns():
    assert _runs(np.array([], dtype=bool)) == []
    assert _runs(np.array([True])) == [(0, 1)]
    assert _runs(np.array(True)) == [(0, 1)]
    assert _runs(np.array([True, False, True])) == [(0, 1), (2, 3)]
    assert _runs(np.ones(5, dtype=bool)) == [(0, 5)]
    assert _runs(np.zeros(5, dtype=bool)) == []
    assert _runs(np.array([False])) == []
    # every pattern up to six bits against a scan for runs
    for n in range(1, 7):
        for code in range(1 << n):
            bits = np.array([code >> i & 1 for i in range(n)], dtype=bool)
            runs, start = [], None
            for i, b in enumerate(list(bits) + [False]):
                if b and start is None:
                    start = i
                elif not b and start is not None:
                    runs.append((start, i))
                    start = None
            assert _runs(bits) == runs


def test_runs_and_views_hold_python_ints():
    # runs inside a chunk and runs touching either end of it; the gaps
    # between chunks' runs are too long to bridge
    chunks = [np.zeros(400, dtype=bool) for _ in range(3)]
    chunks[0][5:] = True
    chunks[1][:40] = True
    chunks[1][300:] = True
    chunks[2][:100] = True
    chunks[2][300:] = True
    online = OnlineSegmenter(0)
    for bits in chunks:
        for run in _runs(bits):
            assert [type(x) for x in run] == [int, int]
        online.feed(bits)
        view = online.view()
        assert all(type(x) is int for x in view[0] + view[1])
        json.dumps(view)
    assert online.view() == ([5, 700, 1100], [440, 900, 1200])


def test_utterances_are_disjoint_and_ordered():
    rng = np.random.default_rng(37)
    for _ in range(50):
        got = turns(rng.random(2000) < 0.5)
        for (_, end), (start, _) in zip(got, got[1:]):
            assert end <= start
        for start, end in got:
            assert end - start >= MIN_UTTERANCE_MS


def test_segmentation_is_idempotent():
    # re-segmenting a stream rebuilt from the output changes nothing:
    # all gaps that survive are >= bridge and all runs >= minimum
    rng = np.random.default_rng(5)
    for _ in range(30):
        first = turns(rng.random(3000) < 0.45)
        assert turns(bits_of(first, 3000)) == first


def test_stream_offset_shifts_utterances():
    # ticks [1000, 2000), speech over the first 500
    assert turns(np.arange(1000) < 500, start_tick=1000) == [(1000, 1500)]


def test_online_matches_batch_on_any_chunking():
    rng = np.random.default_rng(101)
    for trial in range(30):
        bits = rng.random(4000) < 0.4
        batch_stream = ActivityStream(0, bits=bits)
        online = OnlineSegmenter(0)
        fed = 0
        while fed < len(bits):
            n = int(rng.integers(1, 333))
            chunk = bits[fed : fed + n]
            online.feed(chunk)
            fed += len(chunk)
            prefix = ActivityStream(0, bits=bits[:fed])
            expect = [(u.start, u.end) for u in segment(prefix)]
            starts, ends = online.view()
            assert list(zip(starts, ends)) == expect, f"trial {trial} at {fed}"


def test_online_matches_batch_on_vad_shaped_chunks():
    """Bits shaped as the live VAD gives them: constant over each 10 ms
    frame, in stretches from one frame to 3 s, fed mostly as 20-tick
    chunks, so most chunks are all silence or all speech; zero-length
    chunks and bare bools fall between them."""
    rng = np.random.default_rng(211)
    chunks = {"silent": 0, "speech": 0, "mixed": 0}
    for trial in range(10):
        stretches = rng.choice([1, 3, 15, 80, 300], 200)
        frames = np.repeat(np.arange(200) % 2 == trial % 2, stretches)[:1500]
        bits = np.repeat(frames, 10)
        online = OnlineSegmenter(0)
        fed = 0
        while fed < len(bits):
            kind = rng.random()
            if kind < 0.1:
                chunk = bits[fed:fed]
            elif kind < 0.15:
                chunk = bool(bits[fed])
            elif kind < 0.2:
                chunk = bits[fed]
            else:
                chunk = bits[fed : fed + 20]
                chunks["speech" if chunk.all() else "mixed" if chunk.any() else "silent"] += 1
            online.feed(chunk)
            fed += np.size(chunk)
            expect = [(u.start, u.end) for u in segment(ActivityStream(0, bits=bits[:fed]))]
            assert list(zip(*online.view())) == expect, f"trial {trial} at {fed}"
    # the chunks with no edge are most of them, and every kind runs
    assert chunks["silent"] + chunks["speech"] > 4 * chunks["mixed"] > 0


def test_online_keeps_only_the_newest_run_over_ten_minutes():
    """Ten minutes of alternating speech and silence in 20 ms chunks: the
    view matches ``segment`` on every minute's prefix, and apart from the
    frozen view the segmenter holds no list longer than one run."""
    rng = np.random.default_rng(17)
    spans_ms = []
    while sum(spans_ms) < 600_000:
        # blips, bridged gaps and long turns
        spans_ms += [int(rng.integers(30, 1500)), int(rng.integers(50, 1200))]
    bits = np.concatenate([np.full(n, k % 2 == 0) for k, n in enumerate(spans_ms)])[:600_000]
    online = OnlineSegmenter(0)
    for fed in range(20, len(bits) + 1, 20):
        online.feed(bits[fed - 20 : fed])
        if fed % 60_000 == 0:
            expect = [(u.start, u.end) for u in segment(ActivityStream(0, bits=bits[:fed]))]
            assert list(zip(*online.view())) == expect
    grown = sorted(k for k, v in vars(online).items() if isinstance(v, list) and len(v) > 2)
    assert grown == ["_frozen_ends", "_frozen_starts"]


def test_online_run_split_across_chunks_stays_one_utterance():
    online = OnlineSegmenter(0)
    online.feed(np.ones(50, dtype=bool))
    online.feed(np.ones(50, dtype=bool))
    starts, ends = online.view()
    assert (starts, ends) == ([0], [100])


def test_online_respects_start_tick():
    online = OnlineSegmenter(1, start_tick=500)
    online.feed(np.ones(200, dtype=bool))
    starts, ends = online.view()
    assert (starts, ends) == ([500], [700])
    # the next chunk starts where the first ended
    online.feed(np.r_[np.zeros(300, dtype=bool), np.ones(200, dtype=bool)])
    assert online.view() == ([500, 1000], [700, 1200])

