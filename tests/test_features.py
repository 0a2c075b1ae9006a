"""Pairwise turn-taking features: transition gaps and simultaneous speech."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace import PairFeatures, Utterance, extract_all, extract_pair
from floorspace.features import (
    LOOKBACK_MS,
    NO_GAP,
    TRP_CLIP_MS,
    WINDOW_LENGTHS_MS,
    FeatureEngine,
    simultaneous_speech,
    trp_gap,
    trp_gap_from_arrays,
)
from floorspace.timeline import ActivityStream, stream_from_intervals


def utts(pid, intervals):
    return [Utterance(pid, s, e) for s, e in intervals]


def gap_oracle(a_utterances, b_utterances, now, clip=TRP_CLIP_MS):
    """Scan every utterance pair instead of bisecting."""
    started = [u for u in a_utterances if u.start <= now]
    if not started:
        return None
    anchor = started[-1].start
    prior = [u for u in b_utterances if u.start < anchor]
    if not prior:
        return None
    closed = [u.end for u in prior if u.end <= anchor]
    if closed:
        g = anchor - max(closed)
    else:
        g = anchor - min(prior[-1].end, now)
    return max(-clip, min(clip, g))


def random_utterances(rng, pid, horizon):
    out = []
    t = int(rng.integers(0, 400))
    while t < horizon:
        d = int(rng.integers(80, 2500))
        out.append(Utterance(pid, t, t + d))
        t += d + int(rng.integers(1, 1500))
    return out


def test_gap_after_turn_boundary_is_positive():
    a = utts(0, [(1200, 2000)])
    b = utts(1, [(0, 1000)])
    assert trp_gap(a, b, now=2500) == 200


def test_gap_inside_other_turn_is_negative():
    a = utts(0, [(1200, 2000)])
    b = utts(1, [(500, 1500)])
    assert trp_gap(a, b, now=2500) == -300


def test_gap_against_still_open_turn_uses_running_end():
    a = utts(0, [(1200, 2000)])
    b = utts(1, [(500, 1500)])
    assert trp_gap(a, b, now=1300) == -100


def test_gap_missing_cases():
    b = utts(1, [(0, 1000)])
    assert trp_gap([], b, now=2000) is None
    assert trp_gap(utts(0, [(500, 900)]), [], now=2000) is None
    # b's first turn starts after a's newest start
    assert trp_gap(utts(0, [(100, 400)]), utts(1, [(600, 900)]), now=1000) is None
    # a's only turn is still in the future
    assert trp_gap(utts(0, [(3000, 4000)]), b, now=2000) is None


def test_gap_clipping_both_directions():
    assert trp_gap(utts(0, [(9000, 9500)]), utts(1, [(0, 1000)]), now=9999) == 5000
    a = utts(0, [(200, 9000)])
    b = utts(1, [(0, 10000)])
    assert trp_gap(a, b, now=10000) == -5000


def test_gap_skips_past_an_open_interjection():
    # b spoke twice; the newer b turn is still open when a starts, so
    # the gap anchors on the older turn's end
    a = utts(0, [(5000, 6000)])
    b = utts(1, [(0, 1000), (4500, 5500)])
    assert trp_gap(a, b, now=6000) == 4000


def test_gap_matches_bruteforce_scan():
    rng = np.random.default_rng(23)
    for _ in range(500):
        a = random_utterances(rng, 0, 20000)
        b = random_utterances(rng, 1, 20000)
        now = int(rng.integers(0, 22000))
        assert trp_gap(a, b, now) == gap_oracle(a, b, now)


def test_gap_translation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = random_utterances(rng, 0, 8000)
        b = random_utterances(rng, 1, 8000)
        now = int(rng.integers(0, 9000))
        delta = int(rng.integers(0, 5000))
        a2 = [Utterance(0, u.start + delta, u.end + delta) for u in a]
        b2 = [Utterance(1, u.start + delta, u.end + delta) for u in b]
        assert trp_gap(a, b, now) == trp_gap(a2, b2, now + delta)


def test_window_lengths():
    assert WINDOW_LENGTHS_MS == (1000, 14000, 15000)
    assert sum(WINDOW_LENGTHS_MS) == LOOKBACK_MS == 30000


def test_overlap_silent_streams():
    a = ActivityStream(0)
    b = ActivityStream(1)
    assert simultaneous_speech(a, b, now=30000) == (0, 0, 0)


def test_overlap_continuous_speech_fills_every_window():
    a = stream_from_intervals(0, [(0, 30000)], 30000)
    b = stream_from_intervals(1, [(0, 30000)], 30000)
    assert simultaneous_speech(a, b, now=30000) == (1000, 14000, 15000)


def test_overlap_confined_to_newest_window():
    now = 40000
    a = stream_from_intervals(0, [(now - 500, now)], now)
    b = stream_from_intervals(1, [(now - 800, now - 300)], now)
    assert simultaneous_speech(a, b, now) == (200, 0, 0)


def test_overlap_windows_tile_the_lookback():
    rng = np.random.default_rng(47)
    for _ in range(100):
        dur = 31000
        a = ActivityStream(0, bits=rng.random(dur) < 0.5)
        b = ActivityStream(1, bits=rng.random(dur) < 0.5)
        now = int(rng.integers(0, dur))
        w1, w2, w3 = simultaneous_speech(a, b, now)
        both = a.window(now - LOOKBACK_MS, now) & b.window(now - LOOKBACK_MS, now)
        assert w1 + w2 + w3 == int(both.sum())
        assert 0 <= w1 <= 1000 and 0 <= w2 <= 14000 and 0 <= w3 <= 15000


def test_overlap_matches_per_tick_oracle():
    rng = np.random.default_rng(53)
    for _ in range(40):
        dur = 2200
        a = ActivityStream(0, bits=rng.random(dur) < 0.5)
        b = ActivityStream(1, bits=rng.random(dur) < 0.5)
        now = int(rng.integers(0, 2500))

        def count(lo, hi):
            return sum(1 for t in range(lo, hi) if a.get(t) and b.get(t))

        expected = (
            count(now - 1000, now),
            count(now - 15000, now - 1000),
            count(now - 30000, now - 15000),
        )
        assert simultaneous_speech(a, b, now) == expected


def test_overlap_is_symmetric():
    rng = np.random.default_rng(59)
    a = ActivityStream(0, bits=rng.random(5000) < 0.4)
    b = ActivityStream(1, bits=rng.random(5000) < 0.6)
    for now in (0, 100, 2500, 5000, 6000):
        assert simultaneous_speech(a, b, now) == simultaneous_speech(b, a, now)


def test_extract_pair_combines_gap_and_overlap():
    now = 3000
    streams = {
        0: stream_from_intervals(0, [(1200, 2000)], now),
        1: stream_from_intervals(1, [(0, 1000)], now),
    }
    utterances = {0: utts(0, [(1200, 2000)]), 1: utts(1, [(0, 1000)])}
    f = extract_pair(streams, utterances, 0, 1, now)
    assert f == PairFeatures(trp_gap_ms=200, overlap_w1_ms=0, overlap_w2_ms=0, overlap_w3_ms=0)
    assert f.overlaps == (0, 0, 0)


def test_extract_all_counts_ordered_pairs():
    def party(n):
        streams = {i: ActivityStream(i) for i in range(n)}
        utterances = {i: [] for i in range(n)}
        return extract_all(streams, utterances, now=1000)

    assert len(party(2)) == 2
    assert len(party(4)) == 12


def test_extract_all_shares_overlap_across_directions():
    rng = np.random.default_rng(61)
    streams = {i: ActivityStream(i, bits=rng.random(4000) < 0.5) for i in range(3)}
    utterances = {i: random_utterances(rng, i, 4000) for i in range(3)}
    out = extract_all(streams, utterances, now=4000)
    for a in range(3):
        for b in range(a + 1, 3):
            assert out[(a, b)].overlaps == out[(b, a)].overlaps
            assert out[(a, b)].trp_gap_ms == trp_gap(utterances[a], utterances[b], 4000)
            assert out[(b, a)].trp_gap_ms == trp_gap(utterances[b], utterances[a], 4000)


# --- the batched engine against the scalar definitions --------------------------


def intervals(max_tick):
    """Sorted disjoint [start, end) intervals below max_tick."""
    return st.lists(
        st.tuples(st.integers(1, 3000), st.integers(1, 4000)), max_size=25
    ).map(lambda steps: _lay_out(steps, max_tick))


def _lay_out(steps, max_tick):
    out, t = [], 0
    for gap, length in steps:
        s = t + gap
        if s + length > max_tick:
            break
        out.append((s, s + length))
        t = s + length
    return out


@st.composite
def sessions(draw):
    n = draw(st.integers(2, 4))
    start = draw(st.integers(0, 3000))
    duration = draw(st.integers(start + 500, 70_000))
    activity = [draw(intervals(duration)) for _ in range(n)]
    # turns are drawn apart from the activity, and may run past the
    # instants asked about: those are still open then
    turns = [draw(intervals(duration + 5000)) for _ in range(n)]
    # instants on a grid, as the tracker's periods and training's samples are
    step = draw(st.sampled_from([1, 10, 30, 1000]))
    lo, hi = -(-start // step), duration // step
    if lo > hi:
        step, lo, hi = 1, start, duration
    ticks = sorted(k * step for k in draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12)))
    chunks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 9000)),
                           min_size=1, max_size=40))
    return n, duration, start, step, activity, turns, ticks, chunks


def _engine(n, start, step, turns):
    views = {p: (lambda s=[a for a, _ in turns[p]], e=[b for _, b in turns[p]]: (s, e))
             for p in range(n)}
    return FeatureEngine(range(n), views, start_tick=start, step_ms=step)


def _feed_until(engine, streams, chunks, fed, tick):
    """Feed the chunks in order (then whole streams) until ``tick`` is covered."""
    while engine.coverage < tick:
        if chunks:
            p, size = chunks.pop(0)
        else:
            p = min(range(len(fed)), key=lambda q: fed[q])
            size = len(streams[p])
        engine.add_activity(p, streams[p][fed[p] : fed[p] + size])
        fed[p] = min(fed[p] + size, len(streams[p]))


@settings(max_examples=80, deadline=None)
@given(sessions())
def test_engine_matches_the_scalar_definitions_at_any_chunking(session):
    n, duration, start, step, activity, turns, ticks, chunks = session
    full = [stream_from_intervals(p, activity[p], duration) for p in range(n)]
    streams = [full[p].window(start, duration) for p in range(n)]
    # the engine is fed from start on; before it, the oracle hears silence
    oracle = [ActivityStream(p, start, streams[p]) for p in range(n)]

    one_at_a_time = _engine(n, start, step, turns)
    fed = [0] * n
    singles = []
    for t in ticks:
        _feed_until(one_at_a_time, streams, chunks, fed, t)
        singles.append(one_at_a_time.raw([t]))

    batch = _engine(n, start, step, turns)
    for p in range(n):
        batch.add_activity(p, streams[p])
    together = batch.raw(ticks)

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = len(pairs)
    starts = [[a for a, _ in turns[p]] for p in range(n)]
    ends = [[b for _, b in turns[p]] for p in range(n)]
    for k, t in enumerate(ticks):
        for field, single in zip(together, singles[k]):
            assert np.array_equal(field[k], single[0])
        for i, (a, b) in enumerate(pairs):
            w = simultaneous_speech(oracle[a], oracle[b], t)
            assert tuple(together.overlaps[k, i]) == w
            for col, (x, y) in ((i, (a, b)), (m + i, (b, a))):
                gap = trp_gap_from_arrays(starts[x], starts[y], ends[y], t)
                assert together.gaps[k, col] == (NO_GAP if gap is None else gap)
        for p in range(n):
            assert together.speech[k, p] == oracle[p].window(t - LOOKBACK_MS, t).sum()


def test_engine_rejects_instants_it_no_longer_holds():
    engine = FeatureEngine([0, 1], {0: lambda: ([], []), 1: lambda: ([], [])})
    for p in (0, 1):
        engine.add_activity(p, np.ones(40_000, dtype=bool))
    engine.raw([39_000])
    with pytest.raises(ValueError, match="retained"):
        engine.raw([8_000])
    with pytest.raises(ValueError, match="covered"):
        engine.raw([40_001])
    on_grid = FeatureEngine([0, 1], {0: lambda: ([], []), 1: lambda: ([], [])}, step_ms=30)
    for p in (0, 1):
        on_grid.add_activity(p, np.ones(100, dtype=bool))
    with pytest.raises(ValueError, match="multiples of 10"):
        on_grid.raw([45])
