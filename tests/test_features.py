"""Pairwise turn-taking features: transition gaps and simultaneous speech."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace.features import (
    FeatureEngine,
    LOOKBACK_MS,
    NO_GAP,
    TRP_CLIP_MS,
    WINDOW_LENGTHS_MS,
    simultaneous_speech,
    trp_gap_from_arrays,
)
from floorspace.timeline import ActivityStream, Utterance, stream_from_intervals


def utts(pid, intervals):
    return [Utterance(pid, s, e) for s, e in intervals]


def gap_of(a_utterances, b_utterances, now):
    """``trp_gap_from_arrays`` on two time-ordered utterance lists."""
    return trp_gap_from_arrays(
        [u.start for u in a_utterances],
        [u.start for u in b_utterances],
        [u.end for u in b_utterances],
        now,
    )


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
    assert gap_of(a, b, now=2500) == 200


def test_gap_inside_other_turn_is_negative():
    a = utts(0, [(1200, 2000)])
    b = utts(1, [(500, 1500)])
    assert gap_of(a, b, now=2500) == -300


def test_gap_against_still_open_turn_uses_running_end():
    a = utts(0, [(1200, 2000)])
    b = utts(1, [(500, 1500)])
    assert gap_of(a, b, now=1300) == -100


def test_gap_missing_cases():
    b = utts(1, [(0, 1000)])
    assert gap_of([], b, now=2000) is None
    assert gap_of(utts(0, [(500, 900)]), [], now=2000) is None
    # b's first turn starts after a's newest start
    assert gap_of(utts(0, [(100, 400)]), utts(1, [(600, 900)]), now=1000) is None
    # a's only turn is still in the future
    assert gap_of(utts(0, [(3000, 4000)]), b, now=2000) is None


def test_gap_clipping_both_directions():
    assert gap_of(utts(0, [(9000, 9500)]), utts(1, [(0, 1000)]), now=9999) == 5000
    a = utts(0, [(200, 9000)])
    b = utts(1, [(0, 10000)])
    assert gap_of(a, b, now=10000) == -5000


def test_gap_skips_past_an_open_interjection():
    # b spoke twice; the newer b turn is still open when a starts, so
    # the gap anchors on the older turn's end
    a = utts(0, [(5000, 6000)])
    b = utts(1, [(0, 1000), (4500, 5500)])
    assert gap_of(a, b, now=6000) == 4000


def test_gap_matches_bruteforce_scan():
    rng = np.random.default_rng(23)
    for _ in range(500):
        a = random_utterances(rng, 0, 20000)
        b = random_utterances(rng, 1, 20000)
        now = int(rng.integers(0, 22000))
        assert gap_of(a, b, now) == gap_oracle(a, b, now)


def test_gap_translation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a = random_utterances(rng, 0, 8000)
        b = random_utterances(rng, 1, 8000)
        now = int(rng.integers(0, 9000))
        delta = int(rng.integers(0, 5000))
        a2 = [Utterance(0, u.start + delta, u.end + delta) for u in a]
        b2 = [Utterance(1, u.start + delta, u.end + delta) for u in b]
        assert gap_of(a, b, now) == gap_of(a2, b2, now + delta)


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


def test_engine_combines_gap_and_overlap():
    now = 3000
    streams = {
        0: stream_from_intervals(0, [(1200, 2000)], now),
        1: stream_from_intervals(1, [(0, 1000)], now),
    }
    turns = {0: ([1200], [2000]), 1: ([0], [1000])}
    engine = FeatureEngine([0, 1], {p: (lambda v=turns[p]: v) for p in turns})
    for p in (0, 1):
        engine.add_activity(p, streams[p].bits)
    raw = engine.raw([now])
    # 0 starts 200 ms after 1's turn ends; no turn of 0's precedes 1's
    assert raw.gaps.tolist() == [[200, NO_GAP]]
    assert raw.overlaps.tolist() == [[[0, 0, 0]]]


def test_engine_counts_ordered_pairs():
    def party(n):
        engine = FeatureEngine(range(n), {p: lambda: ([], []) for p in range(n)})
        for p in range(n):
            engine.add_activity(p, np.zeros(1000, dtype=bool))
        return engine.raw([1000])

    for n, ordered in ((2, 2), (4, 12)):
        raw = party(n)
        assert raw.gaps.shape == (1, ordered)
        assert raw.overlaps.shape == (1, ordered // 2, 3)


def test_engine_shares_overlap_across_directions():
    rng = np.random.default_rng(61)
    streams = {i: ActivityStream(i, bits=rng.random(4000) < 0.5) for i in range(3)}
    utterances = {i: random_utterances(rng, i, 4000) for i in range(3)}
    views = {
        i: (lambda u=utterances[i]: ([x.start for x in u], [x.end for x in u])) for i in range(3)
    }
    engine = FeatureEngine(range(3), views)
    for i in range(3):
        engine.add_activity(i, streams[i].bits)
    raw = engine.raw([4000])
    pairs = [(0, 1), (0, 2), (1, 2)]
    for k, (a, b) in enumerate(pairs):
        # one overlap row serves (a, b) and (b, a); each direction has its gap
        overlaps = tuple(raw.overlaps[0, k])
        assert overlaps == simultaneous_speech(streams[a], streams[b], 4000)
        assert overlaps == simultaneous_speech(streams[b], streams[a], 4000)
        for col, (x, y) in ((k, (a, b)), (len(pairs) + k, (b, a))):
            gap = gap_of(utterances[x], utterances[y], 4000)
            assert raw.gaps[0, col] == (NO_GAP if gap is None else gap)


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


# --- membership changes in place -------------------------------------------


@st.composite
def memberships(draw):
    """A start, a grid, first members, then feeds, reads, joins and leaves."""
    pool = range(5)
    # a few frames, or long enough to move the 30 s lookback
    spans = st.one_of(st.integers(1, 100), st.integers(5000, 25_000))
    start = draw(st.integers(0, 3000))
    step = draw(st.sampled_from([1, 10, 30]))
    members = draw(st.sets(st.sampled_from(pool), max_size=3))
    ops, present = [], set(members)
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["feed", "feed", "read", "join", "leave"]))
        if kind == "join" and len(present) < len(pool):
            pid = draw(st.sampled_from(sorted(set(pool) - present)))
            present.add(pid)
            ops.append(("join", pid))
        elif kind == "leave" and present:
            pid = draw(st.sampled_from(sorted(present)))
            present.discard(pid)
            ops.append(("leave", pid))
        elif kind == "read":
            ops.append(("read", None))
        else:
            ops.append(("feed", draw(spans)))
    while len(present) < 2:
        pid = min(set(pool) - present)
        present.add(pid)
        ops.append(("join", pid))
    tail = draw(spans)
    seed = draw(st.integers(0, 2**32 - 1))
    return start, step, sorted(members), ops, tail, seed


@settings(max_examples=60, deadline=None)
@given(memberships())
def test_engine_joins_and_leaves_match_a_fresh_engine_over_the_final_room(case):
    start, step, members, ops, tail, seed = case
    rng = np.random.default_rng(seed)
    turns = {p: [(int(s), int(s) + int(d)) for s, d in zip(
        np.sort(rng.choice(150_000, 30, replace=False)), rng.integers(50, 3000, 30))]
        for p in range(5)}
    turns = {p: [iv for i, iv in enumerate(ts) if i == 0 or iv[0] >= ts[i - 1][1]]
             for p, ts in turns.items()}
    views = {p: (lambda s=[a for a, _ in ts], e=[b for _, b in ts]: (s, e))
             for p, ts in turns.items()}

    engine = FeatureEngine(members, {p: views[p] for p in members},
                           start_tick=start, step_ms=step)
    tick = start
    # what each participant said since it last joined; before that, silence
    said = {p: [np.zeros(0, dtype=bool)] for p in members}
    joined_at = {p: start for p in members}
    last_change = read = start

    def feed(k):
        if not engine.participants:
            return tick  # an empty room has no activity to cover
        chunk = rng.random((len(engine.participants), k)) < 0.3
        if rng.random() < 0.5:
            engine.add_room_activity(chunk)
        else:
            for row, pid in enumerate(engine.participants):
                for part in np.array_split(chunk[row], int(rng.integers(1, 4))):
                    engine.add_activity(pid, part)
        for row, pid in enumerate(engine.participants):
            said[pid].append(chunk[row])
        return tick + k

    for kind, arg in ops:
        if kind == "feed":
            tick = feed(arg)
        elif kind == "read":
            due = tick - (tick - start) % step
            if len(engine.participants) >= 2 and due > start:
                engine.raw([due])
                read = due
            else:
                engine.count_through(tick)  # as the tracker does below two members
                read = tick
        elif kind == "join":
            engine.join(arg, views[arg])
            said[arg], joined_at[arg] = [], tick
            last_change = tick
        else:
            engine.leave(arg)
            del said[arg], joined_at[arg]
            last_change = tick
        assert engine.coverage == tick
    tick = feed(tail)

    fresh = FeatureEngine(engine.participants, views, start_tick=start, step_ms=step)
    for pid in engine.participants:
        silent = np.zeros(joined_at[pid] - start, dtype=bool)
        fresh.add_activity(pid, np.concatenate([silent, *said[pid]]))
    # grid instants after the last change, and no earlier than the last read
    first = max(last_change + 1, read)
    instants = np.arange(first + (start - first) % step, tick + 1, step)
    if len(instants) == 0:
        return
    got, want = engine.raw(instants), fresh.raw(instants)
    for field in ("gaps", "overlaps", "speech"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
