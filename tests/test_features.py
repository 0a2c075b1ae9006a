"""Pairwise turn-taking features: transition gaps and simultaneous speech."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floorspace.features import (
    BLOCK_CELLS,
    FeatureBinning,
    FeatureEngine,
    NO_GAP,
    simultaneous_speech,
    trp_gap_from_arrays,
    utterance_views,
)
from floorspace.timeline import ActivityStream, Utterance, stream_from_intervals

from conftest import segment

DEFAULT = FeatureBinning()
# the default windows and one short set; the engine serves either
BINNINGS = (DEFAULT, FeatureBinning(window_lengths_ms=(500, 2000, 2500), trp_clip_ms=4000))


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


def gap_oracle(a_utterances, b_utterances, now):
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
    return g


def overlap_oracle(a, b, now, windows):
    """Both-speech ticks of two streams in each window, most recent first."""
    out, hi = [], now
    for length in windows:
        out.append(int((a.window(hi - length, hi) & b.window(hi - length, hi)).sum()))
        hi -= length
    return tuple(out)


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
    # the gap itself is unclipped; binning clips it at the binning's clip
    late = gap_of(utts(0, [(9000, 9500)]), utts(1, [(0, 1000)]), now=9999)
    early = gap_of(utts(0, [(200, 9000)]), utts(1, [(0, 10000)]), now=10000)
    assert (late, early) == (8000, -9800)
    for b in BINNINGS:
        clip = b.trp_clip_ms
        gaps = [late, clip, clip - b.trp_bin_width_ms, early, -clip, 1 - clip]
        bins = b.bin_array(gaps, np.zeros((len(gaps), 3), dtype=np.int64))[:, 0]
        top = b.n_trp_value_bins - 1
        assert bins.tolist() == [top, top, top, 0, 0, 0]


@pytest.mark.parametrize("binning", BINNINGS)
def test_overlaps_binned_once_per_pair_equal_bins_of_both_directions(binning):
    # the engine bins a pair's overlap counts once, broadcast against the
    # gaps of both directions; that is the binning of the counts repeated
    rng = np.random.default_rng(67)
    for k, m in ((1, 1), (7, 6), (40, 45)):
        gaps = rng.integers(-12_000, 12_000, (k, 2 * m))
        gaps[rng.random((k, 2 * m)) < 0.2] = NO_GAP
        overlaps = rng.integers(-5, 3000, (k, m, 3))
        once = binning.bin_array(gaps.reshape(k, 2, m), overlaps[:, None]).reshape(k, 2 * m, 4)
        both = binning.bin_array(gaps, np.concatenate((overlaps, overlaps), axis=1))
        assert np.array_equal(once, both)


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
    assert DEFAULT.window_lengths_ms == (1000, 14000, 15000)
    assert DEFAULT.trp_clip_ms == 5000
    # continuous speech fills each window, and the lookback is their sum
    for b in BINNINGS:
        engine = FeatureEngine([0, 1], {0: lambda: ([], []), 1: lambda: ([], [])}, b)
        engine.add_activity(np.ones((2, 40_000), dtype=bool))
        raw = engine.raw([40_000])
        assert tuple(raw.overlaps[0, 0]) == b.window_lengths_ms
        assert raw.speech.tolist() == [[sum(b.window_lengths_ms)] * 2]


def test_overlap_silent_streams():
    a = ActivityStream(0, bits=[])
    b = ActivityStream(1, bits=[])
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
        both = a.window(now - 30000, now) & b.window(now - 30000, now)
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
            # ticks outside [0, dur) are silence
            return sum(1 for t in range(max(lo, 0), min(hi, dur)) if a.bits[t] and b.bits[t])

        expected = (
            count(now - 1000, now),
            count(now - 15000, now - 1000),
            count(now - 30000, now - 15000),
        )
        assert simultaneous_speech(a, b, now) == expected
        assert overlap_oracle(a, b, now, DEFAULT.window_lengths_ms) == expected


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
    engine = FeatureEngine([0, 1], {p: (lambda v=turns[p]: v) for p in turns}, DEFAULT)
    engine.add_activity(np.stack([streams[p].bits for p in (0, 1)]))
    raw = engine.raw([now])
    # 0 starts 200 ms after 1's turn ends; no turn of 0's precedes 1's
    assert raw.gaps.tolist() == [[200, NO_GAP]]
    assert raw.overlaps.tolist() == [[[0, 0, 0]]]


def test_engine_counts_ordered_pairs():
    def party(n):
        engine = FeatureEngine(range(n), {p: lambda: ([], []) for p in range(n)}, DEFAULT)
        engine.add_activity(np.zeros((n, 1000), dtype=bool))
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
    pairs = [(0, 1), (0, 2), (1, 2)]
    for binning in BINNINGS:
        engine = FeatureEngine(range(3), views, binning)
        engine.add_activity(np.stack([streams[i].bits for i in range(3)]))
        raw = engine.raw([4000])
        windows = binning.window_lengths_ms
        for k, (a, b) in enumerate(pairs):
            # one overlap row serves (a, b) and (b, a); each direction has its gap
            overlaps = tuple(raw.overlaps[0, k])
            assert overlaps == overlap_oracle(streams[a], streams[b], 4000, windows)
            assert overlaps == overlap_oracle(streams[b], streams[a], 4000, windows)
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


def longest_span(n):
    """No n-member engine's block is longer: the cell budget over its
    count rows, every pair and every member alone."""
    return BLOCK_CELLS // (n * (n + 1) // 2)


@st.composite
def sessions(draw):
    n = draw(st.integers(2, 4))
    span = longest_span(n)
    start = draw(st.integers(0, 3000))
    # short sessions, and ones that run past the engine's block span
    duration = draw(st.one_of(st.integers(start + 500, 70_000),
                              st.integers(span + 1, span + 30_000)))
    activity = [draw(intervals(duration)) for _ in range(n)]
    # turns are drawn apart from the activity, and may run past the
    # instants asked about: those are still open then
    turns = [draw(intervals(duration + 5000)) for _ in range(n)]
    # instants on a grid, as the tracker's periods and training's samples are
    step = draw(st.sampled_from([1, 10, 30, 1000]))
    lo, hi = -(-start // step), duration // step
    if lo > hi:
        step, lo, hi = 1, start, duration
    # at times the grid's ends too, so a long session's instants cross its span
    ends = draw(st.sampled_from([[], [lo, hi]]))
    picks = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12))
    ticks = sorted(k * step for k in picks + ends)
    # room blocks of one tick, of a frame or so, and across the block span
    sizes = st.one_of(st.just(1), st.integers(1, 100), st.integers(1, 2 * span))
    chunks = draw(st.lists(sizes, min_size=1, max_size=40))
    return n, duration, start, step, activity, turns, ticks, chunks


def _engine(n, start, step, turns, binning):
    views = {p: (lambda s=[a for a, _ in turns[p]], e=[b for _, b in turns[p]]: (s, e))
             for p in range(n)}
    return FeatureEngine(range(n), views, binning, start_tick=start, step_ms=step)


def _feed_until(engine, room, start, chunks, tick):
    """Feed ``room``, the activity from ``start`` on, in blocks of the
    chunks' lengths in order (then the rest) until ``tick`` is covered."""
    while engine.coverage < tick:
        fed = engine.coverage - start
        size = chunks.pop(0) if chunks else room.shape[1]
        engine.add_activity(room[:, fed : fed + size])


@settings(max_examples=80, deadline=None)
@given(sessions())
def test_engine_matches_the_scalar_definitions_at_any_chunking(session):
    n, duration, start, step, activity, turns, ticks, chunks = session
    full = [stream_from_intervals(p, activity[p], duration) for p in range(n)]
    streams = [full[p].window(start, duration) for p in range(n)]
    room = np.stack(streams)
    # the engine is fed from start on; before it, the oracle hears silence
    oracle = [ActivityStream(p, start, bits=streams[p]) for p in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = len(pairs)
    starts = [[a for a, _ in turns[p]] for p in range(n)]
    ends = [[b for _, b in turns[p]] for p in range(n)]

    for binning in BINNINGS:
        windows = binning.window_lengths_ms
        one_at_a_time = _engine(n, start, step, turns, binning)
        left = list(chunks)
        singles = []
        for t in ticks:
            _feed_until(one_at_a_time, room, start, left, t)
            singles.append(one_at_a_time.raw([t]))

        batch = _engine(n, start, step, turns, binning)
        batch.add_activity(room)
        together = batch.raw(ticks)

        gaps = np.empty((len(ticks), 2 * m), dtype=np.int64)
        for k, t in enumerate(ticks):
            for field, single in zip(together, singles[k]):
                assert np.array_equal(field[k], single[0])
            for i, (a, b) in enumerate(pairs):
                w = overlap_oracle(oracle[a], oracle[b], t, windows)
                assert tuple(together.overlaps[k, i]) == w
                for col, (x, y) in ((i, (a, b)), (m + i, (b, a))):
                    gap = trp_gap_from_arrays(starts[x], starts[y], ends[y], t)
                    gaps[k, col] = NO_GAP if gap is None else gap
            for p in range(n):
                assert together.speech[k, p] == oracle[p].window(t - sum(windows), t).sum()
        assert np.array_equal(together.gaps, gaps)
        # a second engine, since the first no longer holds the earliest instants
        again = _engine(n, start, step, turns, binning)
        again.add_activity(room)
        overlaps = np.concatenate((together.overlaps, together.overlaps), axis=1)
        assert np.array_equal(again.binned(ticks), binning.bin_array(gaps, overlaps))


def _silent(ids):
    return {p: (lambda: ([], [])) for p in ids}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 10, 1000]), st.integers(2, 4), st.integers(0, 40), st.data())
def test_engine_window_counts_match_simultaneous_speech_at_every_resolution(res, n, k, data):
    # the first tick and the instants on the grid of ``res``: the default
    # windows' edges, multiples of 1 000 ms, leave it the count resolution
    start = k * res
    duration = start + data.draw(st.one_of(st.integers(1, 40_000),
                                           st.integers(longest_span(n), longest_span(n) + 40_000)))
    streams = [stream_from_intervals(p, data.draw(intervals(duration)), duration)
               .window(start, duration) for p in range(n)]
    oracle = [ActivityStream(p, start, bits=streams[p]) for p in range(n)]
    picks = data.draw(st.lists(st.integers(k, duration // res), min_size=1, max_size=8))
    ticks = sorted(res * pick for pick in picks)
    engine = FeatureEngine(range(n), _silent(range(n)), DEFAULT, start_tick=start, step_ms=res)
    assert engine._res == res
    engine.add_activity(np.stack(streams))
    overlaps = engine.raw(ticks).overlaps
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for row, t in enumerate(ticks):
        for i, (a, b) in enumerate(pairs):
            assert tuple(overlaps[row, i]) == simultaneous_speech(oracle[a], oracle[b], t)


def test_the_block_span_fits_the_cell_budget_at_every_room_size():
    for binning in BINNINGS:
        for step in (1, 30, 1000):
            for n in range(1, 11):
                engine = FeatureEngine(range(n), _silent(range(n)), binning, step_ms=step)
                rows, span, res = n * (n + 1) // 2, engine.span, engine._res
                assert rows * span <= BLOCK_CELLS
                assert span % res == 0
                # and the longest such block
                assert rows * (span + res) > BLOCK_CELLS
    spans = {(n, step): FeatureEngine(range(n), _silent(range(n)), DEFAULT, step_ms=step).span
             for n in (2, 4, 10) for step in (30, 1000)}
    assert spans == {(2, 30): 140_800, (4, 30): 42_240, (10, 30): 7680,
                     (2, 1000): 140_000, (4, 1000): 42_000, (10, 1000): 7000}
    # a join or leave sizes the block anew for the room it makes
    engine = FeatureEngine(range(4), _silent(range(10)), DEFAULT, step_ms=30)
    engine.join(4, lambda: ([], []))
    assert engine.span == 28_160
    for p in range(3):
        engine.leave(p)
    assert engine.span == 140_800


def test_the_engine_counts_in_blocks_of_its_span(monkeypatch):
    # every AND block of a long feed is the span: the budget's cells at most
    widths = []
    append = FeatureEngine._append

    def spy(self, both):
        widths.append(both.shape)
        append(self, both)

    monkeypatch.setattr(FeatureEngine, "_append", spy)
    rng = np.random.default_rng(5)
    for n, blocks in ((2, 2), (4, 7), (10, 3)):
        engine = FeatureEngine(range(n), _silent(range(n)), DEFAULT, step_ms=30)
        engine.add_activity(rng.random((n, engine.span * blocks)) < 0.3)
        widths.clear()
        engine.count_through(engine.coverage)
        assert widths == [(n * (n + 1) // 2, engine.span)] * blocks


def test_an_engine_block_is_one_row_per_participant_of_one_length():
    engine = FeatureEngine([0, 1], {0: lambda: ([], []), 1: lambda: ([], [])}, DEFAULT)
    refused = "^a room block needs one row per participant, 2 of one length$"
    bad_blocks = (np.ones((1, 10), dtype=bool), np.ones((3, 10), dtype=bool),
                  np.ones(2, dtype=bool), np.ones((2, 10, 1), dtype=bool),
                  [np.ones(10, dtype=bool), np.ones(9, dtype=bool)])
    for bad in bad_blocks:
        with pytest.raises(ValueError, match=refused):
            engine.add_activity(bad)
    assert engine.coverage == 0
    # a list of rows reads as the array it would stack into
    engine.add_activity([np.ones(40_000, dtype=bool), np.zeros(40_000, dtype=bool)])
    assert engine.coverage == 40_000
    assert engine.raw([40_000]).speech.tolist() == [[30_000, 0]]
    for bad in bad_blocks:
        with pytest.raises(ValueError, match=refused):
            engine.add_activity(bad)
    assert engine.coverage == 40_000
    # a room without participants has no rows to cover ticks with
    engine.leave(0)
    engine.leave(1)
    engine.add_activity(np.ones((0, 100), dtype=bool))
    assert engine.coverage == 40_000


def test_a_list_of_rows_bins_as_its_stacked_array():
    """The same room fed as lists of rows and as stacked arrays, in blocks
    of uneven length, bins every ordered pair to the same bits."""
    rng = np.random.default_rng(29)
    bits = np.repeat(rng.random((3, 9_000)) < 0.4, 10, axis=1)
    streams = {pid: ActivityStream(pid, bits=row) for pid, row in enumerate(bits)}
    views = utterance_views({pid: segment(s) for pid, s in streams.items()})
    as_lists = FeatureEngine([0, 1, 2], views, DEFAULT, step_ms=30)
    as_arrays = FeatureEngine([0, 1, 2], views, DEFAULT, step_ms=30)
    fed = 0
    for n in (20, 7, 2_000, 0, 1, 31_972, 20, 55_980):
        block = bits[:, fed : fed + n]
        as_lists.add_activity(list(block))
        as_arrays.add_activity(block.copy())
        fed += n
        ticks = np.arange(fed // 30 * 30, 0, -30)[:40][::-1]
        if len(ticks):
            assert as_lists.binned(ticks).tobytes() == as_arrays.binned(ticks).tobytes()
    assert as_lists.coverage == as_arrays.coverage == bits.shape[1]


def test_engine_rejects_instants_it_no_longer_holds():
    engine = FeatureEngine([0, 1], {0: lambda: ([], []), 1: lambda: ([], [])}, DEFAULT)
    engine.add_activity(np.ones((2, 40_000), dtype=bool))
    engine.raw([39_000])
    with pytest.raises(ValueError, match="retained"):
        engine.raw([8_000])
    with pytest.raises(ValueError, match="covered"):
        engine.raw([40_001])
    on_grid = FeatureEngine([0, 1], {0: lambda: ([], []), 1: lambda: ([], [])}, DEFAULT,
                            step_ms=30)
    on_grid.add_activity(np.ones((2, 100), dtype=bool))
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
# a lone member counted through a tick between grid instants, then a joiner:
# as in the tracker, no instant before that tick is read
@example((1, 10, [0], [("feed", 5001), ("read", None), ("join", 1), ("read", None)], 1, 0))
# a room that fell below two members between counts adds a block of no pairs
@example((2, 10, [], [("feed", 1)] * 3 + [("join", 0)] + [("feed", 1)] * 3
          + [("leave", 0), ("feed", 1), ("read", None), ("join", 0), ("join", 1)], 1, 0))
def test_engine_joins_and_leaves_match_a_fresh_engine_over_the_final_room(case):
    for binning in BINNINGS:
        _check_membership_changes(case, binning)


def _check_membership_changes(case, binning):
    start, step, members, ops, tail, seed = case
    rng = np.random.default_rng(seed)
    turns = {p: [(int(s), int(s) + int(d)) for s, d in zip(
        np.sort(rng.choice(150_000, 30, replace=False)), rng.integers(50, 3000, 30))]
        for p in range(5)}
    turns = {p: [iv for i, iv in enumerate(ts) if i == 0 or iv[0] >= ts[i - 1][1]]
             for p, ts in turns.items()}
    views = {p: (lambda s=[a for a, _ in ts], e=[b for _, b in ts]: (s, e))
             for p, ts in turns.items()}

    engine = FeatureEngine(members, {p: views[p] for p in members}, binning,
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
        for part in np.array_split(chunk, int(rng.integers(1, 4)), axis=1):
            engine.add_activity(part)
        for row, pid in enumerate(engine.participants):
            said[pid].append(chunk[row])
        return tick + k

    for kind, arg in ops:
        if kind == "feed":
            tick = feed(arg)
        elif kind == "read":
            due = tick - (tick - start) % step
            # count_through keeps what instants after its tick read, and the
            # tracker reads none before it
            if len(engine.participants) >= 2 and due > start and due >= read:
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

    fresh = FeatureEngine(engine.participants, views, binning, start_tick=start, step_ms=step)
    fresh.add_activity(np.stack([
        np.concatenate([np.zeros(joined_at[pid] - start, dtype=bool), *said[pid]])
        for pid in engine.participants]))
    # grid instants after the last change, and no earlier than the last read
    first = max(last_change + 1, read)
    instants = np.arange(first + (start - first) % step, tick + 1, step)
    if len(instants) == 0:
        return
    got, want = engine.raw(instants), fresh.raw(instants)
    for field in ("gaps", "overlaps", "speech"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
