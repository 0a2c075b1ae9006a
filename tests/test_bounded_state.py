"""The live room's state does not grow with the time it is open.

A room is fed in chunks as the pump feeds it: every member's activity
to its online segmenter and, as one block, to the room's tracker; then
each view forgets the turns the tracker says no later period reads.
What the tracker, the views and the engine hold after ten minutes is
what they held after one. The one thing a live room keeps that does
grow is ``RealtimeServer.events``, one entry per configuration change.
"""

import numpy as np

from floorspace.corpus import GeneratorConfig, generate
from floorspace.evaluation import FloorTracker
from floorspace.features import NO_GAP, FeatureEngine, trp_gap_from_arrays
from floorspace.segmenter import OnlineSegmenter
from floorspace.timeline import ActivityStream

from conftest import segment


def room_bits(n, duration_ms, seed):
    pairs = tuple((2 * i, 2 * i + 1) for i in range(n // 2))
    corpus = generate(GeneratorConfig(
        participants=n, duration_ms=duration_ms, schedule=[(0, pairs)], seed=seed))
    streams = corpus.streams()
    return np.stack([streams[p].bits for p in range(n)])


def chunked_room(model, bits, chunk_ms, leaver, leave_at, rejoin_at):
    """Yield (covered tick, tracker, segmenters) after every chunk.

    ``leaver`` leaves at ``leave_at`` and comes back at ``rejoin_at``
    with a new segmenter, as a rejoining session does.
    """
    n, duration = bits.shape
    segmenters = {p: OnlineSegmenter(p, 0) for p in range(n)}
    tracker = FloorTracker(range(n), model, {p: s.view for p, s in segmenters.items()})
    for lo in range(0, duration, chunk_ms):
        if lo == leave_at:
            tracker.leave(leaver)
            del segmenters[leaver]
        if lo == rejoin_at:
            segmenters[leaver] = OnlineSegmenter(leaver, lo)
            tracker.join(leaver, segmenters[leaver].view)
        block = bits[list(tracker.participants), lo : lo + chunk_ms]
        for p, row in zip(tracker.participants, block):
            segmenters[p].feed(row)
        tracker.add_activity(block)
        tracker.process_due()
        # what the pump does after every frame
        for p, start in tracker.oldest_needed.items():
            segmenters[p].forget(start)
        yield lo + chunk_ms, tracker, segmenters


def retained(tracker, segmenters):
    return {
        "ticks": len(tracker.ticks),
        "configs": len(tracker.configs),
        "bits": tracker._bits.shape,
        "cum": tracker._cum.shape,
        "views": {p: len(s.view()[0]) for p, s in segmenters.items()},
    }


def test_what_a_room_retains_after_ten_minutes_is_what_it_retained_after_one(floor_model):
    minute = 60_000
    bits = room_bits(6, 10 * minute, seed=61)
    sizes = {}
    for covered, tracker, segmenters in chunked_room(
            floor_model, bits, 1000, leaver=2, leave_at=3 * minute, rejoin_at=4 * minute):
        if covered in (minute, 10 * minute):
            sizes[covered] = retained(tracker, segmenters)
    early, late = sizes[minute], sizes[10 * minute]
    assert early["ticks"] == late["ticks"] == 1
    assert early["configs"] == late["configs"] == 1
    assert early["bits"] == late["bits"] and early["cum"] == late["cum"]
    # a view holds two turns and those begun since the others last began
    for p in range(6):
        assert abs(late["views"][p] - early["views"][p]) <= 3, (p, early, late)
        assert late["views"][p] <= 6


def test_the_engines_gaps_over_kept_turns_equal_those_over_every_turn(floor_model, monkeypatch):
    """Every period's gaps, with views that forget, equal the gap over
    the whole prefix segmented at once. One member is silent for 60 s,
    longer than the 30 s lookback, and one leaves and rejoins."""
    n, duration = 4, 200_000
    bits = room_bits(n, duration, seed=62)
    bits[3, 40_000:100_000] = False
    leaver, leave_at, rejoin_at = 1, 120_000, 150_000

    calls = []
    gaps = FeatureEngine._gaps

    def recorded(self, t):
        out = gaps(self, t)
        calls.append((self.coverage, self.participants, t.tolist(), out))
        return out

    monkeypatch.setattr(FeatureEngine, "_gaps", recorded)
    for _, tracker, segmenters in chunked_room(
            floor_model, bits, 600, leaver, leave_at, rejoin_at):
        pass

    def turns(p, upto):
        start = rejoin_at if p == leaver and upto > rejoin_at else 0
        utts = segment(ActivityStream(p, start, bits=bits[p, start:upto]))
        return [u.start for u in utts], [u.end for u in utts]

    # the views forgot most turns
    kept = sum(len(s.view()[0]) for s in segmenters.values())
    assert 4 * kept < sum(len(turns(p, duration)[0]) for p in range(n))

    checked = 0
    for upto, ids, ticks, got in calls:
        views = {p: turns(p, upto) for p in ids}
        order = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        order += [(b, a) for a, b in order]
        for t, row in zip(ticks, got):
            want = [trp_gap_from_arrays(views[a][0], *views[b], t) for a, b in order]
            assert row.tolist() == [NO_GAP if g is None else g for g in want], (upto, t)
            checked += 1
    assert checked == duration // 30
