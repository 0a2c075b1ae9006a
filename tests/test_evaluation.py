"""Replaying corpora through the tracker and scoring against derived truth."""

import json

import numpy as np
import pytest

from floorspace.assigner import DENSE_MEMBERS, FloorAssigner, unordered_pairs
from floorspace.corpus import Corpus, GeneratorConfig, TurnRecord, generate
from floorspace.errors import EvaluationError
from floorspace.evaluation import (
    FloorTracker,
    TruthTracker,
    evaluate,
    partition_codes,
    partition_text,
    replay_corpus,
    write_report,
    write_timeline,
)

from conftest import changes, four_party_config


def _tracker_views(corpus):
    views = {}
    for pid, utts in corpus.utterances().items():
        starts = [u.start for u in utts]
        ends = [u.end for u in utts]
        views[pid] = lambda s=starts, e=ends: (s, e)
    return views


# --- derived ground truth ---------------------------------------------------


def test_truth_groups_by_most_recent_label():
    c = Corpus(
        ["a", "b", "c"],
        [
            TurnRecord("a", 0, 1000, 0),
            TurnRecord("b", 1100, 2000, 0),
            TurnRecord("c", 500, 1500, 1),
            TurnRecord("b", 4000, 5000, 1),
        ],
        duration_ms=6000,
    )
    truth = TruthTracker(c)
    # before anyone speaks: all singletons
    assert truth.partition_at(0) == ((0,), (1,), (2,))
    # a and b share floor 0, c sits alone on floor 1
    assert truth.partition_at(3000) == ((0, 1), (2,))
    # b's move to floor 1 regroups the room
    assert truth.partition_at(5500) == ((0,), (1, 2))


def test_truth_changes_exactly_at_turn_starts():
    c = Corpus(
        ["a", "b"],
        [TurnRecord("a", 0, 1000, 0), TurnRecord("b", 2000, 3000, 0)],
        duration_ms=4000,
    )
    truth = TruthTracker(c)
    assert truth.partition_at(1999) == ((0,), (1,))
    assert truth.partition_at(2000) == ((0, 1),)


def test_truth_timeline_matches_the_per_instant_walk(eval_corpus):
    same_tick = Corpus(
        ["a", "b", "c", "d"],
        [
            TurnRecord("a", 0, 900, 0),
            TurnRecord("b", 0, 800, 1),
            TurnRecord("c", 990, 1500, 0),
            TurnRecord("d", 990, 1600, 0),
            TurnRecord("b", 990, 2000, 0),
            TurnRecord("a", 2000, 2500, 1),
            TurnRecord("c", 2010, 2600, 1),
        ],
        duration_ms=3000,
    )
    for corpus, ticks in (
        (same_tick, list(range(0, 3000, 30)) + [3000, 3000]),
        (same_tick, [5, 989, 990, 990, 991, 2000, 2009, 2010]),
        (same_tick, []),
        (eval_corpus, list(range(30, eval_corpus.duration_ms + 1, 30))),
    ):
        walk = TruthTracker(corpus)
        assert TruthTracker(corpus).partitions_at(ticks) == [walk.partition_at(t) for t in ticks]


# --- replay -----------------------------------------------------------------


def test_oracle_posteriors_track_truth_exactly(eval_corpus, floor_model):
    report, result = evaluate(eval_corpus, floor_model, oracle_posteriors=True)
    assert report.oracle_posteriors
    assert report.configuration_accuracy == 1.0
    assert report.pairwise_accuracy == 1.0


def test_replay_is_deterministic(eval_corpus, floor_model):
    a = replay_corpus(eval_corpus, floor_model)
    b = replay_corpus(eval_corpus, floor_model)
    assert a.chosen == b.chosen
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.posteriors, b.posteriors)
    assert [(e.tick, e.partition) for e in a.events] == [
        (e.tick, e.partition) for e in b.events
    ]


def test_replay_covers_every_evaluation_period(eval_corpus, floor_model):
    result = replay_corpus(eval_corpus, floor_model)
    assert result.ticks[0] == 30
    assert result.ticks[-1] == eval_corpus.duration_ms - eval_corpus.duration_ms % 30
    assert np.all(np.diff(result.ticks) == 30)
    assert len(result.chosen) == len(result.ticks) == len(result.truth)
    assert result.posteriors.shape == (len(result.ticks), len(result.pairs))


def test_replay_posteriors_are_probabilities(eval_corpus, floor_model):
    result = replay_corpus(eval_corpus, floor_model)
    assert np.all(result.posteriors >= 0.0)
    assert np.all(result.posteriors <= 1.0)


def test_tracker_chunking_does_not_change_the_outcome(floor_model, periods):
    corpus = generate(four_party_config(seed=44, duration_ms=90_000, epoch_ms=45_000))
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()

    batch = FloorTracker(ids, floor_model, _tracker_views(corpus))
    for pid in ids:
        batch.add_activity(pid, streams[pid].bits)
    batch.process_due()

    rng = np.random.default_rng(3)
    chunked = FloorTracker(ids, floor_model, _tracker_views(corpus))
    fed = {pid: 0 for pid in ids}
    while any(fed[pid] < corpus.duration_ms for pid in ids):
        pid = ids[int(rng.integers(len(ids)))]
        n = int(rng.integers(1, 5000))
        lo = fed[pid]
        hi = min(lo + n, corpus.duration_ms)
        if lo < hi:
            chunked.add_activity(pid, streams[pid].bits[lo:hi])
            fed[pid] = hi
        chunked.process_due()

    chunked, batch = periods[chunked], periods[batch]
    assert chunked.ticks == batch.ticks
    assert [c.partition for c in chunked.configs] == [c.partition for c in batch.configs]
    assert _score_bits(chunked) == _score_bits(batch)
    assert np.array_equal(
        np.vstack(chunked.posteriors), np.vstack(batch.posteriors)
    )


def _score_bits(log):
    return np.array([c.score for c in log.configs], dtype=np.float64).tobytes()


def test_ten_person_tracker_decides_like_assign_on_plain_dicts(floor_model, periods):
    # a live room's chunking: every participant's 20 ms frame, then the
    # due periods; the tracker's row views must decide exactly like
    # one assign per period on a dict of Python floats
    pairs = tuple((2 * i, 2 * i + 1) for i in range(5))
    halves = (tuple(range(5)), tuple(range(5, 10)))
    corpus = generate(GeneratorConfig(
        participants=10, duration_ms=24_000, schedule=[(0, pairs), (12_000, halves)], seed=46,
    ))
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    tracker = FloorTracker(ids, floor_model, _tracker_views(corpus))
    for lo in range(0, corpus.duration_ms, 20):
        for pid in ids:
            tracker.add_activity(pid, streams[pid].bits[lo:lo + 20])
        tracker.process_due()

    tracker = periods[tracker]
    assert tracker.ticks[-1] == corpus.duration_ms
    reference = FloorAssigner()
    keys = unordered_pairs(ids)
    want = [
        reference.assign(dict(zip(keys, p.tolist())), ids, now_ms=t)
        for t, p in zip(tracker.ticks, tracker.posteriors)
    ]
    assert [c.partition for c in tracker.configs] == [c.partition for c in want]
    assert _score_bits(tracker) == np.array([c.score for c in want]).tobytes()
    assert len({c.partition for c in want}) > 1


@pytest.mark.parametrize("n, dwell_ms, feed", [
    pytest.param(4, 0, "whole", id="4"),
    pytest.param(8, 0, "whole", id="8"),
    pytest.param(10, 0, "whole", id="10"),
    pytest.param(4, 600, "whole", id="4-dwell"),
    pytest.param(8, 600, "whole", id="8-dwell"),
    pytest.param(10, 600, "whole", id="10-dwell"),
    pytest.param(4, 600, "pinned", id="4-dwell-pinned"),
    pytest.param(10, 0, "pinned", id="10-pinned"),
    pytest.param(4, 600, "chunks", id="4-dwell-chunks"),
    pytest.param(8, 0, "chunks", id="8-chunks"),
    pytest.param(10, 600, "chunks", id="10-dwell-chunks"),
])
def test_a_primed_replay_decides_like_assign_on_plain_dicts(floor_model, periods, n, dwell_ms, feed):
    # whole blocks of periods are primed and each run of repeated rows is
    # decided by one assign_run; each period must decide, score and count
    # exactly like one assign per period on a dict. Rooms of ten take the
    # margin check and the full search; a 600 ms dwell holds switches, and
    # at n=4 one hold expires inside a run of repeated rows
    floors = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    room = (tuple(range(n)),)
    corpus = generate(GeneratorConfig(
        participants=n, duration_ms=20_000,
        schedule=[(0, floors), (5_000, room), (10_000, floors), (15_000, room)], seed=50,
    ))
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    tracker = FloorTracker(ids, floor_model, _tracker_views(corpus),
                           assigner=FloorAssigner(dwell_ms=dwell_ms))
    reference = FloorAssigner(dwell_ms=dwell_ms)
    if feed == "pinned":
        for a in (tracker.assigner, reference):
            a.pin(floors, owner="host", participants=ids)
    # 700 ms chunks end blocks inside runs of repeated rows
    step = 700 if feed == "chunks" else corpus.duration_ms
    for lo in range(0, corpus.duration_ms, step):
        for pid in ids:
            tracker.add_activity(pid, streams[pid].bits[lo:lo + step])
        tracker.process_due()

    log = periods[tracker]
    keys = unordered_pairs(ids)
    want = [
        reference.assign(dict(zip(keys, p.tolist())), ids, now_ms=t)
        for t, p in zip(log.ticks, log.posteriors)
    ]
    assert log.ticks[-1] == corpus.duration_ms - corpus.duration_ms % 30
    assert [c.partition for c in log.configs] == [c.partition for c in want]
    assert _score_bits(log) == np.array([c.score for c in want]).tobytes()
    assert [(e.tick, e.partition) for e in log.events] == changes(log.ticks, want)
    got = tracker.assigner
    assert ((got.searched, got.certified, got.reused)
            == (reference.searched, reference.certified, reference.reused))
    assert (got._clock, got._last_change, got.previous) == (
        reference._clock, reference._last_change, reference.previous)
    if feed == "pinned":
        assert {c.partition for c in want} == {floors}
        assert reference.searched + reference.certified + reference.reused == 0
    else:
        assert reference.reused > 0 and reference.searched > 0
        assert (reference.certified > 0) == (n > DENSE_MEMBERS)
    if n == 4 and dwell_ms and feed != "pinned":
        # a switch where the row did not change: a hold that expired mid-run
        rows = np.vstack(log.posteriors)
        moved = [log.ticks.index(e.tick) for e in log.events[1:]]
        assert any(rows[i].tobytes() == rows[i - 1].tobytes() for i in moved)
    if feed == "whole":
        result = replay_corpus(corpus, floor_model, dwell_ms=dwell_ms)
        assert result.chosen == [c.partition for c in want]
        assert result.scores.tobytes() == np.array([c.score for c in want]).tobytes()


def test_partition_codes_number_runs_like_one_lookup_per_period():
    a, b, c = ((0, 1), (2,)), ((0,), (1, 2)), ((0, 1, 2),)
    periods = [a, a, tuple(a), b, b, a, c, c, c, b]
    index = {c: 0}
    want = dict(index)
    assert partition_codes(periods, index).tolist() == [
        want.setdefault(p, len(want)) for p in periods
    ]
    assert index == want
    assert partition_codes([], index).tolist() == []


def test_replay_derives_the_truth_once_without_oracle_posteriors(
    eval_corpus, floor_model, monkeypatch
):
    built = []

    class Counted(TruthTracker):
        def __init__(self, corpus):
            built.append(corpus)
            super().__init__(corpus)

    monkeypatch.setattr("floorspace.evaluation.TruthTracker", Counted)
    replay_corpus(eval_corpus, floor_model)
    assert len(built) == 1
    replay_corpus(eval_corpus, floor_model, oracle_posteriors=True)
    assert len(built) == 3


def test_tracker_first_eval_skips_history(floor_model, periods):
    corpus = generate(four_party_config(seed=45, duration_ms=60_000, epoch_ms=30_000))
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    # a tracker started late evaluates from the first period after its start
    tracker = FloorTracker(ids, floor_model, _tracker_views(corpus), start_tick=10_000)
    for pid in ids:
        tracker.add_activity(pid, streams[pid].bits[10_000:])
    tracker.process_due()
    ticks = periods[tracker].ticks
    assert ticks[0] == 10_020  # next period boundary after 10 s
    assert np.all(np.diff(ticks) == 30)


def test_a_lone_participant_is_tracked_but_not_decided(floor_model, periods):
    """Alone, a participant's activity is counted but no period runs; a
    second joiner's first period is the first after it joined, and the
    periods from there equal those of a tracker fed everything."""
    corpus = generate(four_party_config(seed=46, duration_ms=50_000, epoch_ms=25_000))
    bits = corpus.streams()
    views = _tracker_views(corpus)
    lone = FloorTracker([0], floor_model, {0: views[0]}, start_tick=0)
    for lo in range(0, 40_000, 20):
        lone.add_room_activity(bits[0].bits[None, lo : lo + 20])
        assert lone.process_due(lo + 20).ticks == []
        assert max(len(s) for s in lone.streams.values()) <= 20
    assert lone.ticks == []
    # alone, it needs its two newest turns begun before now, where a
    # joiner's turns will start
    begun = [s for s in views[0]()[0] if s < 40_000]
    assert lone.oldest_needed == {0: begun[-2]}
    lone.join(1, views[1])
    for lo in range(40_000, 42_000, 20):
        lone.add_room_activity(np.stack([bits[p].bits[lo : lo + 20] for p in (0, 1)]))
        lone.process_due(lo + 20)

    full = FloorTracker([0, 1], floor_model, {p: views[p] for p in (0, 1)}, start_tick=0)
    full.add_activity(0, bits[0].bits[:42_000])
    full.add_activity(1, np.concatenate([np.zeros(40_000, dtype=bool),
                                         bits[1].bits[40_000:42_000]]))
    full.process_due()
    lone, full = periods[lone], periods[full]
    since = [i for i, t in enumerate(full.ticks) if t > 40_000]
    assert lone.ticks == [full.ticks[i] for i in since] and lone.ticks[0] == 40_020
    assert np.array_equal(np.vstack(lone.posteriors), np.vstack([full.posteriors[i] for i in since]))


# --- evaluation reports -----------------------------------------------------


def test_trained_model_beats_chance_on_held_out_data(eval_corpus, floor_model):
    report, _ = evaluate(eval_corpus, floor_model)
    assert report.pairwise_accuracy > 0.7
    assert report.configuration_accuracy > 0.5
    assert report.steady_periods > 0
    c = report.confusion
    total = sum(c.values())
    assert total == report.steady_periods * 6  # four participants: six pairs


def test_report_serializes(tmp_path, eval_corpus, floor_model):
    report, result = evaluate(eval_corpus, floor_model)
    rp = tmp_path / "report.json"
    tp = tmp_path / "timeline.tsv"
    write_report(str(rp), report)
    write_timeline(str(tp), result)
    doc = json.loads(rp.read_text())
    assert doc["pairwise_accuracy"] == report.pairwise_accuracy
    assert doc["periods"] == report.periods
    lines = tp.read_text().splitlines()
    assert lines[0] == "tick_ms\tchosen\ttruth"
    assert len(lines) == 1 + len(result.ticks)
    text = report.to_text()
    assert "pairwise accuracy" in text
    assert "configuration accuracy" in text


def test_partition_text_format():
    assert partition_text(((0, 1), (2, 3))) == "0,1|2,3"
    assert partition_text(((0,),)) == "0"
    assert partition_text(()) == ""


def test_short_corpus_is_rejected(floor_model):
    c = Corpus(["a", "b"], [TurnRecord("a", 0, 1000, 0)], duration_ms=20_000)
    with pytest.raises(EvaluationError):
        evaluate(c, floor_model)


def test_flat_posteriors_fall_back_to_one_floor(floor_model):
    corpus = generate(four_party_config(seed=46, duration_ms=45_000, epoch_ms=45_000))
    flat = lambda t: {pair: 0.5 for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    tracker = FloorTracker(
        ids, floor_model, _tracker_views(corpus), posterior_override=flat
    )
    for pid in ids:
        tracker.add_activity(pid, streams[pid].bits)
    due = tracker.process_due()
    assert all(c.partition == ((0, 1, 2, 3),) for c in due.configs)


def test_dwell_reduces_configuration_changes(eval_corpus, floor_model):
    free = replay_corpus(eval_corpus, floor_model, dwell_ms=0)
    held = replay_corpus(eval_corpus, floor_model, dwell_ms=600)
    assert len(held.events) <= len(free.events)
