"""Replaying corpora through the tracker and scoring against derived truth."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace.assigner import (
    FloorAssigner,
    FloorConfiguration,
    _SubsetProgram,
    canonical_partition,
    same_floor,
    score,
    unordered_pairs,
)
from floorspace.corpus import Corpus, GeneratorConfig, TurnRecord, generate
from floorspace.errors import EvaluationError
from floorspace.evaluation import (
    FloorTracker,
    evaluate,
    partition_codes,
    partition_text,
    replay_corpus,
    truth_partitions,
    write_report,
    write_timeline,
)
from floorspace.features import BLOCK_CELLS, FeatureEngine, utterance_views
from floorspace.timeline import floor_labels

from conftest import changes, four_party_config, room_block


def _tracker_views(corpus):
    return utterance_views(corpus.utterances())


# --- derived ground truth ---------------------------------------------------


def walk_truth(corpus, ticks):
    """Per non-decreasing instant, every participant's newest floor label
    (-1 before their first turn) and the truth partition, by one walk over
    the turns in start order with a cursor: each participant holds the
    label of their newest turn begun by the instant, and those yet to
    speak stand alone. ``floor_labels`` and ``truth_partitions`` must
    agree with it."""
    ids = corpus.ids
    participants = sorted(ids.values())
    events = sorted((r.start_ms, ids[r.participant], r.floor_label) for r in corpus.records)
    label = {pid: None for pid in participants}
    cursor = 0
    labels, partitions = [], []
    for t in ticks:
        while cursor < len(events) and events[cursor][0] <= t:
            _, pid, lab = events[cursor]
            label[pid] = lab
            cursor += 1
        blocks = {}
        for pid in participants:
            key = ("solo", pid) if label[pid] is None else ("floor", label[pid])
            blocks.setdefault(key, []).append(pid)
        labels.append([-1 if label[pid] is None else label[pid] for pid in participants])
        partitions.append(canonical_partition(blocks.values()))
    return np.array(labels, dtype=np.int64).reshape(len(ticks), len(participants)), partitions


def truth_at(corpus, ticks):
    ids = sorted(corpus.ids.values())
    return truth_partitions(floor_labels(corpus.utterances(), ids, ticks), ids)


def labels_share_floor(labels):
    """Per row of labels, whether each two participants share a floor."""
    return (labels[:, :, None] >= 0) & (labels[:, :, None] == labels[:, None, :])


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
    assert truth_at(c, [0, 3000, 5500]) == [
        # before anyone speaks: all singletons
        ((0,), (1,), (2,)),
        # a and b share floor 0, c sits alone on floor 1
        ((0, 1), (2,)),
        # b's move to floor 1 regroups the room
        ((0,), (1, 2)),
    ]


def test_truth_changes_exactly_at_turn_starts():
    c = Corpus(
        ["a", "b"],
        [TurnRecord("a", 0, 1000, 0), TurnRecord("b", 2000, 3000, 0)],
        duration_ms=4000,
    )
    assert truth_at(c, [1999, 2000]) == [((0,), (1,)), ((0, 1),)]


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
        labels, partitions = walk_truth(corpus, ticks)
        got = floor_labels(corpus.utterances(), sorted(corpus.ids.values()), ticks)
        assert np.array_equal(labels_share_floor(got), labels_share_floor(labels))
        assert truth_at(corpus, ticks) == partitions


@st.composite
def labeled_rooms(draw):
    """Up to five participants, some silent, with turns on a 100 ms grid
    so that several start at the same tick, and labels from three floors."""
    names = "abcde"[: draw(st.integers(1, 5))]
    turns = []
    for name in names:
        t = 0
        for _ in range(draw(st.integers(0, 4))):
            t += 100 * draw(st.integers(0, 5))
            end = t + 100 * draw(st.integers(1, 4)) - draw(st.sampled_from([0, 1, 50]))
            turns.append((name, t, end, draw(st.integers(0, 2))))
            t = end
    # labels must be contiguous: number the ones drawn in order
    rank = {lab: k for k, lab in enumerate(sorted({lab for *_, lab in turns}))}
    records = [TurnRecord(name, s, e, rank[lab]) for name, s, e, lab in turns]
    duration = max((e for _, _, e, _ in turns), default=0) + draw(st.integers(0, 200))
    return Corpus(list(names), records, duration_ms=duration)


@settings(max_examples=80, deadline=None)
@given(labeled_rooms())
def test_floor_labels_truth_and_oracle_rows_agree_with_the_walk(floor_model, corpus):
    ids = sorted(corpus.ids.values())
    ticks = np.arange(corpus.duration_ms + 1)
    want, partitions = walk_truth(corpus, ticks)
    got = floor_labels(corpus.utterances(), ids, ticks)
    assert got.shape == want.shape
    assert np.array_equal(got < 0, want < 0)
    assert np.array_equal(labels_share_floor(got), labels_share_floor(want))
    assert truth_partitions(got, ids) == partitions

    result = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    assert result.truth == [partitions[t] for t in result.ticks.tolist()]
    if result.truth:
        index = {}
        codes = partition_codes(result.truth, index)
        rows = np.array([same_floor(part, result.participants) for part in index])[codes]
        assert np.array_equal(result.posteriors, rows)


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


def _two_party_corpus(seed, duration_ms):
    together, apart = ((0, 1),), ((0,), (1,))
    schedule = [(t, together if i % 2 == 0 else apart)
                for i, t in enumerate(range(0, duration_ms, 60_000))]
    return generate(GeneratorConfig(participants=2, duration_ms=duration_ms,
                                    schedule=schedule, seed=seed))


def test_tracker_chunking_does_not_change_the_outcome(floor_model, periods):
    # each runs past its room's block span: 70.4 s at four, 422.4 s at two
    for corpus in (generate(four_party_config(seed=44, duration_ms=90_000, epoch_ms=45_000)),
                   _two_party_corpus(seed=45, duration_ms=480_000)):
        _check_chunking(corpus, floor_model, periods)


def _check_chunking(corpus, floor_model, periods):
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()

    batch = FloorTracker(ids, floor_model, _tracker_views(corpus))
    span = batch.span
    assert corpus.duration_ms > span
    batch.add_activity(room_block(streams, ids))
    batch.process_due()

    # room blocks of one tick, of a frame or so, and across the block span
    rng = np.random.default_rng(3)
    chunked = FloorTracker(ids, floor_model, _tracker_views(corpus))
    while chunked.coverage < corpus.duration_ms:
        lo = chunked.coverage
        n = int(rng.choice([1, rng.integers(1, 100), rng.integers(1, 2 * span)]))
        chunked.add_activity(room_block(streams, ids, lo, lo + n))
        chunked.process_due()

    chunked, batch = periods[chunked], periods[batch]
    assert chunked.ticks == batch.ticks
    assert [c.partition for c in chunked.configs] == [c.partition for c in batch.configs]
    assert _score_bits(chunked) == _score_bits(batch)
    assert np.array_equal(
        np.vstack(chunked.posteriors), np.vstack(batch.posteriors)
    )


def test_the_tracker_decides_its_periods_in_blocks_of_the_engine_span(
        floor_model, monkeypatch):
    corpus = generate(four_party_config(seed=44, duration_ms=150_000, epoch_ms=45_000))
    ids = sorted(corpus.ids.values())
    tracker = FloorTracker(ids, floor_model, _tracker_views(corpus))
    blocks = []
    binned = FeatureEngine.binned
    monkeypatch.setattr(FeatureEngine, "binned",
                        lambda self, ticks: blocks.append(len(ticks)) or binned(self, ticks))
    tracker.add_activity(room_block(corpus.streams(), ids))
    tracker.process_due()
    # four members' six pair rows fill the budget in 70 400 ms: 2 346 periods
    per_block = BLOCK_CELLS // 6 // 30
    assert blocks == [per_block, per_block, 5000 - 2 * per_block]


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
        tracker.add_activity(room_block(streams, ids, lo, lo + 20))
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


@pytest.mark.parametrize("n, feed", [
    pytest.param(4, "whole", id="4"),
    pytest.param(8, "whole", id="8"),
    pytest.param(9, "chunks", id="9-chunks"),
    pytest.param(10, "whole", id="10"),
    pytest.param(4, "pinned", id="4-pinned"),
    pytest.param(10, "pinned", id="10-pinned"),
    pytest.param(4, "chunks", id="4-chunks"),
    pytest.param(8, "chunks", id="8-chunks"),
    pytest.param(10, "chunks", id="10-chunks"),
])
def test_a_primed_replay_decides_like_assign_on_plain_dicts(floor_model, periods, n, feed):
    # each block of periods is decided by one assign_block, which reads
    # runs of repeated rows off one search; each period must decide, score and count
    # exactly like one assign per period on a dict, in rooms of every size
    # up to ten
    floors = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    room = (tuple(range(n)),)
    corpus = generate(GeneratorConfig(
        participants=n, duration_ms=20_000,
        schedule=[(0, floors), (5_000, room), (10_000, floors), (15_000, room)], seed=50,
    ))
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    tracker = FloorTracker(ids, floor_model, _tracker_views(corpus))
    reference = FloorAssigner()
    if feed == "pinned":
        for a in (tracker.assigner, reference):
            a.pin(floors, owner="host", participants=ids)
    # 700 ms chunks end blocks inside runs of repeated rows
    step = 700 if feed == "chunks" else corpus.duration_ms
    for lo in range(0, corpus.duration_ms, step):
        tracker.add_activity(room_block(streams, ids, lo, lo + step))
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
    assert (got.searched, got.reused) == (reference.searched, reference.reused)
    assert got.previous == reference.previous
    if feed == "pinned":
        assert {c.partition for c in want} == {floors}
        assert reference.searched + reference.reused == 0
    else:
        assert reference.reused > 0 and reference.searched > 0
    if feed == "whole":
        result = replay_corpus(corpus, floor_model)
        assert result.chosen == [c.partition for c in want]
        assert result.scores.tobytes() == np.array([c.score for c in want]).tobytes()


def _hook_corpus(n):
    if n == 4:
        return generate(four_party_config(seed=47, duration_ms=90_000, epoch_ms=30_000))
    pairs = tuple((2 * i, 2 * i + 1) for i in range(5))
    halves = (tuple(range(5)), tuple(range(5, 10)))
    return generate(GeneratorConfig(
        participants=10, duration_ms=20_000, schedule=[(0, pairs), (10_000, halves)], seed=48,
    ))


@pytest.mark.parametrize("n", [4, 10])
def test_replay_decides_and_searches_each_block_inside_assign(floor_model, monkeypatch, n):
    # the benchmark's tracer times FloorAssigner.assign, and its fault
    # injection alters what assign returns: every block's first decision
    # must be what an assign call returned, and every search must run
    # inside an assign call, also where a block starts with the last row
    assign, solve, assign_block = (
        FloorAssigner.assign, _SubsetProgram.solve, FloorAssigner.assign_block)
    inside, outside, returned, blocks = [0], [], {}, []

    def traced_assign(self, posteriors, participants, now_ms):
        inside[0] += 1
        try:
            cfg = assign(self, posteriors, participants, now_ms)
        finally:
            inside[0] -= 1
        returned[now_ms] = cfg
        return cfg

    def traced_solve(self, w):
        if not inside[0]:
            outside.append(w.shape)
        return solve(self, w)

    def traced_block(self, ids, rows, runs, now_ms):
        blocks.append((now_ms, rows[0].tobytes(), rows[-1].tobytes()))
        return assign_block(self, ids, rows, runs, now_ms)

    monkeypatch.setattr(FloorAssigner, "assign", traced_assign)
    monkeypatch.setattr(_SubsetProgram, "solve", traced_solve)
    monkeypatch.setattr(FloorAssigner, "assign_block", traced_block)
    corpus = _hook_corpus(n)
    repeats = 0
    for oracle in (False, True):
        returned.clear()
        blocks.clear()
        result = replay_corpus(corpus, floor_model, oracle_posteriors=oracle)
        at = {t: i for i, t in enumerate(result.ticks.tolist())}
        # every block's first decision and every change come from assign,
        # and what each assign call returned is what the replay chose
        assert len(blocks) > 1 and {t for t, _, _ in blocks} <= set(returned)
        assert {e.tick for e in result.events} <= set(returned)
        for t, cfg in returned.items():
            assert result.chosen[at[t]] is cfg.partition
        assert outside == []
        repeats += sum(first == last for (_, first, _), (_, _, last) in zip(blocks[1:], blocks))
    assert repeats > 0

    def altered(self, posteriors, participants, now_ms):
        cfg = assign(self, posteriors, participants, now_ms)
        ids = tuple(sorted(participants))
        other = (ids,) if cfg.partition == tuple((m,) for m in ids) else tuple((m,) for m in ids)
        return FloorConfiguration(other, score(other, posteriors))

    monkeypatch.setattr(FloorAssigner, "assign", altered)
    changed = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    firsts = [at[t] for t, _, _ in blocks]
    assert all(changed.chosen[i] != result.chosen[i] for i in firsts)


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
    looked_up = []

    def counted(utterances, ids, ticks):
        looked_up.append(len(ticks))
        return floor_labels(utterances, ids, ticks)

    monkeypatch.setattr("floorspace.evaluation.floor_labels", counted)
    periods = len(replay_corpus(eval_corpus, floor_model).ticks)
    assert looked_up == [periods]
    # oracle posteriors read each block's labels once, then the truth all of them
    looked_up.clear()
    replay_corpus(eval_corpus, floor_model, oracle_posteriors=True)
    assert len(looked_up) > 2
    assert looked_up[-1] == periods and sum(looked_up) == 2 * periods


def test_tracker_first_eval_skips_history(floor_model, periods):
    corpus = generate(four_party_config(seed=45, duration_ms=60_000, epoch_ms=30_000))
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    # a tracker started late evaluates from the first period after its start
    tracker = FloorTracker(ids, floor_model, _tracker_views(corpus), start_tick=10_000)
    tracker.add_activity(room_block(streams, ids, 10_000))
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
        lone.add_activity(room_block(bits, [0], lo, lo + 20))
        assert lone.process_due().ticks == []
        assert max(len(s) for s in lone.streams.values()) <= 20
    assert lone.ticks == []
    # alone, it needs its two newest turns begun before now, where a
    # joiner's turns will start
    begun = [s for s in views[0]()[0] if s < 40_000]
    assert lone.oldest_needed == {0: begun[-2]}
    lone.join(1, views[1])
    for lo in range(40_000, 42_000, 20):
        lone.add_activity(room_block(bits, [0, 1], lo, lo + 20))
        lone.process_due()

    full = FloorTracker([0, 1], floor_model, {p: views[p] for p in (0, 1)}, start_tick=0)
    full.add_activity(np.stack([bits[0].bits[:42_000], np.concatenate(
        [np.zeros(40_000, dtype=bool), bits[1].bits[40_000:42_000]])]))
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
    flat = lambda ticks: np.full((len(ticks), 6), 0.5)
    ids = sorted(corpus.ids.values())
    streams = corpus.streams()
    tracker = FloorTracker(
        ids, floor_model, _tracker_views(corpus), posterior_override=flat
    )
    tracker.add_activity(room_block(streams, ids))
    due = tracker.process_due()
    assert all(c.partition == ((0, 1, 2, 3),) for c in due.configs)
