"""Partition enumeration, configuration scoring, and the period assigner."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floorspace.assigner import (
    DENSE_MEMBERS,
    EVAL_PERIOD_MS,
    FloorAssigner,
    FloorConfiguration,
    MAX_PARTICIPANTS,
    NORMAL_GAIN,
    PairRow,
    QUIET_GAIN,
    TIE_TOLERANCE,
    _Level,
    _TieSet,
    _dense,
    _level,
    _partition_at,
    _partitions_of_range,
    _scorer,
    bell_number,
    build_scorers,
    canonical_partition,
    enumerate_partitions,
    gains,
    pair_key,
    score,
    unordered_pairs,
)
from floorspace.errors import CapacityError, ConfigError, PinPermissionError

from conftest import changes

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def rgs_partitions(n):
    """Every partition of range(n) via restricted growth strings."""
    out = []

    def rec(prefix, top):
        if len(prefix) == n:
            blocks = {}
            for i, v in enumerate(prefix):
                blocks.setdefault(v, []).append(i)
            out.append(tuple(tuple(b) for b in blocks.values()))
            return
        for v in range(top + 2):
            rec(prefix + [v], max(top, v))

    rec([], -1)
    return out


def score_oracle(partition, posteriors):
    members = sorted(m for b in partition for m in b)
    pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1 :]]
    if not pairs:
        return 0.5
    total = 0.0
    for a, b in pairs:
        same = any(a in blk and b in blk for blk in partition)
        p = posteriors[(a, b)]
        total += p if same else 1.0 - p
    return total / len(pairs)


def assign_oracle(posteriors, ids, previous=None):
    parts = enumerate_partitions(ids)
    scored = [(score_oracle(p, posteriors), p) for p in parts]
    best = max(s for s, _ in scored)
    tied = [p for s, p in scored if s == best]
    if previous in tied:
        return previous
    return min(tied, key=lambda p: (len(p), p))


def random_posteriors(rng, ids):
    return {k: float(rng.random()) for k in unordered_pairs(ids)}


# --- enumeration ------------------------------------------------------------


def test_partition_counts_match_bell_numbers():
    for n in range(0, 9):
        assert bell_number(n) == BELL[n]
        assert len(enumerate_partitions(range(n))) == BELL[n]


def test_bell_numbers_list_no_partitions():
    _partitions_of_range.cache_clear()
    assert [bell_number(n) for n in range(MAX_PARTICIPANTS + 1)] == BELL
    assert _partitions_of_range.cache_info().currsize == 0
    with pytest.raises(CapacityError):
        bell_number(MAX_PARTICIPANTS + 1)


def test_enumeration_matches_growth_string_construction():
    for n in range(1, 8):
        ours = set(enumerate_partitions(range(n)))
        reference = set(rgs_partitions(n))
        assert ours == reference


def test_partitions_are_canonical_and_unique():
    parts = enumerate_partitions(range(6))
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert p == canonical_partition(p)


def test_enumeration_respects_arbitrary_ids():
    parts = enumerate_partitions([7, 3, 5])
    assert len(parts) == 5
    assert (() if not parts else all(
        sorted(m for b in p for m in b) == [3, 5, 7] for p in parts
    ))


def test_capacity_limit():
    assert MAX_PARTICIPANTS == 10
    with pytest.raises(CapacityError):
        enumerate_partitions(range(11))
    with pytest.raises(CapacityError):
        FloorAssigner().assign(random_posteriors(np.random.default_rng(0), range(11)), range(11))


def test_canonical_partition_sorts_blocks_and_members():
    assert canonical_partition([(2, 1), (0,)]) == ((0,), (1, 2))
    assert canonical_partition([[3], [1, 2]]) == ((1, 2), (3,))


# --- scoring ----------------------------------------------------------------


def test_score_two_party_examples():
    post = {(0, 1): 0.9}
    assert score([(0, 1)], post) == pytest.approx(0.9)
    assert score([(0,), (1,)], post) == pytest.approx(0.1)
    low = {(0, 1): 0.3}
    assert score([(0, 1)], low) == pytest.approx(0.3)
    assert score([(0,), (1,)], low) == pytest.approx(0.7)


def test_score_averages_over_every_pair():
    post = {
        (0, 1): 0.8,
        (2, 3): 0.6,
        (0, 2): 0.5,
        (0, 3): 0.5,
        (1, 2): 0.5,
        (1, 3): 0.5,
    }
    got = score([(0, 1), (2, 3)], post)
    assert got == pytest.approx((0.8 + 0.6 + 4 * 0.5) / 6, abs=1e-12)


def test_score_with_no_pairs_is_neutral():
    assert score([], {}) == 0.5
    assert score([(0,)], {}) == 0.5


def test_score_complement_antisymmetry():
    rng = np.random.default_rng(3)
    ids = list(range(5))
    for _ in range(100):
        post = random_posteriors(rng, ids)
        flipped = {k: 1.0 - v for k, v in post.items()}
        part = enumerate_partitions(ids)[int(rng.integers(0, BELL[5]))]
        assert score(part, post) + score(part, flipped) == pytest.approx(
            1.0, abs=1e-12
        )


def test_score_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        ids = list(range(n))
        post = random_posteriors(rng, ids)
        parts = enumerate_partitions(ids)
        part = parts[int(rng.integers(0, len(parts)))]
        assert score(part, post) == pytest.approx(
            score_oracle(part, post), abs=1e-12
        )


def tie_pick(scorer, ids, rows):
    """The row a tie set over ``rows`` picks with no previous choice."""
    tie = _TieSet(scorer, tuple(ids), rows, np.zeros(len(rows)), 0.0)
    return int(rows[tie.first])


def tie_subsets(rng, scorer):
    """60 sets of rows of random size and order, then every row of each floor count."""
    rows = len(scorer.top.labels)
    for _ in range(60):
        size = int(rng.integers(1, min(rows, 200) + 1))
        yield rng.choice(rows, size, replace=False)
    for floors in np.unique(scorer.top.n_blocks):
        yield np.flatnonzero(scorer.top.n_blocks == floors)


def test_scorer_rows_follow_the_enumeration_and_rank_like_the_tie_rule():
    rng = np.random.default_rng(15)
    for n in range(2, 8):
        ids = list(range(10, 10 + 2 * n, 2))
        parts = enumerate_partitions(ids)
        scorer = _scorer(n)
        assert [scorer.partition(r, ids) for r in range(len(parts))] == parts
        assert [scorer.row_of(part, ids) for part in parts] == list(range(len(parts)))
        for rows in tie_subsets(rng, scorer):
            by_rule = min(rows.tolist(), key=lambda r: (len(parts[r]), parts[r]))
            assert tie_pick(scorer, ids, rows) == by_rule


def rank_oracle(top):
    """Each row's place in the order of (len(part), part), over the whole table at once."""
    labels = top.labels.astype(np.intp)
    rows, n = labels.shape
    order = np.argsort(labels * n + np.arange(n), axis=1, kind="stable")
    block = np.take_along_axis(labels, order, axis=1)
    code = np.zeros((rows, 2 * n), dtype=np.int8)
    code[np.arange(rows)[:, None], np.arange(n) + block] = order + 1
    keys = [code[:, c] for c in range(2 * n - 1, -1, -1)] + [top.n_blocks]
    rank = np.empty(rows, dtype=np.intp)
    rank[np.lexsort(keys)] = np.arange(rows)
    return rank


def mask_oracle(level):
    """``_Level.mask`` computed over the whole table at once."""
    x = level.labels.shape[1] - 1
    same = level.labels[:, :x] == level.labels[:, x:]
    return same.astype(np.intp) @ (1 << np.arange(x, dtype=np.intp))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_tables_built_in_chunks_equal_the_whole_table_formulas(n):
    scorer = _scorer(n)
    rank = rank_oracle(scorer.top)
    ids = list(range(3, 3 + n))
    for rows in tie_subsets(np.random.default_rng(n), scorer):
        assert tie_pick(scorer, ids, rows) == rows[np.argmin(rank[rows])]
    every = np.arange(len(rank))
    assert scorer.partition(tie_pick(scorer, ids, every), ids) == (tuple(ids),)
    for x in range(1, n):
        assert _level(x).n_blocks.dtype == np.int8
        assert _level(x).mask.dtype == np.intp
        assert np.array_equal(_level(x).mask, mask_oracle(_level(x)))


def traced_mb(build):
    """The traced memory ``build`` keeps and its peak, in MB."""
    tracemalloc.start()
    try:
        build()
        return [b / 2**20 for b in tracemalloc.get_traced_memory()]
    finally:
        tracemalloc.stop()


def test_the_ten_person_tables_build_in_bounded_memory():
    for cache in (_partition_at, _scorer, _dense, _level):
        cache.cache_clear()
    kept, peak = traced_mb(lambda: build_scorers(10))
    assert kept <= 5 and peak <= 8
    assert _scorer(8).base is _scorer(10).base
    assert traced_mb(lambda: _Level(_level(8)))[1] <= 8


def test_a_ten_person_search_makes_one_full_size_array():
    # its result (0.88 MB) and one slice of block sums; a second
    # full-size temporary let malloc trim and refault the heap per search
    scorer = _scorer(10)
    w = 2.0 * np.random.default_rng(10).random(scorer.m) - 1.0
    scorer.within(w)
    assert traced_mb(lambda: scorer.within(w))[1] <= 1.25


@st.composite
def rooms(draw, sizes):
    n = draw(st.integers(*sizes))
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=n, max_size=n)))
    probs = st.floats(0.0, 1.0, allow_nan=False)
    return ids, {k: draw(probs) for k in unordered_pairs(ids)}


def scorer_scores(ids, post):
    """Every partition's score, as the assigner's search computes it."""
    p = np.array([post[k] for k in unordered_pairs(ids)])
    scorer = _scorer(len(ids))
    return scorer, (np.sum(1.0 - p) + scorer.within(2.0 * p - 1.0)) / scorer.m


@settings(max_examples=40, deadline=None)
@given(rooms((2, 7)))
def test_scorer_matches_score_on_every_partition(room):
    ids, post = room
    scorer, scores = scorer_scores(ids, post)
    for r, s in enumerate(scores):
        assert abs(s - score(scorer.partition(r, ids), post)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(rooms((8, 10)), st.randoms(use_true_random=False))
def test_scorer_matches_score_on_sampled_partitions_of_large_rooms(room, rnd):
    ids, post = room
    scorer, scores = scorer_scores(ids, post)
    for r in rnd.sample(range(len(scores)), 300) + [0, len(scores) - 1]:
        assert abs(scores[r] - score(scorer.partition(r, ids), post)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.data())
def test_within_row_has_the_bits_of_the_full_search(n, data):
    scorer = _scorer(n)
    weight = st.floats(-1.0, 1.0, allow_nan=False) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    w = np.array(data.draw(st.lists(weight, min_size=scorer.m, max_size=scorer.m)))
    full = scorer.within(w)
    rows = data.draw(st.lists(st.integers(0, len(full) - 1), max_size=20))
    for r in rows + [0, len(full) - 1]:
        assert scorer.within_row(w, r).tobytes() == full[r].tobytes()


# --- assignment -------------------------------------------------------------


def test_assign_two_party_split_and_merge():
    a = FloorAssigner()
    cfg = a.assign({(0, 1): 0.9}, [0, 1])
    assert cfg.partition == ((0, 1),)
    assert cfg.score == pytest.approx(0.9)
    b = FloorAssigner()
    cfg = b.assign({(0, 1): 0.3}, [0, 1])
    assert cfg.partition == ((0,), (1,))
    assert cfg.score == pytest.approx(0.7)


def test_assign_recovers_two_floors_of_two():
    post = {k: 0.1 for k in unordered_pairs(range(4))}
    post[(0, 1)] = 0.9
    post[(2, 3)] = 0.9
    cfg = FloorAssigner().assign(post, range(4))
    assert cfg.partition == ((0, 1), (2, 3))
    assert cfg.score == pytest.approx(0.9)


def test_assign_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        ids = list(range(n))
        post = random_posteriors(rng, ids)
        assigner = FloorAssigner()
        got = assigner.assign(post, ids)
        assert got.partition == assign_oracle(post, ids)
        assert got.score == pytest.approx(
            score_oracle(got.partition, post), abs=1e-12
        )


def test_uninformative_posteriors_prefer_fewest_floors():
    post = {k: 0.5 for k in unordered_pairs(range(3))}
    cfg = FloorAssigner().assign(post, range(3))
    assert cfg.partition == ((0, 1, 2),)
    assert cfg.score == 0.5


def test_uninformative_posteriors_keep_the_previous_choice():
    post_clear = {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.1}
    post_flat = {k: 0.5 for k in unordered_pairs(range(3))}
    a = FloorAssigner()
    first = a.assign(post_clear, range(3))
    assert first.partition == ((0, 1), (2,))
    second = a.assign(post_flat, range(3))
    assert second.partition == ((0, 1), (2,))


def test_exact_tie_between_equal_sized_partitions_breaks_lexically():
    # posteriors built from exact binary fractions so the two
    # two-block partitions score identically down to the bit
    post = {(0, 1): 0.75, (0, 2): 0.75, (1, 2): 0.0625}
    cfg = FloorAssigner().assign(post, range(3))
    assert cfg.partition == ((0, 1), (2,))


def test_assign_is_stable_under_relabeling():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ids = list(range(5))
        post = random_posteriors(rng, ids)
        perm = list(rng.permutation(5))
        mapped = {
            pair_key(perm[a], perm[b]): v for (a, b), v in post.items()
        }
        base = FloorAssigner().assign(post, ids).partition
        relabeled = FloorAssigner().assign(mapped, ids).partition
        expected = canonical_partition(
            tuple(tuple(perm[m] for m in blk) for blk in base)
        )
        # relabeling can only change the outcome when it creates or
        # resolves a tie, which random posteriors essentially never do
        assert relabeled == expected


def large_room_oracle(n):
    """Exhaustive best partition of range(n), independent of the assigner."""
    parts = rgs_partitions(n)
    pairs = unordered_pairs(range(n))
    labels = np.array(
        [[next(b for b, blk in enumerate(p) if m in blk) for m in range(n)] for p in parts]
    )
    same = np.stack([labels[:, a] == labels[:, b] for a, b in pairs], axis=1)

    def best(post):
        p = np.array([post[k] for k in pairs])
        approx = np.where(same, p, 1.0 - p).mean(axis=1)
        near = np.flatnonzero(approx >= approx.max() - 1e-9)
        scored = [(score_oracle(parts[r], post), parts[r]) for r in near]
        top = max(s for s, _ in scored)
        tied = [part for s, part in scored if s >= top - 1e-12]
        return min(tied, key=lambda part: (len(part), canonical_partition(part)))

    return best


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_assign_matches_exhaustive_oracle_in_large_rooms(n):
    rng = np.random.default_rng(100 + n)
    best = large_room_oracle(n)
    for _ in range(8):
        post = random_posteriors(rng, range(n))
        # a few clear floors, as in real rooms, besides uniform noise
        if rng.random() < 0.5:
            floor = rng.integers(0, 3, n)
            post = {(a, b): float(np.clip(v + (0.5 if floor[a] == floor[b] else -0.5), 0, 1))
                    for (a, b), v in post.items()}
        got = FloorAssigner().assign(post, range(n))
        assert got.partition == canonical_partition(best(post))
        assert got.score == pytest.approx(score_oracle(got.partition, post), abs=1e-12)


def exact_score(partition, post):
    block_of = {m: i for i, b in enumerate(partition) for m in b}
    return sum(
        Fraction(p) if block_of[a] == block_of[b] else 1 - Fraction(p)
        for (a, b), p in post.items()
    )


def test_tie_rules_hold_when_round_off_splits_an_exact_tie():
    # tenths are not binary fractions: each pair of partitions below
    # ties exactly in real arithmetic, while a float sum over the pairs
    # can put either one ahead in the last bit
    merged = ((0, 1, 2, 3),)
    fewer = {(0, 1): 0.9, (0, 2): 0.3, (0, 3): 0.9, (1, 2): 0.9, (1, 3): 0.9, (2, 3): 0.3}
    assert exact_score(merged, fewer) == exact_score(((0, 1, 3), (2,)), fewer)
    assert FloorAssigner().assign(fewer, range(4)).partition == merged

    kept = ((0, 2, 3), (1,))
    tie = {(0, 1): 0.3, (0, 2): 0.9, (0, 3): 0.7, (1, 2): 0.9, (1, 3): 0.3, (2, 3): 0.7}
    assert exact_score(merged, tie) == exact_score(kept, tie)
    a = FloorAssigner()
    clear = {k: 0.9 if 1 not in k else 0.1 for k in unordered_pairs(range(4))}
    assert a.assign(clear, range(4)).partition == kept
    cfg = a.assign(tie, range(4))
    assert cfg.partition == kept
    assert cfg.score == pytest.approx(float(exact_score(kept, tie)) / 6, abs=1e-12)


def test_dwell_suppresses_rapid_switching():
    a = FloorAssigner(dwell_ms=100)
    merged = {(0, 1): 0.9}
    split = {(0, 1): 0.1}
    assert a.assign(merged, [0, 1], now_ms=30).partition == ((0, 1),)
    # flip arrives 30 ms later: inside the dwell window, held
    assert a.assign(split, [0, 1], now_ms=60).partition == ((0, 1),)
    assert a.assign(split, [0, 1], now_ms=90).partition == ((0, 1),)
    assert a.assign(split, [0, 1], now_ms=120).partition == ((0, 1),)
    # 130 ms after the last change: free to move
    assert a.assign(split, [0, 1], now_ms=160).partition == ((0,), (1,))


def test_a_dwell_must_be_a_non_negative_integer():
    # a negative dwell silently meant none, and a string failed at the
    # first switch
    for dwell in (-100, -1, "600", 1.5, True, None):
        with pytest.raises(ConfigError, match="dwell_ms"):
            FloorAssigner(dwell_ms=dwell)
    assert FloorAssigner(dwell_ms=600).dwell_ms == 600


def test_no_dwell_switches_immediately():
    a = FloorAssigner(dwell_ms=0)
    assert a.assign({(0, 1): 0.9}, [0, 1], now_ms=30).partition == ((0, 1),)
    assert a.assign({(0, 1): 0.1}, [0, 1], now_ms=60).partition == ((0,), (1,))


def test_pin_overrides_the_search():
    a = FloorAssigner()
    a.pin([(0,), (1,)], owner="host", participants=[0, 1])
    cfg = a.assign({(0, 1): 0.99}, [0, 1])
    assert cfg.partition == ((0,), (1,))
    assert cfg.score == pytest.approx(0.01)


def test_pin_must_cover_the_participants():
    a = FloorAssigner()
    with pytest.raises(ValueError):
        a.pin([(0, 1)], owner="host", participants=[0, 1, 2])


def test_pin_rejects_an_empty_floor():
    with pytest.raises(ValueError, match="empty"):
        FloorAssigner().pin([(0, 1), ()], owner=0, participants=[0, 1])


def test_unpin_requires_the_owner():
    a = FloorAssigner()
    a.pin([(0, 1)], owner="host", participants=[0, 1])
    with pytest.raises(PinPermissionError):
        a.unpin("guest")
    a.unpin("host")
    assert a.pinned is None
    a.unpin("anyone")  # no pin: a no-op


def test_pin_dissolves_when_membership_changes():
    a = FloorAssigner()
    a.pin([(0, 1)], owner="host", participants=[0, 1])
    cfg = a.assign({(0, 1): 0.1, (0, 2): 0.1, (1, 2): 0.1}, [0, 1, 2])
    assert a.pinned is None
    assert cfg.partition == ((0,), (1,), (2,))


def test_unpinned_search_resumes():
    a = FloorAssigner()
    a.pin([(0,), (1,)], owner="host", participants=[0, 1])
    a.assign({(0, 1): 0.99}, [0, 1])
    a.unpin("host")
    cfg = a.assign({(0, 1): 0.99}, [0, 1])
    assert cfg.partition == ((0, 1),)


class FreshSearch(FloorAssigner):
    """An assigner that forgets the last row's outcome and its margin
    reference before every search, so it searches every row in full."""

    def _search(self, posteriors, ids):
        self._last = None
        self._reference = None
        return super()._search(posteriors, ids)


def winner_margin(p, ids):
    """The best row's lead in within-floor weight over the runner-up, and
    the pairs where the runner-up differs from it, with the sign of a
    weight move in the runner-up's favour on each."""
    scorer = _scorer(len(ids))
    within = scorer.within(2.0 * p - 1.0)
    best = int(within.argmax())
    lead = within[best]
    within[best] = -np.inf
    runner_up = int(within.argmax())
    same, other = scorer.same_floor(best), scorer.same_floor(runner_up)
    differ = np.flatnonzero(same != other)
    return lead - within[runner_up], differ, np.where(same[differ], -1.0, 1.0)


@st.composite
def drifting_rows(draw, ids):
    """Large-room rows, each the previous one with a few pairs moved.

    The first row has a few clear floors under noise, as real rooms do.
    Each later row moves pairs of the one before by, in total, 0.3 to
    1.5 times the previous winner's margin: either one to four pairs
    the runner-up treats unlike the winner, all in the runner-up's
    favour, so the margin check meets rows on both sides of its bound
    and drifts that pass the first margin only over several rows, or
    two to five pairs in random directions.
    """
    pairs = unordered_pairs(ids)
    floor = draw(st.lists(st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
    noise = st.floats(0.0, 0.3)
    rows = [np.array([
        0.95 - draw(noise) if floor[a] == floor[b] else 0.05 + draw(noise) for a, b in pairs
    ])]
    for _ in range(draw(st.integers(1, 4))):
        prev = rows[-1]
        margin, differ, toward = winner_margin(prev, ids)
        if draw(st.booleans()):
            k = draw(st.integers(1, min(4, len(differ))))
            moved, signs = differ[:k], toward[:k]
        else:
            moved = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2, max_size=5, unique=True))
            signs = [draw(st.sampled_from([-1.0, 1.0])) for _ in moved]
        step = draw(st.floats(0.3, 1.5)) * margin / len(moved)
        row = prev.copy()
        for j, sign in zip(moved, signs):
            # a pair's weight is 2p - 1, so p moves by half the step
            row[j] = min(max(prev[j] + sign * step / 2, 0.0), 1.0)
        rows.append(row)
    return [dict(zip(pairs, row.tolist())) for row in rows]


@st.composite
def assign_scripts(draw):
    """Posterior maps with repeats and ties, with pins, unpins and leavers.

    In rooms of up to six a later map is either drawn afresh or the
    first with one pair changed, so a search keyed on part of the row
    would be caught. Rooms of nine or ten draw ``drifting_rows`` and
    walk them in order before the drawn steps, so the margin check
    decides some of them.
    """
    n = draw(st.integers(2, 6) | st.integers(9, 10))
    ids = list(range(n))
    walk = []
    if n > DENSE_MEMBERS:
        pool = draw(drifting_rows(ids))
        walk = [("assign", i, -1) for i in range(len(pool))]
    else:
        probs = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
        pool = [{k: draw(probs) for k in unordered_pairs(ids)}]
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                pool.append({k: draw(probs) for k in pool[0]})
            else:
                pool.append({**pool[0], draw(st.sampled_from(sorted(pool[0]))): draw(probs)})
    partitions = enumerate_partitions(ids)
    steps = walk + draw(st.lists(st.one_of(
        st.tuples(st.just("assign"), st.integers(0, len(pool) - 1), st.integers(-1, n - 1)),
        # the pinned partition itself, not the whole enumeration, goes in
        # the script, so a failing script at n=10 stays short to print
        st.tuples(st.just("pin"), st.integers(0, len(partitions) - 1).map(partitions.__getitem__)),
        st.tuples(st.just("unpin")),
    ), min_size=1, max_size=40))
    return ids, pool, steps, draw(st.sampled_from([0, 60, 200]))


@settings(max_examples=150, deadline=None)
@given(assign_scripts())
# the same row bytes for two different rooms: (1, 2) and then (0, 2)
@example(([0, 1, 2], [{(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.9}],
          [("assign", 0, 0), ("assign", 0, 1)], 0))
def test_reused_searches_choose_like_fresh_ones(script):
    ids, pool, steps, dwell = script
    reused = FloorAssigner(dwell_ms=dwell)
    fresh = FreshSearch(dwell_ms=dwell)
    now = 0
    for step in steps:
        if step[0] == "assign":
            # one participant (any, so the same row can meet other ids)
            # sits this period out when asked
            members = [m for m in ids if m != step[2]] if len(ids) > 2 else ids
            now += 30
            got = reused.assign(pool[step[1]], members, now_ms=now)
            want = fresh.assign(pool[step[1]], members, now_ms=now)
            assert (got.partition, got.score) == (want.partition, want.score)
        elif step[0] == "pin":
            for a in (reused, fresh):
                a.pin(step[1], owner="host", participants=ids)
        else:
            for a in (reused, fresh):
                a.unpin("host")


def test_a_repeated_search_still_follows_the_previous_choice():
    # every partition ties, so the previous choice decides
    tie = {k: 0.5 for k in unordered_pairs(range(3))}
    a = FloorAssigner()
    assert a.assign(tie, range(3)).partition == ((0, 1, 2),)
    a.pin([(0,), (1, 2)], owner="host", participants=range(3))
    a.assign(tie, range(3))
    a.unpin("host")
    assert a.assign(tie, range(3)).partition == ((0,), (1, 2))


def test_a_repeated_row_reuses_its_tie_set_for_a_new_previous_choice():
    # two certain pairs; whether they share a floor is a coin flip, so
    # the merged room and the two pairs tie and nothing else comes close
    ids = (0, 1, 2, 3)
    split, merged = ((0, 1), (2, 3)), ((0, 1, 2, 3),)
    row = {k: 1.0 if k in ((0, 1), (2, 3)) else 0.5 for k in unordered_pairs(ids)}
    view = PairRow(ids, np.array([row[k] for k in unordered_pairs(ids)]))
    reused, fresh = FloorAssigner(), FreshSearch()
    now = 0

    def both(posteriors):
        nonlocal now
        now += 30
        got = reused.assign(posteriors, ids, now_ms=now)
        want = fresh.assign(posteriors, ids, now_ms=now)
        assert (got.partition, got.score) == (want.partition, want.score)
        return got

    def pinned(partition):
        for a in (reused, fresh):
            a.pin(partition, owner="host", participants=ids)
        both(row)
        for a in (reused, fresh):
            a.unpin("host")

    # no previous choice: fewest floors
    assert both(row).partition == merged
    tie_set = reused._last[1]
    pinned(split)
    # the same row, as a dict or as a view: the tie set is reused and
    # the previous choice, now the pinned split, wins it
    assert both(view).partition == split
    assert both(row).partition == split
    assert reused._last[1] is tie_set
    # a previous choice outside the tie set leaves fewest floors
    pinned(tuple((m,) for m in ids))
    assert both(view).partition == merged
    assert reused._last[1] is tie_set


def test_the_margin_check_decides_only_while_the_margin_exceeds_the_bound():
    ids = tuple(range(9))
    pairs = unordered_pairs(ids)
    rng = np.random.default_rng(17)
    floor = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    p = np.array([0.8 if floor[a] == floor[b] else 0.25 for a, b in pairs])
    p += rng.uniform(-0.1, 0.1, len(p))
    margin, differ, toward = winner_margin(p, ids)
    # move one pair the runner-up treats unlike the winner, in its favour
    j, sign = int(differ[0]), toward[0]
    slack = TIE_TOLERANCE * _scorer(len(ids)).m

    def moved(by):
        q = p.copy()
        q[j] += sign * by / 2
        return dict(zip(pairs, q.tolist()))

    # the bound just under the margin, inside the doubled tolerance, just
    # over it, and over it only after two moves that each stay under it
    for walk, counts, same_winner in (
        ([margin - 1e-9], (1, 1, 0), True),
        ([margin - 1.5 * slack], (2, 0, 0), True),
        ([margin + 1e-9], (2, 0, 0), False),
        ([0.6 * margin, 1.2 * margin], (2, 1, 0), False),
    ):
        a, fresh = FloorAssigner(), FreshSearch()
        first = a.assign(moved(0.0), ids)
        for by in walk:
            got, want = a.assign(moved(by), ids), fresh.assign(moved(by), ids)
            assert (got.partition, got.score) == (want.partition, want.score)
        assert (got.partition == first.partition) == same_winner
        assert (a.searched, a.certified, a.reused) == counts


def test_a_tie_set_never_becomes_the_margin_reference():
    # two certain floors that are a coin flip apart: the merged room and
    # the split tie exactly, and moving a pair inside a floor keeps the tie
    ids = tuple(range(9))
    split = ((0, 1, 2, 3), (4, 5, 6, 7, 8))
    apart = {(a, b): 1.0 if (a < 4) == (b < 4) else 0.5 for a, b in unordered_pairs(ids)}
    a = FloorAssigner()
    assert a.assign(apart, ids).partition == (ids,)
    a.pin(split, owner="host", participants=ids)
    a.assign(apart, ids)
    a.unpin("host")
    # the previous choice, now the split, wins the tie again
    assert a.assign({**apart, (0, 1): 0.75}, ids).partition == split
    assert (a.searched, a.certified, a.reused) == (2, 0, 0)
    assert a._reference is None


# --- primed blocks ----------------------------------------------------------


@st.composite
def primed_scripts(draw):
    """Blocks of posterior rows with runs, repeats and exact ties, and what
    happens before each period: nothing, a pin, an unpin, or the period
    decided for another room of the same size (one member swapped).

    Rooms of up to eight draw rows from a few exact values, so partitions
    tie, or from any floats, so the order of a sum shows in its bits;
    rooms of nine or ten draw ``drifting_rows`` so that the margin check
    decides some of them.
    """
    n = draw(st.integers(2, 10))
    rooms = (tuple(range(n)), tuple(range(n - 1)) + (n + 3,))
    if n > DENSE_MEMBERS:
        pool = [np.array(list(d.values())) for d in draw(drifting_rows(list(range(n))))]
    else:
        m = n * (n - 1) // 2
        exact = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        probs = st.lists(exact | st.floats(0.0, 1.0), min_size=m, max_size=m)
        pool = [np.array(draw(probs)) for _ in range(draw(st.integers(1, 3)))]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    before = (st.sampled_from([("none",), ("none",), ("unpin",), ("other",)])
              | st.tuples(st.just("pin"), labels))
    period = st.tuples(st.integers(0, len(pool) - 1), before)
    blocks = draw(st.lists(st.tuples(st.integers(0, 1), st.lists(period, min_size=1, max_size=10)),
                           min_size=1, max_size=4))
    return rooms, pool, blocks, draw(st.sampled_from([0, 60, 200]))


@settings(max_examples=120, deadline=None)
@given(primed_scripts())
def test_primed_blocks_decide_like_one_dict_per_period(script):
    rooms, pool, blocks, dwell = script
    primed, plain = FloorAssigner(dwell_ms=dwell), FloorAssigner(dwell_ms=dwell)
    ticks, got, want = [], [], []
    for which, periods in blocks:
        block = np.array([pool[r] for r, _ in periods])
        primed.prime(rooms[which], block)
        for row, (_, before) in zip(block, periods):
            ids = rooms[1 - which] if before[0] == "other" else rooms[which]
            if before[0] == "pin":
                floors = {}
                for m, label in zip(ids, before[1]):
                    floors.setdefault(label, []).append(m)
                for a in (primed, plain):
                    a.pin(floors.values(), owner="host", participants=ids)
            elif before[0] == "unpin":
                for a in (primed, plain):
                    a.unpin("host")
            ticks.append(EVAL_PERIOD_MS * (len(ticks) + 1))
            got.append(primed.assign(PairRow(ids, row), ids, now_ms=ticks[-1]))
            want.append(plain.assign(dict(zip(unordered_pairs(ids), row.tolist())), ids,
                                     now_ms=ticks[-1]))
    assert [c.partition for c in got] == [c.partition for c in want]
    assert (np.array([c.score for c in got]).tobytes()
            == np.array([c.score for c in want]).tobytes())
    assert changes(ticks, got) == changes(ticks, want)
    assert ((primed.searched, primed.certified, primed.reused)
            == (plain.searched, plain.certified, plain.reused))


class CountedAssigner(FloorAssigner):
    """Counts ``assign`` calls, as the benchmark's tracer and faults see them."""

    calls = 0

    def assign(self, posteriors, participants, now_ms=None):
        self.calls += 1
        return super().assign(posteriors, participants, now_ms)


@settings(max_examples=150, deadline=None)
@given(primed_scripts())
# a merge at 30 ms, then ten periods of a split row: with a 200 ms dwell
# the hold expires at 240 ms, inside the run
@example((((0, 1), (0, 5)), [np.array([0.9]), np.array([0.1])],
          [(0, [(0, ("none",))] + [(1, ("none",))] * 10)], 200))
# a pinned run, whose repeats are not decided and count as nothing
@example((((0, 1, 2), (0, 1, 6)), [np.array([0.9, 0.1, 0.2])],
          [(0, [(0, ("pin", [0, 0, 1]))] + [(0, ("none",))] * 4
            + [(0, ("unpin",))] + [(0, ("none",))] * 3)], 60))
def test_a_run_decides_like_one_assign_per_period(script):
    # consecutive periods of one row, with nothing done before any but the
    # first, are one run, decided by one assign_run as by one assign each
    rooms, pool, blocks, dwell = script
    runs, plain = CountedAssigner(dwell_ms=dwell), FloorAssigner(dwell_ms=dwell)
    ticks, got, want = [], [], []
    for which, periods in blocks:
        spans = []  # [ids, row, what happens before, periods]
        for r, before in periods:
            ids = rooms[1 - which] if before[0] == "other" else rooms[which]
            if spans and before == ("none",) and spans[-1][:2] == [ids, r]:
                spans[-1][3] += 1
            else:
                spans.append([ids, r, before, 1])
        runs.prime(rooms[which], np.array([pool[r] for _, r, _, _ in spans]))
        for ids, r, before, k in spans:
            if before[0] == "pin":
                floors = {}
                for m, label in zip(ids, before[1]):
                    floors.setdefault(label, []).append(m)
                for a in (runs, plain):
                    a.pin(floors.values(), owner="host", participants=ids)
            elif before[0] == "unpin":
                for a in (runs, plain):
                    a.unpin("host")
            start = EVAL_PERIOD_MS * (len(ticks) + 1)
            calls = runs.calls
            decided = runs.assign_run(PairRow(ids, pool[r]), ids, start, k)
            # one assign per run, and one more where a dwell hold expires
            assert runs.calls - calls == len(decided) <= 2
            assert sum(n for _, n in decided) == k
            for cfg, n in decided:
                got.extend([cfg] * n)
            for _ in range(k):
                ticks.append(EVAL_PERIOD_MS * (len(ticks) + 1))
                want.append(plain.assign(dict(zip(unordered_pairs(ids), pool[r].tolist())), ids,
                                         now_ms=ticks[-1]))
    assert [c.partition for c in got] == [c.partition for c in want]
    assert (np.array([c.score for c in got]).tobytes()
            == np.array([c.score for c in want]).tobytes())
    assert changes(ticks, got) == changes(ticks, want)
    assert ((runs.searched, runs.certified, runs.reused)
            == (plain.searched, plain.certified, plain.reused))
    assert (runs._clock, runs._last_change, runs.previous, runs.pinned) == (
        plain._clock, plain._last_change, plain.previous, plain.pinned)


def test_a_run_in_a_room_of_one_counts_nothing():
    # one participant has one partition and no search, so nothing is reused
    runs, plain = FloorAssigner(), FloorAssigner()
    assert runs.assign_run({}, [4], 30, 5) == [(FloorConfiguration(((4,),), 0.5), 5)]
    for t in range(30, 180, 30):
        plain.assign({}, [4], now_ms=t)
    assert (runs.searched, runs.certified, runs.reused, runs._clock) == (0, 0, 0, 150)
    assert (plain.searched, plain.certified, plain.reused, plain._clock) == (0, 0, 0, 150)


@pytest.mark.parametrize("n", range(2, MAX_PARTICIPANTS + 1))
def test_a_primed_block_scores_to_the_bit_of_a_search_per_period(n):
    ids = tuple(range(n))
    rng = np.random.default_rng(n)
    rows = rng.random((6, n * (n - 1) // 2))
    block = rows[[0, 0, 1, 2, 2, 2, 3, 1, 4, 5, 5]]
    primed, plain = FloorAssigner(), FloorAssigner()
    primed.prime(ids, block)
    for row in block:
        got = primed.assign(PairRow(ids, row), ids)
        want = plain.assign(dict(zip(unordered_pairs(ids), row.tolist())), ids)
        assert got.partition == want.partition
        assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes()
    counts = (primed.searched, primed.certified, primed.reused)
    assert counts == (plain.searched, plain.certified, plain.reused)
    assert (counts[0] + counts[1], counts[2]) == (7, 4)


def test_a_block_that_starts_with_the_last_row_reuses_it():
    ids = (0, 1, 2, 3)
    r1, r2, r3 = np.random.default_rng(3).random((3, 6))
    a = FloorAssigner()
    for block in ([r1, r2], [r2, r3]):
        a.prime(ids, np.array(block))
        for row in block:
            a.assign(PairRow(ids, row), ids)
    assert (a.searched, a.certified, a.reused) == (3, 0, 1)
    # the repeated row was not searched again with its block
    assert set(a._primed) == {(ids, r3.tobytes())}


def test_a_primed_row_is_not_read_for_another_room():
    row = np.array([0.9, 0.1, 0.1])
    a = FloorAssigner()
    a.prime((0, 1, 2), row[None])
    # the same row bytes, but 2 has left and 5 has joined
    assert a.assign(PairRow((0, 1, 5), row), (0, 1, 5)).partition == ((0, 1), (5,))
    assert a.assign(PairRow((0, 1, 2), row), (0, 1, 2)).partition == ((0, 1), (2,))
    assert (a.searched, a.reused) == (2, 0)


def test_a_primed_tie_set_keeps_the_previous_choice_across_a_pin_change():
    # the merged room and the two pairs tie, as in the unprimed case above
    ids = (0, 1, 2, 3)
    split, merged = ((0, 1), (2, 3)), ((0, 1, 2, 3),)
    row = np.array([1.0 if k in ((0, 1), (2, 3)) else 0.5 for k in unordered_pairs(ids)])
    block = np.array([row] * 4)
    a = FloorAssigner()
    a.prime(ids, block)
    assert a.assign(PairRow(ids, row), ids).partition == merged
    a.pin(split, owner="host", participants=ids)
    assert a.assign(PairRow(ids, row), ids).partition == split
    a.unpin("host")
    # the pinned split is now the previous choice, and it is in the tie set
    assert a.assign(PairRow(ids, row), ids).partition == split
    # a block primed under a pin is searched period by period once unpinned
    a.pin(split, owner="host", participants=ids)
    a.prime(ids, block)
    assert a._primed == {}
    assert a.assign(PairRow(ids, row), ids).partition == split
    a.unpin("host")
    assert a.assign(PairRow(ids, row), ids).partition == split
    assert (a.searched, a.certified, a.reused) == (1, 0, 2)


def test_the_primed_table_holds_only_the_newest_block():
    # a room that runs for hours keeps one block's decisions, not every
    # row it ever decided
    ids = tuple(range(5))
    rng = np.random.default_rng(8)
    a = FloorAssigner()
    for _ in range(6):
        block = rng.random((20, 10))
        a.prime(ids, block)
        assert set(a._primed) == {(ids, row.tobytes()) for row in block}
        for row in block:
            a.assign(PairRow(ids, row), ids)
    # rooms the table does not serve leave it empty
    a.prime(tuple(range(9)), rng.random((3, 36)))
    assert a._primed == {}


# --- gains ------------------------------------------------------------------


def test_gain_constants():
    assert NORMAL_GAIN == 1.0
    assert QUIET_GAIN == 0.2
    assert EVAL_PERIOD_MS == 30


def test_gains_for_a_split_configuration():
    cfg = FloorConfiguration(((0, 1), (2,)), 0.9)
    gm = gains(cfg, [0, 1, 2])
    assert gm[0, 1] == 1.0
    assert gm[1, 0] == 1.0
    assert gm[0, 2] == 0.2
    assert gm[2, 0] == 0.2
    assert gm[2, 1] == 0.2


def test_listener_never_hears_themselves():
    cfg = FloorConfiguration(((0, 1, 2),), 1.0)
    gm = gains(cfg, [0, 1, 2])
    for i in range(3):
        assert gm[i, i] == 0.0


def test_single_floor_is_all_normal_gain():
    cfg = FloorConfiguration(((0, 1, 2, 3),), 1.0)
    gm = gains(cfg, range(4))
    off_diag = gm[~np.eye(4, dtype=bool)]
    assert np.all(off_diag == 1.0)


def test_gain_values_form_three_levels_only():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ids = list(range(int(rng.integers(2, 7))))
        parts = enumerate_partitions(ids)
        part = parts[int(rng.integers(0, len(parts)))]
        gm = gains(FloorConfiguration(part, 0.5), ids)
        assert set(np.unique(gm)) <= {0.0, QUIET_GAIN, NORMAL_GAIN}
