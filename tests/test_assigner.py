"""Partition enumeration, configuration scoring, and the period assigner."""

import tracemalloc
from unittest import mock
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import floorspace.assigner as assigner_module
from floorspace.assigner import (
    EVAL_PERIOD_MS,
    FloorAssigner,
    FloorConfiguration,
    MAX_PARTICIPANTS,
    NORMAL_GAIN,
    QUIET_GAIN,
    _BlockRow,
    _lexicographic,
    _program,
    same_floor,
    _scores,
    _weights,
    _winners,
    build_scorers,
    canonical_partition,
    enumerate_partitions,
    gains,
    pair_key,
    score,
    unordered_pairs,
)
from floorspace.errors import CapacityError, PinPermissionError

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
        assert len(enumerate_partitions(range(n))) == BELL[n]


def test_enumeration_matches_growth_string_construction():
    for n in range(1, 8):
        ours = set(enumerate_partitions(range(n)))
        reference = set(rgs_partitions(n))
        assert ours == reference
        # and so do the label rows the oracle tests enumerate with
        labels = [partition_from(row, range(n)) for row in labels_of(n)]
        assert labels == enumerate_partitions(range(n))


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
        FloorAssigner().assign(random_posteriors(np.random.default_rng(0), range(11)), range(11),
                               now_ms=30)


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


@lru_cache(maxsize=None)
def labels_of(n):
    """Every partition of range(n) as a row of block labels (a restricted
    growth string), grown one member at a time in NumPy, so that rooms
    of ten need no 115 975 Python tuples."""
    labels, floors = np.zeros((1, 1), dtype=np.int8), np.ones(1, dtype=np.int8)
    for _ in range(1, n):
        choices = floors.astype(np.intp) + 1
        parent = np.repeat(np.arange(len(floors)), choices)
        joined = np.arange(len(parent)) - (np.cumsum(choices) - choices)[parent]
        labels = np.concatenate([labels[parent], joined[:, None].astype(np.int8)], axis=1)
        floors = floors[parent] + (joined == floors[parent])
    return labels


def partition_from(labels, ids):
    blocks = {}
    for m, label in zip(ids, labels.tolist()):
        blocks.setdefault(label, []).append(m)
    return tuple(tuple(b) for b in blocks.values())


def exact_weights(post, ids):
    """The pairs' weights rint((2p - 1) * 2^40), as Python integers."""
    p = np.array([post[k] for k in unordered_pairs(ids)])
    return [int(x) for x in np.rint((2.0 * p - 1.0) * 2.0**40)]


def exact_values(ids, post):
    """Every partition of ``ids`` as block labels, its exact value (the sum
    of the integer weights of the pairs it joins) and, in float, its score."""
    labels = labels_of(len(ids))
    p = [post[k] for k in unordered_pairs(ids)]
    values = np.zeros(len(labels), dtype=np.int64)
    scores = np.full(len(labels), sum(1.0 - x for x in p))
    for (a, b), w, x in zip(unordered_pairs(range(len(ids))), exact_weights(post, ids), p):
        joined = labels[:, a] == labels[:, b]
        values[joined] += w
        scores[joined] += 2.0 * x - 1.0
    return labels, values, scores / len(p)


def exact_oracle(ids, post, previous=None):
    """The tie rule on exact values: the previous choice if it ties for
    the best, else the fewest floors, else the smallest canonical form."""
    labels, values, _ = exact_values(ids, post)
    tied = [partition_from(row, ids) for row in labels[values == values.max()]]
    if previous in tied:
        return previous, int(values.max())
    return min(tied, key=lambda part: (len(part), part)), int(values.max())


@pytest.mark.parametrize("n", [8, 9, 10])
def test_tables_built_in_chunks_equal_the_whole_table_formulas(n):
    # the program's tables are built one subset size at a time; together
    # they must list every subset of two or more of members 1..n-1 by
    # size, then the room, each with every block that holds its lowest
    # member, in the order of the blocks' member tuples, and what each
    # block leaves; and the pairs each subset holds
    program = _program(n)
    assert program.singles.tolist() == [1 << m for m in range(1, n)]
    solved = []
    for subsets, blocks, rest, starts in program.layers:
        assert np.array_equal(starts, np.arange(0, blocks.size, blocks.shape[1]))
        for s, row, left in zip(subsets.tolist(), blocks.tolist(), rest.tolist()):
            members = [m for m in range(n) if s >> m & 1]
            want = sorted(members[:1] + list(c) for k in range(len(members))
                          for c in combinations(members[1:], k))
            assert row == [sum(1 << m for m in b) for b in want]
            assert left == [s ^ b for b in row]
            solved.append(s)
    below = [sum(1 << m for m in c) for k in range(2, n) for c in combinations(range(1, n), k)]
    assert solved == below + [(1 << n) - 1]
    for s in range(1 << n):
        assert program.pairs[s].tolist() == [float(s >> a & s >> b & 1)
                                             for a, b in unordered_pairs(range(n))]
    # a block solves its rows as each would alone, to the bit
    w = np.rint((2 * np.random.default_rng(n).random((n * (n - 1) // 2, 6)) - 1) * 2.0**40)
    values, chosen = program.solve(w)
    alone = [program.solve_row(w[:, r]) for r in range(6)]
    assert values == [v for v, _, _ in alone]
    assert [tuple(b for b in blocks if b) for blocks in chosen] == [c for _, c, _ in alone]
    # when every partition ties, the fewest floors: the whole room
    ids = tuple(range(3, 3 + n))
    (cfg, value), = _winners(np.full((1, n * (n - 1) // 2), 0.5), ids)
    assert (cfg.partition, value) == ((ids,), 0)


def traced_mb(build):
    """The traced memory ``build`` keeps and its peak, in MB."""
    tracemalloc.start()
    try:
        build()
        return [b / 2**20 for b in tracemalloc.get_traced_memory()]
    finally:
        tracemalloc.stop()


# measured at 0.92, 1.04 and 0.08 MB
KEPT_MB, PEAK_MB, SEARCH_MB = 1.0, 1.25, 0.125


def test_the_ten_person_tables_build_in_bounded_memory():
    for cache in (_program, _lexicographic):
        cache.cache_clear()
    kept, peak = traced_mb(lambda: build_scorers(10))
    assert kept <= KEPT_MB and peak <= PEAK_MB


def test_a_ten_person_search_peaks_in_bounded_memory():
    ids = tuple(range(10))
    p = np.random.default_rng(10).random((1, 45))
    _winners(p, ids)
    assert traced_mb(lambda: _winners(p, ids))[1] <= SEARCH_MB


@st.composite
def rooms(draw, sizes):
    n = draw(st.integers(*sizes))
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=n, max_size=n)))
    probs = st.floats(0.0, 1.0, allow_nan=False)
    return ids, {k: draw(probs) for k in unordered_pairs(ids)}


def check_scores(ids, post, partitions):
    """The search's score and exact value of each partition match ``score``
    and the integer sum of the pairs' weights."""
    p = np.array([post[k] for k in unordered_pairs(ids)])
    weights = exact_weights(post, ids)
    for part in partitions:
        same = same_floor(part, tuple(ids))
        assert abs(float(_scores(p, same)) - score(part, post)) <= 1e-12
        assert _weights(p) @ same == sum(w for w, joined in zip(weights, same) if joined)


@settings(max_examples=40, deadline=None)
@given(rooms((2, 7)))
def test_scorer_matches_score_on_every_partition(room):
    ids, post = room
    check_scores(ids, post, enumerate_partitions(ids))


@settings(max_examples=15, deadline=None)
@given(rooms((8, 10)), st.randoms(use_true_random=False))
def test_scorer_matches_score_on_sampled_partitions_of_large_rooms(room, rnd):
    ids, post = room
    labels = labels_of(len(ids))
    rows = rnd.sample(range(len(labels)), 300) + [0, len(labels) - 1]
    check_scores(ids, post, [partition_from(labels[r], ids) for r in rows])


@st.composite
def coarse_rooms(draw, sizes):
    """A room with posteriors in quarters, so exact ties are common, and
    a previous choice drawn from its partitions, or none."""
    n = draw(st.integers(*sizes))
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=n, max_size=n)))
    post = {k: draw(st.integers(0, 4)) / 4 for k in unordered_pairs(ids)}
    previous = None
    if draw(st.booleans()):
        previous = partition_from(labels_of(n)[draw(st.integers(0, BELL[n] - 1))], ids)
    return ids, post, previous


def check_against_the_oracle(ids, post, previous):
    a = FloorAssigner()
    if previous is not None:
        # a pinned period makes it the previous choice without a search
        a.pin(previous, owner="host", participants=ids)
        a.assign(post, ids, now_ms=30)
        a.unpin("host")
    got = a.assign(post, ids, now_ms=60)
    want, top = exact_oracle(ids, post, previous)
    assert got.partition == want
    assert abs(got.score - score(got.partition, post)) <= 1e-12
    # rounding moves each pair by at most half of 2^-40
    assert got.score >= exact_values(ids, post)[2].max() - 2.0**-40
    # the winner's exact value, and the same bits alone or in a block
    p = np.array([post[k] for k in unordered_pairs(ids)])
    alone = _winners(p[None], tuple(ids))[0]
    assert alone[1] == top
    assert _winners(np.stack([1.0 - p, p]), tuple(ids))[1] == alone


# a real gain of 2^-43 on one pair, lost to the rounding: the two
# two-floor partitions tie exactly, so the tie rule decides
NEAR_TIE = {(0, 1): 0.75, (0, 2): 0.75 + 2.0**-44, (1, 2): 0.0625}


@settings(max_examples=150, deadline=None)
@given(coarse_rooms((2, 7)))
@example(([0, 1, 2], NEAR_TIE, None))
@example(([0, 1, 2], NEAR_TIE, ((0, 2), (1,))))
def test_the_program_matches_the_exhaustive_oracle(room):
    check_against_the_oracle(*room)


@settings(max_examples=9, deadline=None)
@given(coarse_rooms((8, 10)))
def test_the_program_matches_the_exhaustive_oracle_in_large_rooms(room):
    check_against_the_oracle(*room)


def test_a_near_tie_lost_to_rounding_keeps_the_tie_rule():
    # the example above, spelled out
    assert score(((0, 2), (1,)), NEAR_TIE) > score(((0, 1), (2,)), NEAR_TIE)
    assert FloorAssigner().assign(NEAR_TIE, range(3), now_ms=30).partition == ((0, 1), (2,))


# --- assignment -------------------------------------------------------------


def test_assign_two_party_split_and_merge():
    a = FloorAssigner()
    cfg = a.assign({(0, 1): 0.9}, [0, 1], now_ms=30)
    assert cfg.partition == ((0, 1),)
    assert cfg.score == pytest.approx(0.9)
    b = FloorAssigner()
    cfg = b.assign({(0, 1): 0.3}, [0, 1], now_ms=30)
    assert cfg.partition == ((0,), (1,))
    assert cfg.score == pytest.approx(0.7)


def test_assign_recovers_two_floors_of_two():
    post = {k: 0.1 for k in unordered_pairs(range(4))}
    post[(0, 1)] = 0.9
    post[(2, 3)] = 0.9
    cfg = FloorAssigner().assign(post, range(4), now_ms=30)
    assert cfg.partition == ((0, 1), (2, 3))
    assert cfg.score == pytest.approx(0.9)


def test_assign_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        ids = list(range(n))
        post = random_posteriors(rng, ids)
        assigner = FloorAssigner()
        got = assigner.assign(post, ids, now_ms=30)
        assert got.partition == assign_oracle(post, ids)
        assert got.score == pytest.approx(
            score_oracle(got.partition, post), abs=1e-12
        )


def test_uninformative_posteriors_prefer_fewest_floors():
    post = {k: 0.5 for k in unordered_pairs(range(3))}
    cfg = FloorAssigner().assign(post, range(3), now_ms=30)
    assert cfg.partition == ((0, 1, 2),)
    assert cfg.score == 0.5


def test_uninformative_posteriors_keep_the_previous_choice():
    post_clear = {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.1}
    post_flat = {k: 0.5 for k in unordered_pairs(range(3))}
    a = FloorAssigner()
    first = a.assign(post_clear, range(3), now_ms=30)
    assert first.partition == ((0, 1), (2,))
    second = a.assign(post_flat, range(3), now_ms=60)
    assert second.partition == ((0, 1), (2,))


def test_exact_tie_between_equal_sized_partitions_breaks_lexically():
    # posteriors built from exact binary fractions so the two
    # two-block partitions score identically down to the bit
    post = {(0, 1): 0.75, (0, 2): 0.75, (1, 2): 0.0625}
    cfg = FloorAssigner().assign(post, range(3), now_ms=30)
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
        base = FloorAssigner().assign(post, ids, now_ms=30).partition
        relabeled = FloorAssigner().assign(mapped, ids, now_ms=30).partition
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
        got = FloorAssigner().assign(post, range(n), now_ms=30)
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
    # can put either one ahead in the last bit. A tie is judged on the
    # weights rounded to multiples of 2^-40, whose sums are exact in any
    # order: where the rounding keeps a tie the tie rule decides, and
    # where it splits one by a unit the larger exact value wins, within
    # 2^-40 of the other
    merged = ((0, 1, 2, 3),)
    fewer = {(0, 1): 0.9, (0, 2): 0.3, (0, 3): 0.9, (1, 2): 0.9, (1, 3): 0.9, (2, 3): 0.3}
    assert exact_score(merged, fewer) == exact_score(((0, 1, 3), (2,)), fewer)
    assert FloorAssigner().assign(fewer, range(4), now_ms=30).partition == merged

    kept = ((0, 2, 3), (1,))
    clear = {k: 0.9 if 1 not in k else 0.1 for k in unordered_pairs(range(4))}
    split = {(0, 1): 0.3, (0, 2): 0.9, (0, 3): 0.7, (1, 2): 0.9, (1, 3): 0.3, (2, 3): 0.7}
    tie = {**split, (0, 1): 0.25, (1, 2): 0.75, (1, 3): 0.5}
    for post, rounded in ((tie, 0), (split, 1)):
        assert exact_score(merged, post) == exact_score(kept, post)
        # merged joins what kept separates: (0, 1), (1, 2) and (1, 3)
        w = dict(zip(unordered_pairs(range(4)), exact_weights(post, range(4))))
        assert w[(0, 1)] + w[(1, 2)] + w[(1, 3)] == rounded
        a = FloorAssigner()
        assert a.assign(clear, range(4), now_ms=30).partition == kept
        cfg = a.assign(post, range(4), now_ms=60)
        assert cfg.partition == (merged if rounded else kept)
        assert cfg.score == pytest.approx(float(exact_score(kept, post)) / 6, abs=2.0**-40)


def test_no_dwell_switches_immediately():
    a = FloorAssigner()
    assert a.assign({(0, 1): 0.9}, [0, 1], now_ms=30).partition == ((0, 1),)
    assert a.assign({(0, 1): 0.1}, [0, 1], now_ms=60).partition == ((0,), (1,))


def test_pin_overrides_the_search():
    a = FloorAssigner()
    a.pin([(0,), (1,)], owner="host", participants=[0, 1])
    cfg = a.assign({(0, 1): 0.99}, [0, 1], now_ms=30)
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
    cfg = a.assign({(0, 1): 0.1, (0, 2): 0.1, (1, 2): 0.1}, [0, 1, 2], now_ms=30)
    assert a.pinned is None
    assert cfg.partition == ((0,), (1,), (2,))


def test_unpinned_search_resumes():
    a = FloorAssigner()
    a.pin([(0,), (1,)], owner="host", participants=[0, 1])
    a.assign({(0, 1): 0.99}, [0, 1], now_ms=30)
    a.unpin("host")
    cfg = a.assign({(0, 1): 0.99}, [0, 1], now_ms=60)
    assert cfg.partition == ((0, 1),)


def _rows_of_ten(seed):
    """50 posterior maps over ten participants, each pair uniform in [0, 1)."""
    rng = np.random.default_rng(seed)
    pairs = unordered_pairs(range(10))
    return [dict(zip(pairs, rng.random(len(pairs)).tolist())) for _ in range(50)]


def _bits(x):
    return np.float64(x).tobytes()


def _searched_score(post, partition, ids):
    """The score the search reports for ``partition`` of ``ids`` on ``post``."""
    p = np.array([post[k] for k in unordered_pairs(ids)])
    return float(_scores(p, same_floor(partition, ids)))


def test_pinning_the_searched_partition_reports_the_searched_score():
    # score() sums pair by pair: on 31 of these rows its last bits differed
    ids = tuple(range(10))
    for post in _rows_of_ten(0):
        searched = FloorAssigner().assign(post, ids, now_ms=30)
        a = FloorAssigner()
        a.pin(searched.partition, owner="host", participants=ids)
        got = a.assign(post, ids, now_ms=30)
        assert got.partition == searched.partition
        assert _bits(got.score) == _bits(searched.score)


def test_a_kept_tie_is_scored_like_a_search():
    # posteriors this close to 0.5 weigh 0, so every partition ties, and
    # a pinned choice is kept once unpinned
    ids = tuple(range(10))
    rng = np.random.default_rng(2)
    pairs = unordered_pairs(ids)
    for _ in range(25):
        post = dict(zip(pairs, (0.5 + rng.integers(-1000, 1000, len(pairs)) / 2.0**52).tolist()))
        floors = {}
        for member, label in zip(ids, rng.integers(0, 4, len(ids)).tolist()):
            floors.setdefault(label, []).append(member)
        pin = canonical_partition(floors.values())
        a = FloorAssigner()
        a.pin(pin, owner="host", participants=ids)
        a.assign(post, ids, now_ms=30)
        a.unpin("host")
        kept = a.assign(post, ids, now_ms=60)
        assert kept.partition == pin
        assert _bits(kept.score) == _bits(_searched_score(post, pin, ids))


class FreshSearch(FloorAssigner):
    """An assigner that forgets the last row's outcome before every
    search, so it searches every row."""

    def _search(self, row):
        self._last = self._anchor = None
        return super()._search(row)


@st.composite
def drifting_rows(draw, ids):
    """Large-room rows, each the previous one with a few pairs moved.

    The first row has a few clear floors under noise, as real rooms do;
    each later row moves one to five of its pairs by up to 0.3.
    """
    pairs = unordered_pairs(ids)
    floor = draw(st.lists(st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
    noise = st.floats(0.0, 0.3)
    rows = [np.array([
        0.95 - draw(noise) if floor[a] == floor[b] else 0.05 + draw(noise) for a, b in pairs
    ])]
    for _ in range(draw(st.integers(1, 4))):
        row = rows[-1].copy()
        for j in draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=5,
                               unique=True)):
            row[j] = min(max(row[j] + draw(st.floats(-0.3, 0.3)), 0.0), 1.0)
        rows.append(row)
    return [dict(zip(pairs, row.tolist())) for row in rows]


@st.composite
def assign_scripts(draw):
    """Posterior maps with repeats and ties, with pins, unpins and leavers.

    In rooms of up to six a later map is either drawn afresh or the
    first with one pair changed, so a search keyed on part of the row
    would be caught. Rooms of nine or ten draw ``drifting_rows`` and
    walk them in order before the drawn steps.
    """
    n = draw(st.integers(2, 6) | st.integers(9, 10))
    ids = list(range(n))
    walk = []
    if n > 8:
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
    return ids, pool, steps


@settings(max_examples=150, deadline=None)
@given(assign_scripts())
# the same row bytes for two different rooms: (1, 2) and then (0, 2)
@example(([0, 1, 2], [{(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.9}],
          [("assign", 0, 0), ("assign", 0, 1)]))
def test_reused_searches_choose_like_fresh_ones(script):
    ids, pool, steps = script
    reused, fresh = FloorAssigner(), FreshSearch()
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
    assert a.assign(tie, range(3), now_ms=30).partition == ((0, 1, 2),)
    a.pin([(0,), (1, 2)], owner="host", participants=range(3))
    a.assign(tie, range(3), now_ms=60)
    a.unpin("host")
    assert a.assign(tie, range(3), now_ms=90).partition == ((0,), (1, 2))


def test_a_repeated_row_reuses_its_tie_set_for_a_new_previous_choice():
    # two certain pairs; whether they share a floor is a coin flip, so
    # the merged room and the two pairs tie and nothing else comes close
    ids = (0, 1, 2, 3)
    split, merged = ((0, 1), (2, 3)), ((0, 1, 2, 3),)
    row = {k: 1.0 if k in ((0, 1), (2, 3)) else 0.5 for k in unordered_pairs(ids)}
    reused, fresh = FloorAssigner(), FreshSearch()
    now = 0

    def view():
        """The row as a block of one, as ``assign_block`` hands it over."""
        return _BlockRow(ids, np.array([[row[k] for k in unordered_pairs(ids)]]), 0, [])

    def both(posteriors):
        nonlocal now
        now += 30
        def given():
            # each call gets its own view, so neither reads the other's search
            return posteriors() if callable(posteriors) else posteriors

        got = reused.assign(given(), ids, now_ms=now)
        want = fresh.assign(given(), ids, now_ms=now)
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


# --- the anchor's bound --------------------------------------------------------


def _exact_row(k):
    """Posteriors p = 0.5 + k / 2^41, whose integer weights are k exactly."""
    return 0.5 + np.asarray(k, dtype=np.float64) / 2.0**41


@st.composite
def bound_walks(draw):
    """Walks of rows of exact integer weights, with pins between them.

    The first row holds each pair at +spread when a drawn labelling puts
    it in one floor and -spread otherwise, plus a unit or two of noise;
    each later row moves one to three pairs of the last by up to two
    units, or repeats it. Small integers make exact ties and margins of
    a few key units common. A pin holds a partition for one period, so
    the next row meets a previous choice other than the winner the
    bound holds.
    """
    n = draw(st.integers(2, 10))
    ids = tuple(range(n))
    m = n * (n - 1) // 2
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    spread = draw(st.integers(0, 3))
    noise = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    row = [(spread if labels[a] == labels[b] else -spread) + e
           for (a, b), e in zip(unordered_pairs(ids), noise)]
    partitions = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    steps = [("row", tuple(row))]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["move", "move", "move", "repeat", "pin"]))
        if kind == "pin":
            floors = {}
            for member, label in zip(ids, draw(partitions)):
                floors.setdefault(label, []).append(member)
            steps.append(("pin", canonical_partition(floors.values())))
            continue
        if kind == "move":
            moves = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-2, 2)),
                                  min_size=1, max_size=3))
            for j, step in moves:
                row[j] += step
        steps.append(("row", tuple(row)))
    return ids, steps


def decide_walk(ids, steps):
    """Decide every row of a walk by ``assign`` on a dict, by a one-row
    ``assign_block`` and by a ``FreshSearch``; all three must agree to
    the bit. Returns the first two assigners."""
    dicts, blocks, fresh = FloorAssigner(), FloorAssigner(), FreshSearch()
    pairs = unordered_pairs(ids)
    row = _exact_row(steps[0][1])
    for now, step in enumerate(steps, 1):
        now *= EVAL_PERIOD_MS
        pin = step[0] == "pin"
        if pin:
            for a in (dicts, blocks, fresh):
                a.pin(step[1], owner="host", participants=ids)
        else:
            row = _exact_row(step[1])
        post = dict(zip(pairs, row.tolist()))
        want = fresh.assign(post, ids, now_ms=now)
        got = [dicts.assign(post, ids, now_ms=now)]
        [(cfg, periods)] = blocks.assign_block(ids, row[None], [1], now)
        got.append(cfg)
        assert periods == 1
        for cfg in got:
            assert cfg.partition == want.partition
            assert np.float64(cfg.score).tobytes() == np.float64(want.score).tobytes()
        if pin:
            for a in (dicts, blocks, fresh):
                a.unpin("host")
    # the same rows in the same order meet the same anchors
    assert (dicts.searched, dicts.reused) == (blocks.searched, blocks.reused)
    assert dicts.bounded == blocks.bounded <= dicts.searched
    return dicts, blocks


@settings(max_examples=200, deadline=None)
@given(bound_walks())
# (0, 2) and (1, 3) win by 32 key units over (0, 1) and (2, 3); the next
# row takes two units off (0, 2), so 16 * L equals the margin and the two
# tie exactly, and the smaller canonical form wins: the bound must not
# hold the old winner. The pin makes the previous choice neither of them
@example(((0, 1, 2, 3), [("row", (2, 3, -10, -10, 3, 2)),
                         ("pin", ((0,), (1,), (2,), (3,))),
                         ("row", (2, 1, -10, -10, 3, 2))]))
def test_the_bound_decides_every_row_as_a_fresh_search(walk):
    decide_walk(*walk)


@pytest.mark.parametrize("n", range(2, MAX_PARTICIPANTS + 1))
def test_the_bound_decides_rows_of_a_walk_without_a_program_pass(n):
    # a first row of clear floors, then rows that move a few pairs by a
    # few units: the anchor's winner holds on most of them
    rng = np.random.default_rng(n)
    ids = tuple(range(n))
    pairs = unordered_pairs(ids)
    labels = rng.integers(0, 3, n)
    row = np.array([8 if labels[a] == labels[b] else -8 for a, b in pairs])
    steps = [("row", tuple(row))]
    for _ in range(30):
        row = row.copy()
        row[rng.integers(0, len(pairs), 2)] += rng.integers(-2, 3, 2)
        steps.append(("row", tuple(row)))
    dicts, blocks = decide_walk(ids, steps)
    assert 0 < dicts.bounded == blocks.bounded < dicts.searched


# --- blocks -----------------------------------------------------------------


def _as_runs(rows):
    """``rows`` of one block as ``assign_block`` takes them: consecutive
    bit-identical rows joined into one run."""
    out, runs = [], []
    for row in rows:
        if out and out[-1].tobytes() == row.tobytes():
            runs[-1] += 1
        else:
            out.append(row)
            runs.append(1)
    return np.array(out), runs


def _expand(decided):
    return [cfg for cfg, n in decided for _ in range(n)]


class CountedAssigner(FloorAssigner):
    """Records the period of every ``assign`` call, as the benchmark's
    tracer and faults see them."""

    def __init__(self):
        super().__init__()
        self.called = []

    def assign(self, posteriors, participants, now_ms):
        self.called.append(now_ms)
        return super().assign(posteriors, participants, now_ms)


class CountedWinners:
    """Counts the calls of ``assigner._winners`` and the rows they search,
    and the lone rows that ``FloorAssigner._search_row`` decides, by a
    program pass or by the anchor's bound, as one pass and one row each."""

    def __init__(self):
        self.passes, self.rows = 0, 0
        self._winners = assigner_module._winners
        search_row = FloorAssigner._search_row

        def lone(assigner, p, ids):
            self.passes += 1
            self.rows += 1
            return search_row(assigner, p, ids)

        self.lone = lone

    def __call__(self, rows, ids):
        self.passes += 1
        self.rows += len(rows)
        return self._winners(rows, ids)


@pytest.fixture
def winners(monkeypatch):
    counted = CountedWinners()
    monkeypatch.setattr(assigner_module, "_winners", counted)
    monkeypatch.setattr(FloorAssigner, "_search_row", counted.lone)
    return counted


# a certain pair (0, 1) and (2, 3) whose floors are a coin flip: the
# merged room and the two pairs tie exactly, and nothing else comes close
TIE = np.array([1.0 if k in ((0, 1), (2, 3)) else 0.5 for k in unordered_pairs(range(4))])
# the two pairs apart
APART = np.array([0.9 if k in ((0, 1), (2, 3)) else 0.1 for k in unordered_pairs(range(4))])


@st.composite
def block_scripts(draw):
    """Blocks of posterior rows with runs, repeats and exact ties, and what
    happens before each block: nothing, a pin or an unpin; each block is
    decided for one of two rooms of the same size (one member swapped).

    Rooms of up to eight draw rows from a few exact values, so partitions
    tie, or from any floats, so the order of a sum shows in its bits;
    rooms of nine or ten draw ``drifting_rows``, as real rooms move.
    """
    n = draw(st.integers(2, 10))
    rooms = (tuple(range(n)), tuple(range(n - 1)) + (n + 3,))
    if n > 8:
        pool = [np.array(list(d.values())) for d in draw(drifting_rows(list(range(n))))]
    else:
        m = n * (n - 1) // 2
        exact = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        probs = st.lists(exact | st.floats(0.0, 1.0), min_size=m, max_size=m)
        pool = [np.array(draw(probs)) for _ in range(draw(st.integers(1, 3)))]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    before = (st.sampled_from([("none",), ("none",), ("unpin",)])
              | st.tuples(st.just("pin"), labels))
    run = st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 12))
    blocks = draw(st.lists(st.tuples(st.integers(0, 1), before, st.lists(run, min_size=1,
                                                                         max_size=8)),
                           min_size=1, max_size=4))
    return rooms, pool, blocks


@settings(max_examples=150, deadline=None)
@given(block_scripts())
# ties with the held choice: inside a block after a row whose winner is
# the held choice, and at the first row of the fourth block, which is the
# third's last row; then the same rows in the other room
@example((((0, 1, 2, 3), (0, 1, 2, 7)), [TIE, APART],
          [(0, ("none",), [(0, 3)]),
           (0, ("pin", [0, 0, 1, 1]), [(0, 2), (1, 1)]),
           (0, ("unpin",), [(1, 2), (0, 3), (1, 1), (0, 2)]),
           (0, ("none",), [(0, 2), (1, 1)]),
           (1, ("none",), [(1, 1), (0, 2)])]))
# a pinned block, then a room change under the pin, which dissolves it
@example((((0, 1, 2), (0, 1, 6)), [np.array([0.9, 0.1, 0.2]), np.array([0.2, 0.9, 0.1])],
          [(0, ("pin", [0, 0, 1]), [(0, 4), (1, 2)]), (1, ("none",), [(1, 3), (0, 2)])]))
def test_primed_blocks_decide_like_one_dict_per_period(script):
    # one assign_block per block must decide, score, count and keep state
    # exactly like one assign per period on a dict of Python floats; the
    # block's first assign makes its only search
    rooms, pool, blocks = script
    bulk, plain = CountedAssigner(), FloorAssigner()
    counted = CountedWinners()
    ticks, got, want = [], [], []
    last = None  # the last row an unpinned period decided, and its room
    for which, before, spec in blocks:
        ids = rooms[which]
        if before[0] == "pin":
            floors = {}
            for m, label in zip(rooms[0], before[1]):
                floors.setdefault(label, []).append(m)
            for a in (bulk, plain):
                a.pin(floors.values(), owner="host", participants=rooms[0])
        elif before[0] == "unpin":
            for a in (bulk, plain):
                a.unpin("host")
        rows, runs = _as_runs([pool[r] for r, k in spec for _ in range(k)])
        pinned = bulk.pinned is not None and sorted(m for b in bulk.pinned for m in b) == list(ids)
        start = EVAL_PERIOD_MS * (len(ticks) + 1)
        calls, searched = len(bulk.called), counted.rows
        with mock.patch.object(assigner_module, "_winners", counted), \
                mock.patch.object(FloorAssigner, "_search_row", counted.lone):
            decided = bulk.assign_block(ids, rows, runs, start)
        called = bulk.called[calls:]
        assert sum(n for _, n in decided) == sum(runs)
        got.extend(_expand(decided))
        firsts, may_change, changed = [], set(), set()
        for row, k in zip(rows, runs):
            firsts.append(EVAL_PERIOD_MS * (len(ticks) + 1))
            winner = _winners(row[None], ids)[0][0].partition
            for _ in range(k):
                ticks.append(EVAL_PERIOD_MS * (len(ticks) + 1))
                if ticks[-1] > start and winner != want[-1].partition:
                    may_change.add(ticks[-1])
                want.append(plain.assign(dict(zip(unordered_pairs(ids), row.tolist())), ids,
                                         now_ms=ticks[-1]))
                if ticks[-1] > start and want[-1].partition != want[-2].partition:
                    changed.add(ticks[-1])
        if pinned:
            # each run decided by one assign, with no search
            assert (called, counted.rows - searched) == (firsts, 0)
        else:
            # one assign for the first run, then only where the winner is
            # not the held choice, and wherever the choice changes
            assert called[0] == start and len(set(called)) == len(called)
            assert changed <= set(called[1:]) <= may_change
            # every row searched once, by the program or the bound, but a
            # first row that is the last one decided
            assert counted.rows - searched == len(rows) - (last == (ids, rows[0].tobytes()))
            last = (ids, rows[-1].tobytes())
    assert [c.partition for c in got] == [c.partition for c in want]
    assert (np.array([c.score for c in got]).tobytes()
            == np.array([c.score for c in want]).tobytes())
    assert changes(ticks, got) == changes(ticks, want)
    assert (bulk.searched, bulk.reused) == (plain.searched, plain.reused)
    assert (bulk.previous, bulk.pinned) == (plain.previous, plain.pinned)


@settings(max_examples=100, deadline=None)
@given(block_scripts())
# a pinned run, whose repeats are not decided and count as nothing
@example((((0, 1, 2), (0, 1, 6)), [np.array([0.9, 0.1, 0.2])],
          [(0, ("pin", [0, 0, 1]), [(0, 5)]), (0, ("unpin",), [(0, 4)])]))
def test_a_run_decides_like_one_assign_per_period(script):
    # a run of one row, given to assign_block as a block of its own, is
    # one decision by one assign, as by one assign per period
    rooms, pool, blocks = script
    runs, plain = CountedAssigner(), FloorAssigner()
    ticks, got, want = [], [], []
    for which, before, spec in blocks:
        ids = rooms[which]
        if before[0] == "pin":
            floors = {}
            for m, label in zip(rooms[0], before[1]):
                floors.setdefault(label, []).append(m)
            for a in (runs, plain):
                a.pin(floors.values(), owner="host", participants=rooms[0])
        elif before[0] == "unpin":
            for a in (runs, plain):
                a.unpin("host")
        rows, ks = _as_runs([pool[r] for r, k in spec for _ in range(k)])
        for row, k in zip(rows, ks):
            start = EVAL_PERIOD_MS * (len(ticks) + 1)
            calls = len(runs.called)
            decided = runs.assign_block(ids, row[None], [k], start)
            assert runs.called[calls:] == [start]
            assert len(decided) == 1 and decided[0][1] == k
            got.extend(_expand(decided))
            for _ in range(k):
                ticks.append(EVAL_PERIOD_MS * (len(ticks) + 1))
                want.append(plain.assign(dict(zip(unordered_pairs(ids), row.tolist())), ids,
                                         now_ms=ticks[-1]))
    assert [c.partition for c in got] == [c.partition for c in want]
    assert (np.array([c.score for c in got]).tobytes()
            == np.array([c.score for c in want]).tobytes())
    assert changes(ticks, got) == changes(ticks, want)
    assert (runs.searched, runs.reused) == (plain.searched, plain.reused)
    assert (runs.previous, runs.pinned) == (plain.previous, plain.pinned)


def test_a_run_in_a_room_of_one_counts_nothing():
    # one participant has one partition and no search, so nothing is reused
    bulk, plain = FloorAssigner(), FloorAssigner()
    alone = FloorConfiguration(((4,),), 0.5)
    assert bulk.assign_block((4,), np.zeros((1, 0)), [5], 30) == [(alone, 5)]
    for t in range(30, 180, 30):
        plain.assign({}, [4], now_ms=t)
    assert (bulk.searched, bulk.reused) == (plain.searched, plain.reused) == (0, 0)


@pytest.mark.parametrize("n", range(2, MAX_PARTICIPANTS + 1))
def test_a_primed_block_scores_to_the_bit_of_a_search_per_period(n):
    ids = tuple(range(n))
    rng = np.random.default_rng(n)
    rows = rng.random((6, n * (n - 1) // 2))
    block = rows[[0, 0, 1, 2, 2, 2, 3, 1, 4, 5, 5]]
    bulk, plain = FloorAssigner(), FloorAssigner()
    decided = _expand(bulk.assign_block(ids, *_as_runs(block), EVAL_PERIOD_MS))
    for k, (got, row) in enumerate(zip(decided, block), 1):
        want = plain.assign(dict(zip(unordered_pairs(ids), row.tolist())), ids,
                            now_ms=k * EVAL_PERIOD_MS)
        assert got.partition == want.partition
        assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes()
    counts = (bulk.searched, bulk.reused)
    assert counts == (plain.searched, plain.reused) == (7, 4)


def test_a_block_that_starts_with_the_last_row_reuses_it(winners):
    ids = (0, 1, 2, 3)
    r1, r2, r3 = np.random.default_rng(3).random((3, 6))
    a = FloorAssigner()
    a.assign_block(ids, np.array([r1, r2]), [1, 1], 30)
    a.assign_block(ids, np.array([r2, r3]), [1, 1], 90)
    assert (a.searched, a.reused) == (3, 1)
    # the repeated row was not searched again with its block
    assert (winners.passes, winners.rows) == (2, 3)


def test_a_primed_row_is_not_read_for_another_room():
    row = np.array([[0.9, 0.1, 0.1]])
    a = FloorAssigner()
    assert a.assign_block((0, 1, 2), row, [1], 30) == [(a.previous, 1)]
    # the same row bytes, but 2 has left and 5 has joined
    assert a.assign_block((0, 1, 5), row, [1], 60)[0][0].partition == ((0, 1), (5,))
    assert a.assign_block((0, 1, 2), row, [1], 90)[0][0].partition == ((0, 1), (2,))
    assert (a.searched, a.reused) == (3, 0)


def test_a_primed_tie_set_keeps_the_previous_choice_across_a_pin_change():
    # the merged room and the two pairs tie, as in the unprimed case above
    ids = (0, 1, 2, 3)
    split, merged = ((0, 1), (2, 3)), ((0, 1, 2, 3),)
    a = FloorAssigner()

    def block(t, runs):
        return [cfg.partition for cfg, _ in a.assign_block(ids, np.array([TIE]), runs, t)]

    assert block(30, [4]) == [merged]
    a.pin(split, owner="host", participants=ids)
    assert block(150, [2]) == [split]
    a.unpin("host")
    # the pinned split is now the previous choice, and it is in the tie set
    assert block(210, [3]) == [split]
    # a block whose first row is the last row keeps it too
    a.pin(split, owner="host", participants=ids)
    assert block(300, [1]) == [split]
    a.unpin("host")
    assert block(330, [2]) == [split]
    assert (a.searched, a.reused) == (1, 8)


def test_an_assigner_keeps_nothing_of_a_block_but_its_last_row():
    # a room that runs for hours keeps the last row's winner, not every
    # row it ever decided
    ids = tuple(range(5))
    rng = np.random.default_rng(8)
    a = FloorAssigner()
    for i in range(6):
        block = rng.random((20, 10))
        a.assign_block(ids, block, [1] * 20, 30 + 600 * i)
        assert set(vars(a)) == set(vars(FloorAssigner()))
        assert a._last[0] == (ids, block[-1].tobytes())


def test_a_ten_person_block_is_searched_by_its_first_assign(winners):
    # every size of room searches its block in one pass of slices of
    # _PASS_VALUES >> 10 = 16 rows, from inside the block's first assign
    ids = tuple(range(10))
    block = np.random.default_rng(10).random((40, 45))
    seen = []

    class Watched(FloorAssigner):
        def assign(self, posteriors, participants, now_ms):
            seen.append(winners.passes)
            cfg = super().assign(posteriors, participants, now_ms)
            seen.append(winners.passes)
            return cfg

    a = Watched()
    a.assign_block(ids, block, [2] * 40, 30)
    # later assign calls, where a run's winner is not the held choice,
    # read it off the block's search
    assert seen == [0] + [3] * (len(seen) - 1) and winners.rows == 40
    assert (a.searched, a.reused) == (40, 40)


@pytest.mark.parametrize("n, size, again", [(10, 17, False), (9, 33, False), (6, 2, True)])
def test_a_row_a_block_leaves_alone_is_decided_as_a_lone_row(n, size, again):
    # slices of _PASS_VALUES >> n rows (16 at ten, 32 at nine) leave a
    # block's last row alone, as does a first row that is read back. The
    # lone row goes through _search_row, so it reads and sets the anchor
    ids = tuple(range(n))
    pairs = unordered_pairs(ids)
    rng = np.random.default_rng(n)
    block = rng.random((size, len(pairs)))
    runs = rng.integers(1, 4, size).tolist()
    # decided alone first: the row read back, or the anchor of the last row
    before = block[0] if again else block[-1]
    bulk, plain = FloorAssigner(), FloorAssigner()
    bulk.assign_block(ids, before[None], [1], 30)
    plain.assign(dict(zip(pairs, before.tolist())), ids, now_ms=30)
    lone, search_row = [], FloorAssigner._search_row

    def spied(assigner, p, ids):
        lone.append(p.tobytes())
        return search_row(assigner, p, ids)

    with mock.patch.object(FloorAssigner, "_search_row", spied):
        decided = _expand(bulk.assign_block(ids, block, runs, 60))
    assert lone == [block[-1].tobytes()]
    want = [plain.assign(dict(zip(pairs, row.tolist())), ids, now_ms=60 + EVAL_PERIOD_MS * k)
            for k, row in enumerate(np.repeat(block, runs, axis=0))]
    assert [c.partition for c in decided] == [c.partition for c in want]
    assert (np.array([c.score for c in decided]).tobytes()
            == np.array([c.score for c in want]).tobytes())
    assert (bulk.searched, bulk.reused) == (plain.searched, plain.reused)
    # the anchor's own row is decided by its bound; a new row by a pass
    # that makes it the anchor
    assert bulk.bounded == (not again)
    assert np.array_equal(bulk._anchor[1], _weights(block[-1]))


@pytest.mark.parametrize("n", [4, 10])
def test_a_pinned_room_never_searches_its_block(winners, n):
    ids = tuple(range(n))
    block = np.random.default_rng(n).random((12, n * (n - 1) // 2))
    a = FloorAssigner()
    a.pin([ids], owner="host", participants=ids)
    decided = a.assign_block(ids, block, [3] * 12, 30)
    assert [cfg.partition for cfg, _ in decided] == [(ids,)] * 12
    assert (winners.passes, a.searched, a.reused) == (0, 0, 0)


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
