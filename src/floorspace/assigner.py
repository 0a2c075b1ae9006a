"""Floor configuration search and per-listener gain assignment.

A floor configuration is a partition of the present participants into
disjoint conversational floors. Every evaluation period
(EVAL_PERIOD_MS, 30 ms) the assigner finds the best of all set
partitions (their count is the Bell number of the participant count,
115,975 at the 10-person cap). Each listener then hears floor-mates at
NORMAL_GAIN and everyone else at QUIET_GAIN. The period and the two
gains are constants, the same for replay and live.

A partition's score is the mean, over every unordered pair of present
participants, of the probability the partition assigns to that pair:
the pair's mutual-floor posterior when the partition puts the two in
one floor, and its complement when it separates them. Scoring all
pairs, not only the within-floor ones, is what lets larger floors and
multi-floor configurations beat a lone high-posterior pair: evidence
that two people are apart must count against configurations that
join them, and vice versa.

With m pairs, a score is (sum(1 - p) + sum of w = 2p - 1 over the
pairs the partition joins) / m, so partitions compare on the sum of
their blocks' values, a block's value being the sum of its pairs'
weights. The search is exact but never lists the partitions: it is
the subset dynamic program of coalition structure generation (Yeh
1986; Rahwan & Jennings 2008). For every subset S, f(S) is the best
total over partitions of S, taken over the blocks that hold S's lowest
member, each plus f of what it leaves; subsets are solved in order of
size. Only subsets of members 1..n-1 and the whole room are needed,
10,353 (subset, block) steps at n=10.

The weights are rounded to integers, w = rint((2p - 1) * 2^40), so
every sum is exact (at most 45 terms of at most 2^40, well inside the
53 bits of a float64) and no order of summation can decide a tie. The
program maximises 16 * value - floors, so an exact tie goes to the
fewest floors, and each subset's blocks are tried in the order of
their member tuples, so the first maximum is the smallest canonical
form. The previous choice is kept instead whenever its exact value
equals the best. The rounding moves a partition's value by less than
2^-40 per pair, so the chosen score is within 2^-40 of the real best.
The reported score is computed in float64 from the row and the chosen
partition.

``FloorAssigner.assign`` decides the period that ``now_ms`` names
from the posteriors as any ``Mapping`` from unordered pair
to probability: a plain dict, whose values it reads once in pair order
as a block of one row, or a ``_BlockRow`` view over one row of a
block. It is the one place that chooses a period's partition: the pin,
else the search's winner, unless the previous choice keeps a tie. The
choice does not read ``now_ms``: a regroup takes effect in the period
that finds it. Every choice is scored the same way, from the row
and the partition's same_floor vector, and a winner that stands is the
search's own ``FloorConfiguration``. The tracker computes a block of
periods' posteriors at once, one row per run of periods that share a
row, and hands the block to ``assign_block``. One place,
``_search_block``, finds, counts and keeps every row's winner.
Posteriors are binned features and often repeat a row, so it keeps the
last row's key (the participant ids and the row's bytes), its winner
and the winner's exact value: a first row equal to it is read back and
counted ``reused``, and every other row is counted ``searched``. It
runs the program over the block in slices, a slice of one as a lone
row (below). ``assign_block`` sends the first run through ``assign``
with a ``_BlockRow``, which also carries the whole block and its
winners, and that call searches the block. A later run whose winner is
the held choice is decided as that winner, with no call: that is what
``assign`` would choose, since the tie rule only acts on a winner that
differs from the previous choice. Any other run goes through
``assign``, which reads its winner off the block's search and applies
the tie rule; the tie rule runs at every decision, so a row read back
still keeps a previous choice that a pin or a tie changed. A run is one
decision: its choice holds for all of its periods, whose later periods
count ``reused``. A pinned room searches nothing and decides each run
with ``assign``.

A lone row (a dict's, a live pump's, or a block's last slice of one)
may be decided without a program pass. Its pass keeps each subset's
second-best total as well as its best, so it also returns the winner's
margin: its key less the best key of any other partition, an exact
integer in key units (16 * value - floors). The assigner keeps one
anchor, the last lone row the program searched: its integer weights
w0, its winner and that winner's margin. A later lone row w of the
same ids moves each partition's key by 16 times the sum of w - w0 over
the pairs it joins, so the winner's lead over any rival falls by at
most 16 * L, where L sums w0 - w over the pairs the winner joins and
w - w0 over the pairs it splits, wherever that is positive. When
16 * L < margin the winner still leads every other partition by at
least one key unit, so the program would choose it, and it is decided
as the anchor's winner with value w @ same_floor and the score that a
search would report; the tie rule then runs as after a search. Every
term is an exact integer, so the bound never errs; the row still counts
as searched, and ``bounded`` counts it too.
"""

from __future__ import annotations

import collections.abc
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, PinPermissionError
from .timeline import MAX_PARTICIPANTS

NEUTRAL_SCORE = 0.5  # score of a configuration with no pairs to witness it
_WEIGHT_SCALE = float(1 << 40)  # integer weights are rint((2p - 1) * this)
_PASS_VALUES = 1 << 14  # block values one slice of a block's search holds
NORMAL_GAIN = 1.0
QUIET_GAIN = 0.2
EVAL_PERIOD_MS = 30

Partition = Tuple[Tuple[int, ...], ...]
PairKey = Tuple[int, int]


def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    """Sort members within blocks and blocks by their smallest member."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def pair_key(a: int, b: int) -> PairKey:
    return (a, b) if a < b else (b, a)


def unordered_pairs(ids: Sequence[int]) -> List[PairKey]:
    ids = sorted(ids)
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]


@lru_cache(maxsize=None)
def _partitions_of_range(n: int) -> Tuple[Partition, ...]:
    # Grown by inserting each next element into every existing block
    # or a new one; blocks stay canonically ordered by construction.
    parts: List[List[List[int]]] = [[[0]]]
    for x in range(1, n):
        grown: List[List[List[int]]] = []
        for p in parts:
            for i in range(len(p)):
                q = [list(b) for b in p]
                q[i].append(x)
                grown.append(q)
            grown.append([list(b) for b in p] + [[x]])
        parts = grown
    return tuple(tuple(tuple(b) for b in p) for p in parts)


def _check_capacity(n: int) -> None:
    if n > MAX_PARTICIPANTS:
        raise CapacityError(
            f"{n} participants exceeds the searchable cap of {MAX_PARTICIPANTS}"
        )


@lru_cache(maxsize=32)
def _pairs_of(ids: Tuple[int, ...]) -> List[PairKey]:
    return unordered_pairs(ids)


@lru_cache(maxsize=32)
def _slots_of(ids: Tuple[int, ...]) -> Dict[PairKey, int]:
    return {k: i for i, k in enumerate(_pairs_of(ids))}


class _BlockRow(collections.abc.Mapping):
    """Read-only pair -> probability view over row ``index`` of the
    ``rows`` that one ``assign_block`` call decides, or over the one row
    that ``assign`` reads from a dict.

    Each row holds the probability of each pair of
    ``unordered_pairs(ids)``, in that order; ``ids`` are sorted.
    ``found`` is shared by every row of the block: empty until the block
    is searched, then each row's winner and exact value, in order.
    """

    __slots__ = ("ids", "rows", "index", "found", "row", "_slots")

    def __init__(self, ids: Tuple[int, ...], rows: np.ndarray, index: int, found: list):
        self.ids, self.rows, self.index, self.found = ids, rows, index, found
        self.row = rows[index]
        self._slots = _slots_of(ids)

    def __getitem__(self, key: PairKey):
        return self.row[self._slots[key]]

    def __iter__(self):
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


def enumerate_partitions(participants: Sequence[int]) -> List[Partition]:
    """All partitions of the given participant ids, canonical form.

    Raises CapacityError beyond MAX_PARTICIPANTS, where exhaustive
    search stops being viable.
    """
    ids = sorted(participants)
    n = len(ids)
    if n == 0:
        return [()]
    _check_capacity(n)
    base = _partitions_of_range(n)
    if ids == list(range(n)):
        return list(base)
    return [tuple(tuple(ids[i] for i in block) for block in p) for p in base]


def score(partition: Iterable[Iterable[int]], posteriors: Mapping[PairKey, float]) -> float:
    """Mean probability the partition assigns to every unordered pair.

    ``posteriors`` must hold a mutual-floor probability for each
    unordered pair of the partition's members. With fewer than two
    participants there are no pairs and the score is NEUTRAL_SCORE.
    This is the pair-by-pair reference; the assigner scores a row with
    ``_scores``, whose last bits may differ.
    """
    blocks = [tuple(b) for b in partition]
    members = sorted(m for b in blocks for m in b)
    block_of = {m: i for i, b in enumerate(blocks) for m in b}
    total = 0.0
    count = 0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            p = posteriors[pair_key(a, b)]
            total += p if block_of[a] == block_of[b] else 1.0 - p
            count += 1
    if count == 0:
        return NEUTRAL_SCORE
    return total / count


@lru_cache(maxsize=None)
def _lexicographic(r: int) -> np.ndarray:
    """Every subset of r ordered members, as a bitmask, in the order of
    their member tuples (a prefix first): 0, {0}, {0, 1}, ..., {1}, ..."""
    order = [0]

    def grow(mask: int, start: int) -> None:
        for i in range(start, r):
            order.append(mask | 1 << i)
            grow(mask | 1 << i, i + 1)

    grow(0, 0)
    return np.array(order, dtype=np.intp)


class _SubsetProgram:
    """The subset dynamic program over the partitions of n members.

    Subsets are bitmasks over the members. ``pairs`` marks the pairs
    each subset holds, so one product gives every block's value.
    ``singles`` are the lone members 1..n-1, each its own block.
    ``layers`` lists, for each larger size, the subsets of members
    1..n-1 of that size, and last the whole room: each with its
    candidate blocks (the lowest member plus any subset of the others,
    in the order of their member tuples) and what each candidate leaves.
    """

    def __init__(self, n: int):
        # n >= 2: smaller rooms have a single partition and no pairs
        _check_capacity(n)
        self.n = n
        masks = np.arange(1 << n)
        # per subset, 1.0 for each pair it holds
        self.pairs = np.zeros((1 << n, n * (n - 1) // 2))
        for j, (a, b) in enumerate(unordered_pairs(range(n))):
            self.pairs[:, j] = masks >> a & masks >> b & 1
        self.singles = 1 << np.arange(1, n)
        self.layers = []
        for k in range(2, n + 1):
            members = np.array(list(combinations(range(1, n), k)) if k < n else [range(n)],
                               dtype=np.intp)
            choose = _lexicographic(k - 1)[:, None] >> np.arange(k - 1) & 1
            blocks = (1 << members[:, :1]) + (1 << members[:, 1:]) @ choose.T
            subsets = (1 << members).sum(axis=1)
            starts = np.arange(0, blocks.size, blocks.shape[1])
            self.layers.append((subsets, blocks, subsets[:, None] ^ blocks, starts))

    def solve(self, w: np.ndarray) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """Per column of integer pair weights ``w``, of shape (m, rows): the
        best partition's exact value, and its blocks as bitmasks in
        canonical order, padded with zeros."""
        full = (1 << self.n) - 1
        # one block's key: 16 times its value, less one floor. Subsets are
        # on the first axis, where indexing is NumPy's fast path
        key = self.pairs @ (16.0 * w) - 1.0
        best = np.zeros_like(key)
        choice = np.zeros(key.shape, dtype=np.intp)
        # a lone member is its own block
        best[self.singles] = -1.0
        choice[self.singles] = self.singles[:, None]
        for subsets, blocks, rest, starts in self.layers:
            total = key[blocks]
            total += best[rest]
            best[subsets] = total.max(axis=1)
            choice[subsets] = blocks.ravel()[(total.argmax(axis=1).T + starts).T]
        top = best[full]
        every = np.arange(len(top))
        left = np.full(len(top), full)
        picked = []
        while left.any():
            picked.append(choice[left, every])
            left ^= picked[-1]
        chosen = list(map(tuple, np.stack(picked, axis=1).tolist()))
        # the key is 16 * value - floors, with 1 <= floors < 16
        return np.ceil(top / 16).astype(np.int64).tolist(), chosen

    def solve_row(self, w: np.ndarray) -> Tuple[int, Tuple[int, ...], float]:
        """One row of integer pair weights ``w``, of shape (m,): the best
        partition's exact value, its blocks as bitmasks in canonical
        order, and its margin, its key less the best key of any other
        partition.

        Each subset keeps its best and its second-best total over its
        partitions: the second is the best over the candidates once the
        winning candidate's total is replaced by its block plus the
        second best of what it leaves.
        """
        full = (1 << self.n) - 1
        key = self.pairs @ (16.0 * w) - 1.0
        best = np.zeros_like(key)
        # the empty set and a lone member have one partition, no second
        second = np.full_like(key, -np.inf)
        choice = np.zeros(key.shape, dtype=np.intp)
        best[self.singles] = -1.0
        choice[self.singles] = self.singles
        for subsets, blocks, rest, starts in self.layers:
            total = key[blocks]
            total += best[rest]
            best[subsets] = total.max(axis=1)
            at = total.argmax(axis=1) + starts
            chosen = choice[subsets] = blocks.ravel()[at]
            total.ravel()[at] = key[chosen] + second[rest.ravel()[at]]
            second[subsets] = total.max(axis=1)
        # its few choices are read faster one by one
        left, picked = full, []
        while left:
            picked.append(choice.item(left))
            left ^= picked[-1]
        top = best.item(full)
        return math.ceil(top / 16), tuple(picked), top - second.item(full)


@lru_cache(maxsize=None)
def _program(n: int) -> _SubsetProgram:
    return _SubsetProgram(n)


def build_scorers(max_participants: int) -> None:
    """Build the search tables for every room size up to the cap.

    The first search at a room size builds them otherwise; a live
    server calls this at start-up so no frame pays for it.
    """
    for n in range(2, max_participants + 1):
        _program(n)


def _weights(p: np.ndarray) -> np.ndarray:
    """The pairs' integer weights, as exact float64 integers."""
    return np.rint((2.0 * p - 1.0) * _WEIGHT_SCALE)


@lru_cache(maxsize=1024)
def _partition_of(blocks: Tuple[int, ...], ids: Tuple[int, ...]) -> Partition:
    # the same few partitions win period after period
    return tuple(tuple(m for i, m in enumerate(ids) if b >> i & 1) for b in blocks if b)


@lru_cache(maxsize=1024)
def same_floor(partition: Partition, ids: Tuple[int, ...]) -> Optional[np.ndarray]:
    """1.0 per pair of ``ids`` the partition joins, else 0.0; None if
    the partition covers other members."""
    block_of = {m: i for i, b in enumerate(partition) for m in b}
    if sorted(block_of) != list(ids):
        return None
    return np.array([block_of[a] == block_of[b] for a, b in _pairs_of(ids)], dtype=np.float64)


@dataclass(frozen=True)
class FloorConfiguration:
    """A chosen partition together with the score it won with."""

    partition: Partition
    score: float


def _scores(p: np.ndarray, same: np.ndarray) -> np.ndarray:
    """(sum(1 - p) + sum(2p - 1 over the pairs ``same`` joins)) / m, for
    one row or along each row of a block, with the same bits either way."""
    return ((1.0 - p).sum(axis=-1) + ((2.0 * p - 1.0) * same).sum(axis=-1)) / p.shape[-1]


def _winners(rows: np.ndarray, ids: Tuple[int, ...]) -> List[Tuple[FloorConfiguration, int]]:
    """The winner of each row of posteriors ``rows`` and its exact value."""
    values, chosen = _program(len(ids)).solve(_weights(rows).T)
    # a block's rows choose few distinct partitions: number them first
    number = {blocks: i for i, blocks in enumerate(dict.fromkeys(chosen))}
    parts = [_partition_of(blocks, ids) for blocks in number]
    which = [number[blocks] for blocks in chosen]
    scores = _scores(rows, np.array([same_floor(part, ids) for part in parts])[which])
    return [(FloorConfiguration(parts[i], s), v) for i, s, v in zip(which, scores.tolist(), values)]


def gains(config: FloorConfiguration, participants: Sequence[int]) -> np.ndarray:
    """Per-listener target gains: NORMAL_GAIN for floor-mates, QUIET_GAIN otherwise.

    Row i is the listener and column j the speaker, both in ascending
    participant order. A listener never hears their own stream back,
    hence the zero diagonal.
    """
    ids = tuple(sorted(participants))
    n = len(ids)
    mat = np.full((n, n), QUIET_GAIN, dtype=np.float64)
    for block in config.partition:
        idx = [ids.index(m) for m in block if m in ids]
        for i in idx:
            for j in idx:
                mat[i, j] = NORMAL_GAIN
    np.fill_diagonal(mat, 0.0)
    return mat


class FloorAssigner:
    """Periodic configuration selection with pinning.

    ``assign`` decides one evaluation period (EVAL_PERIOD_MS) from the
    complete pairwise posterior map. ``assign_block`` decides a block of
    periods, in runs that share one posterior row, one decision per run.
    A pinned configuration overrides the search until its owner unpins
    it or the participant set changes. Every choice takes effect at the
    period it is made in: nothing holds a change back.
    """

    def __init__(self):
        self.previous: Optional[FloorConfiguration] = None
        self.pinned: Optional[Partition] = None
        self.pin_owner = None
        # the last decided row's key (ids, posterior row bytes), its
        # winner and the winner's exact integer value
        self._last: Optional[Tuple[tuple, Tuple[FloorConfiguration, int]]] = None
        # the last lone row the program searched: its ids, its integer
        # weights, its winner, the winner's same_floor vector and margin
        self._anchor: Optional[tuple] = None
        # unpinned periods with two or more present, by how they were
        # decided: a search (alone or with its block), or read back; and
        # the searched lone rows that the anchor's bound decided
        self.searched = 0
        self.reused = 0
        self.bounded = 0

    def pin(self, partition: Iterable[Iterable[int]], owner,
            participants: Sequence[int]) -> Partition:
        """Freeze the configuration; only ``owner`` may later unpin it."""
        blocks = [tuple(b) for b in partition]
        if not all(blocks):
            raise ValueError("a pinned floor must not be empty")
        part = canonical_partition(blocks)
        members = sorted(m for b in part for m in b)
        if members != sorted(participants):
            raise ValueError(
                "pinned partition must cover exactly the present participants"
            )
        self.pinned = part
        self.pin_owner = owner
        return part

    def unpin(self, owner) -> None:
        if self.pinned is None:
            return
        if owner != self.pin_owner:
            raise PinPermissionError(
                f"participant {owner} does not own the pin"
            )
        self.drop_pin()

    def drop_pin(self) -> None:
        """Dissolve any pin, whoever owns it."""
        self.pinned = None
        self.pin_owner = None

    def _search_block(self, ids: Tuple[int, ...], rows: np.ndarray) -> list:
        """Every row's winner and exact value, in row order, each counted
        and the last one kept. A first row that is the last row decided is
        read back; the rest are searched in slices of at most _PASS_VALUES
        block values, a slice of one as a lone row."""
        found = []
        if self._last is not None and self._last[0] == (ids, rows[0].tobytes()):
            found.append(self._last[1])
            self.reused += 1
        self.searched += len(rows) - len(found)
        step = max(1, _PASS_VALUES >> len(ids))
        for i in range(len(found), len(rows), step):
            if i + 1 == len(rows):
                found.append(self._search_row(rows[i], ids))
            else:
                found += _winners(rows[i : i + step], ids)
        self._last = ((ids, rows[-1].tobytes()), found[-1])
        return found

    def _search_row(self, p: np.ndarray, ids: Tuple[int, ...]) -> Tuple[FloorConfiguration, int]:
        """The winner of one new row ``p`` and its exact value: the anchor's
        winner when the bound shows that no other partition can reach it,
        else the program's, which makes this row the anchor."""
        w = _weights(p)
        if self._anchor is not None and self._anchor[0] == ids:
            _, w0, part, same, margin = self._anchor
            # how far each pair moved against the winner: down where it
            # joins the pair, up where it splits it
            against = np.maximum((w0 - w) * (2.0 * same - 1.0), 0.0)
            if 16.0 * against.sum() < margin:
                self.bounded += 1
                return FloorConfiguration(part, float(_scores(p, same))), int(w @ same)
        value, blocks, margin = _program(len(ids)).solve_row(w)
        part = _partition_of(blocks, ids)
        same = same_floor(part, ids)
        self._anchor = (ids, w, part, same, margin)
        return FloorConfiguration(part, float(_scores(p, same))), value

    def _search(self, row: _BlockRow) -> Tuple[FloorConfiguration, int]:
        """The winner of ``row`` and its exact value; the block's first
        call searches every row of the block."""
        if not row.found:
            row.found += self._search_block(row.ids, row.rows)
        return row.found[row.index]

    def assign(
        self,
        posteriors: Mapping[PairKey, float],
        participants: Sequence[int],
        now_ms: int,
    ) -> FloorConfiguration:
        """Pick the configuration for the evaluation period at ``now_ms``:
        the pin, else the search's winner, unless the previous choice
        keeps a tie. Every choice is scored on the period's row the way
        the search scores its winners. The decision does not read
        ``now_ms``, which only names the period."""
        ids = tuple(sorted(participants))
        if self.pinned is not None and sorted(m for b in self.pinned for m in b) != list(ids):
            # membership changed underneath the pin; it dissolves
            self.drop_pin()
        if isinstance(posteriors, _BlockRow) and posteriors.ids == ids:
            row = posteriors
        else:
            p = np.array([[posteriors[k] for k in _pairs_of(ids)]], dtype=np.float64)
            row = _BlockRow(ids, p, 0, [])
        previous, best = self.previous, None
        if self.pinned is not None:
            partition = self.pinned
        elif len(ids) < 2:
            partition = (ids,) if ids else ()
        else:
            best, value = self._search(row)
            partition = best.partition
            moved = previous is not None and previous.partition != partition
            kept = same_floor(previous.partition, ids) if moved else None
            if kept is not None and _weights(row.row) @ kept == value:
                # the previous choice keeps a tie, decided on the exact weights
                partition = previous.partition
        if best is None or partition != best.partition:
            scored = _scores(row.row, same_floor(partition, ids)) if len(ids) > 1 else NEUTRAL_SCORE
            best = FloorConfiguration(partition, float(scored))
        self.previous = best
        return best

    def assign_block(
        self,
        ids: Tuple[int, ...],
        rows: np.ndarray,
        runs: Sequence[int],
        now_ms: int,
    ) -> List[Tuple[FloorConfiguration, int]]:
        """Decide a block of consecutive periods from ``now_ms`` on, exactly
        as one ``assign`` each would.

        ``rows`` holds posterior rows over the pairs of the sorted ``ids``
        in order, each for ``runs[i]`` periods; consecutive rows differ.
        Returns one choice per run, in order, each with the number of
        periods it holds for. The first run is decided by ``assign``,
        which searches every row; a later run whose winner is the held
        choice is decided as that winner, and any other by ``assign`` at
        the run's first period (see the module docstring). As in
        ``assign``, the decisions do not read ``now_ms``.
        """
        found: list = []
        cfg = self.assign(_BlockRow(ids, rows, 0, found), ids, now_ms)
        bulk = self.pinned is None and len(ids) > 1
        out = [(cfg, runs[0])]
        t = now_ms + runs[0] * EVAL_PERIOD_MS
        for i, n in enumerate(runs[1:], 1):
            if bulk and found[i][0].partition == self.previous.partition:
                # what assign would choose: there is no tie to keep
                cfg = self.previous = found[i][0]
            else:
                cfg = self.assign(_BlockRow(ids, rows, i, found), ids, t)
            out.append((cfg, n))
            t += n * EVAL_PERIOD_MS
        if bulk:
            # the search counted each run's first period; every later one
            # repeats its row
            self.reused += sum(runs) - len(runs)
        return out
