"""Floor configuration search and per-listener gain assignment.

A floor configuration is a partition of the present participants into
disjoint conversational floors. Every evaluation period
(EVAL_PERIOD_MS, 30 ms) the assigner scores all set partitions (their
count is the Bell number of the participant count, 115,975 at the
10-person cap) and picks the best. Each listener then hears
floor-mates at NORMAL_GAIN and everyone else at QUIET_GAIN. The
period and the two gains are constants, the same for replay and live.

A partition's score is the mean, over every unordered pair of present
participants, of the probability the partition assigns to that pair:
the pair's mutual-floor posterior when the partition puts the two in
one floor, and its complement when it separates them. Scoring all
pairs, not only the within-floor ones, is what lets larger floors and
multi-floor configurations beat a lone high-posterior pair: evidence
that two people are apart must count against configurations that
join them, and vice versa.

The search stays exhaustive but never lists the partitions. They are
grown one member at a time, so a partition's score is its parent's
plus the weights of the new member's pairs with the block it joined;
the first DENSE_MEMBERS members are scored by one dense product. Only
the winning row is turned back into a partition.

Scores within TIE_TOLERANCE of the best count as tied, so the order
of summation cannot decide. Ties break toward the previously chosen
configuration, then toward fewer floors, then toward the
lexicographically smallest canonical form, so the choice is
deterministic. Only tied rows are ranked, when a tie occurs.

``FloorAssigner.assign`` accepts the posteriors as any ``Mapping``
from unordered pair to probability: a plain dict, or the ``PairRow``
view the tracker hands in over one row of its posterior array, which
the search reads as an array without a lookup per pair. Posteriors are
binned features, so consecutive periods often repeat a row. The
assigner therefore keeps the last search's outcome, keyed on the
participant ids and the row's bytes. That outcome is either the
winning ``FloorConfiguration`` itself, shared between periods, or, when
several partitions tie, the tied rows with their scores. The tie rule
runs on that set at every decision, so a repeated row is never searched
again, even after a pin, a dwell hold or a tie changed the previous
choice.

The tracker computes a block of periods' posteriors at once, one row
per run of periods that share a row, and hands those rows to
``FloorAssigner.prime``. In rooms of two to DENSE_MEMBERS with no pin,
``prime`` searches them in one pass: the weights and the sums of 1 - p
over all of them at once, each row's within-floor sums by the same call
as a search, and the tie cut and the argmax over the stacked sums. The
outcomes, the same objects a search would keep, go into a table under
the same keys, which ``assign`` reads before it searches; it holds only
the newest block. A primed row counts as searched.

The tracker then decides each run with one ``assign_run``: one
``assign`` for its first period, whose choice holds for the rest of the
run. That is what one ``assign`` per period would choose. A repeated
row is not searched again but read back, so the rest of the run counts
as reused; and if its outcome is a tie set, the previous choice, which
the first period just made, is in it and is kept. A pin holds as long
as the room does, and a period before a dwell hold expires holds again.
Only the period where a pending hold expires can choose anew, so the
run is split there and that period is decided by another ``assign``.

In rooms of more than DENSE_MEMBERS (9 and 10 people) a new row is
first tried against the last full search that found a unique winner.
That search keeps its weights, its winner and the winner's margin
over the runner-up. No partition can gain on the winner more than the
weight its pairs moved in its favour: the drops on the pairs the
winner joins plus the rises on the pairs it separates. While the
margin exceeds that bound by twice the tie tolerance, the winner still
wins alone, and only its own score is computed, with the same
operations as a full search so that it has the same bits. Otherwise
the row is searched in full, and a unique winner becomes the new
reference; a tie set never does. Rooms of eight or fewer skip the
check: there the whole search is one small dense product that costs
no more than the check itself.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, ConfigError, PinPermissionError
from .timeline import MAX_PARTICIPANTS

NEUTRAL_SCORE = 0.5  # score of a configuration with no pairs to witness it
# scores this close to the best count as tied: far above the float64
# error of a mean of <= 45 terms in [0, 1], far below any real margin
TIE_TOLERANCE = 1e-12
DENSE_MEMBERS = 8  # members scored by one dense product before growing
PRIMED_SUMS = 1 << 16  # within-floor sums stacked at once by FloorAssigner.prime
_GROWN_ROWS = 1 << 15  # rows whose block sums _PartitionScorer.within adds at once
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


class PairRow(collections.abc.Mapping):
    """Read-only pair -> probability view over one posterior row.

    ``row`` is a float64 array holding the probability of each pair of
    ``unordered_pairs(ids)``, in that order; ``ids`` are sorted.
    """

    __slots__ = ("ids", "row", "_slots")

    def __init__(self, ids: Tuple[int, ...], row: np.ndarray):
        self.ids = ids
        self.row = row
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


def bell_number(n: int) -> int:
    """Number of set partitions of n elements (floor configurations), by the Bell triangle."""
    _check_capacity(n)
    row = [1]
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def score(partition: Iterable[Iterable[int]], posteriors: Mapping[PairKey, float]) -> float:
    """Mean probability the partition assigns to every unordered pair.

    ``posteriors`` must hold a mutual-floor probability for each
    unordered pair of the partition's members. With fewer than two
    participants there are no pairs and the score is NEUTRAL_SCORE.
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


class _Level:
    """Partitions of members 0..x, grown from the partitions of 0..x-1.

    Rows follow ``_partitions_of_range``: each row of the level below
    is followed, in order, by member x joining each of its blocks and
    then by x opening a new block. ``labels`` holds each row's block
    per member (a restricted growth string), ``mask`` the bitmask of
    the earlier members in the block x joined, ``starts`` the first
    row grown from each row of the level below.

    The mask is built one earlier member at a time: the ten-person level
    (115,975 rows) keeps 2.3 MB and peaks at 4.3 MB while it is built,
    where one integer product over the whole table would peak at 12.9 MB.
    """

    def __init__(self, below: Optional["_Level"]):
        if below is None:
            self.labels = np.zeros((1, 1), dtype=np.int8)
            self.n_blocks = np.ones(1, dtype=np.int8)
            self.mask = np.zeros(1, dtype=np.intp)
            self.starts = np.zeros(1, dtype=np.intp)
            return
        x = below.labels.shape[1]
        counts = below.n_blocks + 1
        parent = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        self.starts = np.cumsum(counts) - counts
        joined = np.arange(len(parent), dtype=np.intp) - self.starts[parent]
        self.labels = np.concatenate(
            [below.labels[parent], joined.astype(np.int8)[:, None]], axis=1
        )
        self.mask = np.zeros(len(parent), dtype=np.intp)
        for j in range(x):
            self.mask[self.labels[:, j] == self.labels[:, x]] |= 1 << j
        self.n_blocks = below.n_blocks[parent] + (joined == below.n_blocks[parent])


@lru_cache(maxsize=None)
def _level(x: int) -> _Level:
    return _Level(_level(x - 1) if x > 0 else None)


@lru_cache(maxsize=None)
def _dense(k: int) -> np.ndarray:
    """The 0/1 same-floor table of k members' partitions, one column per
    pair; the scorers of every room of k or more members share it."""
    labels = _level(k - 1).labels
    return np.stack(
        [labels[:, a] == labels[:, b] for a, b in unordered_pairs(range(k))], axis=1
    ).astype(np.float64)


def _pair_index(n: int, a: int, b: int) -> int:
    """Position of pair (a, b), a < b, in ``unordered_pairs(range(n))``."""
    return a * (2 * n - a - 1) // 2 + (b - a - 1)


class _PartitionScorer:
    """Scores every partition of n members, one member at a time.

    The first DENSE_MEMBERS members are scored by a dense product of
    their 0/1 same-floor table with the pair weights 2p - 1; every
    later member x adds, to each row grown from a row of the level
    below, the summed weights of its pairs with the block it joined.
    Those sums come from a table over all subsets of the members
    before x, so one level costs a repeat and a lookup per row.
    """

    def __init__(self, n: int):
        # n >= 2: smaller rooms have a single partition and no pairs
        _check_capacity(n)
        self.n = n
        self.m = n * (n - 1) // 2
        self.top = _level(n - 1)
        self.pair_members = np.array(unordered_pairs(range(n)), dtype=np.intp).T
        k = min(n, DENSE_MEMBERS)
        pairs = unordered_pairs(range(k))
        self.base_index = np.array([_pair_index(n, a, b) for a, b in pairs], dtype=np.intp)
        self.base = _dense(k)
        self.growth = []
        for x in range(k, n):
            subsets = (np.arange(1 << x)[:, None] >> np.arange(x) & 1).astype(np.float64)
            columns = np.array([_pair_index(n, j, x) for j in range(x)], dtype=np.intp)
            repeats = _level(x - 1).n_blocks.astype(np.intp) + 1
            self.growth.append((repeats, _level(x).mask, subsets, columns))

    def within(self, w: np.ndarray) -> np.ndarray:
        """Per row, the summed weights of the pairs it puts in one floor."""
        total = self.base @ w[self.base_index]
        for repeats, mask, subsets, columns in self.growth:
            total = np.repeat(total, repeats)
            sums = subsets @ w[columns]
            # in slices: a second full-size temporary made malloc trim and refault the heap
            for lo in range(0, len(total), _GROWN_ROWS):
                total[lo : lo + _GROWN_ROWS] += sums.take(mask[lo : lo + _GROWN_ROWS])
        return total

    def within_row(self, w: np.ndarray, row: int) -> np.float64:
        """``within(w)[row]``, to the bit.

        It repeats ``within``'s operations in the same order: the full
        dense product and the full subset products, then one scalar add
        per level along the row's ancestors, since a product of one row
        alone may sum in another order.
        """
        ancestors = [row]
        for x in range(self.n - 1, self.n - 1 - len(self.growth), -1):
            ancestors.append(int(_level(x).starts.searchsorted(ancestors[-1], "right")) - 1)
        total = (self.base @ w[self.base_index])[ancestors.pop()]
        for (_, mask, subsets, columns), r in zip(self.growth, reversed(ancestors)):
            total = total + (subsets @ w[columns])[mask[r]]
        return total

    def same_floor(self, row: int) -> np.ndarray:
        """Per pair, whether the row puts its two members in one floor."""
        labels = self.top.labels[row]
        return labels[self.pair_members[0]] == labels[self.pair_members[1]]

    def partition(self, row: int, ids: Sequence[int]) -> Partition:
        blocks: List[List[int]] = [[] for _ in range(int(self.top.n_blocks[row]))]
        for i, b in zip(ids, self.top.labels[row].tolist()):
            blocks[b].append(i)
        return tuple(tuple(b) for b in blocks)

    def row_of(self, partition: Partition, ids: Sequence[int]) -> Optional[int]:
        """Row of a canonical partition of ``ids``; None if it covers others."""
        if sorted(m for b in partition for m in b) != list(ids):
            return None
        pos = {m: i for i, m in enumerate(ids)}
        labels = [0] * self.n
        for b, block in enumerate(partition):
            for m in block:
                labels[pos[m]] = b
        row = 0
        for x in range(1, self.n):
            row = int(_level(x).starts[row]) + labels[x]
        return row


@lru_cache(maxsize=None)
def _scorer(n: int) -> _PartitionScorer:
    return _PartitionScorer(n)


@lru_cache(maxsize=1024)
def _partition_at(row: int, ids: Tuple[int, ...]) -> Partition:
    # the same few partitions win period after period
    return _scorer(len(ids)).partition(row, ids)


def build_scorers(max_participants: int) -> None:
    """Build the search structures for every room size up to the cap.

    The first search at a room size builds them otherwise; a live
    server calls this at start-up so no frame pays for it.
    """
    for n in range(2, max_participants + 1):
        _scorer(n)


@dataclass(frozen=True)
class FloorConfiguration:
    """A chosen partition together with the score it won with."""

    partition: Partition
    score: float


class _TieSet:
    """The partitions of ``ids`` that tie for the best score on one row.

    ``rows`` are the tied scorer rows, ``within`` their within-floor
    weight sums and ``apart`` the row's sum of 1 - p, so a row scores
    (apart + within) / m. ``pick`` applies the tie rule.
    """

    def __init__(self, scorer: "_PartitionScorer", ids: Tuple[int, ...],
                 rows: np.ndarray, within: np.ndarray, apart: float):
        self.scorer = scorer
        self.ids = ids
        self.rows = rows
        self.within = within
        self.apart = apart
        # fewest floors, then the smallest canonical form, over these rows only
        floors = scorer.top.n_blocks[rows]
        fewest = np.flatnonzero(floors == floors.min())
        labels = scorer.top.labels[rows[fewest]].astype(np.intp)
        k, n = labels.shape
        # a partition flattened as its blocks' members + 1, each block
        # closed by a 0, compares like the tuple of tuples it encodes
        order = np.argsort(labels * n + np.arange(n), axis=1, kind="stable")
        block = np.take_along_axis(labels, order, axis=1)
        code = np.zeros((k, 2 * n), dtype=np.int8)
        code[np.arange(k)[:, None], np.arange(n) + block] = order + 1
        self.first = int(fewest[np.lexsort(code.T[::-1])[0]])

    def pick(self, previous: Optional[FloorConfiguration]) -> FloorConfiguration:
        i = self.first
        if previous is not None:
            kept = np.flatnonzero(self.rows == self.scorer.row_of(previous.partition, self.ids))
            if len(kept):
                i = int(kept[0])
        best = (self.apart + float(self.within[i])) / self.scorer.m
        return FloorConfiguration(_partition_at(int(self.rows[i]), self.ids), best)


class _Reference:
    """A searched row's unique winner and its lead over every other row.

    ``w`` are the searched row's weights 2p - 1 and ``margin`` the
    winner's within-floor sum minus the runner-up's. From ``w`` to new
    weights w + d, another partition gains on the winner only on the
    pairs where the two differ: at most -d on a pair the winner joins
    and d on a pair it separates. ``decide`` sums those gains over
    every pair as a bound, and while the margin exceeds it the winner
    still wins alone.
    """

    def __init__(self, scorer: "_PartitionScorer", ids: Tuple[int, ...],
                 w: np.ndarray, row: int, margin: float):
        self.scorer = scorer
        self.ids = ids
        self.w = w
        self.row = row
        self.margin = margin
        self.sign = np.where(scorer.same_floor(row), -1.0, 1.0)

    def decide(self, p: np.ndarray, w: np.ndarray) -> Optional[FloorConfiguration]:
        """The winner on row ``p`` (weights ``w``) if the margin proves it."""
        scorer = self.scorer
        bound = np.maximum(self.sign * (w - self.w), 0.0).sum()
        # One TIE_TOLERANCE * m keeps every other row below the search's
        # tie cut. The second covers round-off: the margin, the bound
        # and the new within-floor sums are float sums of at most 45
        # terms no larger than 2, so their error is orders of magnitude
        # below TIE_TOLERANCE * m, the same reason the tie cut uses it.
        if self.margin - bound <= 2 * TIE_TOLERANCE * scorer.m:
            return None
        apart = float((1.0 - p).sum())
        best = (apart + float(scorer.within_row(w, self.row))) / scorer.m
        return FloorConfiguration(_partition_at(self.row, self.ids), best)


def _decide_block(rows: np.ndarray, ids: Tuple[int, ...]) -> list:
    """``_decide``'s outcome for each row of posteriors ``rows``, to the bit,
    in a room of at most DENSE_MEMBERS.

    The within-floor sums come from one stacked product, run as one
    product per row like ``within``'s; the weights, the sums of 1 - p,
    the tie cut and the argmax are taken over the stacked rows.
    """
    scorer = _scorer(len(ids))
    within = (scorer.base @ (2.0 * rows - 1.0)[:, scorer.base_index, None])[..., 0]
    tied = within >= (within.max(axis=1) - TIE_TOLERANCE * scorer.m)[:, None]
    apart = (1.0 - rows).sum(axis=1)
    winner = within.argmax(axis=1)
    best = ((apart + within[np.arange(len(rows)), winner]) / scorer.m).tolist()
    found: list = []
    for i, (n_tied, row, a) in enumerate(zip(tied.sum(axis=1).tolist(), winner.tolist(),
                                             apart.tolist())):
        if n_tied == 1:
            found.append(FloorConfiguration(_partition_at(row, ids), best[i]))
        else:
            cols = tied[i].nonzero()[0]
            found.append(_TieSet(scorer, ids, cols, within[i, cols], a))
    return found


def _decide(p: np.ndarray, w: np.ndarray, ids: Tuple[int, ...]):
    """The winning configuration of row ``p`` (weights ``w = 2p - 1``),
    or its tie set.

    Also returns a ``_Reference`` for a unique winner in rooms of more
    than DENSE_MEMBERS, else None.
    """
    scorer = _scorer(len(ids))
    # score = (sum(1 - p) + within) / m, so rows compare on within
    within = scorer.within(w)
    cut = within.max() - TIE_TOLERANCE * scorer.m
    # a third of the periods of a 4-person replay search; at that size
    # NumPy's Python-level wrappers (np.flatnonzero, np.sum) cost more
    # than the arithmetic, so the array methods are called directly
    tied = (within >= cut).nonzero()[0]
    apart = float((1.0 - p).sum())
    if len(tied) > 1:
        return _TieSet(scorer, ids, tied, within[tied], apart), None
    row = int(tied[0])
    best = (apart + float(within[row])) / scorer.m
    found = FloorConfiguration(_partition_at(row, ids), best)
    if scorer.n <= DENSE_MEMBERS:
        return found, None
    lead = float(within[row])
    within[row] = -np.inf
    return found, _Reference(scorer, ids, w, row, lead - float(within.max()))


def check_dwell(dwell_ms: int) -> None:
    """Raise ConfigError unless ``dwell_ms`` is a non-negative int."""
    if isinstance(dwell_ms, bool) or not isinstance(dwell_ms, int) or dwell_ms < 0:
        raise ConfigError(f"dwell_ms must be a non-negative integer, got {dwell_ms!r}")


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
    """Periodic configuration selection with pinning and optional dwell.

    ``assign`` decides one evaluation period (EVAL_PERIOD_MS) from the
    complete pairwise posterior map; a call without ``now_ms`` advances
    the assigner's clock by one period. ``assign_run`` decides a run of
    periods that share one posterior map. A pinned configuration
    overrides the search until its owner unpins it or the participant
    set changes.
    ``dwell_ms`` > 0 suppresses a switch until that long has passed
    since the last one, trading latency for stability; the default is
    no dwell. It must be a non-negative int (``check_dwell``).
    """

    def __init__(self, dwell_ms: int = 0):
        check_dwell(dwell_ms)
        self.dwell_ms = dwell_ms
        self.previous: Optional[FloorConfiguration] = None
        self.pinned: Optional[Partition] = None
        self.pin_owner = None
        self._clock: int = 0
        self._last_change: Optional[int] = None
        # when the last assign held a switch back: the first tick it may switch
        self._hold_until: Optional[int] = None
        # the last decided row's key (ids, posterior row bytes) and what
        # the row decided: a FloorConfiguration or a _TieSet
        self._last: Optional[Tuple[tuple, object]] = None
        # what the rows of the last primed block decide, by the same key
        self._primed: Dict[tuple, object] = {}
        # the last full search with a unique winner in a large room
        self._reference: Optional[_Reference] = None
        # unpinned periods with two or more present, by how they were
        # decided: a full search, the reference's margin, or _last
        self.searched = 0
        self.certified = 0
        self.reused = 0

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

    def prime(self, ids: Tuple[int, ...], block: np.ndarray) -> None:
        """Search ahead the rows of a block of periods, for the next
        ``assign`` calls to read.

        ``block`` holds posterior rows over the pairs of the sorted
        ``ids`` in order, one per run of periods that share a row. Every
        row (the first unless it is the last row decided) is decided in
        one pass, to the bit as a search would decide it, and kept until
        the next block; a row the table lacks is searched as usual.
        Rooms of more than DENSE_MEMBERS and pinned rooms are not primed.
        """
        self._primed = {}
        if self.pinned is not None or not 2 <= len(ids) <= DENSE_MEMBERS or not len(block):
            return
        rows = np.asarray(block, dtype=np.float64)
        if self._last is not None and self._last[0] == (ids, rows[0].tobytes()):
            rows = rows[1:]
        # in slices, so the stacked sums stay small in rooms of eight
        step = max(1, PRIMED_SUMS // len(_scorer(len(ids)).top.labels))
        for i in range(0, len(rows), step):
            part = rows[i : i + step]
            keys = [(ids, row.tobytes()) for row in part]
            self._primed.update(zip(keys, _decide_block(part, ids)))

    def _search(
        self, posteriors: Mapping[PairKey, float], ids: Tuple[int, ...]
    ) -> FloorConfiguration:
        """Best configuration of ``ids`` by score, then by the tie rules."""
        if len(ids) < 2:
            return FloorConfiguration((ids,) if ids else (), NEUTRAL_SCORE)
        if isinstance(posteriors, PairRow) and posteriors.ids == ids:
            p = posteriors.row
        else:
            p = np.array([posteriors[k] for k in _pairs_of(ids)], dtype=np.float64)
        key = (ids, p.tobytes())
        if self._last is not None and self._last[0] == key:
            self.reused += 1
        else:
            found = self._primed.get(key)
            if found is not None:
                self.searched += 1  # searched with its block by ``prime``
            else:
                w = 2.0 * p - 1.0
                ref = self._reference
                found = ref.decide(p, w) if ref is not None and ref.ids == ids else None
                if found is not None:
                    self.certified += 1
                else:
                    found, reference = _decide(p, w, ids)
                    self.searched += 1
                    if reference is not None:
                        self._reference = reference
            self._last = (key, found)
        found = self._last[1]
        if isinstance(found, _TieSet):
            return found.pick(self.previous)
        return found

    def assign(
        self,
        posteriors: Mapping[PairKey, float],
        participants: Sequence[int],
        now_ms: Optional[int] = None,
    ) -> FloorConfiguration:
        """Pick the best configuration for this evaluation period."""
        ids = tuple(sorted(participants))
        if now_ms is None:
            self._clock += EVAL_PERIOD_MS
            now_ms = self._clock
        else:
            self._clock = now_ms
        self._hold_until = None

        if self.pinned is not None:
            covered = sorted(m for b in self.pinned for m in b)
            if covered != list(ids):
                # membership changed underneath the pin; it dissolves
                self.drop_pin()
            else:
                cfg = FloorConfiguration(self.pinned, score(self.pinned, posteriors))
                self.previous = cfg
                return cfg

        cfg = self._search(posteriors, ids)
        previous = self.previous
        if (
            self.dwell_ms > 0
            and previous is not None
            and cfg.partition != previous.partition
            and self._last_change is not None
            and now_ms - self._last_change < self.dwell_ms
            and sorted(m for b in previous.partition for m in b) == list(ids)
        ):
            # still inside the dwell window; hold the current choice
            cfg = FloorConfiguration(
                previous.partition, float(score(previous.partition, posteriors))
            )
            self._hold_until = self._last_change + self.dwell_ms

        if previous is None or cfg.partition != previous.partition:
            self._last_change = now_ms
        self.previous = cfg
        return cfg

    def assign_run(
        self,
        posteriors: Mapping[PairKey, float],
        participants: Sequence[int],
        now_ms: int,
        periods: int,
    ) -> List[Tuple[FloorConfiguration, int]]:
        """Decide ``periods`` consecutive periods from ``now_ms`` on that
        share one posterior map, exactly as one ``assign`` each would.

        Returns the choices in order, each with the number of periods it
        holds for. A run takes one ``assign`` call, two when a dwell
        hold expires inside it: the periods after a call repeat its
        choice, its clock and its counters (see the module docstring).
        """
        end = now_ms + periods * EVAL_PERIOD_MS
        out: List[Tuple[FloorConfiguration, int]] = []
        while now_ms < end:
            cfg = self.assign(posteriors, participants, now_ms)
            upto = end
            if self._hold_until is not None:
                # the first period at or after the hold's expiry decides anew
                wait = -(-(self._hold_until - now_ms) // EVAL_PERIOD_MS)
                upto = min(end, now_ms + wait * EVAL_PERIOD_MS)
            repeats = (upto - now_ms) // EVAL_PERIOD_MS - 1
            if repeats:
                self._clock = upto - EVAL_PERIOD_MS
                if self.pinned is None and len(participants) > 1:
                    self.reused += repeats
            out.append((cfg, repeats + 1))
            now_ms = upto
        return out
