"""Pairwise turn-taking features.

Two kinds of evidence distinguish people sharing a conversational
floor from people merely sharing a room: where one speaker's turns
begin relative to the other's turn endings (aligned starts suggest a
shared floor), and how much the two talk at the same time (sustained
simultaneous speech suggests separate floors).

Both features are computed per ordered pair at an observation instant
``now``, using only speech observable by then: an utterance still in
progress contributes its running end.

``FeatureEngine`` computes them for every pair at a batch of instants
in array operations. Training uses it as it is; replay and the live
server use ``evaluation.FloorTracker``, which is one.
It counts over the three windows of the model's ``FeatureBinning``
(by default 1/14/15 s, so a 30 s lookback), which also clips the gap
(by default at 5 s) as it bins it. ``trp_gap_from_arrays`` and
``simultaneous_speech`` are the scalar definitions it is tested against.

The engine works in blocks whose size is one memory budget,
``BLOCK_CELLS`` cells of (count row, tick), not one span of time: a
room with fewer member pairs takes longer blocks, so it pays each
block's fixed cost fewer times, and no block's arrays outgrow what a
ten-person room's 9.38 s block holds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .errors import check_integer
from .timeline import ActivityStream, Tick, Utterance

# FeatureBinning's defaults. Gaps are clipped to TRP_CLIP_MS when
# binned; anything further apart carries no alignment information worth
# distinguishing. Simultaneous speech is counted over lookback windows,
# most recent first: (now-1s, now], (now-15s, now-1s], (now-30s, now-15s].
TRP_CLIP_MS = 5000
WINDOW_LENGTHS_MS = (1000, 14000, 15000)

# Array form of a missing gap (``None`` from trp_gap_from_arrays).
NO_GAP = int(np.iinfo(np.int64).min)

# Most cells (count rows x ticks) of activity the engine turns into
# overlap counts at once: a ten-person room's 45 pair rows over 9 386 ms,
# to the whole tick. It bounds the memory a block needs at every room
# size; each engine derives its block span from it and its rows, and the
# tracker evaluates its periods in blocks of that span.
BLOCK_CELLS = 422_400

UtteranceView = Callable[[], Tuple[Sequence[int], Sequence[int]]]


def utterance_views(utterances: Mapping[int, Sequence[Utterance]]) -> Dict[int, UtteranceView]:
    """Each participant's recorded utterance (starts, ends), as a view."""
    views: Dict[int, UtteranceView] = {}
    for pid, utts in utterances.items():
        starts, ends = [u.start for u in utts], [u.end for u in utts]
        views[pid] = lambda s=starts, e=ends: (s, e)
    return views


def trp_gap_from_arrays(
    a_starts: Sequence[int],
    b_starts: Sequence[int],
    b_ends: Sequence[int],
    now: Tick,
) -> Optional[int]:
    """Signed start-to-end gap on sorted utterance arrays, unclipped.

    Positive: the a-side speaker began after the b-side's preceding
    turn ended, i.e. a transition at a turn boundary. Negative: the
    a-side began while the b-side was still talking. Per-speaker
    utterances are disjoint and ordered, so ends are ascending too.
    """
    i = bisect_right(a_starts, now) - 1
    if i < 0:
        return None
    ua_start = a_starts[i]
    j = bisect_left(b_starts, ua_start) - 1  # newest b begun before ua_start
    if j < 0:
        return None
    if b_ends[j] <= ua_start:
        return ua_start - b_ends[j]
    if j >= 1:
        # b was mid-utterance when a started; the newest b turn that
        # had actually ended is the one before it
        return ua_start - b_ends[j - 1]
    # b's only earlier utterance is still open at ua_start; use its
    # running end, which makes the gap non-positive
    return ua_start - min(b_ends[0], now)


def simultaneous_speech(
    a: ActivityStream, b: ActivityStream, now: Tick
) -> Tuple[int, int, int]:
    """Tick counts where both streams are speech, per lookback window.

    Returns (w1, w2, w3) over FeatureBinning's default windows: the most
    recent second, 1 s to 15 s back, and 15 s to 30 s back. Ticks
    before either recording exist count as non-speech.
    """
    edges = np.cumsum((0,) + FeatureBinning().window_lengths_ms)
    lookback = int(edges[-1])
    both = a.window(now - lookback, now) & b.window(now - lookback, now)
    w1, w2, w3 = (int(both[lookback - hi : lookback - lo].sum())
                  for lo, hi in zip(edges[:-1], edges[1:]))
    return (w1, w2, w3)


@dataclass(frozen=True)
class FeatureBinning:
    """Maps raw feature values onto table bins.

    Gap values get fixed-width bins across the range clipped to
    ``trp_clip_ms`` plus one trailing bin for "no antecedent pair of
    turns yet". Overlap counts get equal-width bins across each window's
    possible range. Every value maps to exactly one bin. The engine
    counts over ``window_lengths_ms``: three windows, most recent first.
    Every field is a positive integer.
    """

    trp_bin_width_ms: int = 100
    trp_clip_ms: int = TRP_CLIP_MS
    overlap_bins_per_window: int = 20
    window_lengths_ms: Tuple[int, int, int] = WINDOW_LENGTHS_MS

    def __post_init__(self):
        honour = "a binning the feature engine cannot honour:"
        if len(self.window_lengths_ms) != 3:
            raise ValueError(f"{honour} {self}")
        for name in ("trp_bin_width_ms", "trp_clip_ms", "overlap_bins_per_window"):
            object.__setattr__(self, name, check_integer(
                getattr(self, name), f"{honour} {name}", 1, math.inf, ValueError))
        object.__setattr__(self, "window_lengths_ms", tuple(
            check_integer(w, f"{honour} window_lengths_ms", 1, math.inf, ValueError)
            for w in self.window_lengths_ms))

    @property
    def n_trp_value_bins(self) -> int:
        # at least one, or a bin wider than the clipped range would put
        # every gap in bin -1
        return max(2 * self.trp_clip_ms // self.trp_bin_width_ms, 1)

    @property
    def missing_bin(self) -> int:
        return self.n_trp_value_bins

    @property
    def n_trp_bins(self) -> int:
        return self.n_trp_value_bins + 1

    def bin_array(self, gaps, overlaps) -> np.ndarray:
        """Bins of shape S + (4,) in FEATURE_NAMES order.

        ``gaps`` has shape S with NO_GAP for a missing gap; ``overlaps``
        has shape S + (3,), or leading axes that broadcast against S, and
        is then binned once for every gap it is broadcast to. Each
        window's counts are binned on their own, in int64, as
        ``count * bins // length`` clipped to the window's bins: a
        scalar divisor takes NumPy's fast integer division, where an
        array of the three lengths broadcast over every count does not.
        """
        gaps = np.asarray(gaps, dtype=np.int64)
        overlaps = np.asarray(overlaps, dtype=np.int64)
        clip = self.trp_clip_ms
        out = np.empty(gaps.shape + (4,), dtype=np.intp)
        trp = (np.minimum(np.maximum(gaps, -clip), clip) + clip) // self.trp_bin_width_ms
        out[..., 0] = np.where(
            gaps == NO_GAP, self.missing_bin, np.minimum(trp, self.n_trp_value_bins - 1)
        )
        bins = self.overlap_bins_per_window
        for w, length in enumerate(self.window_lengths_ms):
            ob = overlaps[..., w] * bins // length
            out[..., 1 + w] = np.minimum(np.maximum(ob, 0), bins - 1)
        return out

    def bins_for(self, feature: str) -> int:
        if feature == "trp_gap":
            return self.n_trp_bins
        return self.overlap_bins_per_window

    def to_dict(self) -> dict:
        return {
            "trp_bin_width_ms": self.trp_bin_width_ms,
            "trp_clip_ms": self.trp_clip_ms,
            "overlap_bins_per_window": self.overlap_bins_per_window,
            "window_lengths_ms": list(self.window_lengths_ms),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeatureBinning":
        return cls(
            trp_bin_width_ms=d["trp_bin_width_ms"],
            trp_clip_ms=d["trp_clip_ms"],
            overlap_bins_per_window=d["overlap_bins_per_window"],
            window_lengths_ms=tuple(d["window_lengths_ms"]),
        )


# Utterance starts of all participants are searched as one sorted
# array, keyed by row * _KEY_STRIDE + tick; ticks stay far below it.
_KEY_STRIDE = 1 << 42


def _carried(rows: np.ndarray, old_keys: Sequence, new_keys: Sequence) -> np.ndarray:
    """``rows``, one per old key, re-laid one per new key; new keys get zeros."""
    out = np.zeros((len(new_keys), rows.shape[1]), dtype=rows.dtype)
    where = {key: i for i, key in enumerate(old_keys)}
    kept = np.array([i for i, key in enumerate(new_keys) if key in where], dtype=np.intp)
    out[kept] = rows[np.array([where[new_keys[i]] for i in kept], dtype=np.intp)]
    return out


class FeatureEngine:
    """Features of every ordered pair at a batch of instants, in array ops.

    Activity arrives for the whole room: each ``add_activity`` call
    takes the next block of any length, one row per participant in
    participant order. Every row so covers the same ticks, and
    ``coverage`` is one tick that all rows share; a room without
    participants has no rows, so its coverage stays. Overlap counts
    come from one AND over all member pairs per block of at most
    ``span`` ticks, kept as cumulative counts over the retained window
    only: the lookback behind the earliest instant of the block being
    evaluated, plus the block. Counts are relative to that window, so
    they stay small however long the session runs. The windows, and so the lookback,
    are ``binning``'s, and ``binned`` bins with it.

    ``span`` is the longest block whose count rows, one per member pair,
    fit ``BLOCK_CELLS``, in whole steps of the count resolution: 9 380 ms
    for ten members, 70 400 ms for four and 422 400 ms for two or fewer
    at a 30 ms step. A join or leave sets it anew.

    ``views`` supplies each participant's utterance (starts, ends) as
    observed so far; each is called once per batch. Instants must be
    multiples of ``step_ms`` and must not look back before the lookback
    of an earlier batch; activity before ``start_tick`` reads as
    non-speech.

    The gap has no lookback limit, but a later instant reads few turns.
    After each batch, ``oldest_needed`` maps every member with turns to
    spare to the oldest utterance start a later instant's gap can read;
    a view may drop the turns begun before it, so views stay small
    however long the session runs.

    Participants ``join`` and ``leave`` in place, and ``participants``
    and ``pairs`` (the member pairs, in ``binned`` order) follow. A
    joiner's rows start as zeros, so the ticks before it joined read as
    non-speech, and its activity is fed from ``coverage`` on; a leaver's
    rows are dropped. Nothing already counted is counted again.
    """

    def __init__(
        self,
        participants: Sequence[int],
        views: Mapping[int, UtteranceView],
        binning: FeatureBinning,
        start_tick: Tick = 0,
        step_ms: int = 1,
    ):
        self.views = dict(views)
        self.binning = binning
        # window edges behind ``now``: now, then back by each window
        self._edges = np.cumsum((0,) + binning.window_lengths_ms)
        self._lookback = int(self._edges[-1])
        self._origin = start_tick
        # counts are kept every _res ticks: every window edge of an
        # instant on the step_ms grid falls on a multiple of it
        self._res = math.gcd(step_ms, start_tick, *self._edges.tolist())
        self._index(participants)
        n = len(self.participants)
        # activity not yet counted: every row holds ticks [_bits_tick, coverage)
        self._bits = np.zeros((n, 1024), dtype=bool)
        self._bits_tick = start_tick
        self.coverage: Tick = start_tick
        # column _head + i holds the counts over [_base, _base + i * _res)
        # plus a common offset per row; the window ends at the covered tick
        self._cum = np.zeros((self._m, 1024), dtype=np.int32)
        self._head = 0
        self._cols = 1
        self._base = start_tick
        self.oldest_needed: Dict[int, Tick] = {}

    def _index(self, participants: Sequence[int]) -> None:
        """Rows and the index arrays over them for ``participants``."""
        self.participants = tuple(sorted(participants))
        n = len(self.participants)
        self._row = {pid: r for r, pid in enumerate(self.participants)}
        iu, ju = np.triu_indices(n, 1)
        self._m = len(iu)
        # the member pairs, in overlap-row and ``assigner.unordered_pairs`` order
        ids = self.participants
        self.pairs = [(ids[a], ids[b]) for a, b in zip(iu.tolist(), ju.tolist())]
        self._pair_a, self._pair_b = iu, ju
        # ordered pairs in ``binned`` order
        self._dir_a = np.concatenate((iu, ju))
        self._dir_b = np.concatenate((ju, iu))
        self._row_key = np.arange(n, dtype=np.int64) * _KEY_STRIDE
        self._key_b = self._row_key[self._dir_b, None]
        # the longest block of whole count steps whose rows fit the budget
        cells = BLOCK_CELLS // max(self._m, 1)
        self.span: Tick = max(cells // self._res, 1) * self._res

    def _regroup(self, participants: Sequence[int]) -> None:
        """Re-index for ``participants``; rows of members that stay keep
        their activity and counts, new rows are zeros."""
        old_ids, old_pairs = self.participants, self.pairs
        self._index(participants)
        self._bits = _carried(self._bits, old_ids, self.participants)
        self._cum = _carried(self._cum, old_pairs, self.pairs)
        # the next batch works it out for the new members
        self.oldest_needed = {}

    def join(self, participant: int, view: UtteranceView) -> None:
        """Add a participant whose activity is fed from ``coverage`` on."""
        if participant in self._row:
            raise ValueError(f"participant {participant} is already a member")
        self.views[participant] = view
        self._regroup(self.participants + (participant,))

    def leave(self, participant: int) -> None:
        """Drop a participant with its activity and counts."""
        if participant not in self._row:
            raise ValueError(f"participant {participant} is not a member")
        del self.views[participant]
        self._regroup([p for p in self.participants if p != participant])

    def add_activity(self, rows) -> None:
        """The room's next ticks of activity: one row per participant in
        participant order, all of one length, as a (participants, ticks)
        array or a list of rows. Either is written into the buffer with
        one slice assignment; a list is checked row by row and not
        stacked first, which would copy every row once more. Anything
        else, a ragged list included, is refused, and an empty room's
        ``coverage`` does not move."""
        n = len(self.participants)
        # the shapes of the rows; an empty list is no rows of no ticks
        if isinstance(rows, np.ndarray):
            shapes = {rows.shape[1:]}
        else:
            shapes = {np.shape(row) for row in rows} or {(0,)}
        if len(rows) != n or len(shapes) != 1 or len(row := shapes.pop()) != 1:
            raise ValueError(f"a room block needs one row per participant, "
                             f"{n} of one length")
        if not n:
            return
        end = self.coverage + row[0]
        if end - self._bits_tick > self._bits.shape[1]:
            self._make_room(end)
        lo = self.coverage - self._bits_tick
        self._bits[:, lo : end - self._bits_tick] = rows
        self.coverage = end

    def _make_room(self, end: Tick) -> None:
        """Drop counted activity and grow the buffer to reach ``end``."""
        skip = self._covered - self._bits_tick
        keep = self._bits[:, skip : self.coverage - self._bits_tick]
        need = end - self._covered
        if need > self._bits.shape[1]:
            grown = np.zeros((len(keep), max(need, 2 * self._bits.shape[1])), dtype=bool)
            grown[:, : keep.shape[1]] = keep
            self._bits = grown
        else:
            self._bits[:, : keep.shape[1]] = keep
        self._bits_tick = self._covered

    @property
    def streams(self) -> Dict[int, np.ndarray]:
        """Activity received but not yet counted, per participant."""
        lo = self._covered - self._bits_tick
        hi = self.coverage - self._bits_tick
        return {pid: self._bits[r, lo:hi] for pid, r in self._row.items()}

    @property
    def _covered(self) -> Tick:
        return self._base + (self._cols - 1) * self._res

    def _release(self, before: Tick) -> None:
        drop = (min(before, self._covered) - self._base) // self._res
        if drop > 0:
            self._head += drop
            self._cols -= drop
            self._base += drop * self._res

    def _append(self, both: np.ndarray) -> None:
        """Add one block of co-speech, (rows, ticks) bools whose ticks are
        a multiple of ``_res``, to the cumulative counts. At a resolution
        above one tick each ``_res`` ticks are summed first, by ``einsum``
        over a uint8 view: ``sum(axis=2)`` over so short an inner axis is
        NumPy's slow case."""
        if self._res > 1:
            # the column count is spelled out: a room of no pairs has no rows
            cols = both.shape[1] // self._res
            ticks = both.view(np.uint8).reshape(len(both), cols, self._res)
            both = np.einsum("rck->rc", ticks, dtype=np.int32)
        c = both.shape[1]
        if self._head + self._cols + c > self._cum.shape[1]:
            live = self._cum[:, self._head : self._head + self._cols]
            if self._cols + c > self._cum.shape[1]:
                grown = (self._cols + c) * 3 // 2
                self._cum = np.empty((len(live), grown), dtype=np.int32)
            # rebase on the window's first column while moving it down
            np.subtract(live, live[:, :1], out=self._cum[:, : self._cols])
            self._head = 0
        end = self._head + self._cols
        counts = np.add.accumulate(both, axis=1, dtype=np.int32)
        counts += self._cum[:, end - 1 : end]
        self._cum[:, end : end + c] = counts
        self._cols += c

    def _count(self, upto: Tick, keep_from: Tick) -> None:
        """Count activity through ``upto``, keeping counts from ``keep_from``."""
        self._release(keep_from)
        while self._covered < upto:
            lo = self._covered
            hi = min(upto, lo + self.span)
            bits = self._bits[:, lo - self._bits_tick : hi - self._bits_tick]
            self._append(bits[self._pair_a] & bits[self._pair_b])
            self._release(keep_from)

    def count_through(self, tick: Tick) -> None:
        """Count activity through covered ``tick`` without reading features,
        keeping only the lookback and the turns that instants after it can
        still read."""
        tick -= tick % self._res
        self._count(tick, tick - self._lookback)
        starts, _, first = self._read_views()
        self._note_needed(starts, first, [tick] * len(self.participants), tick)

    def _overlap_counts(self, t: np.ndarray) -> np.ndarray:
        """(pairs, k, 3) window counts at instants spanning less than ``span``."""
        edges = np.maximum(t[:, None] - self._edges, self._origin)
        keep_from = int(edges[0, -1])
        if keep_from < self._base:
            raise ValueError(
                f"instant {int(t[0])} looks back before the retained {self._base}"
            )
        self._count(int(t[-1]), keep_from)
        counts = self._cum[:, self._head + (edges - self._base) // self._res]
        return counts[..., :3] - counts[..., 1:]

    def _windows(self, ticks: Sequence[Tick]) -> Tuple[np.ndarray, np.ndarray]:
        """``ticks`` (at least one, non-decreasing, covered) as an array,
        and the (pairs, k, 3) window counts of every member pair at them."""
        t = np.asarray(ticks, dtype=np.int64).reshape(-1)
        if t[-1] > self.coverage:
            raise ValueError(f"instant {int(t[-1])} is past the covered {self.coverage}")
        if np.any(t % self._res):
            raise ValueError(f"instants must be multiples of {self._res} ms")
        if t[-1] - t[0] < self.span:
            return t, self._overlap_counts(t)
        # counts for one span of instants at a time, so the retained
        # window stays within ``span`` past the lookback
        parts = []
        i = 0
        while i < len(t):
            j = int(np.searchsorted(t, t[i] + self.span))
            parts.append(self._overlap_counts(t[i:j]))
            i = j
        return t, np.concatenate(parts, axis=1)

    def binned(self, ticks: Sequence[Tick]) -> np.ndarray:
        """(k, 2m, 4) bins of every ordered pair at each of ``ticks`` (at
        least one, non-decreasing, covered): (a, b) for each of the m
        pairs in ``pairs`` order, then (b, a) for each."""
        t, windows = self._windows(ticks)
        k, m = len(t), self._m
        # both directions of a pair share its overlap counts: bin them once
        overlaps = windows.transpose(1, 0, 2)
        bins = self.binning.bin_array(self._gaps(t).reshape(k, 2, m), overlaps[:, None])
        return bins.reshape(k, 2 * m, 4)

    def _read_views(self) -> Tuple[List[int], List[int], List[int]]:
        """Every member's turn starts and ends, flattened in row order, and
        where each row's turns begin: row r's are ``first[r]:first[r + 1]``."""
        starts: List[int] = []
        ends: List[int] = []
        first = [0]
        for pid in self.participants:
            s, e = self.views[pid]()
            starts.extend(s)
            ends.extend(e)
            first.append(len(starts))
        return starts, ends, first

    def _note_needed(self, starts: List[int], first: List[int], newest: List[int],
                     now: Tick) -> None:
        """Set ``oldest_needed`` from each member's newest turn start at
        ``now`` (``now`` itself for a member with none yet).

        A later instant's gap for (a, b) reads b's two newest turns begun
        before a's newest start, which only moves later. So b needs its
        two newest turns begun before every other member's newest start,
        and every turn after them; alone, those begun before ``now``,
        where any joiner's turns start.
        """
        # every other member's newest start, at the earliest; ``now`` if none
        lowest, second = sorted(newest + [now, now])[:2]
        needed = {}
        for r, pid in enumerate(self.participants):
            reach = second if newest[r] == lowest else lowest
            keep = bisect_left(starts, reach, first[r], first[r + 1]) - 2
            if keep > first[r]:
                needed[pid] = starts[keep]
        self.oldest_needed = needed

    def _gaps(self, t: np.ndarray) -> np.ndarray:
        """``trp_gap_from_arrays`` for every ordered pair at every instant."""
        starts, ends, first = self._read_views()
        # two trailing pads keep the gathers below in bounds for rows
        # with too few turns; those entries are masked out
        total = len(starts)
        flat = np.array(starts + [0, 0] + ends + [0, 0], dtype=np.int64)
        start_of, end_of = flat[: total + 2], flat[total + 2 :]
        row_first = np.array(first)
        keys = start_of[:total] + np.repeat(self._row_key, np.diff(row_first))
        now = int(t[-1])

        # newest turn start of each participant at or before t
        qa = np.searchsorted(keys, self._row_key[:, None] + t, side="right")
        has_a = qa > row_first[:-1, None]
        newest = start_of[qa - 1]
        self._note_needed(starts, first,
                          np.where(has_a[:, -1], newest[:, -1], now).tolist(), now)
        ua = newest[self._dir_a]
        # newest b turn begun strictly before ua, and the one before it
        qb = np.searchsorted(keys, self._key_b + ua, side="left")
        before = qb - row_first[self._dir_b, None]
        eb = end_of[qb - 1]
        antecedent = np.where(
            eb <= ua,
            eb,
            # b was mid-turn at ua: its previous turn's end, or while
            # b has no earlier turn, the running end of this one
            np.where(before >= 2, end_of[qb - 2], np.minimum(eb, t)),
        )
        valid = has_a[self._dir_a] & (before >= 1)
        return np.where(valid, ua - antecedent, NO_GAP).T
