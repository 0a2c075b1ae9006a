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
in array operations; training, replay and the live server all use it.
``trp_gap_from_arrays`` and ``simultaneous_speech`` are the scalar
definitions it is tested against.
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .timeline import ActivityStream, Tick

# Gaps are clipped to this magnitude; anything further apart carries
# no alignment information worth distinguishing.
TRP_CLIP_MS = 5000

# Lookback windows for simultaneous speech, most recent first:
# (now-1s, now], (now-15s, now-1s], (now-30s, now-15s].
WINDOW_LENGTHS_MS = (1000, 14000, 15000)
LOOKBACK_MS = 30000

# Array form of a missing gap (``None`` from trp_gap_from_arrays).
NO_GAP = int(np.iinfo(np.int64).min)

# Most ticks of activity the engine turns into overlap counts at once,
# which bounds the memory a long recording needs; the tracker also
# evaluates its periods in batches of this span.
BLOCK_MS = 7680

UtteranceView = Callable[[], Tuple[Sequence[int], Sequence[int]]]


def trp_gap_from_arrays(
    a_starts: Sequence[int],
    b_starts: Sequence[int],
    b_ends: Sequence[int],
    now: Tick,
) -> Optional[int]:
    """Signed start-to-end gap on sorted utterance arrays.

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
        gap = ua_start - b_ends[j]
    elif j >= 1:
        # b was mid-utterance when a started; the newest b turn that
        # had actually ended is the one before it
        gap = ua_start - b_ends[j - 1]
    else:
        # b's only earlier utterance is still open at ua_start; use
        # its running end, which makes the gap non-positive
        gap = ua_start - min(b_ends[0], now)
    return max(-TRP_CLIP_MS, min(TRP_CLIP_MS, gap))


def simultaneous_speech(
    a: ActivityStream, b: ActivityStream, now: Tick
) -> Tuple[int, int, int]:
    """Tick counts where both streams are speech, per lookback window.

    Returns (w1, w2, w3) covering the most recent second, 1 s to 15 s
    back, and 15 s to 30 s back. Ticks before either recording exist
    count as non-speech.
    """
    both = a.window(now - LOOKBACK_MS, now) & b.window(now - LOOKBACK_MS, now)
    w3 = int(both[:15000].sum())
    w2 = int(both[15000:29000].sum())
    w1 = int(both[29000:].sum())
    return (w1, w2, w3)


@dataclass(frozen=True)
class FeatureBinning:
    """Maps raw feature values onto table bins.

    Gap values get fixed-width bins across the clipped range plus one
    trailing bin for "no antecedent pair of turns yet". Overlap counts
    get equal-width bins across each window's possible range. Every
    value maps to exactly one bin.
    """

    trp_bin_width_ms: int = 100
    trp_clip_ms: int = TRP_CLIP_MS
    overlap_bins_per_window: int = 20
    window_lengths_ms: Tuple[int, int, int] = WINDOW_LENGTHS_MS

    @property
    def n_trp_value_bins(self) -> int:
        return 2 * self.trp_clip_ms // self.trp_bin_width_ms

    @property
    def missing_bin(self) -> int:
        return self.n_trp_value_bins

    @property
    def n_trp_bins(self) -> int:
        return self.n_trp_value_bins + 1

    def bin_array(self, gaps, overlaps) -> np.ndarray:
        """Bins of shape S + (4,) in FEATURE_NAMES order.

        ``gaps`` has shape S with NO_GAP for a missing gap; ``overlaps``
        has shape S + (3,).
        """
        gaps = np.asarray(gaps, dtype=np.int64)
        overlaps = np.asarray(overlaps, dtype=np.int64)
        clip = self.trp_clip_ms
        out = np.empty(gaps.shape + (4,), dtype=np.intp)
        trp = (np.minimum(np.maximum(gaps, -clip), clip) + clip) // self.trp_bin_width_ms
        out[..., 0] = np.where(
            gaps == NO_GAP, self.missing_bin, np.minimum(trp, self.n_trp_value_bins - 1)
        )
        ob = overlaps * self.overlap_bins_per_window // self.window_lengths_ms
        out[..., 1:] = np.minimum(np.maximum(ob, 0), self.overlap_bins_per_window - 1)
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
            trp_bin_width_ms=int(d["trp_bin_width_ms"]),
            trp_clip_ms=int(d["trp_clip_ms"]),
            overlap_bins_per_window=int(d["overlap_bins_per_window"]),
            window_lengths_ms=tuple(int(x) for x in d["window_lengths_ms"]),
        )


class RawFeatures(NamedTuple):
    """Features of every pair at a batch of k instants.

    ``gaps`` is (k, 2m): the gap of (a, b) for each of the m unordered
    pairs, in ``unordered_pairs`` order, then of (b, a) for each.
    ``overlaps`` is (k, m, 3), shared by both directions. ``speech`` is
    (k, n): each participant's speech ticks in the lookback window.
    """

    gaps: np.ndarray
    overlaps: np.ndarray
    speech: np.ndarray


# Utterance starts of all participants are searched as one sorted
# array, keyed by row * _KEY_STRIDE + tick; ticks stay far below it.
_KEY_STRIDE = 1 << 42
# window edges behind ``now``: now, now-1s, now-15s, now-30s
_EDGES_MS = np.cumsum((0,) + WINDOW_LENGTHS_MS)


def _carried(rows: np.ndarray, old_keys: Sequence, new_keys: Sequence) -> np.ndarray:
    """``rows``, one per old key, re-laid one per new key; new keys get zeros."""
    out = np.zeros((len(new_keys), rows.shape[1]), dtype=rows.dtype)
    where = {key: i for i, key in enumerate(old_keys)}
    kept = np.array([i for i, key in enumerate(new_keys) if key in where], dtype=np.intp)
    out[kept] = rows[np.array([where[new_keys[i]] for i in kept], dtype=np.intp)]
    return out


class FeatureEngine:
    """Features of every ordered pair at a batch of instants, in array ops.

    Activity arrives per participant in chunks of any size, or for the
    whole room in one block, and waits until every participant covers
    it. Overlap counts then come from one AND over all pairs (and each
    participant with itself, for ``speech``) per block of at most
    BLOCK_MS ticks, kept as cumulative counts over the retained window
    only: the lookback behind the earliest instant of the block being
    evaluated, plus the block. Counts are relative to that window, so
    they stay small however long the session runs.

    ``views`` supplies each participant's utterance (starts, ends) as
    observed so far; each is called once per batch. Instants must be
    multiples of ``step_ms`` and must not look back before the lookback
    of an earlier batch; activity before ``start_tick`` reads as
    non-speech.

    Participants ``join`` and ``leave`` in place. A joiner's rows start
    as zeros, so the ticks before it joined read as non-speech, and its
    activity is fed from the tick every member covers; a leaver's rows
    are dropped. Nothing already counted is counted again.
    """

    def __init__(
        self,
        participants: Sequence[int],
        views: Mapping[int, UtteranceView],
        start_tick: Tick = 0,
        step_ms: int = 1,
    ):
        self.views = dict(views)
        self._origin = start_tick
        # counts are kept every _res ticks: every window edge of an
        # instant on the step_ms grid falls on a multiple of it
        self._res = math.gcd(step_ms, start_tick, *(int(e) for e in _EDGES_MS))
        self._block = max(BLOCK_MS // self._res, 1) * self._res
        self._index(participants)
        n = len(self.participants)
        # activity not yet counted: row r holds ticks [_bits_tick, _fill[r])
        self._bits = np.zeros((n, 1024), dtype=bool)
        self._bits_tick = start_tick
        self._fill = [start_tick] * n
        # the tick an empty room covers: where its last members stood
        self._idle_tick = start_tick
        # column _head + i holds the counts over [_base, _base + i * _res)
        # plus a common offset per row; the window ends at the covered tick
        self._cum = np.zeros((len(self._row_a), 1024), dtype=np.int32)
        self._head = 0
        self._cols = 1
        self._base = start_tick

    def _index(self, participants: Sequence[int]) -> None:
        """Rows and the index arrays over them for ``participants``."""
        self.participants = tuple(sorted(participants))
        n = len(self.participants)
        self._row = {pid: r for r, pid in enumerate(self.participants)}
        iu, ju = np.triu_indices(n, 1)
        self._m = len(iu)
        # overlap rows: every unordered pair, then every participant alone
        self._row_a = np.concatenate((iu, np.arange(n)))
        self._row_b = np.concatenate((ju, np.arange(n)))
        # ordered pairs in RawFeatures.gaps order
        self._dir_a = np.concatenate((iu, ju))
        self._dir_b = np.concatenate((ju, iu))
        self._row_key = np.arange(n, dtype=np.int64) * _KEY_STRIDE
        self._key_b = self._row_key[self._dir_b, None]

    def _overlap_ids(self) -> List[Tuple[int, int]]:
        """The participant pair of every overlap row, in row order."""
        ids = self.participants
        return [(ids[a], ids[b]) for a, b in zip(self._row_a.tolist(), self._row_b.tolist())]

    def _regroup(self, participants: Sequence[int]) -> None:
        """Re-index for ``participants``; rows of members that stay keep
        their activity and counts, new rows are zeros."""
        old_ids, old_pairs = self.participants, self._overlap_ids()
        old_fill = dict(zip(old_ids, self._fill))
        joined_at = self.coverage
        self._idle_tick = max(self._fill, default=self._idle_tick)
        self._index(participants)
        self._fill = [old_fill.get(pid, joined_at) for pid in self.participants]
        self._bits = _carried(self._bits, old_ids, self.participants)
        self._cum = _carried(self._cum, old_pairs, self._overlap_ids())

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

    def add_activity(self, participant: int, bits) -> None:
        bits = np.asarray(bits, dtype=bool).reshape(-1)
        r = self._row[participant]
        end = self._fill[r] + len(bits)
        if end - self._bits_tick > self._bits.shape[1]:
            self._make_room(end)
        lo = self._fill[r] - self._bits_tick
        self._bits[r, lo : lo + len(bits)] = bits
        self._fill[r] = end

    def add_room_activity(self, bits) -> None:
        """The next chunk of every participant's activity, one row each in
        participant order; every participant must cover the same ticks."""
        bits = np.asarray(bits, dtype=bool)
        fill = self.coverage
        if bits.shape[0] != len(self._fill) or max(self._fill, default=fill) != fill:
            raise ValueError("room activity needs one row per participant, all fed alike")
        end = fill + bits.shape[1]
        if end - self._bits_tick > self._bits.shape[1]:
            self._make_room(end)
        lo = fill - self._bits_tick
        self._bits[:, lo : lo + bits.shape[1]] = bits
        self._fill = [end] * len(self._fill)

    def _make_room(self, end: Tick) -> None:
        """Drop counted activity and grow the buffer to reach ``end``."""
        skip = self._covered - self._bits_tick
        keep = self._bits[:, skip : max(self._fill, default=self._covered) - self._bits_tick]
        need = max([end, *self._fill]) - self._covered
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
        return {
            pid: self._bits[r, lo : self._fill[r] - self._bits_tick]
            for pid, r in self._row.items()
        }

    @property
    def coverage(self) -> Tick:
        """Ticks fully observed across every participant."""
        return min(self._fill, default=self._idle_tick)

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
        if self._res > 1:
            both = both.reshape(len(both), both.shape[1] // self._res, self._res).sum(
                axis=2, dtype=np.int32)
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
            hi = min(upto, lo + self._block)
            bits = self._bits[:, lo - self._bits_tick : hi - self._bits_tick]
            self._append(bits[self._row_a] & bits[self._row_b])
            self._release(keep_from)

    def count_through(self, tick: Tick) -> None:
        """Count activity through covered ``tick`` without reading features,
        keeping only the lookback that instants after it can still read."""
        tick -= tick % self._res
        self._count(tick, tick - LOOKBACK_MS)

    def _overlap_counts(self, t: np.ndarray) -> np.ndarray:
        """(rows, k, 3) window counts at instants spanning less than BLOCK_MS."""
        edges = np.maximum(t[:, None] - _EDGES_MS, self._origin)
        keep_from = int(edges[0, -1])
        if keep_from < self._base:
            raise ValueError(
                f"instant {int(t[0])} looks back before the retained {self._base}"
            )
        self._count(int(t[-1]), keep_from)
        counts = self._cum[:, self._head + (edges - self._base) // self._res]
        return counts[..., :3] - counts[..., 1:]

    def raw(self, ticks: Sequence[Tick]) -> RawFeatures:
        """Features at each of ``ticks`` (at least one, non-decreasing, covered)."""
        t = np.asarray(ticks, dtype=np.int64).reshape(-1)
        if t[-1] > self.coverage:
            raise ValueError(f"instant {int(t[-1])} is past the covered {self.coverage}")
        if np.any(t % self._res):
            raise ValueError(f"instants must be multiples of {self._res} ms")
        # counts for one BLOCK_MS span of instants at a time, so the
        # retained window stays within BLOCK_MS past the lookback
        parts = []
        i = 0
        while i < len(t):
            j = int(np.searchsorted(t, t[i] + BLOCK_MS))
            parts.append(self._overlap_counts(t[i:j]))
            i = j
        windows = np.concatenate(parts, axis=1)
        m = self._m
        return RawFeatures(
            self._gaps(t),
            windows[:m].transpose(1, 0, 2),
            windows[m:].sum(axis=2).T,
        )

    def binned(self, ticks: Sequence[Tick], binning: FeatureBinning) -> np.ndarray:
        """(k, 2m, 4) bins of every ordered pair, in RawFeatures.gaps order."""
        raw = self.raw(ticks)
        overlaps = np.concatenate((raw.overlaps, raw.overlaps), axis=1)
        return binning.bin_array(raw.gaps, overlaps)

    def _gaps(self, t: np.ndarray) -> np.ndarray:
        """``trp_gap_from_arrays`` for every ordered pair at every instant."""
        starts: List[int] = []
        ends: List[int] = []
        counts = []
        for pid in self.participants:
            s, e = self.views[pid]()
            starts.extend(s)
            ends.extend(e)
            counts.append(len(s))
        # two trailing pads keep the gathers below in bounds for rows
        # with too few turns; those entries are masked out
        total = len(starts)
        flat = np.array(starts + [0, 0] + ends + [0, 0], dtype=np.int64)
        start_of, end_of = flat[: total + 2], flat[total + 2 :]
        first = np.cumsum([0] + counts)
        keys = start_of[:total] + np.repeat(self._row_key, counts)

        # newest turn start of each participant at or before t
        qa = np.searchsorted(keys, self._row_key[:, None] + t, side="right")
        has_a = qa > first[:-1, None]
        ua = start_of[qa - 1][self._dir_a]
        # newest b turn begun strictly before ua, and the one before it
        qb = np.searchsorted(keys, self._key_b + ua, side="left")
        before = qb - first[self._dir_b, None]
        eb = end_of[qb - 1]
        antecedent = np.where(
            eb <= ua,
            eb,
            # b was mid-turn at ua: its previous turn's end, or while
            # b has no earlier turn, the running end of this one
            np.where(before >= 2, end_of[qb - 2], np.minimum(eb, t)),
        )
        gap = np.minimum(np.maximum(ua - antecedent, -TRP_CLIP_MS), TRP_CLIP_MS)
        valid = has_a[self._dir_a] & (before >= 1)
        return np.where(valid, gap, NO_GAP).T
