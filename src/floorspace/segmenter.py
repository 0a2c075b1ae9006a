"""Turning raw activity bits into utterances, as they arrive.

Gaps shorter than BRIDGE_GAP_MS are absorbed first, then anything
still shorter than MIN_UTTERANCE_MS is dropped. Order matters: a run
of blips separated by tiny gaps can bridge into one utterance that
survives, while the same blips in isolation would all be discarded.
Both thresholds are constants. Each live session feeds its own
``OnlineSegmenter`` the VAD's bits, 20 ms at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

import numpy as np

from .timeline import Tick

MIN_UTTERANCE_MS = 100
BRIDGE_GAP_MS = 200


def _runs(bits: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal [start, end) index runs of true bits in a bool array,
    1-D or a bare bool (one tick)."""
    # most live chunks are all silence or all speech; one count tells both
    speech = np.count_nonzero(bits)
    if not speech:
        return []
    if speech == bits.size:
        return [(0, bits.size)]
    edges = np.flatnonzero(np.diff(bits.astype(np.int8)))
    # Python ints, like the edges at the chunk's ends, so views serialise
    starts = (edges[bits[edges + 1]] + 1).tolist()
    ends = (edges[~bits[edges + 1]] + 1).tolist()
    if bits[0]:
        starts.insert(0, 0)
    if bits[-1]:
        ends.append(len(bits))
    return list(zip(starts, ends))


class OnlineSegmenter:
    """Utterances of a growing stream, updated chunk by chunk.

    After feeding bits covering [start_tick, T), ``view()`` holds the
    utterances of that prefix (bridged, then filtered by length), less
    the turns ``forget`` has dropped from its front; how the bits were
    chunked does not matter. Only the newest run can still change (it
    may grow, or a later run may bridge into it), so it is the only run
    kept; an older one is frozen into the view when the next begins, or
    dropped if it is too short. The work per fed chunk is proportional
    to the runs in the chunk. The live room forgets the turns no later
    gap can read (``FloorTracker.oldest_needed``), so the view stays a
    few turns long however long the session runs.
    """

    def __init__(self, participant: int, start_tick: Tick = 0):
        self.participant = participant
        self._next_tick = start_tick
        self._tail: Optional[List[int]] = None  # newest bridged run, absolute ticks
        # cached view of every run except the newest
        self._frozen_starts: List[int] = []
        self._frozen_ends: List[int] = []

    def feed(self, bits) -> None:
        """Segment the next chunk of bits: any length, or a bare bool."""
        bits = np.asarray(bits, dtype=bool)
        base = self._next_tick
        for s, e in _runs(bits):
            s += base
            e += base
            tail = self._tail
            # a run continuing across a chunk boundary has gap 0
            if tail is not None and s - tail[1] < BRIDGE_GAP_MS:
                tail[1] = e
            else:
                self._freeze_tail()
                self._tail = [s, e]
        self._next_tick = base + bits.size

    def _freeze_tail(self) -> None:
        if self._tail is not None:
            s, e = self._tail
            if e - s >= MIN_UTTERANCE_MS:
                self._frozen_starts.append(s)
                self._frozen_ends.append(e)

    def forget(self, before: Tick) -> None:
        """Drop the frozen utterances begun before ``before``."""
        drop = bisect_left(self._frozen_starts, before)
        del self._frozen_starts[:drop]
        del self._frozen_ends[:drop]

    def view(self) -> Tuple[List[int], List[int]]:
        """(starts, ends) of the utterances visible and kept, oldest first."""
        starts = list(self._frozen_starts)
        ends = list(self._frozen_ends)
        if self._tail is not None:
            s, e = self._tail
            if e - s >= MIN_UTTERANCE_MS:
                starts.append(s)
                ends.append(e)
        return starts, ends
