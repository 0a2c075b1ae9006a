"""Time base, the room size cap, per-tick speech activity, and labels.

Everything downstream runs on one integer tick grid: a tick is one
millisecond since the session epoch, and bit ``i`` of an activity
stream covers the half-open interval ``[start_tick + i, start_tick
+ i + 1)``. Utterances are half-open ``[start, end)`` intervals on
the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidRangeError

# Exhaustive floor-configuration search grows with the Bell numbers,
# so sessions are capped at a size where that stays interactive.
MAX_PARTICIPANTS = 10

Tick = int  # milliseconds since session epoch


@dataclass(frozen=True)
class Utterance:
    """One contiguous speech interval [start, end) of one participant.

    ``floor_label`` identifies the conversational floor the utterance
    belonged to, when known (labeled corpora); live-detected utterances
    leave it as None.
    """

    participant: int
    start: Tick
    end: Tick
    floor_label: Optional[int] = None

    def __post_init__(self):
        if self.start >= self.end:
            raise InvalidRangeError(f"empty utterance [{self.start}, {self.end})")


class ActivityStream:
    """Dense speech/non-speech bits for one participant.

    A stream is written once, from complete bits, and read from then
    on. Reads outside the recorded range are defined as non-speech, so
    late joiners and short recordings need no special casing
    downstream.
    """

    def __init__(self, participant: int, start_tick: Tick = 0, *, bits):
        self.participant = participant
        self.start_tick = start_tick
        # a read-only copy of exactly the bits given
        self._bits = np.array(np.atleast_1d(bits), dtype=bool)
        self._bits.flags.writeable = False

    def __len__(self) -> int:
        return len(self._bits)

    def __repr__(self):
        return (
            f"ActivityStream(participant={self.participant}, "
            f"ticks=[{self.start_tick}, {self.end_tick}))"
        )

    @property
    def end_tick(self) -> Tick:
        """One past the last recorded tick."""
        return self.start_tick + len(self._bits)

    @property
    def bits(self) -> np.ndarray:
        """Every recorded bit, read-only."""
        return self._bits

    def window(self, from_tick: Tick, to_tick: Tick) -> np.ndarray:
        """Bits covering [from_tick, to_tick), zero-padded outside the recording."""
        if from_tick > to_tick:
            raise InvalidRangeError(
                f"window [{from_tick}, {to_tick}) runs backwards"
            )
        out = np.zeros(to_tick - from_tick, dtype=bool)
        lo = max(from_tick, self.start_tick)
        hi = min(to_tick, self.end_tick)
        if lo < hi:
            out[lo - from_tick : hi - from_tick] = self._bits[
                lo - self.start_tick : hi - self.start_tick
            ]
        return out


def stream_from_intervals(participant: int, intervals, duration_ms: Tick) -> ActivityStream:
    """Build a stream over [0, duration_ms) that is speech exactly inside
    the given [start, end) pairs."""
    bits = np.zeros(duration_ms, dtype=bool)
    for s, e in intervals:
        lo = max(int(s), 0)
        hi = min(int(e), duration_ms)
        if lo < hi:
            bits[lo:hi] = True
    return ActivityStream(participant, bits=bits)


def floor_labels(
    utterances: Mapping[int, Sequence[Utterance]], ids: Sequence[int], ticks
) -> np.ndarray:
    """Each participant's floor at each tick, as (ticks, participants) codes.

    A participant is on the floor of their newest utterance begun by the
    tick. Codes are equal exactly where floor labels are, and -1 before
    a participant's first utterance. Each participant's utterances are
    in start order; columns follow ``ids``.
    """
    ticks = np.asarray(ticks, dtype=np.int64)
    codes: Dict[object, int] = {}
    out = np.empty((len(ticks), len(ids)), dtype=np.int64)
    for k, pid in enumerate(ids):
        utts = utterances.get(pid, ())
        starts = np.array([u.start for u in utts], dtype=np.int64)
        # the -1 after the last code is what index -1, no turn yet, reads
        labels = np.array([codes.setdefault(u.floor_label, len(codes)) for u in utts] + [-1],
                          dtype=np.int64)
        out[:, k] = labels[np.searchsorted(starts, ticks, side="right") - 1]
    return out
