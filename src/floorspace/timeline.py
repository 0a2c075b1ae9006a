"""Time base, the room size cap, and per-tick speech activity.

Everything downstream runs on one integer tick grid: a tick is one
millisecond since the session epoch, and bit ``i`` of an activity
stream covers the half-open interval ``[start_tick + i, start_tick
+ i + 1)``. Utterances are half-open ``[start, end)`` intervals on
the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    @property
    def duration_ms(self) -> int:
        return self.end - self.start


class ActivityStream:
    """Dense speech/non-speech bits for one participant.

    A single writer appends to the stream; readers see every bit
    appended so far. Reads outside the recorded range are
    defined as non-speech, so late joiners and short recordings need no
    special casing downstream.
    """

    def __init__(self, participant: int, start_tick: Tick = 0, bits=None):
        self.participant = participant
        self.start_tick = start_tick
        if bits is None:
            self._buf = np.zeros(1024, dtype=bool)
            self._len = 0
        else:
            # a copy of exactly the bits given; only appends grow it
            self._buf = np.array(np.atleast_1d(bits), dtype=bool)
            self._len = len(self._buf)

    def __len__(self) -> int:
        return self._len

    def __repr__(self):
        return (
            f"ActivityStream(participant={self.participant}, "
            f"ticks=[{self.start_tick}, {self.end_tick}))"
        )

    @property
    def end_tick(self) -> Tick:
        """One past the last recorded tick."""
        return self.start_tick + self._len

    @property
    def bits(self) -> np.ndarray:
        """Read-only view of everything recorded so far."""
        view = self._buf[: self._len]
        view.flags.writeable = False
        return view

    def append(self, bits) -> None:
        bits = np.atleast_1d(np.asarray(bits, dtype=bool))
        need = self._len + len(bits)
        if need > len(self._buf):
            cap = max(len(self._buf), 1)
            while cap < need:
                cap *= 2
            grown = np.zeros(cap, dtype=bool)
            grown[: self._len] = self._buf[: self._len]
            self._buf = grown
        self._buf[self._len : need] = bits
        self._len = need

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
            out[lo - from_tick : hi - from_tick] = self._buf[
                lo - self.start_tick : hi - self.start_tick
            ]
        return out


def stream_from_intervals(
    participant: int, intervals, duration_ms: Tick, start_tick: Tick = 0
) -> ActivityStream:
    """Build a stream that is speech exactly inside the given [start, end) pairs."""
    bits = np.zeros(duration_ms, dtype=bool)
    for s, e in intervals:
        lo = max(int(s) - start_tick, 0)
        hi = min(int(e) - start_tick, duration_ms)
        if lo < hi:
            bits[lo:hi] = True
    return ActivityStream(participant, start_tick, bits)
