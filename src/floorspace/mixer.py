"""Per-listener audio mixing with click-free gain changes.

Each listener gets an individualized mix of everyone else's stream,
weighted by the current gain matrix. Gain changes glide linearly over
the ramp duration instead of stepping, so floor changes never click.
Accumulation happens in float64 and saturates into int16 on output.

The ramp law, shared by the live ``Mixer`` and the offline
``mix_timeline``: a pair seen for the first time starts at its target;
when the target changes, the per-sample step becomes (target - value)
/ ramp_samples; within a frame the gain at sample j = 1..n is
value + step * j, clamped at the target; the next frame starts from the
gain at j = n.

The live ``Mixer`` mixes a whole room per call, from ramp state held
as dense listener x speaker arrays in room order, and sums the
speakers in ascending order with one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import UnsupportedFormatError

SAMPLE_RATE = 8000
INT16_MIN = -32768
INT16_MAX = 32767

@dataclass
class MixerConfig:
    frame_ms: int = 20
    ramp_ms: int = 250
    sample_rate: int = SAMPLE_RATE

    @property
    def frame_samples(self) -> int:
        return self.frame_ms * self.sample_rate // 1000

    @property
    def ramp_samples(self) -> int:
        return max(1, self.ramp_ms * self.sample_rate // 1000)

BLOCK_FRAMES = 64  # most frames of a timeline weighted in one array operation


def glide(value, step, target, j):
    """Gains at samples ``j`` of a frame that starts at ``value``, by the ramp law."""
    g = value + step * j
    return np.where(step > 0, np.minimum(g, target), np.maximum(g, target))


class Mixer:
    """Stateful renderer of per-listener frames.

    Ramp state (value, target, per-sample step) is kept per ordered pair
    of participant ids, in listener x speaker arrays with one slot per
    id. A pair seen for the first time starts directly at its target,
    so a newly joined speaker is not faded in from silence
    artificially; ``forget`` drops a participant's pairs, so an id
    reused after a leave starts afresh too.

    The room being mixed, (listeners, speakers), holds its pairs as
    dense arrays in room order instead. They are gathered from the
    slots when the room changes and written back to them when it
    changes again or on ``forget``, so ramps carry across joins,
    leaves and id reuse while a steady room reads and writes only its
    own arrays.
    """

    def __init__(self, cfg: Optional[MixerConfig] = None):
        self.cfg = cfg or MixerConfig()
        self._slot: Dict[int, int] = {}
        # known (1.0 once a pair has been mixed), value, target, step
        self._state = np.zeros((4, 0, 0))
        # the room (listeners, speakers) the dense state is for, its slot
        # rows, its own-stream mask, and its value, target and step
        self._room: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        self._rows = self._own = self._value = self._target = self._step = None

    def _slots(self, ids: Sequence[int]) -> np.ndarray:
        for pid in ids:
            if pid not in self._slot:
                self._slot[pid] = len(self._slot)
        grow = len(self._slot) - self._state.shape[1]
        if grow > 0:
            self._state = np.pad(self._state, ((0, 0), (0, grow), (0, grow)))
        return np.array([self._slot[pid] for pid in ids], dtype=np.intp)

    def _store(self) -> None:
        """Write the room's dense state back to its slots and drop it."""
        if self._room is None:
            return
        self._state[0][self._rows] = 1.0
        self._state[1:, self._rows[0], self._rows[1]] = (self._value, self._target, self._step)
        self._room = None

    def _enter(self, room, targets) -> None:
        """Gather the dense state of ``room`` from the slots."""
        self._store()
        listeners, speakers = room
        rows = (self._slots(listeners)[:, None], self._slots(speakers))
        known, value, target, step = self._state[:, rows[0], rows[1]]
        own = np.equal.outer(listeners, speakers)
        # a pair mixed for the first time starts at its target, not moving
        fresh = known == 0
        start = np.where(own, 0.0, targets)[fresh]
        value[fresh] = target[fresh] = start
        self._room, self._rows, self._own = room, rows, own
        self._value, self._target, self._step = value, target, step

    def forget(self, participant: int) -> None:
        """Drop every ramp to and from ``participant``."""
        self._store()
        slot = self._slot.get(participant)
        if slot is not None:
            self._state[:, slot, :] = 0.0
            self._state[:, :, slot] = 0.0

    def mix(
        self,
        listeners: Sequence[int],
        speakers: Sequence[int],
        frames: np.ndarray,
        targets,
    ) -> np.ndarray:
        """One mixed frame per listener, as rows of an int16 array.

        ``speakers`` are ascending ids and ``frames`` their int16
        frames as rows; ``targets`` holds the wanted gain per
        (listener, speaker). A listener's own frame is excluded
        regardless of the targets.
        """
        n = frames.shape[1]
        room = (tuple(listeners), tuple(speakers))
        if room != self._room:
            self._enter(room, targets)
        value, step = self._value, self._step
        # a listener's own stream is held at zero gain
        target = np.where(self._own, 0.0, targets)
        moved = target != self._target
        if moved.any():
            step[moved] = (target[moved] - value[moved]) / self.cfg.ramp_samples
        self._target = target
        pcm = frames.astype(np.float64)
        weighted = value[..., None] * pcm
        ramping = np.nonzero(value != target)
        if len(ramping[0]):
            g = glide(value[ramping][:, None], step[ramping][:, None],
                      target[ramping][:, None], np.arange(1, n + 1))
            value[ramping] = g[:, -1]
            weighted[ramping] = g * pcm[ramping[1]]
        # speaker by speaker in ascending order, as the one-listener sum
        acc = np.add.reduce(weighted, axis=1)
        return np.clip(np.rint(acc), INT16_MIN, INT16_MAX).astype(np.int16)

    def mix_frame(
        self,
        listener: int,
        frames: Mapping[int, np.ndarray],
        targets: Mapping[int, float],
    ) -> np.ndarray:
        """One mixed frame for ``listener``.

        ``frames`` maps speaker id to an int16 PCM frame; all frames
        must share one length. ``targets`` holds the wanted gain per
        speaker (a speaker absent from it is muted). The listener's
        own frame, if present, is excluded regardless of the targets.
        """
        lengths = {len(np.atleast_1d(f)) for f in frames.values()}
        if len(lengths) > 1:
            raise UnsupportedFormatError(
                f"frames of differing lengths in one mix: {sorted(lengths)}"
            )
        if not frames:
            return np.zeros(self.cfg.frame_samples, dtype=np.int16)
        speakers = sorted(frames)
        stacked = np.array([np.atleast_1d(frames[s]) for s in speakers])
        row = [[float(targets.get(s, 0.0)) for s in speakers]]
        return self.mix([listener], speakers, stacked, row)[0]


def _frame_gains(targets: np.ndarray, cfg: MixerConfig):
    """Start gain and per-sample step of every frame, walked from the targets.

    Each speaker's column is walked by the ramp law only over the frames
    where its target changes or its gain still glides; a settled frame
    starts at its target with no step. Scalar float arithmetic does the
    same IEEE operations as ``glide``, so the gains are the same bits.
    """
    start = targets.copy()
    step = np.zeros_like(targets)
    fs, ramp = cfg.frame_samples, cfg.ramp_samples
    n_frames = len(targets)
    for s in range(targets.shape[1]):
        col = targets[:, s]
        changes = (np.flatnonzero(col[1:] != col[:-1]) + 1).tolist()
        col = col.tolist()
        value = target = col[0] if col else 0.0
        d, f = 0.0, 0  # frames before f are walked
        for c in changes:
            if c < f:
                continue  # retargeted mid-glide, already walked
            f = c
            while f < n_frames:
                if col[f] != target:
                    target = col[f]
                    d = (target - value) / ramp
                if value == target:
                    break
                start[f, s], step[f, s] = value, d
                g = value + d * fs
                value = min(g, target) if d > 0 else max(g, target)
                f += 1
    return start, step


def mix_timeline(
    tracks: Sequence[np.ndarray],
    targets: np.ndarray,
    cfg: Optional[MixerConfig] = None,
) -> np.ndarray:
    """One listener's whole int16 mix from a timeline of target gains.

    ``tracks`` are the speakers' int16 tracks, all of one length, in
    ascending id order; ``targets`` holds one row of gains per frame,
    a column per speaker, the last frame possibly partial. The samples
    equal those of ``Mixer.mix`` called frame by frame with the same
    rows, starting from a fresh mixer.
    """
    cfg = cfg or MixerConfig()
    fs, n = cfg.frame_samples, len(tracks[0])
    targets = np.asarray(targets, dtype=np.float64)
    start, step = _frame_gains(targets, cfg)
    gliding = start != targets
    j = np.arange(1, fs + 1)
    out = np.empty(n, dtype=np.int16)
    for f0 in range(0, len(targets), BLOCK_FRAMES):
        f1 = min(f0 + BLOCK_FRAMES, len(targets))
        a, b = f0 * fs, min(f1 * fs, n)
        acc = np.zeros(b - a)
        # speaker by speaker in ascending order, as Mixer.mix sums
        for s, track in enumerate(tracks):
            gain = start[f0, s]  # held over the block unless it glides
            if gliding[f0:f1, s].any():
                rows = (slice(f0, f1), slice(s, s + 1))
                gain = glide(start[rows], step[rows], targets[rows], j).ravel()[: b - a]
            elif not gain:
                continue  # adds only zeros
            acc += gain * track[a:b].astype(np.float64)
        out[a:b] = np.clip(np.rint(acc), INT16_MIN, INT16_MAX)
    return out
