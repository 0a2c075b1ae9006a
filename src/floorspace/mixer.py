"""Per-listener audio mixing with click-free gain changes.

Each listener gets an individualized mix of everyone else's stream,
weighted by the current gain matrix. Gain changes glide linearly over
the ramp duration (RAMP_MS) instead of stepping, so floor changes
never click. Accumulation happens in float64 and saturates into int16
on output. Frames are the transport's: FRAME_SAMPLES samples at
SAMPLE_RATE.

The ramp law, shared by the live ``Mixer`` and the offline
``mix_timeline``: a pair seen for the first time starts at its target;
when the target changes, the per-sample step becomes (target - value)
/ RAMP_SAMPLES; within a frame the gain at sample j = 1..n is
value + step * j, clamped at the target; the next frame starts from the
gain at j = n. A glide moves from the frame's start toward its target,
so both clamp it with one clip between the two.

``Mixer.mix_frame`` mixes a whole room per call, from ramp state held
as dense listener x speaker arrays in room order, and sums the
speakers in ascending order with one ``einsum`` contraction. The
held gains go in as a view, which ``einsum`` stretches over the
samples; only a frame where a pair ramps spells out each sample's
gain. ``einsum`` runs without ``optimize``: its own loop then adds the
speakers one at a time in order, where ``optimize`` reorders the
operands and ``@`` hands the sum to BLAS, and either changes the
order of the sum and so the last bits of some samples. ``mix_timeline``
renders one listener's whole timeline offline, in blocks of frames,
and sums in the same order but skips the terms that are signed zeros
(a speaker held at 0 or silent over the block), which can change only
the sign of a zero sum; rounding and the int16 cast erase that, so
both give the same samples.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .transport import FRAME_SAMPLES, SAMPLES_PER_MS

INT16_MIN = -32768
INT16_MAX = 32767
RAMP_MS = 250
RAMP_SAMPLES = RAMP_MS * SAMPLES_PER_MS  # samples a full gain change takes
BLOCK_FRAMES = 64  # most frames of a timeline weighted in one array operation


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

    def __init__(self):
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

    def mix_frame(
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

        The held gains enter the sum as a (listeners, speakers, 1) view;
        a frame where some pairs ramp copies them out to every sample and
        writes the gliding gains. One ``einsum`` without ``optimize``
        weights and sums the speakers in ascending order, with no
        (listeners, speakers, samples) product array.
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
            step[moved] = (target[moved] - value[moved]) / RAMP_SAMPLES
        self._target = target
        pcm = frames.astype(np.float64)
        gain = value[..., None]
        ramping = np.nonzero(value != target)
        if len(ramping[0]):
            v, t = value[ramping][:, None], target[ramping][:, None]
            g = np.clip(v + step[ramping][:, None] * np.arange(1, n + 1),
                        np.minimum(v, t), np.maximum(v, t))
            gain = gain.repeat(n, axis=2)  # a copy, before ``value`` moves
            gain[ramping] = g
            value[ramping] = g[:, -1]
        # speaker by speaker in ascending order: no ``optimize``, no BLAS
        acc = np.einsum("lsn,sn->ln", gain, pcm)
        return np.clip(np.rint(acc), INT16_MIN, INT16_MAX).astype(np.int16)


def _frame_gains(targets: np.ndarray):
    """Start gain and per-sample step of every frame, walked from the targets.

    Each speaker's column is walked by the ramp law only from each
    frame where its target changes, for as long as its gain glides; a
    settled frame starts at its target with no step. Scalar float
    arithmetic does the same IEEE operations as ``Mixer.mix_frame``, so
    the gains are the same bits.
    """
    start = targets.copy()
    step = np.zeros_like(targets)
    fs = FRAME_SAMPLES
    for s in range(targets.shape[1]):
        col = targets[:, s]
        changes = np.flatnonzero(col[1:] != col[:-1]) + 1
        if not len(changes):
            continue
        levels = col[changes].tolist()
        changes = changes.tolist()
        ends = changes[1:] + [len(targets)]
        value = col[0].item()  # the gain at the start of frame f
        frames, values, steps = [], [], []
        for f, target, end in zip(changes, levels, ends):
            d = (target - value) / RAMP_SAMPLES
            while f < end and value != target:
                frames.append(f)
                values.append(value)
                steps.append(d)
                g = value + d * fs
                value = min(g, target) if d > 0 else max(g, target)
                f += 1
        start[frames, s] = values
        step[frames, s] = steps
    return start, step


def mix_timeline(tracks: Sequence[np.ndarray], targets: np.ndarray) -> np.ndarray:
    """One listener's whole int16 mix from a timeline of target gains.

    ``tracks`` are the speakers' int16 tracks, all of one length, in
    ascending id order; ``targets`` holds one row of gains per frame,
    a column per speaker, the last frame possibly partial. The samples
    equal those of ``Mixer.mix_frame`` called frame by frame with the
    same rows, starting from a fresh mixer.

    Up to BLOCK_FRAMES frames are summed at a time, in place in buffers
    allocated once. A speaker's gain is held over the frames where it
    does not glide, and a held 1 adds the track as it is. Only the
    gliding frames compute ramp gains, clipped between each frame's
    start and target gains as ``Mixer.mix_frame`` clips them.

    A block does only the arithmetic that can change its samples. A
    speaker held at 0, or whose track is all zeros over the block, is
    skipped: its term is a signed zero, and x + 0.0 is x unless x is a
    zero. The first remaining term is written, not added to a zeroed
    buffer: 0.0 + p is p unless p is a zero. So the sum differs from
    the frame-by-frame one at most in the sign of a zero, which rint
    keeps and the int16 cast drops. A block with no term is written as
    zeros, and the clip to int16 runs only when the rounded block
    leaves that range, where it would change nothing otherwise. A
    block's end samples are read before its samples are counted, so a
    track that is seldom exactly 0, as a recording with a noise floor
    is, rarely pays for the count.
    """
    fs, n = FRAME_SAMPLES, len(tracks[0])
    targets = np.asarray(targets, dtype=np.float64)
    start, step = _frame_gains(targets)
    gliding = start != targets
    low, high = np.minimum(start, targets), np.maximum(start, targets)
    # per block and speaker: whether any frame glides, else the held gain
    firsts = np.arange(0, len(targets), BLOCK_FRAMES)
    glides = np.logical_or.reduceat(gliding, firsts).tolist()
    held = start[firsts].tolist()
    j = np.arange(1, fs + 1)
    out = np.empty(n, dtype=np.int16)
    acc = np.empty(BLOCK_FRAMES * fs)
    weighted = np.empty(BLOCK_FRAMES * fs)
    gain = np.empty((BLOCK_FRAMES, fs))
    for f0, glide_s, held_s in zip(firsts.tolist(), glides, held):
        f1 = min(f0 + BLOCK_FRAMES, len(targets))
        a, b = f0 * fs, min(f1 * fs, n)
        total, part = acc[: b - a], weighted[: b - a]
        dest = total  # the first term is written, the others added
        # speaker by speaker in ascending order, as Mixer.mix_frame sums
        for s, track in enumerate(tracks):
            if not (glide_s[s] or held_s[s]):
                continue  # held at 0
            pcm = track[a:b]
            # an end sample answers for most blocks that are not silent
            if not (pcm[0] or pcm[-1] or np.count_nonzero(pcm)):
                continue  # silent
            if glide_s[s]:
                g = gain[: f1 - f0]
                g[:] = start[f0:f1, s, None]
                moving = gliding[f0:f1, s].nonzero()[0]
                f = moving + f0
                g[moving] = np.clip(start[f, s, None] + step[f, s, None] * j,
                                    low[f, s, None], high[f, s, None])
                np.multiply(pcm, g.reshape(-1)[: b - a], out=dest)
            elif held_s[s] != 1.0 or dest is total:
                np.multiply(pcm, held_s[s], out=dest)
            else:
                total += pcm
                continue
            if dest is part:
                total += part
            dest = part
        if dest is total:
            out[a:b] = 0  # every term was 0
            continue
        np.rint(total, out=total)
        if total.max() > INT16_MAX or total.min() < INT16_MIN:
            np.clip(total, INT16_MIN, INT16_MAX, out=total)
        out[a:b] = total
    return out
