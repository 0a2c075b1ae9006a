"""Per-listener mixing with ramped gain transitions."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import floorspace.mixer as mixer_module
from floorspace.mixer import (
    BLOCK_FRAMES, INT16_MAX, INT16_MIN, RAMP_SAMPLES, Mixer, mix_timeline,
)
from floorspace.transport import FRAME_SAMPLES as FRAME


def random_frame(rng, amplitude=10000):
    return rng.integers(-amplitude, amplitude, FRAME).astype(np.int16)


def mix_one(mixer, listener, speakers, frames, gains):
    """``listener``'s mix of ``frames``, one row per speaker, at ``gains``."""
    return mixer.mix_frame([listener], speakers, np.array(frames), [gains])[0]


def test_single_speaker_at_full_gain_is_identity():
    rng = np.random.default_rng(1)
    x = random_frame(rng)
    out = mix_one(Mixer(), 0, [1], [x], [1.0])
    assert np.array_equal(out, x)


def test_two_speakers_match_scalar_reference():
    rng = np.random.default_rng(2)
    a = random_frame(rng)
    b = random_frame(rng)
    out = mix_one(Mixer(), 9, [1, 2], [a, b], [1.0, 0.2])
    expected = np.empty(FRAME, dtype=np.int16)
    for k in range(FRAME):
        v = round(1.0 * float(a[k]) + 0.2 * float(b[k]))
        expected[k] = max(-32768, min(32767, v))
    assert np.array_equal(out, expected)


def test_listener_own_frame_is_excluded():
    rng = np.random.default_rng(3)
    a = random_frame(rng)
    own = random_frame(rng)
    with_own = mix_one(Mixer(), 7, [1, 7], [a, own], [1.0, 1.0])
    without = mix_one(Mixer(), 7, [1], [a], [1.0])
    assert np.array_equal(with_own, without)


def test_speaker_at_zero_gain_is_muted():
    rng = np.random.default_rng(4)
    a = random_frame(rng)
    b = random_frame(rng)
    out = mix_one(Mixer(), 9, [1, 2], [a, b], [1.0, 0.0])
    assert np.array_equal(out, a)


def test_zero_targets_produce_silence():
    rng = np.random.default_rng(5)
    out = mix_one(Mixer(), 9, [1], [random_frame(rng)], [0.0])
    assert not out.any()


def test_mix_is_linear_up_to_rounding():
    rng = np.random.default_rng(6)
    x = rng.integers(-4000, 4000, FRAME).astype(np.int16)
    m1 = mix_one(Mixer(), 9, [1], [x], [0.2]).astype(np.int32)
    m2 = mix_one(Mixer(), 9, [1], [(2 * x.astype(np.int32)).astype(np.int16)], [0.2])
    assert np.max(np.abs(m2.astype(np.int32) - 2 * m1)) <= 2


def test_mix_is_additive_across_speakers_at_steady_gains():
    rng = np.random.default_rng(7)
    a = rng.integers(-8000, 8000, FRAME).astype(np.int16)
    b = rng.integers(-8000, 8000, FRAME).astype(np.int16)
    joint = mix_one(Mixer(), 9, [1, 2], [a, b], [1.0, 1.0]).astype(np.int32)
    xa = mix_one(Mixer(), 9, [1], [a], [1.0]).astype(np.int32)
    xb = mix_one(Mixer(), 9, [2], [b], [1.0]).astype(np.int32)
    assert np.max(np.abs(joint - (xa + xb))) <= 1


def test_saturating_sum_clamps_to_int16():
    loud = np.full(FRAME, 30000, dtype=np.int16)
    out = mix_one(Mixer(), 9, [1, 2], [loud, loud], [1.0, 1.0])
    assert np.all(out == 32767)
    quiet = np.full(FRAME, -30000, dtype=np.int16)
    out = mix_one(Mixer(), 9, [1, 2], [quiet, quiet], [1.0, 1.0])
    assert np.all(out == -32768)


def test_first_sight_of_a_speaker_starts_at_target():
    # a speaker who joins mid-session enters at the configured gain
    # instead of fading in from zero
    x = np.full(FRAME, 10000, dtype=np.int16)
    out = mix_one(Mixer(), 0, [5], [x], [0.2])
    assert np.all(out == 2000)


def test_gain_change_ramps_within_the_slope_bound():
    mixer = Mixer()
    dc = np.full(FRAME, 10000, dtype=np.int16)
    implied = []
    mix_one(mixer, 0, [1], [dc], [0.2])
    for _ in range(20):  # 400 ms: covers the full 250 ms ramp
        out = mix_one(mixer, 0, [1], [dc], [1.0])
        implied.extend(out.astype(np.float64) / 10000.0)
    implied = np.array(implied)
    steps = np.diff(implied)
    bound = (1.0 - 0.2) / RAMP_SAMPLES
    assert np.max(steps) <= bound + 2e-4
    assert np.min(steps) >= -2e-4
    assert implied[0] == pytest.approx(0.2, abs=1e-3)
    assert implied[-1] == pytest.approx(1.0, abs=1e-9)


def test_ramp_reaches_the_target_exactly():
    mixer = Mixer()
    dc = np.full(FRAME, 10000, dtype=np.int16)
    mix_one(mixer, 0, [1], [dc], [0.2])
    frames_to_settle = -(-RAMP_SAMPLES // FRAME) + 1
    for _ in range(frames_to_settle):
        out = mix_one(mixer, 0, [1], [dc], [1.0])
    assert np.all(out == 10000)


def test_ramp_is_continuous_across_frame_boundaries():
    mixer = Mixer()
    dc = np.full(FRAME, 10000, dtype=np.int16)
    mix_one(mixer, 0, [1], [dc], [0.0])
    first = mix_one(mixer, 0, [1], [dc], [1.0])
    second = mix_one(mixer, 0, [1], [dc], [1.0])
    jump = float(second[0]) - float(first[-1])
    per_sample = 10000.0 / RAMP_SAMPLES
    assert abs(jump) <= per_sample + 1.0


def test_mix_output_dtype_and_length():
    rng = np.random.default_rng(8)
    out = Mixer().mix_frame([0, 2], [1], random_frame(rng)[None], [[0.5], [1.0]])
    assert out.dtype == np.int16
    assert out.shape == (2, FRAME)


def test_one_pass_over_all_listeners_equals_one_mix_per_listener():
    rng = np.random.default_rng(9)
    ids = [0, 2, 3, 7, 8]
    levels = [0.0, 0.2, 1.0, 0.6]
    together, apart = Mixer(), Mixer()
    targets = rng.choice(levels, size=(len(ids), len(ids)))
    for _ in range(120):
        # retarget some pairs often enough that ramps overlap and reverse
        if rng.random() < 0.3:
            change = rng.random(targets.shape) < 0.3
            targets = np.where(change, rng.choice(levels, size=targets.shape), targets)
        frames = np.stack([random_frame(rng, 20000) for _ in ids])
        mixed = together.mix_frame(ids, ids, frames, targets)
        for i, listener in enumerate(ids):
            # one listener per call, so each call switches rooms
            one = mix_one(apart, listener, ids, frames, targets[i])
            assert np.array_equal(mixed[i], one)


def test_forgotten_participant_starts_again_at_the_target():
    dc = np.full(FRAME, 10000, dtype=np.int16)
    mixer = Mixer()
    mix_one(mixer, 0, [1], [dc], [1.0])
    mixer.forget(1)
    out = mix_one(mixer, 0, [1], [dc], [0.2])
    assert np.all(out == 2000)


BLOCK = BLOCK_FRAMES * FRAME  # the samples of one block of mix_timeline


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 300 * FRAME),
    st.lists(st.tuples(st.integers(1, 40), st.sampled_from([0.0, 0.2, 0.37, 1.0, 1.5])),
             min_size=1, max_size=60),
    st.integers(0, 2**32 - 1),
    # (speaker, first sample, samples) spans zeroed; speaker -1 is everyone
    st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 300 * FRAME),
                       st.integers(1, 300 * FRAME)), max_size=5),
)
@example(
    # gains change every few frames, so each speaker glides in every
    # block: speaker 0 is silent over block 0, where speaker 1's glide
    # is the first term; in block 1, speaker 1 is silent at the start
    # and speaker 0 at the end; every speaker is silent over block 2;
    # speaker 2's whole track is silent; the last frame is partial and
    # the full-range sums clip
    speakers=3, n=4 * BLOCK - 90,
    holds=[(5, 0.2), (9, 1.0), (4, 0.0), (6, 0.37)], seed=1,
    silences=[(0, 0, BLOCK), (1, BLOCK, 3000), (0, 2 * BLOCK - 3000, 3000),
              (-1, 2 * BLOCK, BLOCK), (2, 0, 4 * BLOCK)],
)
@example(
    # both held at 1: each one's track is the whole first term of a
    # block where the other is silent, and their sum clips in the last,
    # where speaker 1 is silent at both ends but not between
    speakers=2, n=3 * BLOCK, holds=[(300, 1.0)], seed=2,
    silences=[(0, 0, BLOCK), (1, BLOCK, BLOCK), (1, 2 * BLOCK, 100), (1, 3 * BLOCK - 100, 100)],
)
def test_timeline_mix_equals_frame_by_frame_mixing(speakers, n, holds, seed, silences):
    """Any gain levels, held for any number of frames per speaker, ramps
    reversing mid-glide, a partial last frame, clipping, and silent
    spans: part of a block, whole blocks, whole tracks and blocks where
    every speaker is silent."""
    rng = np.random.default_rng(seed)
    frames = -(-n // FRAME)
    targets = np.empty((frames, speakers))
    for s in range(speakers):
        levels = np.concatenate([np.full(k, g) for k, g in holds])
        targets[:, s] = np.resize(np.roll(levels, int(rng.integers(len(levels)))), frames)
    tracks = rng.integers(-32768, 32768, (speakers, n)).astype(np.int16)
    for s, a, k in silences:
        tracks[slice(None) if s < 0 else s % speakers, a : a + k] = 0
    mixer, ids = Mixer(), list(range(speakers))
    want = np.concatenate([
        mix_one(mixer, 99, ids, tracks[:, f * FRAME : (f + 1) * FRAME], targets[f])
        for f in range(frames)
    ])
    assert np.array_equal(mix_timeline(list(tracks), targets), want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 700 * FRAME),
    st.integers(0, 2**32 - 1),
    # (speaker, first sample, samples) spans zeroed; speaker -1 is everyone
    st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 700 * FRAME),
                       st.integers(1, 300 * FRAME)), max_size=5),
)
@example(
    # speaker 0 is silent at both ends of the timeline, and at both ends
    # of the second and the third three-frame block, but not between
    speakers=2, n=3 * BLOCK, seed=3,
    silences=[(0, 0, 100), (0, 3 * BLOCK - 100, 100), (0, 3 * FRAME, 50),
              (0, 6 * FRAME - 50, 100), (0, 9 * FRAME - 50, 50)],
)
def test_the_mix_block_size_changes_no_sample(speakers, n, seed, silences):
    """BLOCK_FRAMES is a speed constant only: blocks of one frame, of a
    few, of the default and of more than the timeline give the same
    bytes, over glides, holds at 0 and 1, clipping and silent spans."""
    rng = np.random.default_rng(seed)
    frames = -(-n // FRAME)
    levels = np.array([0.0, 0.2, 0.37, 1.0, 1.5])
    # per speaker, random levels each held for 1 to 40 frames
    targets = np.stack([
        np.repeat(levels[rng.integers(0, len(levels), frames)],
                  rng.integers(1, 41, frames))[:frames]
        for _ in range(speakers)
    ], axis=1)
    tracks = rng.integers(-32768, 32768, (speakers, n)).astype(np.int16)
    for s, a, k in silences:
        tracks[slice(None) if s < 0 else s % speakers, a : a + k] = 0
    mixes = []
    for block in (1, 3, 64, 500):
        with mock.patch.object(mixer_module, "BLOCK_FRAMES", block):
            mixes.append(mix_timeline(list(tracks), targets).tobytes())
    assert mixes[1:] == mixes[:-1]


def glide(value, step, target, j):
    """Gains at samples ``j`` of a frame that starts at ``value``, by the
    ramp law as written: clamped at the target from the side it moves."""
    g = value + step * j
    return np.where(step > 0, np.minimum(g, target), np.maximum(g, target))


class SlotMixer:
    """Reference mixer: ramp state per (listener, speaker) id pair, read
    and written every frame, ramps glided by ``glide``, and each
    listener's mix summed speaker by speaker in ascending order."""

    def __init__(self):
        self.state = {}  # (listener, speaker) -> (value, target, step)

    def forget(self, pid):
        for key in [k for k in self.state if pid in k]:
            del self.state[key]

    def mix(self, listeners, speakers, frames, targets):
        n = frames.shape[1]
        j = np.arange(1, n + 1)
        out = np.empty((len(listeners), n), dtype=np.int16)
        for i, listener in enumerate(listeners):
            acc = np.zeros(n)
            for s, speaker in enumerate(speakers):
                target = 0.0 if listener == speaker else float(targets[i][s])
                value, old, step = self.state.get((listener, speaker), (target, target, 0.0))
                if target != old:
                    step = (target - value) / RAMP_SAMPLES
                gain = value
                if value != target:
                    gain = glide(value, step, target, j)
                    value = float(gain[-1])
                self.state[(listener, speaker)] = (value, target, step)
                acc += gain * frames[s].astype(np.float64)
            out[i] = np.clip(np.rint(acc), INT16_MIN, INT16_MAX)
        return out


# decimal gains make the float sum depend on the order of its terms,
# which small samples carry through to the rounded int16
ROOM_LEVELS = [0.0, 0.1, 0.2, 0.3, 0.6, 0.7, 1.0]
ROOM_STEPS = ["frame"] * 6 + ["join", "leave", "rejoin", "address"]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(ROOM_STEPS), st.integers(0, 9),
                       st.integers(0, 2**32 - 1)), max_size=50),
)
@example(
    # ramps under way when one listener loses its address, when a
    # participant leaves and joins again in one frame, and when a new
    # participant joins
    steps=[("frame", 0, 1), ("frame", 0, 2), ("address", 2, 0), ("frame", 0, 3),
           ("address", 2, 0), ("frame", 0, 4), ("rejoin", 1, 0), ("frame", 0, 5),
           ("join", 8, 0), ("frame", 0, 6), ("leave", 0, 0), ("frame", 0, 7)],
)
@example(
    # the full ten-person room, steady and ramping, with small samples
    steps=[("join", 8, 0), ("join", 9, 0)] + [("frame", 0, seed) for seed in range(8, 20)],
)
def test_room_mix_equals_a_speaker_by_speaker_slot_reference(steps):
    """A room of ids 0-9 starting with 0-7, all addressed: joins up to
    ten people, leaves, a leave and rejoin between two frames (the mixer
    forgets the id while the room stays the same), and listeners without
    an address, who are left out of the mix; each frame retargets some
    pairs."""
    mixer = Mixer()
    ref = SlotMixer()
    room, addressed = set(range(8)), set(range(10))
    wanted = {}
    for kind, pid, seed in steps:
        if kind == "join":
            room.add(pid)
        elif kind in ("leave", "rejoin") and pid in room:
            mixer.forget(pid)
            ref.forget(pid)
            if kind == "leave":
                room.discard(pid)
        elif kind == "address":
            addressed ^= {pid}
        elif kind == "frame":
            speakers = sorted(room)
            listeners = [p for p in speakers if p in addressed]
            if not listeners:
                continue
            rng = np.random.default_rng(seed)
            for pair in [(a, b) for a in listeners for b in speakers]:
                if pair not in wanted or rng.random() < 0.3:
                    wanted[pair] = float(rng.choice(ROOM_LEVELS))
            targets = np.array([[wanted[a, b] for b in speakers] for a in listeners])
            amplitude = int(rng.choice([9, 32768]))
            frames = rng.integers(-amplitude, amplitude, (len(speakers), FRAME)).astype(np.int16)
            got = mixer.mix_frame(listeners, speakers, frames, targets)
            assert np.array_equal(got, ref.mix(listeners, speakers, frames, targets))
