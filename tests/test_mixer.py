"""Per-listener mixing with ramped gain transitions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace import Mixer, MixerConfig
from floorspace.errors import UnsupportedFormatError
from floorspace.mixer import mix_timeline

FRAME = MixerConfig().frame_samples  # 160


def random_frame(rng, amplitude=10000):
    return rng.integers(-amplitude, amplitude, FRAME).astype(np.int16)


def test_single_speaker_at_full_gain_is_identity():
    rng = np.random.default_rng(1)
    mixer = Mixer()
    x = random_frame(rng)
    out = mixer.mix_frame(0, {1: x}, {1: 1.0})
    assert np.array_equal(out, x)


def test_two_speakers_match_scalar_reference():
    rng = np.random.default_rng(2)
    mixer = Mixer()
    a = random_frame(rng)
    b = random_frame(rng)
    out = mixer.mix_frame(9, {1: a, 2: b}, {1: 1.0, 2: 0.2})
    expected = np.empty(FRAME, dtype=np.int16)
    for k in range(FRAME):
        v = round(1.0 * float(a[k]) + 0.2 * float(b[k]))
        expected[k] = max(-32768, min(32767, v))
    assert np.array_equal(out, expected)


def test_listener_own_frame_is_excluded():
    rng = np.random.default_rng(3)
    a = random_frame(rng)
    own = random_frame(rng)
    with_own = Mixer().mix_frame(7, {1: a, 7: own}, {1: 1.0, 7: 1.0})
    without = Mixer().mix_frame(7, {1: a}, {1: 1.0})
    assert np.array_equal(with_own, without)


def test_speaker_missing_from_targets_is_muted():
    rng = np.random.default_rng(4)
    a = random_frame(rng)
    b = random_frame(rng)
    out = Mixer().mix_frame(9, {1: a, 2: b}, {1: 1.0})
    assert np.array_equal(out, a)


def test_zero_targets_produce_silence():
    rng = np.random.default_rng(5)
    out = Mixer().mix_frame(9, {1: random_frame(rng)}, {1: 0.0})
    assert not out.any()


def test_no_speakers_produce_a_silent_frame():
    out = Mixer().mix_frame(0, {}, {})
    assert len(out) == FRAME
    assert not out.any()


def test_mix_is_linear_up_to_rounding():
    rng = np.random.default_rng(6)
    x = rng.integers(-4000, 4000, FRAME).astype(np.int16)
    m1 = Mixer().mix_frame(9, {1: x}, {1: 0.2}).astype(np.int32)
    m2 = Mixer().mix_frame(9, {1: (2 * x.astype(np.int32)).astype(np.int16)}, {1: 0.2})
    assert np.max(np.abs(m2.astype(np.int32) - 2 * m1)) <= 2


def test_mix_is_additive_across_speakers_at_steady_gains():
    rng = np.random.default_rng(7)
    a = rng.integers(-8000, 8000, FRAME).astype(np.int16)
    b = rng.integers(-8000, 8000, FRAME).astype(np.int16)
    joint = Mixer().mix_frame(9, {1: a, 2: b}, {1: 1.0, 2: 1.0}).astype(np.int32)
    xa = Mixer().mix_frame(9, {1: a}, {1: 1.0}).astype(np.int32)
    xb = Mixer().mix_frame(9, {2: b}, {2: 1.0}).astype(np.int32)
    assert np.max(np.abs(joint - (xa + xb))) <= 1


def test_saturating_sum_clamps_to_int16():
    loud = np.full(FRAME, 30000, dtype=np.int16)
    out = Mixer().mix_frame(9, {1: loud, 2: loud}, {1: 1.0, 2: 1.0})
    assert np.all(out == 32767)
    quiet = np.full(FRAME, -30000, dtype=np.int16)
    out = Mixer().mix_frame(9, {1: quiet, 2: quiet}, {1: 1.0, 2: 1.0})
    assert np.all(out == -32768)


def test_first_sight_of_a_speaker_starts_at_target():
    # a speaker who joins mid-session enters at the configured gain
    # instead of fading in from zero
    x = np.full(FRAME, 10000, dtype=np.int16)
    out = Mixer().mix_frame(0, {5: x}, {5: 0.2})
    assert np.all(out == 2000)


def test_gain_change_ramps_within_the_slope_bound():
    cfg = MixerConfig()
    mixer = Mixer(cfg)
    dc = np.full(FRAME, 10000, dtype=np.int16)
    implied = []
    mixer.mix_frame(0, {1: dc}, {1: 0.2})
    for _ in range(20):  # 400 ms: covers the full 250 ms ramp
        out = mixer.mix_frame(0, {1: dc}, {1: 1.0})
        implied.extend(out.astype(np.float64) / 10000.0)
    implied = np.array(implied)
    steps = np.diff(implied)
    bound = (1.0 - 0.2) / cfg.ramp_samples
    assert np.max(steps) <= bound + 2e-4
    assert np.min(steps) >= -2e-4
    assert implied[0] == pytest.approx(0.2, abs=1e-3)
    assert implied[-1] == pytest.approx(1.0, abs=1e-9)


def test_ramp_reaches_the_target_exactly():
    cfg = MixerConfig()
    mixer = Mixer(cfg)
    dc = np.full(FRAME, 10000, dtype=np.int16)
    mixer.mix_frame(0, {1: dc}, {1: 0.2})
    frames_to_settle = -(-cfg.ramp_samples // cfg.frame_samples) + 1
    for _ in range(frames_to_settle):
        out = mixer.mix_frame(0, {1: dc}, {1: 1.0})
    assert np.all(out == 10000)


def test_ramp_is_continuous_across_frame_boundaries():
    mixer = Mixer()
    dc = np.full(FRAME, 10000, dtype=np.int16)
    mixer.mix_frame(0, {1: dc}, {1: 0.0})
    first = mixer.mix_frame(0, {1: dc}, {1: 1.0})
    second = mixer.mix_frame(0, {1: dc}, {1: 1.0})
    jump = float(second[0]) - float(first[-1])
    per_sample = 10000.0 / MixerConfig().ramp_samples
    assert abs(jump) <= per_sample + 1.0


def test_mismatched_frame_lengths_are_rejected():
    with pytest.raises(UnsupportedFormatError):
        Mixer().mix_frame(
            0,
            {1: np.zeros(160, dtype=np.int16), 2: np.zeros(80, dtype=np.int16)},
            {1: 1.0, 2: 1.0},
        )


def test_mix_output_dtype_and_length():
    rng = np.random.default_rng(8)
    out = Mixer().mix_frame(0, {1: random_frame(rng)}, {1: 0.5})
    assert out.dtype == np.int16
    assert len(out) == FRAME


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
        mixed = together.mix(ids, ids, frames, targets)
        for i, listener in enumerate(ids):
            one = apart.mix_frame(
                listener,
                {pid: frames[j] for j, pid in enumerate(ids)},
                {pid: float(targets[i, j]) for j, pid in enumerate(ids)},
            )
            assert np.array_equal(mixed[i], one)


def test_forgotten_participant_starts_again_at_the_target():
    dc = np.full(FRAME, 10000, dtype=np.int16)
    mixer = Mixer()
    mixer.mix_frame(0, {1: dc}, {1: 1.0})
    mixer.forget(1)
    out = mixer.mix_frame(0, {1: dc}, {1: 0.2})
    assert np.all(out == 2000)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 300 * FRAME),
    st.integers(0, 500),
    st.lists(st.tuples(st.integers(1, 40), st.sampled_from([0.0, 0.2, 0.37, 1.0, 1.5])),
             min_size=1, max_size=60),
    st.integers(0, 2**32 - 1),
)
def test_timeline_mix_equals_frame_by_frame_mixing(speakers, n, ramp_ms, holds, seed):
    """Any gain levels, held for any number of frames per speaker, ramps
    reversing mid-glide, a partial last frame and clipping."""
    rng = np.random.default_rng(seed)
    cfg = MixerConfig(ramp_ms=ramp_ms)
    frames = -(-n // FRAME)
    targets = np.empty((frames, speakers))
    for s in range(speakers):
        levels = np.concatenate([np.full(k, g) for k, g in holds])
        targets[:, s] = np.resize(np.roll(levels, int(rng.integers(len(levels)))), frames)
    tracks = rng.integers(-32768, 32768, (speakers, n)).astype(np.int16)
    mixer, ids = Mixer(cfg), list(range(speakers))
    want = np.concatenate([
        mixer.mix([99], ids, tracks[:, f * FRAME : (f + 1) * FRAME], targets[f : f + 1])[0]
        for f in range(frames)
    ])
    assert np.array_equal(mix_timeline(list(tracks), targets, cfg), want)
