"""Energy voice activity detection on the millisecond grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace.errors import UnsupportedFormatError
from floorspace.vad import (
    SAMPLE_RATE,
    VadConfig,
    VoiceActivityDetector,
    detect,
    frame_rms_db,
    room_frame_bits,
)

FULL_SCALE = 32768.0


def tone(duration_ms, amplitude, freq_hz=440.0):
    n = duration_ms * SAMPLE_RATE // 1000
    t = np.arange(n) / SAMPLE_RATE
    return np.clip(
        np.rint(amplitude * np.sin(2 * np.pi * freq_hz * t)), -32768, 32767
    ).astype(np.int16)


def noise(duration_ms, rms, rng):
    n = duration_ms * SAMPLE_RATE // 1000
    return np.clip(np.rint(rng.normal(0.0, rms, n)), -32768, 32767).astype(np.int16)


def db_to_linear(db):
    return FULL_SCALE * 10.0 ** (db / 20.0)


def test_silence_yields_no_speech():
    bits = detect(np.zeros(SAMPLE_RATE, dtype=np.int16)).bits
    assert len(bits) == 1000
    assert not bits.any()


def test_full_scale_tone_is_speech():
    bits = detect(tone(1000, 32000.0)).bits
    assert len(bits) == 1000
    assert bits[10:].all()


def test_output_covers_exactly_the_input_duration():
    assert len(detect(np.zeros(SAMPLE_RATE // 2, dtype=np.int16))) == 500
    assert len(detect(np.zeros(0, dtype=np.int16))) == 0


def test_onset_and_release_on_quiet_noise_bed():
    rng = np.random.default_rng(3)
    noise_rms = db_to_linear(-70.0)  # well under the energy floor
    tone_amp = db_to_linear(-20.0) * np.sqrt(2.0)  # -20 dBFS RMS sine
    pcm = np.concatenate(
        [noise(500, noise_rms, rng), tone(500, tone_amp), noise(1000, noise_rms, rng)]
    )
    bits = detect(pcm).bits
    assert len(bits) == 2000
    speech = np.flatnonzero(bits)
    assert speech.size > 0
    onset = int(speech[0])
    release = int(speech[-1]) + 1
    assert 480 <= onset <= 520
    hangover = VadConfig().hangover_ms
    assert 1000 <= release <= 1000 + hangover + 20
    # no dropouts inside the tone
    assert bits[onset:1000].all()


def test_detection_is_deterministic():
    rng = np.random.default_rng(17)
    pcm = noise(400, 900.0, rng)
    a = detect(pcm).bits
    b = detect(pcm).bits
    assert np.array_equal(a, b)


def test_louder_signal_never_loses_speech_ticks():
    # with adaptation off the decision is a fixed threshold on frame
    # energy, so doubling the signal can only add speech
    cfg = VadConfig(noise_adapt_rate=0.0)
    rng = np.random.default_rng(29)
    base = np.clip(rng.normal(0.0, 2000.0, SAMPLE_RATE * 2), -4000, 4000)
    quiet = base.astype(np.int16)
    loud = (base * 2.0).astype(np.int16)
    b_quiet = detect(quiet, cfg=cfg).bits
    b_loud = detect(loud, cfg=cfg).bits
    assert not (b_quiet & ~b_loud).any()
    assert b_loud.sum() >= b_quiet.sum()


def test_hangover_bridges_short_energy_dips():
    tone_a = tone(300, 10000.0)
    gap = np.zeros(100 * SAMPLE_RATE // 1000, dtype=np.int16)
    tone_b = tone(300, 10000.0)
    bits = detect(np.concatenate([tone_a, gap, tone_b])).bits
    assert bits[300:400].all()


def test_every_tick_of_a_frame_inherits_its_decision():
    cfg = VadConfig(frame_ms=10)
    pcm = np.concatenate([np.zeros(80, dtype=np.int16), tone(10, 20000.0)])
    bits = detect(pcm, cfg=cfg).bits
    assert len(bits) == 20
    assert len(set(bits[:10])) == 1
    assert len(set(bits[10:])) == 1


def test_rejects_stereo_input():
    with pytest.raises(UnsupportedFormatError):
        detect(np.zeros((100, 2), dtype=np.int16))


def test_rejects_partial_frames():
    with pytest.raises(UnsupportedFormatError):
        detect(np.zeros(85, dtype=np.int16))
    with pytest.raises(UnsupportedFormatError):
        VoiceActivityDetector().frame_bits(np.zeros(85, dtype=np.int16))
    with pytest.raises(UnsupportedFormatError):
        room_frame_bits([VoiceActivityDetector()] * 2, np.zeros((2, 85), dtype=np.int16))


def test_frame_bits_match_streaming_decisions():
    rng = np.random.default_rng(41)
    pcm = noise(200, 3000.0, rng)
    det = VoiceActivityDetector()
    fs = det.cfg.frame_samples
    expected = []
    for i in range(len(pcm) // fs):
        expected += [det.process_frame(pcm[i * fs : (i + 1) * fs])] * det.cfg.frame_ms
    got = VoiceActivityDetector().frame_bits(pcm)
    assert list(got) == expected


def test_digital_silence_does_not_prime_the_noise_floor():
    # a live stream starts with the jitter buffer's silent frames; a
    # steady hiss after them must read as background, as it does alone
    rng = np.random.default_rng(8)
    hiss = noise(10_000, db_to_linear(-58.0), rng)
    alone = VoiceActivityDetector()
    primed = VoiceActivityDetector()
    assert not alone.frame_bits(hiss).any()
    primed.frame_bits(np.zeros(60 * SAMPLE_RATE // 1000, dtype=np.int16))
    assert primed.noise_floor_db == VadConfig().energy_floor_db
    assert not primed.frame_bits(hiss).any()
    assert primed.noise_floor_db == pytest.approx(alone.noise_floor_db, abs=0.5)


def test_frame_rms_db_reference_points():
    assert frame_rms_db(np.zeros(80, dtype=np.int16)) < -100.0
    const = np.full(80, int(FULL_SCALE / 2), dtype=np.int16)
    assert frame_rms_db(const) == pytest.approx(-6.02, abs=0.01)


# --- a room of detectors -------------------------------------------------------


def reference_decide(frame, cfg, state):
    """The detector's rule for one frame, written out: state is [floor_db, hangover]."""
    x = frame.astype(np.float64)
    rms = math.sqrt(float(np.mean(x * x)))
    level = 20.0 * math.log10(rms / FULL_SCALE) if rms > 0.0 else -200.0
    if level > cfg.energy_floor_db and level > state[0] + cfg.snr_threshold_db:
        state[1] = cfg.hangover_ms
        return True
    if state[1] > 0:
        state[1] = max(0, state[1] - cfg.frame_ms)
        return True
    if rms > 0.0:  # digital silence leaves the floor alone
        state[0] = max(state[0] + cfg.noise_adapt_rate * (level - state[0]), -90.0)
    return False


# digital silence, hiss around the energy floor, speech and full scale
AMPLITUDES = (0, 1, 3, 10, 30, 33, 40, 300, 3000, 32767)


@st.composite
def rooms(draw):
    sessions = draw(st.integers(1, 10))
    frames = draw(st.integers(1, 40))
    cfg = VadConfig(hangover_ms=draw(st.sampled_from([0, 10, 15, 200])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = cfg.frame_samples
    amp = rng.choice(AMPLITUDES, size=(sessions, 2 * frames, 1))
    # noise, a constant or a full-scale square wave, per detector frame
    kind = rng.integers(0, 3, size=(sessions, 2 * frames, 1))
    noise = rng.normal(0.0, 1.0, (sessions, 2 * frames, fs)) * amp
    square = np.where(np.arange(fs) % 2, -32768, 32767) * np.ones_like(amp)
    pcm = np.where(kind == 0, noise, np.where(kind == 1, amp, square))
    pcm = np.clip(np.rint(pcm), -32768, 32767).astype(np.int16)
    return cfg, pcm.reshape(sessions, frames, 2 * fs)


@settings(max_examples=120, deadline=None)
@given(rooms())
def test_room_decisions_match_each_detector_alone(room):
    cfg, pcm = room
    sessions, frames, chunk = pcm.shape
    together = [VoiceActivityDetector(cfg) for _ in range(sessions)]
    alone = [VoiceActivityDetector(cfg) for _ in range(sessions)]
    states = [[cfg.energy_floor_db, 0] for _ in range(sessions)]
    fs = cfg.frame_samples
    for f in range(frames):
        got = room_frame_bits(together, pcm[:, f])
        assert got.shape == (sessions, chunk // fs * cfg.frame_ms)
        for i in range(sessions):
            assert np.array_equal(got[i], alone[i].frame_bits(pcm[i, f]))
            want = [reference_decide(pcm[i, f, j:j + fs], cfg, states[i])
                    for j in range(0, chunk, fs)]
            assert list(got[i]) == list(np.repeat(want, cfg.frame_ms))
    for det, ref, state in zip(together, alone, states):
        assert det.noise_floor_db == ref.noise_floor_db == state[0]
        assert det._hangover_left == ref._hangover_left == state[1]


def test_config_validation():
    with pytest.raises(ValueError):
        VadConfig(frame_ms=0)
    with pytest.raises(ValueError):
        VadConfig(hangover_ms=-1)
    with pytest.raises(ValueError):
        VadConfig(noise_adapt_rate=1.5)
