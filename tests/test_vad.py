"""Energy voice activity detection on the millisecond grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace import vad
from floorspace.corpus import GeneratorConfig, generate
from floorspace.errors import ConfigError, UnsupportedFormatError
from floorspace.mixdown import tone_audio_for_corpus
from floorspace.server import ServerConfig
from floorspace.vad import (
    DETECTOR_FRAME_MS,
    DETECTOR_FRAME_SAMPLES,
    ENERGY_FLOOR_DB,
    NOISE_ADAPT_RATE,
    SAMPLE_RATE,
    SNR_THRESHOLD_DB,
    VoiceActivityDetector,
    level_db,
    mean_squares,
    room_frame_bits,
)

FULL_SCALE = 32768.0


def frame_rms_db(frame):
    """RMS level of one PCM frame in dBFS (0 dB = 16-bit full scale), alone.

    All-zero frames read as -200 dB, the detector's stand-in for log10(0).
    """
    x = np.asarray(frame, dtype=np.float64)
    rms = math.sqrt(float(np.mean(x * x)))
    return 20.0 * math.log10(rms / FULL_SCALE) if rms > 0.0 else -200.0


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


def bits_of(pcm):
    """A new detector's 1 ms bits for a whole mono recording, from
    ``room_frame_bits`` on a room of one."""
    return room_frame_bits([VoiceActivityDetector()], np.asarray(pcm)[None, :])[0]


def test_silence_yields_no_speech():
    bits = bits_of(np.zeros(SAMPLE_RATE, dtype=np.int16))
    assert len(bits) == 1000
    assert not bits.any()


def test_full_scale_tone_is_speech():
    bits = bits_of(tone(1000, 32000.0))
    assert len(bits) == 1000
    assert bits[10:].all()


def test_output_covers_exactly_the_input_duration():
    assert len(bits_of(np.zeros(SAMPLE_RATE // 2, dtype=np.int16))) == 500
    assert len(bits_of(np.zeros(0, dtype=np.int16))) == 0


def test_onset_and_release_on_quiet_noise_bed():
    rng = np.random.default_rng(3)
    noise_rms = db_to_linear(-70.0)  # well under the energy floor
    tone_amp = db_to_linear(-20.0) * np.sqrt(2.0)  # -20 dBFS RMS sine
    pcm = np.concatenate(
        [noise(500, noise_rms, rng), tone(500, tone_amp), noise(1000, noise_rms, rng)]
    )
    bits = bits_of(pcm)
    assert len(bits) == 2000
    speech = np.flatnonzero(bits)
    assert speech.size > 0
    onset = int(speech[0])
    release = int(speech[-1]) + 1
    assert 480 <= onset <= 520
    # nothing holds speech on past the tone: the pause is the segmenter's
    assert release == 1000
    # no dropouts inside the tone
    assert bits[onset:1000].all()


def test_detection_is_deterministic():
    rng = np.random.default_rng(17)
    pcm = noise(400, 900.0, rng)
    a = bits_of(pcm)
    b = bits_of(pcm)
    assert np.array_equal(a, b)


def test_louder_signal_never_loses_speech_ticks(monkeypatch):
    # with adaptation off the decision is a fixed threshold on frame
    # energy, so doubling the signal can only add speech; the rate is a
    # constant, patched here only to isolate the threshold
    monkeypatch.setattr(vad, "NOISE_ADAPT_RATE", 0.0)
    # every frame's level within 8 dB of the threshold, either side, so
    # that doubling (+6 dB) lifts some frames over it and not others
    threshold = ENERGY_FLOOR_DB + SNR_THRESHOLD_DB
    rng = np.random.default_rng(29)
    levels = rng.uniform(threshold - 8.0, threshold + 8.0, 200)
    quiet = np.concatenate([noise(DETECTOR_FRAME_MS, db_to_linear(level), rng)
                            for level in levels])
    loud = quiet * 2
    b_quiet = bits_of(quiet)
    b_loud = bits_of(loud)
    # both levels hold speech and silence, so the comparison can fail
    for bits in (b_quiet, b_loud):
        assert bits.any() and not bits.all()
    assert not (b_quiet & ~b_loud).any()
    assert b_loud.sum() > b_quiet.sum()


def test_every_tick_of_a_frame_inherits_its_decision():
    pcm = np.concatenate([np.zeros(80, dtype=np.int16), tone(10, 20000.0)])
    bits = bits_of(pcm)
    assert len(bits) == 20
    assert len(set(bits[:10])) == 1
    assert len(set(bits[10:])) == 1


def test_rejects_partial_frames():
    with pytest.raises(UnsupportedFormatError):
        VoiceActivityDetector().frame_bits(np.zeros(85, dtype=np.int16))
    with pytest.raises(UnsupportedFormatError):
        room_frame_bits([VoiceActivityDetector()] * 2, np.zeros((2, 85), dtype=np.int16))


def test_frame_bits_match_streaming_decisions():
    rng = np.random.default_rng(41)
    pcm = noise(200, 3000.0, rng)
    det = VoiceActivityDetector()
    fs = DETECTOR_FRAME_SAMPLES
    expected = []
    for i in range(len(pcm) // fs):
        expected += [det.decide(frame_rms_db(pcm[i * fs : (i + 1) * fs]))] * DETECTOR_FRAME_MS
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
    assert primed.noise_floor_db == ENERGY_FLOOR_DB
    assert not primed.frame_bits(hiss).any()
    assert primed.noise_floor_db == pytest.approx(alone.noise_floor_db, abs=0.5)


def test_frame_rms_db_reference_points():
    assert frame_rms_db(np.zeros(80, dtype=np.int16)) < -100.0
    const = np.full(80, int(FULL_SCALE / 2), dtype=np.int16)
    assert frame_rms_db(const) == pytest.approx(-6.02, abs=0.01)
    # the detector's own level of a frame's mean square agrees to the bit
    for frame in (np.zeros(80, dtype=np.int16), const):
        assert level_db(float(mean_squares(frame[None], 80)[0, 0])) == frame_rms_db(frame)


@pytest.mark.parametrize("n", [4, 10])
def test_a_quiet_room_reads_silence_as_silence(n):
    """A tone room over -60 dBFS hiss, 20 ms frames at a time, as the pump
    feeds the detectors: they mark almost no silent ms as speech and miss
    almost none of the tones. A detector that holds speech on for 200 ms
    after a tone ends marks 0.048 (n=4) and 0.036 (n=10) of silent ms."""
    duration_ms = 60_000
    pairs = tuple((i, i + 1) for i in range(0, n, 2))
    one = (tuple(range(n)),)
    corpus = generate(GeneratorConfig(participants=n, duration_ms=duration_ms, seed=5,
                                      schedule=[(0, pairs), (duration_ms // 2, one)]))
    tracks = tone_audio_for_corpus(corpus)
    streams = corpus.streams()
    rng = np.random.default_rng(5)
    pcm = np.vstack([tracks[i] + noise(duration_ms, db_to_linear(-60.0), rng)
                     for i in range(n)])
    detectors = [VoiceActivityDetector() for _ in range(n)]
    frame = 2 * DETECTOR_FRAME_SAMPLES
    bits = np.hstack([room_frame_bits(detectors, pcm[:, lo:lo + frame])
                      for lo in range(0, pcm.shape[1], frame)])
    truth = np.vstack([streams[i].bits[:duration_ms] for i in range(n)])
    assert truth.any() and not truth.all()
    false_on = np.count_nonzero(bits & ~truth) / np.count_nonzero(~truth)
    missed = np.count_nonzero(~bits & truth) / np.count_nonzero(truth)
    assert false_on <= 0.005, false_on
    assert missed <= 0.001, missed


# --- a room of detectors -------------------------------------------------------


def reference_decide(frame, state):
    """The detector's rule for one frame, written out: state is [floor_db]."""
    x = frame.astype(np.float64)
    rms = math.sqrt(float(np.mean(x * x)))
    level = 20.0 * math.log10(rms / FULL_SCALE) if rms > 0.0 else -200.0
    if level > ENERGY_FLOOR_DB and level > state[0] + SNR_THRESHOLD_DB:
        return True
    if rms > 0.0:  # digital silence leaves the floor alone
        state[0] = max(state[0] + NOISE_ADAPT_RATE * (level - state[0]), -90.0)
    return False


# digital silence, hiss around the energy floor, speech and full scale
AMPLITUDES = (0, 1, 3, 10, 30, 33, 40, 300, 3000, 32767)


@st.composite
def rooms(draw):
    sessions = draw(st.integers(1, 10))
    frames = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = DETECTOR_FRAME_SAMPLES
    amp = rng.choice(AMPLITUDES, size=(sessions, 2 * frames, 1))
    # noise, a constant or a full-scale square wave, per detector frame
    kind = rng.integers(0, 3, size=(sessions, 2 * frames, 1))
    noise = rng.normal(0.0, 1.0, (sessions, 2 * frames, fs)) * amp
    square = np.where(np.arange(fs) % 2, -32768, 32767) * np.ones_like(amp)
    pcm = np.where(kind == 0, noise, np.where(kind == 1, amp, square))
    pcm = np.clip(np.rint(pcm), -32768, 32767).astype(np.int16)
    return pcm.reshape(sessions, frames, 2 * fs)


@settings(max_examples=120, deadline=None)
@given(rooms())
def test_room_decisions_match_each_detector_alone(pcm):
    sessions, frames, chunk = pcm.shape
    together = [VoiceActivityDetector() for _ in range(sessions)]
    alone = [VoiceActivityDetector() for _ in range(sessions)]
    states = [[ENERGY_FLOOR_DB] for _ in range(sessions)]
    fs = DETECTOR_FRAME_SAMPLES
    for f in range(frames):
        got = room_frame_bits(together, pcm[:, f])
        assert got.shape == (sessions, chunk // fs * DETECTOR_FRAME_MS)
        for i in range(sessions):
            assert np.array_equal(got[i], alone[i].frame_bits(pcm[i, f]))
            want = [reference_decide(pcm[i, f, j:j + fs], states[i])
                    for j in range(0, chunk, fs)]
            assert list(got[i]) == list(np.repeat(want, DETECTOR_FRAME_MS))
    for det, ref, state in zip(together, alone, states):
        assert det.noise_floor_db == ref.noise_floor_db == state[0]


def test_config_validation():
    # the detector takes no settings: its rule is four constants, and a
    # server config that names the detector is refused as an unknown field
    with pytest.raises(TypeError):
        VoiceActivityDetector({"hangover_ms": 15})
    for doc in ({"hangover_ms": 15}, {"noise_adapt_rate": 1.5}, {}):
        with pytest.raises(ConfigError, match=r"unknown server config fields: \['vad'\]"):
            ServerConfig.from_dict({"vad": doc})
