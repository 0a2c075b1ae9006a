"""Energy-based voice activity detection over 8 kHz 16-bit PCM.

Decisions are made per frame (10 ms by default) and fanned out to the
1 ms activity grid. A frame counts as speech when its RMS level clears
both an absolute floor and an adaptive noise floor plus an SNR margin;
a hangover keeps brief intra-phrase pauses inside one speech region.

The levels of a whole room's frames are computed in one array
operation (``room_frame_bits``); each stream's detector then decides
on its own frames in order. A single stream is a room of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UnsupportedFormatError
from .timeline import ActivityStream, Tick
# SAMPLE_RATE stays importable from here, where perfbench reads it
from .transport import SAMPLE_RATE, SAMPLES_PER_MS  # noqa: F401

FULL_SCALE = 32768.0

_SILENCE_DB = -200.0  # stands in for log10(0) on all-zero frames
_NOISE_FLOOR_MIN_DB = -90.0  # near-silent frames must not drag the floor down forever


@dataclass
class VadConfig:
    frame_ms: int = 10
    energy_floor_db: float = -60.0
    snr_threshold_db: float = 10.0
    hangover_ms: int = 200
    noise_adapt_rate: float = 0.05

    def __post_init__(self):
        if self.frame_ms < 1:
            raise ValueError("frame_ms must be at least 1")
        if self.hangover_ms < 0:
            raise ValueError("hangover_ms must be non-negative")
        if not 0.0 <= self.noise_adapt_rate <= 1.0:
            raise ValueError("noise_adapt_rate must lie in [0, 1]")

    @property
    def frame_samples(self) -> int:
        return self.frame_ms * SAMPLES_PER_MS


def mean_squares(pcm: np.ndarray, frame_samples: int) -> np.ndarray:
    """Mean square of every ``frame_samples`` frame of every row.

    ``pcm`` is (rows, samples) with a whole number of frames per row.
    For 16-bit input every partial sum is an integer below 2**53, so
    the result does not depend on the order of summation.
    """
    rows, n = pcm.shape
    x = np.asarray(pcm, dtype=np.float64).reshape(rows, n // frame_samples, frame_samples)
    return (x * x).sum(axis=2) / frame_samples


def level_db(mean_square: float) -> float:
    """RMS level in dBFS (0 dB = 16-bit full scale) of a frame's mean square."""
    # math, not numpy: np.log10 may differ by an ulp and flip a threshold
    rms = math.sqrt(mean_square)
    if rms <= 0.0:
        return _SILENCE_DB
    return 20.0 * math.log10(rms / FULL_SCALE)


def frame_rms_db(frame: np.ndarray) -> float:
    """RMS level of one PCM frame in dBFS (0 dB = 16-bit full scale)."""
    x = np.asarray(frame).reshape(1, -1)
    if x.shape[1] == 0:
        return _SILENCE_DB
    return level_db(float(mean_squares(x, x.shape[1])[0, 0]))


def room_frame_bits(detectors: Sequence["VoiceActivityDetector"], pcm: np.ndarray) -> np.ndarray:
    """Each detector's decisions on its row of ``pcm``, fanned out to 1 ms bits.

    ``pcm`` is (detectors, samples), a whole number of detector frames
    per row (a 20 ms transport frame is two 10 ms detector frames);
    there is at least one detector, and all share one frame length.
    The levels of every frame come from one array operation, then each
    detector decides on its frames in order.
    """
    pcm = np.asarray(pcm, dtype=np.int16)
    cfg = detectors[0].cfg
    fs = cfg.frame_samples
    if pcm.shape[1] % fs != 0:
        raise UnsupportedFormatError(
            f"chunk of {pcm.shape[1]} samples is not a whole number of "
            f"{cfg.frame_ms} ms frames"
        )
    decisions = [
        [det.decide(level_db(ms)) for ms in row]
        for det, row in zip(detectors, mean_squares(pcm, fs).tolist())
    ]
    return np.repeat(np.array(decisions, dtype=bool), cfg.frame_ms, axis=1)


class VoiceActivityDetector:
    """Stateful detector for one stream; feed frames in capture order."""

    def __init__(self, cfg: Optional[VadConfig] = None):
        self.cfg = cfg or VadConfig()
        self.noise_floor_db = self.cfg.energy_floor_db
        self._hangover_left = 0

    def decide(self, level: float) -> bool:
        """Speech/non-speech decision for the next frame's level, updating state."""
        cfg = self.cfg
        raw_speech = (
            level > cfg.energy_floor_db
            and level > self.noise_floor_db + cfg.snr_threshold_db
        )
        if raw_speech:
            self._hangover_left = cfg.hangover_ms
            return True
        if self._hangover_left > 0:
            self._hangover_left = max(0, self._hangover_left - cfg.frame_ms)
            return True
        # Adapt only while genuinely quiet so speech energy never
        # inflates the floor. Digital silence says nothing about the
        # background (a jitter buffer plays it while priming), so it
        # leaves the floor alone; the clamp bounds near-silent frames.
        if level > _SILENCE_DB:
            self.noise_floor_db += cfg.noise_adapt_rate * (level - self.noise_floor_db)
            self.noise_floor_db = max(self.noise_floor_db, _NOISE_FLOOR_MIN_DB)
        return False

    def process_frame(self, frame: np.ndarray) -> bool:
        """Speech/non-speech decision for one frame, updating state."""
        return self.decide(frame_rms_db(frame))

    def frame_bits(self, pcm: np.ndarray) -> np.ndarray:
        """Decisions for a longer chunk, fanned out to 1 ms bits.

        The chunk must hold a whole number of detector frames.
        """
        return room_frame_bits([self], np.asarray(pcm).reshape(1, -1))[0]


def detect(
    pcm,
    start_tick: Tick = 0,
    cfg: Optional[VadConfig] = None,
    participant: int = 0,
) -> ActivityStream:
    """Run detection over a whole recording.

    The returned stream covers exactly the input duration, one bit per
    millisecond, every tick of a frame inheriting that frame's
    decision. The input is SAMPLE_RATE (8 kHz) PCM, and the sample
    count must be a whole number of frames.
    """
    cfg = cfg or VadConfig()
    pcm = np.asarray(pcm, dtype=np.int16)
    if pcm.ndim != 1:
        raise UnsupportedFormatError("expected mono PCM (1-d array)")
    if len(pcm) == 0:
        return ActivityStream(participant, start_tick)
    fs = cfg.frame_samples
    if len(pcm) % fs != 0:
        raise UnsupportedFormatError(
            f"sample count {len(pcm)} is not a whole number of {cfg.frame_ms} ms frames"
        )
    bits = room_frame_bits([VoiceActivityDetector(cfg)], pcm[None, :])[0]
    return ActivityStream(participant, start_tick, bits)
