"""Energy-based voice activity detection over 8 kHz 16-bit PCM.

Decisions are made per 10 ms frame and fanned out to the 1 ms
activity grid. A frame counts as speech when its RMS level clears
both an absolute floor and an adaptive noise floor plus an SNR margin,
and nothing else: the detector holds no speech across a pause. A short
pause inside a turn is the segmenter's to bridge (``BRIDGE_GAP_MS``),
as it is for the corpus's own bits in training and replay.

The live pump hands ``room_frame_bits`` a whole room's 20 ms frames:
their levels come from one array operation, then each stream's
detector decides on its own frames in order. A single stream is a
room of one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import UnsupportedFormatError
# SAMPLE_RATE stays importable from here, where perfbench reads it
from .transport import SAMPLE_RATE, SAMPLES_PER_MS  # noqa: F401

FULL_SCALE = 32768.0
# the detector's frame: two to each 20 ms transport frame
DETECTOR_FRAME_MS = 10
DETECTOR_FRAME_SAMPLES = DETECTOR_FRAME_MS * SAMPLES_PER_MS

_SILENCE_DB = -200.0  # stands in for log10(0) on all-zero frames
_NOISE_FLOOR_MIN_DB = -90.0  # near-silent frames must not drag the floor down forever

# the decision rule: constants, not settings
ENERGY_FLOOR_DB = -60.0  # no frame below it is speech; the noise floor starts here
SNR_THRESHOLD_DB = 10.0  # margin over the noise floor a speech frame clears
NOISE_ADAPT_RATE = 0.05  # share of a quiet frame's level the noise floor moves by


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


def room_frame_bits(detectors: Sequence["VoiceActivityDetector"], pcm: np.ndarray) -> np.ndarray:
    """Each detector's decisions on its row of ``pcm``, fanned out to 1 ms bits.

    ``pcm`` is (detectors, samples), a whole number of detector frames
    per row (a 20 ms transport frame is two 10 ms detector frames);
    there is at least one detector. The levels of every frame come
    from one array operation, then each detector decides on its frames
    in order.
    """
    pcm = np.asarray(pcm, dtype=np.int16)
    if pcm.shape[1] % DETECTOR_FRAME_SAMPLES != 0:
        raise UnsupportedFormatError(
            f"chunk of {pcm.shape[1]} samples is not a whole number of "
            f"{DETECTOR_FRAME_MS} ms frames"
        )
    decisions = [
        [det.decide(level_db(ms)) for ms in row]
        for det, row in zip(detectors, mean_squares(pcm, DETECTOR_FRAME_SAMPLES).tolist())
    ]
    return np.repeat(np.array(decisions, dtype=bool), DETECTOR_FRAME_MS, axis=1)


class VoiceActivityDetector:
    """Stateful detector for one stream; feed frames in capture order."""

    def __init__(self):
        self.noise_floor_db = ENERGY_FLOOR_DB

    def decide(self, level: float) -> bool:
        """Speech/non-speech decision for the next frame's level, updating state."""
        if level > ENERGY_FLOOR_DB and level > self.noise_floor_db + SNR_THRESHOLD_DB:
            return True
        # Adapt only on quiet frames so speech energy never inflates the
        # floor. Digital silence says nothing about the background (a
        # jitter buffer plays it while priming), so it leaves the floor
        # alone; the clamp bounds near-silent frames.
        if level > _SILENCE_DB:
            self.noise_floor_db += NOISE_ADAPT_RATE * (level - self.noise_floor_db)
            self.noise_floor_db = max(self.noise_floor_db, _NOISE_FLOOR_MIN_DB)
        return False

    def frame_bits(self, pcm: np.ndarray) -> np.ndarray:
        """Decisions for a longer chunk, fanned out to 1 ms bits.

        The chunk must hold a whole number of detector frames.
        """
        return room_frame_bits([self], np.asarray(pcm).reshape(1, -1))[0]
