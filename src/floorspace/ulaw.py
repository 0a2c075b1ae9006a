"""G.711 mu-law companding between 16-bit PCM and 8-bit codewords.

The standard segmented approximation: magnitudes are biased, the
segment is the position of the leading bit, and four mantissa bits
survive within each segment. Codewords are bit-inverted on the wire.
At 8 kHz this is the classic 64 kb/s toll-quality telephone codec.
"""

from __future__ import annotations

import numpy as np

BIAS = 0x84
CLIP = 32635

# Segment lower edges for the biased magnitude; the exponent is the
# number of edges at or below the value (0 through 7).
_SEG_EDGES = np.array([0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000, 0x4000],
                      dtype=np.int32)


def _biased_magnitude(pcm) -> np.ndarray:
    x = np.asarray(pcm, dtype=np.int16).astype(np.int32)
    return np.minimum(np.abs(x), CLIP) + BIAS


def _encode_formula(x: np.ndarray) -> np.ndarray:
    sign = np.where(x < 0, 0x80, 0)
    mag = _biased_magnitude(x)
    exponent = np.searchsorted(_SEG_EDGES, mag, side="right")
    mantissa = (mag >> (exponent + 3)) & 0x0F
    code = ~(sign | (exponent << 4) | mantissa) & 0xFF
    return code.astype(np.uint8)


def _decode_formula(codes: np.ndarray) -> np.ndarray:
    u = (~codes.astype(np.int32)) & 0xFF
    sign = u & 0x80
    exponent = (u >> 4) & 0x07
    mantissa = u & 0x0F
    mag = (((mantissa << 3) + BIAS) << exponent) - BIAS
    return np.where(sign != 0, -mag, mag).astype(np.int16)


# Both directions are table lookups: the encoder's table is indexed by
# the sample's 16 bits read as unsigned, the decoder's by the codeword.
# ``take`` gathers the same entries as indexing, and faster on
# frame-sized arrays.
_ENCODE = _encode_formula(np.arange(65536, dtype=np.uint16).view(np.int16))
_DECODE = _decode_formula(np.arange(256, dtype=np.uint8))


def encode_ulaw(pcm) -> np.ndarray:
    """int16 samples to uint8 mu-law codewords, elementwise."""
    return _ENCODE.take(np.asarray(pcm, dtype=np.int16).view(np.uint16))


def decode_ulaw(codes) -> np.ndarray:
    """Mu-law codewords (bytes or uint8 array) back to int16 samples."""
    if isinstance(codes, (bytes, bytearray, memoryview)):
        codes = np.frombuffer(codes, dtype=np.uint8)
    return _DECODE.take(np.asarray(codes, dtype=np.uint8))


def step_size(pcm) -> np.ndarray:
    """Quantization step of the segment each sample encodes into."""
    mag = _biased_magnitude(pcm)
    exponent = np.searchsorted(_SEG_EDGES, mag, side="right")
    return (8 << exponent).astype(np.int32)
