"""Audio packets, jitter buffering, and clock synchronization.

Audio travels as 20 ms mu-law frames behind a fixed 12-byte header:
2-bit version (2), 7-bit payload type (0, mu-law), a 16-bit wrapping
sequence number, a 32-bit sample-clock timestamp, and a 32-bit source
identifier. Received packets pass through a small jitter buffer that
repairs reordering within its depth and substitutes silence for
anything lost or late. The buffer holds each frame as its 160
codewords, undecoded: a room pops one frame per session and decodes
them all with one ``decode_room``, and encodes its mixes with one
``encode_room``, after which each listener's ``Packetizer`` only
stamps its header on its row. Senders stamp timestamps from their own
clocks, so a four-timestamp sync exchange estimates the offset used
to place remote speech on the local timeline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import PacketFormatError, UnsupportedFormatError
from .ulaw import decode_ulaw, encode_ulaw

RTP_VERSION = 2
PAYLOAD_TYPE_PCMU = 0
HEADER = struct.Struct(">BBHII")
HEADER_BYTES = HEADER.size  # 12

SAMPLE_RATE = 8000
FRAME_MS = 20
FRAME_SAMPLES = FRAME_MS * SAMPLE_RATE // 1000  # 160
FRAME_BYTES = FRAME_SAMPLES  # one codeword per sample
SILENCE = b"\xff" * FRAME_BYTES  # the codeword of a zero sample

SEQ_MOD = 1 << 16
TS_MOD = 1 << 32


@dataclass(frozen=True)
class AudioPacket:
    sequence: int
    timestamp: int
    ssrc: int
    payload: bytes
    payload_type: int = PAYLOAD_TYPE_PCMU

    def to_bytes(self) -> bytes:
        b0 = RTP_VERSION << 6  # no padding, no extension, no CSRCs
        b1 = self.payload_type & 0x7F  # marker bit clear
        return (
            HEADER.pack(
                b0,
                b1,
                self.sequence % SEQ_MOD,
                self.timestamp % TS_MOD,
                self.ssrc % TS_MOD,
            )
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "AudioPacket":
        if len(data) < HEADER_BYTES:
            raise PacketFormatError(
                f"datagram of {len(data)} bytes is shorter than the header"
            )
        b0, b1, seq, ts, ssrc = HEADER.unpack_from(data)
        version = b0 >> 6
        if version != RTP_VERSION:
            raise PacketFormatError(f"unsupported packet version {version}")
        return cls(
            sequence=seq,
            timestamp=ts,
            ssrc=ssrc,
            payload=data[HEADER_BYTES:],
            payload_type=b1 & 0x7F,
        )


def seq_delta(a: int, b: int) -> int:
    """Wraparound-aware distance a - b for 16-bit sequence numbers."""
    return ((a - b + SEQ_MOD // 2) % SEQ_MOD) - SEQ_MOD // 2


class Packetizer:
    """Turns consecutive frames into wire packets for one source."""

    def __init__(self, ssrc: int, first_sequence: int = 0, first_timestamp: int = 0):
        self.ssrc = ssrc
        self._seq = first_sequence % SEQ_MOD
        self._ts = first_timestamp % TS_MOD

    def stamp(self, codes: bytes) -> bytes:
        """The next datagram: this source's next header, then ``codes``.

        ``codes`` is one frame already encoded, FRAME_BYTES codewords.
        """
        header = HEADER.pack(RTP_VERSION << 6, PAYLOAD_TYPE_PCMU,
                             self._seq, self._ts, self.ssrc % TS_MOD)
        self._seq = (self._seq + 1) % SEQ_MOD
        self._ts = (self._ts + FRAME_SAMPLES) % TS_MOD
        return header + codes

    def packetize(self, pcm_frame: np.ndarray) -> AudioPacket:
        pcm_frame = np.asarray(pcm_frame, dtype=np.int16)
        if len(pcm_frame) != FRAME_SAMPLES:
            raise UnsupportedFormatError(
                f"frame of {len(pcm_frame)} samples, expected {FRAME_SAMPLES}"
            )
        return AudioPacket.from_bytes(self.stamp(encode_ulaw(pcm_frame).tobytes()))


def check_payload(packet: AudioPacket) -> None:
    """Raise unless ``packet`` carries one playable mu-law frame."""
    if packet.payload_type != PAYLOAD_TYPE_PCMU:
        raise UnsupportedFormatError(
            f"unsupported payload type {packet.payload_type}"
        )
    if len(packet.payload) != FRAME_BYTES:
        raise PacketFormatError(
            f"payload of {len(packet.payload)} bytes, expected {FRAME_BYTES}"
        )


def depacketize(packet: AudioPacket) -> np.ndarray:
    """Decode one packet's payload back to an int16 PCM frame."""
    check_payload(packet)
    return decode_ulaw(np.frombuffer(packet.payload, dtype=np.uint8))


def decode_room(frames: Sequence[bytes]) -> np.ndarray:
    """Frames of codewords, as popped, to one int16 (frames, samples) array."""
    return decode_ulaw(b"".join(frames)).reshape(len(frames), FRAME_SAMPLES)


def encode_room(pcm: np.ndarray) -> List[bytes]:
    """Each int16 row of ``pcm`` to its frame of codewords, in one encode."""
    codes = encode_ulaw(pcm).tobytes()
    return [codes[k : k + FRAME_BYTES] for k in range(0, len(codes), FRAME_BYTES)]


@dataclass
class JitterStats:
    received: int = 0
    played: int = 0
    lost: int = 0
    late: int = 0
    duplicate: int = 0


class JitterBuffer:
    """Reorders packets within a fixed depth ahead of playout.

    Playout does not start until a full depth of packets has arrived,
    which is what absorbs reordering and network jitter. After that,
    each pop consumes the next sequence number, substituting silence
    and counting a loss when it never arrived. Late packets (sequence
    already played) and duplicates are dropped. Frames are held and
    popped as their mu-law codewords; silence is ``SILENCE``, the
    codeword of a zero sample, 0xFF, in every byte.
    """

    def __init__(self, depth_ms: int = 60, frame_ms: int = FRAME_MS):
        if depth_ms < frame_ms:
            raise ValueError("depth must hold at least one frame")
        self.depth_frames = depth_ms // frame_ms
        self.frame_ms = frame_ms
        self._pending: Dict[int, bytes] = {}
        self._anchor: Optional[int] = None
        self._next_seq: Optional[int] = None
        self.stats = JitterStats()

    def push(self, packet: AudioPacket) -> None:
        check_payload(packet)
        seq = packet.sequence
        self.stats.received += 1
        if self._next_seq is not None and seq_delta(seq, self._next_seq) < 0:
            self.stats.late += 1
            return
        if seq in self._pending:
            self.stats.duplicate += 1
            return
        self._pending[seq] = packet.payload
        if self._anchor is None:
            self._anchor = seq
        if self._next_seq is None and len(self._pending) >= self.depth_frames:
            self._next_seq = min(
                self._pending, key=lambda s: seq_delta(s, self._anchor)
            )

    @property
    def primed(self) -> bool:
        return self._next_seq is not None

    def pop(self) -> bytes:
        """Codewords of the next playout frame; silence while priming or across a loss."""
        if self._next_seq is None:
            return SILENCE
        frame = self._pending.pop(self._next_seq, None)
        self._next_seq = (self._next_seq + 1) % SEQ_MOD
        if frame is None:
            self.stats.lost += 1
            return SILENCE
        self.stats.played += 1
        return frame


@dataclass(frozen=True)
class ClockOffset:
    """Estimated remote-to-local clock mapping from one sync exchange.

    ``offset_ms`` is local minus remote: add it to a remote timestamp
    to place the event on the local timeline. ``round_trip_ms``
    bounds the estimation error (asymmetric paths skew the estimate
    by up to half the asymmetry).
    """

    offset_ms: float
    round_trip_ms: float


def estimate_clock_offset(t1: float, t2: float, t3: float, t4: float) -> ClockOffset:
    """Four-timestamp offset estimate.

    t1: request sent (remote clock), t2: request received (local),
    t3: reply sent (local), t4: reply received (remote clock).
    """
    offset = ((t2 - t1) + (t3 - t4)) / 2.0
    rtt = (t4 - t1) - (t3 - t2)
    return ClockOffset(offset_ms=offset, round_trip_ms=rtt)


def loopback_latency_ms(depth_ms: int = 60, marker_tick: int = 5) -> int:
    """Latency the framing and jitter stages add on a lossless loopback.

    A marker impulse is captured into its frame at each 20 ms boundary,
    packetized, pushed, and a frame is popped for playout at the same
    cadence. The return value is how many milliseconds pass between the
    marker entering capture and leaving toward the speaker. With the
    defaults this is exactly the jitter depth; device and network
    delays sit outside the measurement.
    """
    samples_per_ms = SAMPLE_RATE // 1000
    packetizer = Packetizer(ssrc=1)
    buffer = JitterBuffer(depth_ms=depth_ms, frame_ms=FRAME_MS)
    boundary = FRAME_MS
    while boundary <= marker_tick + 100 * depth_ms + 1000:
        start = boundary - FRAME_MS
        frame = np.zeros(FRAME_SAMPLES, dtype=np.int16)
        if start <= marker_tick < boundary:
            frame[(marker_tick - start) * samples_per_ms] = 8000
        buffer.push(packetizer.packetize(frame))
        played = decode_ulaw(buffer.pop())
        hits = np.flatnonzero(np.abs(played.astype(np.int32)) > 2000)
        if hits.size:
            return boundary + int(hits[0]) // samples_per_ms - marker_tick
        boundary += FRAME_MS
    raise RuntimeError("marker never played out")
