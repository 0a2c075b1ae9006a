"""Audio packets and jitter buffering.

Audio travels as 20 ms mu-law frames behind a fixed 12-byte header:
2-bit version (2), 7-bit payload type (0, mu-law), a 16-bit wrapping
sequence number, a 32-bit sample-clock timestamp, and a 32-bit source
identifier. Received packets pass through a small jitter buffer that
repairs reordering within its depth, substitutes silence for
anything lost or late, and follows a sender whose sequence numbers
jump or drift. The buffer holds each frame as its 160
codewords, undecoded: a room pops one frame per session and decodes
them all with one ``decode_room``, and encodes its mixes with one
``encode_room``, after which each listener's ``Packetizer`` only
stamps its header on its row. A sender stamps timestamps from its own
clock, and nothing compares them across senders: a stream joins the
room's timeline at playout.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import PacketFormatError, UnsupportedFormatError, check_integer
from .ulaw import decode_ulaw, encode_ulaw

RTP_VERSION = 2
PAYLOAD_TYPE_PCMU = 0
HEADER = struct.Struct(">BBHII")
HEADER_BYTES = HEADER.size  # 12

# the one audio format: 8 kHz mu-law in 20 ms frames
SAMPLE_RATE = 8000
SAMPLES_PER_MS = SAMPLE_RATE // 1000
FRAME_MS = 20
FRAME_SAMPLES = FRAME_MS * SAMPLES_PER_MS  # 160
FRAME_BYTES = FRAME_SAMPLES  # one codeword per sample
SILENCE = b"\xff" * FRAME_BYTES  # the codeword of a zero sample

SEQ_MOD = 1 << 16
TS_MOD = 1 << 32
# how many frames past its depth playout may trail the newest arrival: 1 s
_TRAIL_FRAMES = 50


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

    def __init__(self, ssrc: int):
        self.ssrc = ssrc
        self._seq = 0
        self._ts = 0

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

    A sender whose sequence numbers jump or drift does not stay broken.
    The window runs from playout to _TRAIL_FRAMES past the depth ahead
    of it; while priming, as far either way around the first arrival
    (the anchor). An arrival outside it, already played or too far from
    playout, is dropped and counted late. When such arrivals keep
    following one another in sequence while a whole depth of frames
    plays out (while priming, for a depth of arrivals), the sender
    jumped, restarted, fell behind or runs fast, or the anchor was a
    stray: the buffer drops what it holds, counting it lost, and primes
    afresh from the latest (the probation of RFC 3550, appendix A.1). A
    late burst after a stall, or one stray packet, ends before that and
    leaves playout alone.
    """

    def __init__(self, depth_ms: int):
        # ``ServerConfig.jitter_depth_ms`` holds the default and checks by this
        depth_ms = check_integer(depth_ms, "jitter_depth_ms", FRAME_MS, math.inf, ValueError)
        self.depth_frames = depth_ms // FRAME_MS
        self._pending: Dict[int, bytes] = {}
        self._anchor: Optional[int] = None
        self._next_seq: Optional[int] = None
        # for a run of arrivals outside the window: the sequence number
        # that extends it, and where playout was when it began
        self._run: Optional[Tuple[int, int]] = None
        self.stats = JitterStats()

    def push(self, packet: AudioPacket) -> None:
        check_payload(packet)
        seq = packet.sequence
        self.stats.received += 1
        if self._anchor is not None:
            reach = self.depth_frames + _TRAIL_FRAMES
            if self._next_seq is None:
                # priming: around the anchor either way, a run counted in arrivals
                here = seq
                inside = abs(seq_delta(seq, self._anchor)) < reach
            else:
                here = self._next_seq
                inside = 0 <= seq_delta(seq, here) < reach
            if not inside:
                run = self._run
                began = run[1] if run is not None and seq == run[0] else here
                if seq_delta(here, began) < self.depth_frames:
                    self._run = ((seq + 1) % SEQ_MOD, began)
                    self.stats.late += 1
                    return
                # a depth outside the window, in sequence: prime afresh
                self.stats.lost += len(self._pending)
                self._pending.clear()
                self._anchor = self._next_seq = None
        self._run = None
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
