"""Companding, packet framing, jitter buffering, and clock sync."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from floorspace import (
    AudioPacket,
    JitterBuffer,
    Packetizer,
    decode_ulaw,
    encode_ulaw,
    estimate_clock_offset,
    loopback_latency_ms,
)
from floorspace.errors import PacketFormatError, UnsupportedFormatError
from floorspace.transport import (
    FRAME_SAMPLES,
    decode_room,
    depacketize,
    encode_room,
    seq_delta,
)
from floorspace.ulaw import step_size

# classic reference codec, transcribed scalar-by-scalar: 14-bit
# domain, table-driven segment search
_REF_SEG_END = [0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF]


def ref_encode(x):
    val = int(x) >> 2
    if val < 0:
        val = -val
        mask = 0x7F
    else:
        mask = 0xFF
    val = min(val, 8159) + (0x84 >> 2)
    for seg, end in enumerate(_REF_SEG_END):
        if val <= end:
            return ((seg << 4) | ((val >> (seg + 1)) & 0x0F)) ^ mask
    return 0x7F ^ mask


def ref_decode(code):
    u = ~int(code) & 0xFF
    t = ((u & 0x0F) << 3) + 0x84
    t <<= (u & 0x70) >> 4
    return 0x84 - t if u & 0x80 else t - 0x84


# --- mu-law -----------------------------------------------------------------


def test_zero_encodes_to_0xff_and_back():
    assert int(encode_ulaw(np.array([0], dtype=np.int16))[0]) == 0xFF
    assert int(decode_ulaw(np.array([0xFF], dtype=np.uint8))[0]) == 0
    # negative zero codeword also decodes to silence
    assert int(decode_ulaw(np.array([0x7F], dtype=np.uint8))[0]) == 0


def test_round_trip_error_bounded_by_step_size():
    xs = np.arange(-32768, 32768, dtype=np.int16)
    rt = decode_ulaw(encode_ulaw(xs)).astype(np.int32)
    err = np.abs(rt - xs.astype(np.int32))
    assert np.all(err <= step_size(xs))


def test_decoded_magnitude_is_monotone():
    xs = np.arange(0, 32768, dtype=np.int16)
    rt = decode_ulaw(encode_ulaw(xs)).astype(np.int32)
    assert np.all(np.diff(rt) >= 0)


def test_companding_is_sign_symmetric():
    xs = np.arange(0, 32768, dtype=np.int16)
    pos = decode_ulaw(encode_ulaw(xs)).astype(np.int32)
    neg = decode_ulaw(encode_ulaw((-xs.astype(np.int32)).astype(np.int16)))
    assert np.array_equal(neg.astype(np.int32), -pos)


def test_decode_table_matches_reference():
    codes = np.arange(256, dtype=np.uint8)
    ours = decode_ulaw(codes)
    assert list(ours) == [ref_decode(c) for c in range(256)]


def test_exhaustive_against_reference_within_one_step():
    # the reference floor-shifts negatives before taking the magnitude,
    # so a segment-boundary input can land one codeword apart; the
    # decoded values then differ by at most the coarser segment's step
    xs = np.arange(-32768, 32768, dtype=np.int16)
    our_codes = encode_ulaw(xs)
    ref_codes = np.array([ref_encode(x) for x in xs], dtype=np.uint8)
    assert np.array_equal(our_codes[32768:], ref_codes[32768:])  # x >= 0: identical
    ours = decode_ulaw(our_codes).astype(np.int64)
    ref = np.array([ref_decode(c) for c in ref_codes], dtype=np.int64)

    def code_step(codes):
        return 8 << ((~codes.astype(np.int64) >> 4) & 7)

    allowed = np.maximum(code_step(our_codes), code_step(ref_codes))
    assert np.all(np.abs(ours - ref) <= allowed)


def test_decode_accepts_raw_bytes():
    payload = bytes([0xFF, 0x7F, 0x00])
    out = decode_ulaw(payload)
    assert list(out[:2]) == [0, 0]
    assert out.dtype == np.int16


# --- packets ----------------------------------------------------------------


def test_packet_round_trip():
    pkt = AudioPacket(sequence=4321, timestamp=99_000, ssrc=0xDEADBEEF, payload=b"\x55" * 160)
    back = AudioPacket.from_bytes(pkt.to_bytes())
    assert back == pkt


def test_packet_rejects_wrong_version():
    data = bytearray(AudioPacket(1, 2, 3, b"\x00" * 160).to_bytes())
    data[0] = 0x40  # version 1
    with pytest.raises(PacketFormatError):
        AudioPacket.from_bytes(bytes(data))


def test_packet_rejects_short_datagram():
    with pytest.raises(PacketFormatError):
        AudioPacket.from_bytes(b"\x80\x00\x01")


def test_depacketize_validates_payload():
    bad_type = AudioPacket(0, 0, 1, b"\x00" * 160, payload_type=8)
    with pytest.raises(UnsupportedFormatError):
        depacketize(bad_type)
    short = AudioPacket(0, 0, 1, b"\x00" * 80)
    with pytest.raises(PacketFormatError):
        depacketize(short)


def test_packetizer_counts_sequence_and_timestamp():
    p = Packetizer(ssrc=7)
    frame = np.zeros(FRAME_SAMPLES, dtype=np.int16)
    a = p.packetize(frame)
    b = p.packetize(frame)
    assert (a.sequence, b.sequence) == (0, 1)
    assert b.timestamp - a.timestamp == FRAME_SAMPLES
    assert a.ssrc == b.ssrc == 7
    assert len(a.payload) == 160


def test_packetizer_wraps_sequence_and_timestamp():
    p = Packetizer(ssrc=1, first_sequence=65535, first_timestamp=2**32 - 160)
    frame = np.zeros(FRAME_SAMPLES, dtype=np.int16)
    a = p.packetize(frame)
    b = p.packetize(frame)
    assert (a.sequence, b.sequence) == (65535, 0)
    assert b.timestamp == 0


def test_packetizer_rejects_odd_frame_lengths():
    with pytest.raises(UnsupportedFormatError):
        Packetizer(ssrc=1).packetize(np.zeros(100, dtype=np.int16))


def test_packet_payload_is_companded_pcm():
    rng = np.random.default_rng(11)
    pcm = rng.integers(-20000, 20000, FRAME_SAMPLES).astype(np.int16)
    pkt = Packetizer(ssrc=3).packetize(pcm)
    assert np.array_equal(depacketize(pkt), decode_ulaw(encode_ulaw(pcm)))


def test_seq_delta_wraparound():
    assert seq_delta(5, 3) == 2
    assert seq_delta(3, 5) == -2
    assert seq_delta(0, 65535) == 1
    assert seq_delta(65535, 0) == -1
    assert seq_delta(0, 32768) == -32768


# --- jitter buffer ----------------------------------------------------------


def frames_with_marker(n):
    """n distinct frames; sample 0 carries the frame index (scaled)."""
    out = []
    for k in range(n):
        f = np.zeros(FRAME_SAMPLES, dtype=np.int16)
        f[0] = (k + 1) * 1000
        out.append(f)
    return out


def marker_of(codes):
    """The frame index a popped frame carries, or None for silence."""
    v = int(decode_ulaw(codes)[0])
    if v == 0:
        return None
    # invert the companding error on the marker amplitude
    return int(round(v / 1000.0)) - 1


def test_priming_needs_a_full_depth():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    frames = frames_with_marker(3)
    assert not jb.primed
    assert not decode_ulaw(jb.pop()).any()  # silence before priming
    jb.push(p.packetize(frames[0]))
    assert not jb.primed
    jb.push(p.packetize(frames[1]))
    assert not jb.primed
    jb.push(p.packetize(frames[2]))
    assert jb.primed


def test_in_order_replay():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    frames = frames_with_marker(6)
    for f in frames:
        jb.push(p.packetize(f))
    got = [marker_of(jb.pop()) for _ in range(6)]
    assert got == [0, 1, 2, 3, 4, 5]
    assert jb.stats.played == 6
    assert jb.stats.lost == 0
    assert jb.stats.received == 6


def test_steady_state_lag_is_depth_minus_one_frames():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    frames = frames_with_marker(10)
    played = []
    for f in frames:
        jb.push(p.packetize(f))
        played.append(marker_of(jb.pop()))
    assert played[:2] == [None, None]
    assert played[2:] == [0, 1, 2, 3, 4, 5, 6, 7]


def test_reordering_within_depth_is_repaired():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    frames = frames_with_marker(6)
    pkts = [p.packetize(f) for f in frames]
    order = [0, 2, 1, 4, 3, 5]
    got = []
    for k in order:
        jb.push(pkts[k])
        got.append(marker_of(jb.pop()))
    got += [marker_of(jb.pop()) for _ in range(2)]
    assert [g for g in got if g is not None] == [0, 1, 2, 3, 4, 5]
    assert jb.stats.lost == 0
    assert jb.stats.late == 0


def test_loss_produces_silence_and_is_counted():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    frames = frames_with_marker(7)
    pkts = [p.packetize(f) for f in frames]
    for k in (0, 1, 2, 4, 5, 6):  # 3 never arrives
        jb.push(pkts[k])
    got = [marker_of(jb.pop()) for _ in range(7)]
    assert got == [0, 1, 2, None, 4, 5, 6]
    assert jb.stats.lost == 1
    assert jb.stats.played == 6


def test_late_packet_is_dropped():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    pkts = [p.packetize(f) for f in frames_with_marker(4)]
    for k in (0, 1, 2):
        jb.push(pkts[k])
    assert marker_of(jb.pop()) == 0  # playout has moved past seq 0
    jb.push(pkts[0])
    assert jb.stats.late == 1
    assert marker_of(jb.pop()) == 1


def test_duplicate_packet_is_dropped():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1)
    pkts = [p.packetize(f) for f in frames_with_marker(3)]
    jb.push(pkts[0])
    jb.push(pkts[0])
    assert jb.stats.duplicate == 1
    jb.push(pkts[1])
    jb.push(pkts[2])
    assert [marker_of(jb.pop()) for _ in range(3)] == [0, 1, 2]


def test_sequence_wraparound_does_not_confuse_ordering():
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    p = Packetizer(ssrc=1, first_sequence=65534)
    frames = frames_with_marker(5)
    for f in frames:
        jb.push(p.packetize(f))
    got = [marker_of(jb.pop()) for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]
    assert jb.stats.lost == 0


def test_jitter_depth_must_hold_a_frame():
    with pytest.raises(ValueError):
        JitterBuffer(depth_ms=10, frame_ms=20)


def test_lossless_path_preserves_companded_audio():
    rng = np.random.default_rng(13)
    p = Packetizer(ssrc=99)
    jb = JitterBuffer(depth_ms=60, frame_ms=20)
    frames = [
        rng.integers(-30000, 30000, FRAME_SAMPLES).astype(np.int16) for _ in range(8)
    ]
    for f in frames:
        jb.push(AudioPacket.from_bytes(p.packetize(f).to_bytes()))
    for f in frames:
        out = decode_ulaw(jb.pop())
        assert np.array_equal(out, decode_ulaw(encode_ulaw(f)))


def test_malformed_payloads_never_enter_the_buffer():
    jb = JitterBuffer(depth_ms=20, frame_ms=20)
    with pytest.raises(PacketFormatError):
        jb.push(AudioPacket(0, 0, 1, b"\x00" * 100))
    with pytest.raises(UnsupportedFormatError):
        jb.push(AudioPacket(0, 0, 1, b"\x00" * FRAME_SAMPLES, payload_type=8))
    assert not jb.primed
    assert jb.stats.received == 0


# --- the room path: one decode, one encode ------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["push", "push", "push", "drop", "dup", "swap"]),
                 max_size=30),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 2**32 - 1),
)
@example(schedules=[["push"] * 6, ["push", "drop", "push", "push", "push"]], seed=0)
def test_room_decode_of_popped_frames_equals_per_packet_depacketize(schedules, seed):
    """Each session's packets arrive in order, lost, duplicated or
    swapped with the next; every frame the room pops one frame per
    session and decodes them at once."""
    rng = np.random.default_rng(seed)
    rooms = []
    for schedule in schedules:
        p = Packetizer(ssrc=len(rooms), first_sequence=int(rng.integers(65530, 65536)))
        pkts = [
            p.packetize(rng.integers(-32768, 32768, FRAME_SAMPLES).astype(np.int16))
            for _ in schedule
        ]
        by_payload = {pkt.payload: pkt for pkt in pkts}
        arrivals, early = [], set()
        for k, (what, pkt) in enumerate(zip(schedule, pkts)):
            if k in early or what == "drop":
                arrivals.append([])
            elif what == "dup":
                arrivals.append([pkt, pkt])
            elif what == "swap" and k + 1 < len(pkts):
                arrivals.append([pkts[k + 1], pkt])
                early.add(k + 1)
            else:
                arrivals.append([pkt])
        rooms.append((JitterBuffer(depth_ms=60, frame_ms=20), arrivals, by_payload))
    for frame in range(max(len(s) for s in schedules) + 3):
        popped, want = [], []
        for jb, arrivals, by_payload in rooms:
            for pkt in arrivals[frame] if frame < len(arrivals) else []:
                jb.push(pkt)
            played = jb.stats.played
            codes = jb.pop()
            popped.append(codes)
            if jb.stats.played > played:
                want.append(depacketize(by_payload[codes]))
            else:  # priming or a loss
                want.append(np.zeros(FRAME_SAMPLES, dtype=np.int16))
        got = decode_room(popped)
        assert got.dtype == np.int16
        assert np.array_equal(got, np.stack(want))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(0, 65535), st.integers(65530, 65535)),
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 1000, 2**32 - 1)),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_stamped_room_encode_equals_packetize(ssrc, seq, ts, frames, rows, seed):
    """Across sequence and timestamp wrap, stamping a listener's row of
    the room encode gives the bytes packetize would have sent."""
    rng = np.random.default_rng(seed)
    stamped = [Packetizer(ssrc + k, seq, ts) for k in range(rows)]
    packetized = [Packetizer(ssrc + k, seq, ts) for k in range(rows)]
    for f in range(frames):
        pcm = rng.integers(-32768, 32768, (rows, FRAME_SAMPLES)).astype(np.int16)
        for k, codes in enumerate(encode_room(pcm)):
            datagram = stamped[k].stamp(codes)
            assert datagram == packetized[k].packetize(pcm[k]).to_bytes()
            want = AudioPacket(
                sequence=(seq + f) % 65536,
                timestamp=(ts + f * FRAME_SAMPLES) % 2**32,
                ssrc=(ssrc + k) % 2**32,
                payload=encode_ulaw(pcm[k]).tobytes(),
            )
            assert datagram == want.to_bytes()


# --- clock sync -------------------------------------------------------------


def test_offset_recovers_symmetric_skew():
    est = estimate_clock_offset(t1=1000, t2=1250, t3=1260, t4=1110)
    assert est.offset_ms == pytest.approx(200.0)
    assert est.round_trip_ms == pytest.approx(100.0)


def test_asymmetric_delay_biases_by_half_the_asymmetry():
    est = estimate_clock_offset(t1=0, t2=10, t3=10, t4=100)
    assert est.offset_ms == pytest.approx(-40.0)
    assert est.round_trip_ms == pytest.approx(100.0)


def test_equal_clocks_and_no_delay_give_zero():
    est = estimate_clock_offset(0, 0, 0, 0)
    assert est.offset_ms == 0.0
    assert est.round_trip_ms == 0.0


def test_offset_is_exact_under_symmetric_delays():
    rng = np.random.default_rng(17)
    for _ in range(100):
        skew = float(rng.uniform(-500, 500))
        delay = float(rng.uniform(0, 80))
        proc = float(rng.uniform(0, 20))
        t1 = float(rng.uniform(0, 10_000))
        t2 = t1 + delay + skew
        t3 = t2 + proc
        t4 = t3 - skew + delay
        est = estimate_clock_offset(t1, t2, t3, t4)
        assert est.offset_ms == pytest.approx(skew, abs=1e-9)
        assert est.round_trip_ms == pytest.approx(2 * delay, abs=1e-9)


# --- end-to-end latency -----------------------------------------------------


def test_loopback_latency_equals_the_jitter_depth():
    assert loopback_latency_ms() == 60
    assert loopback_latency_ms(depth_ms=20) == 20
    assert loopback_latency_ms(depth_ms=100) == 100
    assert loopback_latency_ms(marker_tick=137) == 60
