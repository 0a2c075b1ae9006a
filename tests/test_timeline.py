"""Activity streams, utterances, and interval arithmetic."""

import numpy as np
import pytest

from floorspace import ActivityStream, Utterance, clip_stream, overlap_ms
from floorspace.errors import InvalidRangeError
from floorspace.timeline import stream_from_intervals


def test_utterance_duration():
    u = Utterance(participant=0, start=100, end=350)
    assert u.duration_ms == 250


def test_empty_utterance_rejected():
    with pytest.raises(InvalidRangeError):
        Utterance(participant=0, start=100, end=100)
    with pytest.raises(InvalidRangeError):
        Utterance(participant=0, start=200, end=100)


def test_overlap_examples():
    a = Utterance(0, 0, 100)
    assert overlap_ms(a, Utterance(1, 50, 150)) == 50
    assert overlap_ms(a, Utterance(1, 100, 200)) == 0
    assert overlap_ms(a, Utterance(1, 400, 500)) == 0
    assert overlap_ms(a, Utterance(1, 0, 100)) == 100


def test_overlap_symmetry_and_bound():
    rng = np.random.default_rng(7)
    for _ in range(300):
        s1, s2 = rng.integers(0, 1000, size=2)
        a = Utterance(0, int(s1), int(s1) + int(rng.integers(1, 500)))
        b = Utterance(1, int(s2), int(s2) + int(rng.integers(1, 500)))
        o = overlap_ms(a, b)
        assert o == overlap_ms(b, a)
        assert 0 <= o <= min(a.duration_ms, b.duration_ms)


def test_stream_append_and_read():
    s = ActivityStream(participant=3)
    assert len(s) == 0
    assert s.end_tick == 0
    s.append([True, False, True])
    s.append(np.ones(4, dtype=bool))
    assert len(s) == 7
    assert s.end_tick == 7
    assert list(s.bits) == [True, False, True, True, True, True, True]
    assert s.get(0) is True
    assert s.get(1) is False


def test_stream_reads_outside_recording_are_silence():
    s = ActivityStream(participant=0, start_tick=100, bits=np.ones(10, dtype=bool))
    assert s.get(99) is False
    assert s.get(110) is False
    assert s.get(105) is True
    w = s.window(95, 115)
    assert list(w[:5]) == [False] * 5
    assert list(w[5:15]) == [True] * 10
    assert list(w[15:]) == [False] * 5


def test_window_matches_per_tick_reads():
    rng = np.random.default_rng(21)
    for _ in range(50):
        start = int(rng.integers(0, 50))
        bits = rng.random(int(rng.integers(1, 200))) < 0.5
        s = ActivityStream(0, start_tick=start, bits=bits)
        a = int(rng.integers(-20, 260))
        b = a + int(rng.integers(0, 120))
        w = s.window(a, b)
        assert [bool(x) for x in w] == [s.get(t) for t in range(a, b)]


def test_window_rejects_reversed_range():
    s = ActivityStream(0, bits=np.zeros(5, dtype=bool))
    with pytest.raises(InvalidRangeError):
        s.window(4, 2)


def test_stream_growth_past_initial_buffer():
    s = ActivityStream(0)
    chunk = np.ones(100, dtype=bool)
    for _ in range(100):
        s.append(chunk)
    assert len(s) == 10_000
    assert s.bits.all()


def test_bits_view_is_read_only():
    s = ActivityStream(0, bits=np.zeros(8, dtype=bool))
    with pytest.raises(ValueError):
        s.bits[0] = True


def test_clip_examples():
    s = ActivityStream(0, bits=[0, 1, 1, 0, 1, 1, 1, 0])
    c = clip_stream(s, 5, 8)
    assert c.start_tick == 5
    assert list(c.bits) == [True, True, False]
    whole = clip_stream(s, 0, 8)
    assert list(whole.bits) == list(s.bits)
    before = clip_stream(s, -4, 0)
    assert not before.bits.any()


def test_clip_is_idempotent():
    rng = np.random.default_rng(5)
    s = ActivityStream(0, bits=rng.random(300) < 0.4)
    once = clip_stream(s, 50, 250)
    twice = clip_stream(once, 50, 250)
    assert np.array_equal(once.bits, twice.bits)
    assert once.start_tick == twice.start_tick


def test_stream_from_intervals_single_turn():
    s = stream_from_intervals(0, [(0, 1000)], duration_ms=2000)
    assert int(s.bits.sum()) == 1000
    assert s.bits[:1000].all()
    assert not s.bits[1000:].any()


def test_stream_from_intervals_clamps_to_duration():
    s = stream_from_intervals(0, [(-50, 30), (1990, 2500)], duration_ms=2000)
    assert s.bits[:30].all()
    assert s.bits[1990:].all()
    assert len(s) == 2000


def test_extend_to_pads_with_silence():
    s = ActivityStream(0, bits=np.ones(5, dtype=bool))
    s.extend_to(12)
    assert len(s) == 12
    assert not s.bits[5:].any()
    s.extend_to(3)  # never shrinks
    assert len(s) == 12


def test_discard_before_keeps_the_tail_and_later_appends():
    rng = np.random.default_rng(4)
    bits = rng.random(3000) < 0.5
    s = ActivityStream(0, 100, bits[:1000])
    s.discard_before(600)
    assert (s.start_tick, s.end_tick, len(s)) == (600, 1100, 500)
    assert np.array_equal(s.window(400, 1100), np.r_[np.zeros(200, bool), bits[500:1000]])
    s.discard_before(5000)  # past the end: nothing left, and appends still work
    assert len(s) == 0 and s.start_tick == 1100
    s.append(bits[1000:3000])
    assert np.array_equal(s.bits, bits[1000:3000]) and s.end_tick == 3100
