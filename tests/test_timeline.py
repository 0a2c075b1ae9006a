"""Activity streams, utterances, and interval arithmetic."""

import numpy as np
import pytest

from floorspace.errors import InvalidRangeError
from floorspace.timeline import ActivityStream, Utterance, stream_from_intervals

# Interval and stream operations that nothing in the program needs, kept
# here as oracles of what the stream's reads must agree with.


def bit_at(stream: ActivityStream, tick: int) -> bool:
    """Speech bit at one tick; ticks outside the recording read as non-speech."""
    if stream.start_tick <= tick < stream.end_tick:
        return bool(stream.bits[tick - stream.start_tick])
    return False


def overlap_ms(a: Utterance, b: Utterance) -> int:
    """Length in ms of the intersection of two utterance intervals."""
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def clip_stream(stream: ActivityStream, from_tick: int, to_tick: int) -> ActivityStream:
    """Sub-stream covering exactly [from_tick, to_tick), silent outside the recording."""
    return ActivityStream(stream.participant, from_tick, bits=stream.window(from_tick, to_tick))


def extend_to(stream: ActivityStream, tick: int) -> ActivityStream:
    """The stream padded with non-speech to cover ticks up to ``tick``."""
    return clip_stream(stream, stream.start_tick, max(tick, stream.end_tick))


def discard_before(stream: ActivityStream, tick: int) -> ActivityStream:
    """The stream without its bits before ``tick``; it then starts there."""
    start = min(max(tick, stream.start_tick), stream.end_tick)
    return clip_stream(stream, start, stream.end_tick)


def test_utterance_duration():
    u = Utterance(participant=0, start=100, end=350)
    assert (u.start, u.end - u.start) == (100, 250)


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
        assert 0 <= o <= min(a.end - a.start, b.end - b.start)


def test_stream_reads_exactly_the_bits_it_is_made_from():
    s = ActivityStream(participant=3, bits=[])
    assert len(s) == 0
    assert s.end_tick == 0
    s = ActivityStream(participant=3, start_tick=5, bits=[True, False, True] + [True] * 4)
    assert len(s) == 7
    assert s.end_tick == 12
    assert list(s.bits) == [True, False, True, True, True, True, True]


def test_stream_reads_outside_recording_are_silence():
    s = ActivityStream(participant=0, start_tick=100, bits=np.ones(10, dtype=bool))
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
        assert [bool(x) for x in w] == [bit_at(s, t) for t in range(a, b)]


def test_window_rejects_reversed_range():
    s = ActivityStream(0, bits=np.zeros(5, dtype=bool))
    with pytest.raises(InvalidRangeError):
        s.window(4, 2)


def test_a_long_stream_reads_every_chunk_it_is_made_from():
    rng = np.random.default_rng(9)
    chunks = [rng.random(100) < 0.5 for _ in range(100)]
    s = ActivityStream(0, bits=np.concatenate(chunks))
    assert len(s) == 10_000
    for k, chunk in enumerate(chunks):
        assert np.array_equal(s.window(100 * k, 100 * (k + 1)), chunk)


def test_a_stream_made_from_bits_keeps_a_copy_of_exactly_their_length(eval_corpus):
    bits = np.ones(600_001, dtype=bool)
    s = ActivityStream(0, bits=bits)
    assert s.bits.nbytes == 600_001
    bits[0] = False  # the caller's array stays its own
    assert s.bits[0]
    # a 600 s four-party corpus holds its 2.4 MB of bits, not 4 MB of buffers
    held = sum(stream.bits.nbytes for stream in eval_corpus.streams().values())
    assert held == 4 * eval_corpus.duration_ms == 2_400_000


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
    s = extend_to(ActivityStream(0, bits=np.ones(5, dtype=bool)), 12)
    assert len(s) == 12
    assert s.bits[:5].all() and not s.bits[5:].any()
    s = extend_to(s, 3)  # never shrinks
    assert len(s) == 12


def test_discard_before_keeps_the_tail():
    rng = np.random.default_rng(4)
    bits = rng.random(1000) < 0.5
    s = ActivityStream(0, 100, bits=bits)
    s = discard_before(s, 600)
    assert (s.start_tick, s.end_tick, len(s)) == (600, 1100, 500)
    assert np.array_equal(s.window(400, 1100), np.r_[np.zeros(200, bool), bits[500:1000]])
    s = discard_before(s, 5000)  # past the end: nothing left, and it reads as silence
    assert len(s) == 0 and s.start_tick == s.end_tick == 1100
    assert not s.window(0, 2000).any()
