"""Offline WAV render path: file I/O, tone tracks, per-listener mixes."""

import os
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace.assigner import FloorConfiguration, gains
from floorspace.corpus import Corpus, TurnRecord, generate
from floorspace.errors import UnsupportedFormatError
from floorspace.evaluation import ReplayResult, evaluate, partition_codes, replay_corpus
from floorspace.mixdown import (
    load_participant_tracks,
    mixdown_corpus,
    read_wav,
    render_listener_mix,
    tone_audio_for_corpus,
    write_wav,
)
from floorspace.mixer import Mixer
from floorspace.transport import FRAME_SAMPLES

from conftest import four_party_config


def _write_custom_wav(path, channels=1, width=2, rate=8000, n=800):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(rate)
        wf.writeframes(b"\x00" * (n * width * channels))


# --- WAV I/O ----------------------------------------------------------------


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pcm = rng.integers(-32768, 32768, size=4000, dtype=np.int16)
    path = tmp_path / "t.wav"
    write_wav(str(path), pcm)
    back = read_wav(str(path))
    assert np.array_equal(back, pcm)


def test_read_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    _write_custom_wav(path, channels=2)
    with pytest.raises(UnsupportedFormatError, match="mono"):
        read_wav(str(path))


def test_read_rejects_wrong_rate(tmp_path):
    path = tmp_path / "hi.wav"
    _write_custom_wav(path, rate=16000)
    with pytest.raises(UnsupportedFormatError, match="8000"):
        read_wav(str(path))


def test_read_rejects_eight_bit(tmp_path):
    path = tmp_path / "low.wav"
    _write_custom_wav(path, width=1)
    with pytest.raises(UnsupportedFormatError, match="16-bit"):
        read_wav(str(path))


# --- synthesized tone tracks ------------------------------------------------


def test_tones_sound_only_during_turns():
    c = Corpus(
        ["a", "b"],
        [TurnRecord("a", 100, 600, 0), TurnRecord("b", 700, 1200, 0)],
        duration_ms=2000,
    )
    tracks = tone_audio_for_corpus(c)
    a = tracks[0].astype(np.int64)
    assert np.all(a[: 100 * 8] == 0)
    assert np.abs(a[100 * 8 : 600 * 8]).max() > 8000
    assert np.all(a[600 * 8 :] == 0)
    b = tracks[1].astype(np.int64)
    assert np.all(b[: 700 * 8] == 0)
    assert np.abs(b[700 * 8 : 1200 * 8]).max() > 8000


def test_tracks_span_the_corpus():
    c = Corpus(["a"], [TurnRecord("a", 0, 500, 0)], duration_ms=1500)
    tracks = tone_audio_for_corpus(c)
    assert tracks[0].shape == (1500 * 8,)
    assert tracks[0].dtype == np.int16


def _reference_tones(corpus):
    """Tone tracks as a sine computed afresh for every burst."""
    from floorspace.mixdown import TONE_AMPLITUDE, TONE_FREQS_HZ

    tracks = {pid: np.zeros(corpus.duration_ms * 8, dtype=np.int16) for pid in corpus.ids.values()}
    for rec in corpus.records:
        pid = corpus.ids[rec.participant]
        a, b = rec.start_ms * 8, rec.end_ms * 8
        t = np.arange(b - a, dtype=np.float64)
        freq = TONE_FREQS_HZ[pid % len(TONE_FREQS_HZ)]
        burst = TONE_AMPLITUDE * 32767.0 * np.sin(2.0 * np.pi * freq * t / 8000)
        edge = min(80, (b - a) // 2)
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
        burst[:edge] *= ramp
        burst[len(burst) - edge :] *= ramp[::-1]
        tracks[pid][a:b] = np.clip(np.rint(burst), -32768, 32767)
    return tracks


@st.composite
def turn_lists(draw):
    turns, t = [], 0
    for _ in range(draw(st.integers(1, 12))):
        t += draw(st.integers(0, 300))
        end = t + draw(st.integers(1, 2500))
        turns.append(TurnRecord(draw(st.sampled_from(["a", "b", "c"])), t, end, 0))
        t = end
    return Corpus(["a", "b", "c"], turns, duration_ms=t + draw(st.integers(0, 50)))


@settings(max_examples=60, deadline=None)
@given(turn_lists())
def test_tones_equal_a_sine_computed_per_burst(corpus):
    got = tone_audio_for_corpus(corpus)
    want = _reference_tones(corpus)
    assert got.keys() == want.keys()
    for pid in want:
        assert np.array_equal(got[pid], want[pid])


# --- loading real audio -----------------------------------------------------


def test_load_tracks_pads_and_truncates(tmp_path):
    c = Corpus(
        ["a", "b"],
        [TurnRecord("a", 0, 500, 0), TurnRecord("b", 500, 900, 0)],
        duration_ms=1000,
    )
    write_wav(str(tmp_path / "a.wav"), np.full(4000, 100, dtype=np.int16))  # short
    write_wav(str(tmp_path / "b.wav"), np.full(20000, 200, dtype=np.int16))  # long
    tracks = load_participant_tracks(c, str(tmp_path))
    assert tracks[0].shape == (8000,)
    assert np.all(tracks[0][:4000] == 100) and np.all(tracks[0][4000:] == 0)
    assert tracks[1].shape == (8000,)
    assert np.all(tracks[1] == 200)


def test_load_tracks_names_every_missing_file(tmp_path):
    c = Corpus(
        ["a", "b"],
        [TurnRecord("a", 0, 500, 0), TurnRecord("b", 500, 900, 0)],
        duration_ms=1000,
    )
    write_wav(str(tmp_path / "a.wav"), np.zeros(8000, dtype=np.int16))
    with pytest.raises(FileNotFoundError, match="b.wav"):
        load_participant_tracks(c, str(tmp_path))


# --- rendered mixes ---------------------------------------------------------


def _dc_tracks(corpus, level=1000):
    n = corpus.duration_ms * 8
    return {pid: np.full(n, level, dtype=np.int16) for pid in corpus.ids.values()}


def _merged_corpus():
    """Four people join one floor one at a time; merged truth from 3.1 s."""
    return Corpus(
        ["a", "b", "c", "d"],
        [
            TurnRecord("a", 0, 1000, 0),
            TurnRecord("b", 1100, 2000, 0),
            TurnRecord("c", 2100, 3000, 0),
            TurnRecord("d", 3100, 3900, 0),
            TurnRecord("a", 4000, 5000, 0),
            TurnRecord("b", 5100, 5900, 0),
        ],
        duration_ms=6000,
    )


def _split_corpus():
    """Two two-person floors; truth is ((0,1),(2,3)) from 1.3 s on."""
    return Corpus(
        ["a", "b", "c", "d"],
        [
            TurnRecord("a", 0, 1000, 0),
            TurnRecord("c", 100, 1100, 1),
            TurnRecord("b", 1200, 2200, 0),
            TurnRecord("d", 1300, 2300, 1),
            TurnRecord("a", 2400, 3400, 0),
            TurnRecord("c", 2500, 3500, 1),
            TurnRecord("b", 3600, 4600, 0),
            TurnRecord("d", 3700, 4700, 1),
        ],
        duration_ms=6000,
    )


def test_single_floor_mix_settles_on_everyone_else(floor_model):
    corpus = _merged_corpus()
    result = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    tracks = _dc_tracks(corpus)
    mix = render_listener_mix(corpus, result, listener=0, tracks=tracks)
    # nobody shares a floor with the listener yet: three sources at 0.2
    assert np.all(mix[: 8 * 1080] == 600)
    # after d's first turn the truth merges; one decision period plus the
    # 250 ms ramp later everyone else sits at 1.0
    assert np.all(mix[8 * 3500 :] == 3000)


def test_mix_excludes_the_listener(floor_model):
    corpus = _merged_corpus()
    result = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    tracks = _dc_tracks(corpus, level=500)
    for listener in corpus.ids.values():
        mix = render_listener_mix(corpus, result, listener, tracks=tracks)
        # with n-1 contributors at most, the level never reaches n * 500
        assert np.abs(mix.astype(np.int64)).max() <= 3 * 500


def test_split_floors_attenuate_the_other_pair(floor_model):
    corpus = _split_corpus()
    result = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    tracks = _dc_tracks(corpus)
    mix = render_listener_mix(corpus, result, listener=0, tracks=tracks)
    # listener 0 hears partner 1 at 1.0 and participants 2,3 at 0.2 each
    assert np.all(mix[8 * 2000 :] == 1000 + 200 + 200)


def test_mix_clamps_at_full_scale(floor_model):
    corpus = _merged_corpus()
    result = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    tracks = _dc_tracks(corpus, level=20000)
    mix = render_listener_mix(corpus, result, listener=0, tracks=tracks)
    assert mix.max() == 32767
    assert np.all(mix <= 32767)


def test_a_partial_last_frame_is_mixed_too(floor_model):
    # a duration inferred from the last turn end need not fill whole frames
    records = _merged_corpus().records[:-1] + [TurnRecord("b", 5100, 6010, 0)]
    corpus = Corpus(["a", "b", "c", "d"], records)
    assert corpus.duration_ms * 8 % 160 == 80
    result = replay_corpus(corpus, floor_model, oracle_posteriors=True)
    mix = render_listener_mix(corpus, result, listener=0, tracks=_dc_tracks(corpus))
    assert len(mix) == 6010 * 8
    assert np.all(mix[8 * 3500 :] == 3000)


def test_a_replay_numbers_its_chosen_partitions_once(floor_model, monkeypatch):
    # evaluate and every listener's render share one numbering of the
    # chosen partitions; only the truth is numbered besides
    numbered = []

    def counted(partitions, index):
        numbered.append(partitions)
        return partition_codes(partitions, index)

    monkeypatch.setattr("floorspace.evaluation.partition_codes", counted)
    corpus = generate(four_party_config(seed=52, duration_ms=40_000, epoch_ms=10_000))
    _, result = evaluate(corpus, floor_model)
    tracks = tone_audio_for_corpus(corpus)
    for listener in corpus.ids.values():
        render_listener_mix(corpus, result, listener, tracks=tracks)
    assert numbered == [result.chosen, result.truth]
    codes, partitions = result.chosen_codes
    assert [partitions[c] for c in codes] == result.chosen
    assert len(set(partitions)) == len(partitions) > 1


def test_mixdown_writes_one_file_per_listener(tmp_path, floor_model):
    corpus = generate(four_party_config(seed=51, duration_ms=35_000, epoch_ms=35_000))
    out = tmp_path / "mixes"
    paths = mixdown_corpus(corpus, floor_model, str(out))
    assert len(paths) == 4
    for name in corpus.participants:
        p = os.path.join(str(out), f"mix_{name}.wav")
        assert p in paths
        pcm = read_wav(p)
        assert pcm.shape == (corpus.duration_ms * 8,)


def test_mixdown_listener_subset(tmp_path, floor_model):
    corpus = generate(four_party_config(seed=52, duration_ms=35_000, epoch_ms=35_000))
    name = corpus.participants[0]
    paths = mixdown_corpus(corpus, floor_model, str(tmp_path), listeners=[name])
    assert paths == [os.path.join(str(tmp_path), f"mix_{name}.wav")]


def test_mixdown_rejects_unknown_listener(tmp_path, floor_model):
    corpus = generate(four_party_config(seed=53, duration_ms=35_000, epoch_ms=35_000))
    with pytest.raises(UnsupportedFormatError, match="nobody"):
        mixdown_corpus(corpus, floor_model, str(tmp_path), listeners=["nobody"])


# --- the render against a frame-by-frame reference ----------------------------


class _SparseCorpus(Corpus):
    """A corpus whose participants carry arbitrary, non-contiguous ids."""

    def __init__(self, ids, duration_ms):
        super().__init__([f"p{pid}" for pid in ids], [], duration_ms=duration_ms)
        self._ids = {f"p{pid}": pid for pid in ids}

    @property
    def ids(self):
        return dict(self._ids)


@st.composite
def timelines(draw):
    ids = sorted(draw(st.sets(st.integers(0, 15), min_size=2, max_size=6)))
    # up to 120 frames, the last one often partial
    duration_ms = draw(st.integers(1, 2400))
    # changes at any millisecond, often closer together than a ramp, so
    # gains reverse mid-glide; the first may come after the start
    ticks = sorted(draw(st.sets(st.integers(0, duration_ms - 1), max_size=30)))
    chosen = []
    for _ in ticks:
        labels = draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
        blocks = {}
        for pid, label in zip(ids, labels):
            blocks.setdefault(label, []).append(pid)
        chosen.append(tuple(sorted(tuple(b) for b in blocks.values())))
    amplitudes = draw(st.lists(st.sampled_from([0, 300, 12000, 32767]),
                               min_size=len(ids), max_size=len(ids)))
    seed = draw(st.integers(0, 2**32 - 1))
    return ids, duration_ms, ticks, chosen, amplitudes, seed


def _reference_mix(ids, listener, tracks, ticks, chosen, n):
    """Mix frame by frame, each under the partition chosen at its start."""
    mixer = Mixer()
    fs = FRAME_SAMPLES
    singletons = tuple((pid,) for pid in ids)
    out = []
    for a in range(0, n, fs):
        i = int(np.searchsorted(ticks, a // 8, side="right")) - 1
        part = chosen[i] if i >= 0 else singletons
        row = gains(FloorConfiguration(part, 0.0), ids)[ids.index(listener)]
        frames = np.array([tracks[pid][a : a + fs] for pid in ids])
        out.append(mixer.mix_frame([listener], ids, frames, [row])[0])
    return np.concatenate(out)


@settings(max_examples=60, deadline=None)
@given(timelines())
def test_render_equals_a_frame_by_frame_walk_of_the_mixer(timeline):
    ids, duration_ms, ticks, chosen, amplitudes, seed = timeline
    corpus = _SparseCorpus(ids, duration_ms)
    n = duration_ms * 8
    rng = np.random.default_rng(seed)
    tracks = {
        pid: rng.integers(-amp, amp + 1, n).astype(np.int16)
        for pid, amp in zip(ids, amplitudes)
    }
    result = ReplayResult(tuple(ids), [], np.array(ticks, dtype=np.int64), chosen,
                          np.zeros(len(ticks)), [], [], np.zeros((len(ticks), 0)))
    for listener in ids:
        mix = render_listener_mix(corpus, result, listener, tracks=tracks)
        want = _reference_mix(ids, listener, tracks, ticks, chosen, n)
        assert mix.dtype == np.int16
        assert np.array_equal(mix, want)
