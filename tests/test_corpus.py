"""Labeled corpora: validation, the text format, and synthetic generation."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from floorspace.corpus import (
    Corpus,
    GeneratorConfig,
    TurnRecord,
    generate,
    load_corpus,
    save_corpus,
)
from floorspace.errors import CorpusError, read_json
from floorspace.segmenter import _runs

from conftest import four_party_config


def simple_corpus():
    return Corpus(
        ["alice", "bob"],
        [
            TurnRecord("alice", 0, 1000, 0),
            TurnRecord("bob", 1200, 2400, 0),
            TurnRecord("alice", 2500, 3000, 0),
        ],
        duration_ms=4000,
    )


# --- model objects ----------------------------------------------------------


def test_turn_record_validation():
    with pytest.raises(CorpusError):
        TurnRecord("a", 100, 100, 0)
    with pytest.raises(CorpusError):
        TurnRecord("a", 500, 100, 0)
    with pytest.raises(CorpusError):
        TurnRecord("a", -5, 100, 0)


@pytest.mark.parametrize("fields", [
    ("a", 0.0, 100, 0),
    ("a", 0, 100.5, 0),
    ("a", 0, 100, 0.0),
    ("a", False, 100, 0),
    ("a", 0, True, 0),
    ("a", 0, 100, False),
    ("a", None, 100, 0),
    ("a", "0", 100, 0),
    ("", 0, 100, 0),
    ("a b", 0, 100, 0),
    ("a\n", 0, 100, 0),
    ("a\u2028b", 0, 100, 0),
    (7, 0, 100, 0),
])
def test_a_turn_the_file_format_cannot_carry_is_rejected(fields):
    with pytest.raises(CorpusError):
        TurnRecord(*fields)


@pytest.mark.parametrize("participants, duration", [
    (["A B", "Z"], None),
    (["", "Z"], None),
    (["A\tB"], None),
    ([1], None),
    (["A"], 1000.5),
    (["A"], 1000.0),
    (["A"], True),
    (["A"], "1000"),
])
def test_a_corpus_the_file_format_cannot_carry_is_rejected(participants, duration):
    # each one saved, and the loader rejected the file or read back
    # another corpus; a float duration failed later, in streams()
    with pytest.raises(CorpusError):
        Corpus(participants, [], duration)


def test_numpy_integers_are_integers():
    rec = TurnRecord("a", np.int64(0), np.int32(100), np.uint8(0))
    c = Corpus(["a"], [rec], np.int64(200))
    assert c.duration_ms == 200 and len(c.streams()[0]) == 200


@st.composite
def corpus_arguments(draw):
    """Names, (name, start, end, label) turns and a duration for ``Corpus``:
    mostly what it accepts, now and then what it must reject, a float or a
    bool for every number or a name that is empty or holds whitespace."""
    number = draw(st.sampled_from([int, int, int, int, np.int64, float, bool]))
    word = st.text(min_size=1, max_size=5).filter(lambda s: not any(c.isspace() for c in s))
    names = draw(st.lists(word, max_size=4, unique=True))
    if names and draw(st.integers(0, 5)) == 0:
        names[-1] = draw(st.sampled_from(["", " ", "a b", "a\tb", "a\u2028b", "a\x1cb"]))
    spans = []
    for name in names:
        cuts = sorted(draw(st.sets(st.integers(0, 10_000), max_size=8)))
        spans += [(name, a, b, draw(st.integers(0, 3))) for a, b in zip(cuts[::2], cuts[1::2])]
    # labels made contiguous from a drawn base
    base = draw(st.integers(0, 3))
    rank = {label: base + i for i, label in enumerate(sorted({t[3] for t in spans}))}
    turns = [(name, number(a), number(b), number(rank[label])) for name, a, b, label in spans]
    end = max((t[2] for t in spans), default=0)
    duration = draw(st.none() | st.integers(end, end + 1000).map(number))
    return names, turns, duration


@settings(max_examples=150, deadline=None)
@given(corpus_arguments())
def test_every_corpus_saves_to_a_file_that_loads_back_equal(tmp_path_factory, arguments):
    names, turns, duration = arguments
    try:
        corpus = Corpus(names, [TurnRecord(*t) for t in turns], duration)
    except CorpusError:
        reject()
    path = tmp_path_factory.mktemp("corpus") / "c.txt"
    save_corpus(corpus, str(path))
    assert load_corpus(str(path)) == corpus


def test_duplicate_participants_rejected():
    with pytest.raises(CorpusError):
        Corpus(["a", "a"], [])


def test_unknown_participant_rejected():
    with pytest.raises(CorpusError):
        Corpus(["a"], [TurnRecord("b", 0, 100, 0)])


def test_overlapping_turns_of_one_speaker_rejected():
    with pytest.raises(CorpusError):
        Corpus(
            ["a"],
            [TurnRecord("a", 0, 1000, 0), TurnRecord("a", 500, 1500, 0)],
        )


def test_cross_speaker_overlap_is_allowed():
    c = Corpus(
        ["a", "b"],
        [TurnRecord("a", 0, 1000, 0), TurnRecord("b", 500, 1500, 0)],
    )
    assert c.duration_ms == 1500


def test_labels_must_be_contiguous_and_non_negative():
    with pytest.raises(CorpusError):
        Corpus(["a"], [TurnRecord("a", 0, 100, 0), TurnRecord("a", 200, 300, 2)])
    with pytest.raises(CorpusError):
        Corpus(["a"], [TurnRecord("a", 0, 100, -1)])


def test_declared_duration_must_cover_the_turns():
    with pytest.raises(CorpusError):
        Corpus(["a"], [TurnRecord("a", 0, 5000, 0)], duration_ms=4000)


def test_ids_follow_declaration_order():
    c = simple_corpus()
    assert c.ids == {"alice": 0, "bob": 1}


def test_streams_cover_the_duration():
    c = simple_corpus()
    streams = c.streams()
    assert set(streams) == {0, 1}
    assert all(len(s) == 4000 for s in streams.values())
    assert int(streams[0].bits.sum()) == 1500
    assert int(streams[1].bits.sum()) == 1200
    assert streams[0].bits[:1000].all()
    assert not streams[0].bits[1000:1200].any()


def test_utterances_carry_the_labels():
    c = simple_corpus()
    utts = c.utterances()
    assert [(u.start, u.end, u.floor_label) for u in utts[0]] == [
        (0, 1000, 0),
        (2500, 3000, 0),
    ]
    assert utts[1][0].participant == 1


def test_empty_corpus():
    c = Corpus(["a", "b"], [], duration_ms=1000)
    assert all(not s.bits.any() for s in c.streams().values())
    assert c.utterances() == {0: [], 1: []}


# --- file format ------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    c = simple_corpus()
    path = tmp_path / "c.txt"
    save_corpus(c, str(path))
    assert load_corpus(str(path)) == c


def test_round_trip_on_generated_corpora(tmp_path):
    for seed in (1, 2, 3):
        c = generate(four_party_config(seed=seed, duration_ms=60_000, epoch_ms=30_000))
        path = tmp_path / f"c{seed}.txt"
        save_corpus(c, str(path))
        assert load_corpus(str(path)) == c


def test_loader_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "floorspace-corpus 1\n"
        "# a comment\n"
        "\n"
        "duration 2000\n"
        "participant a\n"
        "turn a 0 1000 0\n"
    )
    c = load_corpus(str(path))
    assert c.participants == ["a"]
    assert c.duration_ms == 2000


def test_loader_rejects_bad_files(tmp_path):
    cases = {
        "empty": "",
        "header": "something-else 1\nduration 100\n",
        "version": "floorspace-corpus 9\n",
        "kind": "floorspace-corpus 1\nchapter 1\n",
        "fields": "floorspace-corpus 1\nturn a 0 100\n",
        "numbers": "floorspace-corpus 1\nparticipant a\nturn a zero 100 0\n",
        "turn-first": "floorspace-corpus 1\nturn a 0 1000 0\nparticipant a\n",
        "duration-after-turn":
            "floorspace-corpus 1\nparticipant a\nturn a 0 1000 0\nduration 5000\n",
        "second-duration":
            "floorspace-corpus 1\nduration 5000\nparticipant a\nduration 9000\n",
        "negative-duration": "floorspace-corpus 1\nduration -5\nparticipant a\n",
    }
    why = {
        "turn-first": "'participant' line after the first 'turn' line",
        "duration-after-turn": "'duration' line after the first 'turn' line",
        "second-duration": "second 'duration' line",
        "negative-duration": "duration -5 is negative",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        with pytest.raises(CorpusError, match=why.get(name)):
            load_corpus(str(path))


def test_loader_rejects_missing_file(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(str(tmp_path / "nope.txt"))


# --- generation -------------------------------------------------------------


def test_generation_is_deterministic(tmp_path):
    cfg = four_party_config(seed=5, duration_ms=120_000, epoch_ms=60_000)
    a = generate(cfg)
    b = generate(four_party_config(seed=5, duration_ms=120_000, epoch_ms=60_000))
    assert a == b
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_corpus(a, str(pa))
    save_corpus(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seeds_differ():
    a = generate(four_party_config(seed=5, duration_ms=120_000, epoch_ms=60_000))
    b = generate(four_party_config(seed=6, duration_ms=120_000, epoch_ms=60_000))
    assert a != b


def test_generated_corpus_is_valid_and_covers_everyone():
    cfg = four_party_config(seed=7, duration_ms=120_000, epoch_ms=60_000)
    c = generate(cfg)
    assert c.duration_ms == 120_000
    assert len(c.participants) == 4
    spoke = {r.participant for r in c.records}
    assert spoke == set(c.participants)
    assert all(r.end_ms <= 120_000 for r in c.records)


def test_schedule_validation():
    with pytest.raises(CorpusError):
        GeneratorConfig(participants=2, duration_ms=1000, schedule=[(500, ((0, 1),))])
    with pytest.raises(CorpusError):
        GeneratorConfig(
            participants=2, duration_ms=1000, schedule=[(0, ((0,),))]
        )  # participant 1 uncovered
    with pytest.raises(CorpusError):
        GeneratorConfig(
            participants=2, duration_ms=1000, schedule=[(0, ((0, 1), (1,)))]
        )  # 1 in two floors
    with pytest.raises(CorpusError):
        GeneratorConfig(participants=11, duration_ms=1000, schedule=[(0, ())])
    with pytest.raises(CorpusError):
        GeneratorConfig(
            participants=2,
            duration_ms=1000,
            schedule=[(0, ((0, 1),)), (0, ((0, 1),))],
        )  # duplicate epoch time


@pytest.mark.parametrize("field, value", [
    ("turn_median_ms", 0),
    ("turn_median_ms", float("nan")),
    ("turn_median_ms", float("inf")),
    ("turn_sigma", -1),
    ("pause_mean_ms", float("nan")),
    ("pause_sd_ms", -1),
    ("pause_floor_ms", float("-inf")),
    ("solo_gap_mean_ms", float("nan")),
    ("solo_gap_sd_ms", -1),
    ("overlap_probability", 2),
    ("overlap_probability", -0.1),
    ("turn_sigma", "0.8"),
    ("seed", -1),
    ("seed", 1.5),
    # 6e4 generated a corpus that saved as "duration 60000.0"
    ("duration_ms", 6e4),
    ("duration_ms", True),
    ("duration_ms", "60000"),
    ("participants", 2.0),
    ("participants", True),
])
def test_config_rejects_out_of_range_numbers(field, value):
    doc = {"participants": 2, "duration_ms": 10_000, "schedule": [[0, [[0], [1]]]],
           field: value}
    with pytest.raises(CorpusError, match=field):
        GeneratorConfig.from_dict(doc)
    # the edges of each range generate
    edges = {"turn_sigma": 0, "pause_sd_ms": 0, "solo_gap_sd_ms": 0, "overlap_probability": 1,
             "seed": 0, "participants": 2}
    generate(GeneratorConfig.from_dict({**doc, field: edges.get(field, 1)}))


def test_config_round_trips_through_json(tmp_path):
    cfg = four_party_config(seed=9, duration_ms=60_000, epoch_ms=30_000)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    back = GeneratorConfig.from_dict(read_json(str(path), "generator config", CorpusError))
    assert back == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(CorpusError):
        GeneratorConfig.from_dict(
            {
                "participants": 2,
                "duration_ms": 1000,
                "schedule": [[0, [[0, 1]]]],
                "mystery": 1,
            }
        )


def coalesce(intervals):
    out = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def test_streams_resegment_to_the_recorded_turns():
    cfg = four_party_config(seed=13, duration_ms=60_000, epoch_ms=30_000)
    c = generate(cfg)
    streams = c.streams()
    for name, pid in c.ids.items():
        expected = coalesce(
            [(r.start_ms, r.end_ms) for r in c.records if r.participant == name]
        )
        got = _runs(streams[pid].bits)
        assert got == expected


def overlap_stats(corpus):
    """Per unordered pair: ticks of simultaneous speech / corpus length."""
    streams = corpus.streams()
    ids = sorted(streams)
    rates = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            both = streams[a].bits & streams[b].bits
            rates[(a, b)] = float(both.sum()) / corpus.duration_ms
    return rates


def test_single_floor_has_little_simultaneous_speech():
    for seed in (21, 22, 23):
        cfg = GeneratorConfig(
            participants=2,
            duration_ms=120_000,
            schedule=[(0, ((0, 1),))],
            seed=seed,
        )
        c = generate(cfg)
        streams = c.streams()
        both = streams[0].bits & streams[1].bits
        either = streams[0].bits | streams[1].bits
        assert either.sum() > 0
        assert float(both.sum()) / float(either.sum()) < 0.05


def test_concurrent_floors_overlap_more_across_than_within():
    for seed in (31, 32, 33):
        cfg = GeneratorConfig(
            participants=4,
            duration_ms=120_000,
            schedule=[(0, ((0, 1), (2, 3)))],
            seed=seed,
        )
        rates = overlap_stats(generate(cfg))
        within = (rates[(0, 1)] + rates[(2, 3)]) / 2
        cross = (
            rates[(0, 2)] + rates[(0, 3)] + rates[(1, 2)] + rates[(1, 3)]
        ) / 4
        assert within > 0 or cross > 0
        assert cross > 2 * within
