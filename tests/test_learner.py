"""Discretization, training, and posterior inference for pair classification."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace.corpus import generate
from floorspace.errors import (
    ConfigError,
    CorpusError,
    ModelFormatError,
    ModelVersionError,
    TrainingError,
)
from floorspace.evaluation import FloorTracker
from floorspace.features import FeatureBinning, FeatureEngine, NO_GAP, utterance_views
from floorspace.learner import (
    CLASS_NAMES,
    DIFF,
    FEATURE_NAMES,
    FloorModel,
    SAME,
    TrainingSet,
    load_model,
    make_training_instances,
    posterior_batch,
    save_model,
    summarize_training,
    train,
)
from floorspace.timeline import Utterance, stream_from_intervals

from conftest import four_party_config, instances_for, room_block


def labeled(pid, intervals, label):
    return [Utterance(pid, s, e, floor_label=label) for s, e in intervals]


def two_speaker_corpus(label_b=0, duration=60_000):
    """Alternating turns; both speakers audible before the 1 s mark."""
    a_turns = [(k * 2000, k * 2000 + 900) for k in range(duration // 2000)]
    b_turns = [(k * 2000 + 950, k * 2000 + 1900) for k in range(duration // 2000)]
    streams = {
        0: stream_from_intervals(0, a_turns, duration),
        1: stream_from_intervals(1, b_turns, duration),
    }
    utterances = {0: labeled(0, a_turns, 0), 1: labeled(1, b_turns, label_b)}
    return streams, utterances, duration


def random_features(rng, k):
    """(gaps, overlaps) of shape (k,) and (k, 3); about 15 % of gaps missing."""
    gaps = np.where(rng.random(k) < 0.15, NO_GAP, rng.integers(-6000, 6000, k))
    overlaps = rng.integers(0, (1001, 14001, 15001), (k, 3))
    return gaps, overlaps


def random_set(rng, k):
    return TrainingSet(rng.integers(0, 2, k), *random_features(rng, k), FeatureBinning())


def repeated(label, gap, overlaps, times):
    """A TrainingSet of one row ``times`` over; a gap of None is missing."""
    return TrainingSet(
        np.full(times, label),
        np.full(times, NO_GAP if gap is None else gap),
        np.tile(overlaps, (times, 1)),
        FeatureBinning(),
    )


def concatenated(a, b):
    return TrainingSet(
        np.concatenate((a.labels, b.labels)),
        np.concatenate((a.gaps, b.gaps)),
        np.concatenate((a.overlaps, b.overlaps)),
        a.binning,
    )


def posteriors(model, gaps, overlaps):
    return posterior_batch(model, model.binning.bin_array(gaps, overlaps))


def random_model(rng):
    binning = FeatureBinning()
    tables = {}
    for name in FEATURE_NAMES:
        n = binning.bins_for(name)
        t = rng.random((2, n)) + 0.01
        tables[name] = t / t.sum(axis=1, keepdims=True)
    pr = rng.random() * 0.8 + 0.1
    return FloorModel(priors=np.array([pr, 1 - pr]), tables=tables, binning=binning)


# --- binning ----------------------------------------------------------------


def test_bin_counts():
    b = FeatureBinning()
    assert b.n_trp_bins == 101
    assert b.missing_bin == 100
    assert b.bins_for("trp_gap") == 101
    for name in ("overlap_w1", "overlap_w2", "overlap_w3"):
        assert b.bins_for(name) == 20


def test_trp_bin_reference_points():
    b = FeatureBinning()
    gaps = [NO_GAP, -5000, -4901, -4900, 0, 4999, 5000, 123_456, -123_456]
    bins = b.bin_array(gaps, np.zeros((len(gaps), 3)))
    assert bins[:, 0].tolist() == [100, 0, 0, 1, 50, 99, 99, 99, 0]


def test_a_gap_bin_wider_than_the_clipped_range_is_the_one_value_bin():
    b = FeatureBinning(trp_bin_width_ms=300, trp_clip_ms=100)
    assert b.n_trp_bins == 2
    bins = b.bin_array([-500, 0, 500, NO_GAP], np.zeros((4, 3)))
    assert bins[:, 0].tolist() == [0, 0, 0, 1]


def test_overlap_bin_reference_points():
    b = FeatureBinning()
    cases = [  # (overlap, window, bin)
        (0, 0, 0), (49, 0, 0), (50, 0, 1), (500, 0, 10), (999, 0, 19),
        (1000, 0, 19), (7000, 1, 10), (14_000, 1, 19), (15_000, 2, 19),
    ]
    overlaps = np.zeros((len(cases), 3), dtype=np.int64)
    for row, (ms, window, _) in enumerate(cases):
        overlaps[row, window] = ms
    bins = b.bin_array(np.full(len(cases), NO_GAP), overlaps)
    assert [bins[row, 1 + window] for row, (_, window, _) in enumerate(cases)] == [
        want for _, _, want in cases
    ]


def test_every_feature_value_maps_to_one_bin():
    b = FeatureBinning()
    bins = b.bin_array(*random_features(np.random.default_rng(2), 500))
    assert bins.shape == (500, 4)
    assert np.all((0 <= bins[:, 0]) & (bins[:, 0] < 101))
    assert np.all((0 <= bins[:, 1:]) & (bins[:, 1:] < 20))


@st.composite
def binnings(draw, most=5000):
    """FeatureBinnings of one bin to about ``most`` per feature, with
    windows from 1 ms to far past the defaults."""
    clip = draw(st.integers(1, 50_000))
    return FeatureBinning(
        trp_bin_width_ms=draw(st.integers(max(2 * clip // most, 1), 3 * clip)),
        trp_clip_ms=clip,
        overlap_bins_per_window=draw(st.integers(1, most)),
        window_lengths_ms=tuple(draw(st.lists(st.integers(1, 10**7), min_size=3, max_size=3))),
    )


def scalar_bins(binning, gap, overlaps):
    """One feature vector's bins by the binning rule, in Python ints."""
    clip, width = binning.trp_clip_ms, binning.trp_bin_width_ms
    trp = (binning.missing_bin if gap == NO_GAP else
           min((min(max(gap, -clip), clip) + clip) // width, binning.n_trp_value_bins - 1))
    b = binning.overlap_bins_per_window
    return [trp] + [min(max(o * b // w, 0), b - 1)
                    for o, w in zip(overlaps, binning.window_lengths_ms)]


@st.composite
def binned_values(draw):
    """A binning, and gaps and window counts for it: missing, negative,
    past the clip or the window, and at the int64 ends for gaps."""
    binning = draw(binnings())
    clip = binning.trp_clip_ms
    gap = st.one_of(st.just(NO_GAP), st.integers(-3 * clip, 3 * clip),
                    st.sampled_from([NO_GAP + 1, np.iinfo(np.int64).max]))
    count = st.tuples(*(st.one_of(st.integers(-2 * w, 3 * w), st.sampled_from([0, w]))
                        for w in binning.window_lengths_ms))
    rows = draw(st.lists(st.tuples(gap, gap, count), min_size=1, max_size=40))
    return binning, rows


@settings(max_examples=150, deadline=None)
@given(binned_values())
def test_bin_array_bins_every_entry_by_the_scalar_rule(case):
    binning, rows = case
    gaps = np.array([[a, b] for a, b, _ in rows], dtype=np.int64)
    overlaps = np.array([c for _, _, c in rows], dtype=np.int64)
    want = [[scalar_bins(binning, g, c) for g in (a, b)] for a, b, c in rows]
    # each row's counts binned once for both of its gaps, and once per gap
    assert binning.bin_array(gaps, overlaps[:, None]).tolist() == want
    assert binning.bin_array(gaps[:, 0], overlaps).tolist() == [w[0] for w in want]


# --- instance sampling ------------------------------------------------------


def test_sixty_second_two_speaker_corpus_yields_120_instances():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration)
    assert len(instances) == 120
    assert instances.gaps.shape == (120,) and instances.overlaps.shape == (120, 3)
    assert np.all(instances.labels == SAME)


def test_different_floors_label_diff():
    streams, utterances, duration = two_speaker_corpus(label_b=1)
    instances = make_training_instances(streams, utterances, duration)
    assert len(instances) == 120
    assert np.all(instances.labels == DIFF)


def test_silent_third_participant_produces_no_pairs():
    streams, utterances, duration = two_speaker_corpus()
    streams[2] = stream_from_intervals(2, [], duration)
    utterances[2] = []
    instances = make_training_instances(streams, utterances, duration)
    assert len(instances) == 120


def test_both_directions_share_the_overlap_features():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration)
    assert np.array_equal(instances.overlaps[0::2], instances.overlaps[1::2])
    assert np.array_equal(instances.labels[0::2], instances.labels[1::2])


def test_unlabeled_utterance_is_rejected():
    streams, utterances, duration = two_speaker_corpus()
    utterances[1][0] = Utterance(1, 950, 1900, floor_label=None)
    with pytest.raises(CorpusError):
        make_training_instances(streams, utterances, duration)


def test_sample_period_scales_instance_count():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration, sample_period_ms=2000)
    assert len(instances) == 60


@pytest.mark.parametrize("period", [0, -5, 2.5, True])
def test_a_sample_period_must_be_a_positive_int(period):
    streams, utterances, duration = two_speaker_corpus()
    with pytest.raises(ConfigError, match="sample period"):
        make_training_instances(streams, utterances, duration, sample_period_ms=period)


# --- training ---------------------------------------------------------------


def test_balanced_priors_are_exactly_half():
    instances = concatenated(
        repeated(SAME, None, (0, 0, 0), 1), repeated(DIFF, None, (0, 0, 0), 1)
    )
    model = train(instances)
    assert model.priors[SAME] == 0.5
    assert model.priors[DIFF] == 0.5


def test_add_one_smoothing_hand_computed():
    instances = concatenated(
        repeated(SAME, None, (0, 0, 0), 5), repeated(DIFF, None, (999, 0, 0), 5)
    )
    model = train(instances)
    w1 = model.tables["overlap_w1"]
    assert w1[SAME, 0] == pytest.approx(6 / 25, abs=1e-12)
    assert w1[SAME, 19] == pytest.approx(1 / 25, abs=1e-12)
    assert w1[DIFF, 19] == pytest.approx(6 / 25, abs=1e-12)
    assert w1[DIFF, 0] == pytest.approx(1 / 25, abs=1e-12)
    trp = model.tables["trp_gap"]
    assert trp[SAME, 100] == pytest.approx(6 / 106, abs=1e-12)
    assert trp[SAME, 0] == pytest.approx(1 / 106, abs=1e-12)


def test_every_table_row_is_a_distribution():
    model = train(random_set(np.random.default_rng(11), 400))
    for name in FEATURE_NAMES:
        sums = model.tables[name].sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(model.tables[name] > 0)


def test_training_needs_both_classes():
    with pytest.raises(TrainingError, match="diff"):
        train(repeated(SAME, None, (0, 0, 0), 3))
    with pytest.raises(TrainingError, match="same"):
        train(repeated(DIFF, None, (0, 0, 0), 3))


def test_instance_order_does_not_matter():
    rng = np.random.default_rng(13)
    instances = random_set(rng, 200)
    m1 = train(instances)
    order = rng.permutation(len(instances))
    shuffled = TrainingSet(
        instances.labels[order], instances.gaps[order], instances.overlaps[order],
        instances.binning,
    )
    m2 = train(shuffled)
    assert np.array_equal(m1.priors, m2.priors)
    for name in FEATURE_NAMES:
        assert np.array_equal(m1.tables[name], m2.tables[name])


@settings(max_examples=60, deadline=None)
@given(binnings(), st.integers(0, 2**32 - 1), st.integers(2, 500))
def test_train_tallies_every_instance_like_add_at(binning, seed, k):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, k)
    labels[:2] = SAME, DIFF
    clip = binning.trp_clip_ms
    gaps = np.where(rng.random(k) < 0.15, NO_GAP, rng.integers(-2 * clip, 2 * clip + 1, k))
    overlaps = rng.integers(0, np.array(binning.window_lengths_ms) + 1, (k, 3))
    model = train(TrainingSet(labels, gaps, overlaps, binning))
    bins = binning.bin_array(gaps, overlaps)
    class_counts = np.bincount(labels, minlength=2)
    for f, name in enumerate(FEATURE_NAMES):
        n_bins = binning.bins_for(name)
        counts = np.zeros((2, n_bins), dtype=np.int64)
        np.add.at(counts, (labels, bins[:, f]), 1)
        assert np.array_equal(model.tables[name],
                              (counts + 1.0) / (class_counts[:, None] + float(n_bins)))


def test_summarize_training_counts():
    streams, utterances, duration = two_speaker_corpus()
    instances = concatenated(
        make_training_instances(streams, utterances, duration),
        repeated(DIFF, None, (999, 0, 0), 4),
    )
    stats = summarize_training(instances)
    assert stats["instances"] == {"same": 120, "diff": 4}
    assert stats["total_bins"]["trp_gap"] == 101
    assert stats["total_bins"]["overlap_w1"] == 20
    for name in FEATURE_NAMES:
        for cls in ("same", "diff"):
            assert 0 <= stats["occupied_bins"][name][cls] <= stats["total_bins"][name]
    assert stats["occupied_bins"]["overlap_w1"]["diff"] == 1


# --- posteriors -------------------------------------------------------------


def uniform_model(priors=(0.5, 0.5)):
    binning = FeatureBinning()
    tables = {
        name: np.full((2, binning.bins_for(name)), 1.0 / binning.bins_for(name))
        for name in FEATURE_NAMES
    }
    return FloorModel(priors=np.array(priors), tables=tables, binning=binning)


def test_uninformative_features_return_the_prior():
    model = uniform_model(priors=(0.3, 0.7))
    p = posteriors(model, [200], [(10, 300, 4000)])
    assert p[0] == pytest.approx(0.3, abs=1e-12)


def test_single_informative_feature_with_4_to_1_ratio():
    model = uniform_model()
    w1 = np.zeros((2, 20))
    w1[SAME] = 0.8 / 19
    w1[DIFF] = 0.95 / 19
    w1[SAME, 0] = 0.2
    w1[DIFF, 0] = 0.05
    model = FloorModel(
        priors=model.priors,
        tables={**model.tables, "overlap_w1": w1},
        binning=model.binning,
    )
    p = posteriors(model, [NO_GAP], [(0, 0, 0)])
    assert p[0] == pytest.approx(0.8, abs=1e-12)


def test_posterior_complement_sums_to_one():
    rng = np.random.default_rng(17)
    for _ in range(100):
        model = random_model(rng)
        swapped = FloorModel(
            priors=model.priors[::-1].copy(),
            tables={k: v[::-1].copy() for k, v in model.tables.items()},
            binning=model.binning,
        )
        f = random_features(rng, 1)
        assert posteriors(model, *f)[0] + posteriors(swapped, *f)[0] == pytest.approx(
            1.0, abs=1e-9
        )


def test_log_space_matches_direct_product():
    rng = np.random.default_rng(19)
    for _ in range(300):
        model = random_model(rng)
        f = random_features(rng, 1)
        bins = model.binning.bin_array(*f)[0]
        s = model.priors[SAME]
        d = model.priors[DIFF]
        for name, b in zip(FEATURE_NAMES, bins):
            s *= model.tables[name][SAME, b]
            d *= model.tables[name][DIFF, b]
        assert posteriors(model, *f)[0] == pytest.approx(s / (s + d), abs=1e-9)


def test_posterior_batch_matches_scalar_path():
    # each row of a batch equals that row's posterior computed alone
    rng = np.random.default_rng(23)
    for _ in range(5):
        model = random_model(rng)
        bins = model.binning.bin_array(*random_features(rng, 301))
        batch = posterior_batch(model, bins)
        for row, p in zip(bins, batch):
            assert p == posterior_batch(model, row[None])[0]


def test_tracker_probability_is_the_mean_of_both_directions(periods):
    rng = np.random.default_rng(29)
    model = random_model(rng)
    duration = 40_000
    turns = {
        p: [(s, s + 700) for s in range(300 * p, duration, 1900 + 500 * p)] for p in range(3)
    }
    bits = {p: stream_from_intervals(p, turns[p], duration).bits for p in range(3)}
    views = {p: (lambda t=turns[p]: ([s for s, _ in t], [e for _, e in t])) for p in range(3)}
    tracker = FloorTracker(range(3), model, views)
    engine = FeatureEngine(range(3), views, model.binning, step_ms=30)
    room = np.stack([bits[p] for p in range(3)])
    tracker.add_activity(room)
    engine.add_activity(room)
    tracker.process_due()
    log = periods[tracker]
    for t in (990, 15_000, 39_990):
        raw = engine.raw([t])
        m = raw.overlaps.shape[1]
        row = log.posteriors[log.ticks.index(t)]
        for k in range(m):
            both = posteriors(model, raw.gaps[0, [k, m + k]], raw.overlaps[0, [k, k]])
            assert row[k] == pytest.approx(both.mean(), abs=1e-12)


def test_training_reads_the_features_the_tracker_serves(train_corpus, floor_model):
    # training's engine counts at its 1 000 ms step, fed in 60 s batches;
    # the tracker counts at the 30 ms period's resolution, fed at once
    ids = sorted(train_corpus.ids.values())
    instances = instances_for(train_corpus)
    tracker = FloorTracker(ids, floor_model, utterance_views(train_corpus.utterances()))
    tracker.add_activity(room_block(train_corpus.streams(), ids))
    ticks = np.arange(1000, train_corpus.duration_ms + 1, 1000)
    raw = tracker.raw(ticks)

    # the pairs training keeps: both spoke in the lookback before each instant
    lookback = sum(floor_model.binning.window_lengths_ms)
    spoken = np.cumsum(room_block(train_corpus.streams(), ids), axis=1, dtype=np.int64)
    spoken = np.concatenate((np.zeros((len(ids), 1), dtype=np.int64), spoken), axis=1)
    spoke = (spoken[:, ticks] - spoken[:, np.maximum(ticks - lookback, 0)] > 0).T
    iu, ju = np.triu_indices(len(ids), 1)
    rows, pairs = np.nonzero(spoke[:, iu] & spoke[:, ju])
    m = len(iu)
    assert len(rows) > 0.9 * len(ticks) * m
    gaps = np.stack((raw.gaps[rows, pairs], raw.gaps[rows, m + pairs]), axis=1).ravel()
    assert np.array_equal(instances.gaps, gaps)
    assert np.array_equal(instances.overlaps, np.repeat(raw.overlaps[rows, pairs], 2, axis=0))


def test_boosting_an_observed_bin_never_lowers_the_posterior():
    rng = np.random.default_rng(31)
    for _ in range(100):
        model = random_model(rng)
        f = random_features(rng, 1)
        b = model.binning.bin_array(*f)[0, 0]
        trp = model.tables["trp_gap"].copy()
        trp[SAME, b] += 0.5
        trp[SAME] /= trp[SAME].sum()
        boosted = FloorModel(
            priors=model.priors,
            tables={**model.tables, "trp_gap": trp},
            binning=model.binning,
        )
        assert posteriors(boosted, *f)[0] >= posteriors(model, *f)[0] - 1e-12


# --- persistence ------------------------------------------------------------


def test_model_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(37)
    model = random_model(rng)
    path = tmp_path / "m.json"
    save_model(model, str(path))
    back = load_model(str(path))
    assert np.array_equal(model.priors, back.priors)
    for name in FEATURE_NAMES:
        assert np.array_equal(model.tables[name], back.tables[name])
    assert model.binning == back.binning
    f = random_features(rng, 1)
    assert posteriors(model, *f)[0] == posteriors(back, *f)[0]


def test_model_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(41)
    model = random_model(rng)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, str(p1))
    save_model(model, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_model_file_is_rejected(tmp_path):
    rng = np.random.default_rng(43)
    path = tmp_path / "m.json"
    save_model(random_model(rng), str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_wrong_format_version_is_rejected(tmp_path):
    rng = np.random.default_rng(47)
    path = tmp_path / "m.json"
    save_model(random_model(rng), str(path))
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionError):
        load_model(str(path))


def test_non_model_json_is_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ModelFormatError):
        load_model(str(path))


SHORT = FeatureBinning(window_lengths_ms=(500, 2000, 2500), trp_clip_ms=4000)


def test_a_model_counts_over_the_windows_it_was_trained_with(tmp_path):
    corpus = generate(four_party_config(seed=5, duration_ms=120_000, epoch_ms=30_000))
    streams, utterances = corpus.streams(), corpus.utterances()
    instances = make_training_instances(
        streams, utterances, duration_ms=corpus.duration_ms, binning=SHORT
    )
    assert instances.binning == SHORT
    assert np.all(instances.overlaps <= SHORT.window_lengths_ms)
    path = tmp_path / "short.json"
    save_model(train(instances), str(path))
    model = load_model(str(path))
    assert model.binning == SHORT

    # everyone talks at once: each window's count is its length
    ids = sorted(streams)
    tracker = FloorTracker(ids, model, {p: lambda: ([], []) for p in ids})
    tracker.add_activity(np.ones((len(ids), 9_000), dtype=bool))
    tracker.process_due()
    raw = tracker.raw([9_000])
    assert np.all(raw.overlaps == SHORT.window_lengths_ms)
    assert np.all(raw.speech == 5_000)
    assert np.array_equal(tracker.binned([9_000]), model.binning.bin_array(
        raw.gaps, np.concatenate((raw.overlaps, raw.overlaps), axis=1)))


@pytest.mark.parametrize("change", [
    {"window_lengths_ms": [1000, 14000]},
    {"window_lengths_ms": [1000, 14000, 15000, 1000]},
    {"window_lengths_ms": [1000, 0, 15000]},
    {"window_lengths_ms": [-500, 2000, 2500]},
    {"window_lengths_ms": [500.5, 2000, 2500]},
    {"window_lengths_ms": ["500", 2000, 2500]},
    {"trp_clip_ms": 0},
    {"trp_clip_ms": -4000},
    {"trp_bin_width_ms": 0},
    {"overlap_bins_per_window": 0},
])
def test_load_model_rejects_a_binning_the_engine_cannot_honour(tmp_path, change):
    path = tmp_path / "m.json"
    save_model(random_model(np.random.default_rng(53)), str(path))
    doc = json.loads(path.read_text())
    doc["binning"].update(change)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="cannot honour"):
        load_model(str(path))


# every way one entry can fail to be a probability; ``str`` makes the
# numeric string that np.float64 would parse
BAD_ENTRIES = {
    "string": str,
    "true": lambda x: True,
    "false": lambda x: False,
    "infinity": lambda x: float("inf"),
    "-infinity": lambda x: -float("inf"),
    "nan": lambda x: float("nan"),
    "zero": lambda x: 0,
    "negative": lambda x: -x,
}


@settings(max_examples=80, deadline=None)
@given(binnings(most=200), st.integers(0, 2**32 - 1), st.sampled_from(("priors",) + FEATURE_NAMES),
       st.sampled_from(CLASS_NAMES), st.integers(0, 10**6),
       st.sampled_from(sorted(BAD_ENTRIES) + ["halved row"]))
def test_every_trained_model_round_trips_and_no_bad_entry_loads(
        tmp_path_factory, binning, seed, table, cls, index, bad):
    rng = np.random.default_rng(seed)
    model = train(TrainingSet(np.array([SAME, DIFF] + list(rng.integers(0, 2, 60))),
                              *random_features(rng, 62), binning))
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(model, str(path))
    text = path.read_text()
    back = load_model(str(path))
    assert np.array_equal(back.priors, model.priors) and back.binning == binning
    for name in FEATURE_NAMES:
        assert np.array_equal(back.tables[name], model.tables[name])
    save_model(back, str(path))
    assert path.read_text() == text

    doc = json.loads(text)
    if table == "priors":
        holder, key, named = doc["priors"], cls, f"priors.{cls}"
    else:
        holder = doc["tables"][table][cls]
        key = index % len(holder)
        named = f"tables.{table}.{cls}[{key}]"
    if bad == "halved row":
        for k in (CLASS_NAMES if table == "priors" else range(len(holder))):
            holder[k] /= 2
        named = "priors sums" if table == "priors" else f"tables.{table}.{cls} sums"
    else:
        holder[key] = BAD_ENTRIES[bad](holder[key])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=re.escape(named)):
        load_model(str(path))
