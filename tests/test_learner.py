"""Discretization, training, and posterior inference for pair classification."""

import json

import numpy as np
import pytest

from floorspace import (
    FeatureBinning,
    FloorModel,
    PairFeatures,
    TrainingInstance,
    Utterance,
    load_model,
    make_training_instances,
    posterior,
    save_model,
    train,
)
from floorspace.errors import CorpusError, ModelFormatError, ModelVersionError, TrainingError
from floorspace.learner import (
    DIFF,
    FEATURE_NAMES,
    SAME,
    pair_posterior,
    posterior_batch,
    summarize_training,
)
from floorspace.timeline import stream_from_intervals


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


def random_features(rng):
    gap = None if rng.random() < 0.15 else int(rng.integers(-6000, 6000))
    return PairFeatures(
        gap,
        int(rng.integers(0, 1001)),
        int(rng.integers(0, 14001)),
        int(rng.integers(0, 15001)),
    )


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
    assert b.trp_bin(None) == 100
    assert b.trp_bin(-5000) == 0
    assert b.trp_bin(-4901) == 0
    assert b.trp_bin(-4900) == 1
    assert b.trp_bin(0) == 50
    assert b.trp_bin(4999) == 99
    assert b.trp_bin(5000) == 99
    assert b.trp_bin(123_456) == 99
    assert b.trp_bin(-123_456) == 0


def test_overlap_bin_reference_points():
    b = FeatureBinning()
    assert b.overlap_bin(0, 0) == 0
    assert b.overlap_bin(49, 0) == 0
    assert b.overlap_bin(50, 0) == 1
    assert b.overlap_bin(500, 0) == 10
    assert b.overlap_bin(999, 0) == 19
    assert b.overlap_bin(1000, 0) == 19
    assert b.overlap_bin(7000, 1) == 10
    assert b.overlap_bin(14_000, 1) == 19
    assert b.overlap_bin(15_000, 2) == 19


def test_every_feature_value_maps_to_one_bin():
    b = FeatureBinning()
    rng = np.random.default_rng(2)
    for _ in range(500):
        f = random_features(rng)
        bins = b.bin_features(f)
        assert len(bins) == 4
        assert 0 <= bins[0] < 101
        assert all(0 <= x < 20 for x in bins[1:])


# --- instance sampling ------------------------------------------------------


def test_sixty_second_two_speaker_corpus_yields_120_instances():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration)
    assert len(instances) == 120
    assert all(i.label == SAME for i in instances)


def test_different_floors_label_diff():
    streams, utterances, duration = two_speaker_corpus(label_b=1)
    instances = make_training_instances(streams, utterances, duration)
    assert len(instances) == 120
    assert all(i.label == DIFF for i in instances)


def test_silent_third_participant_produces_no_pairs():
    streams, utterances, duration = two_speaker_corpus()
    streams[2] = stream_from_intervals(2, [], duration)
    utterances[2] = []
    instances = make_training_instances(streams, utterances, duration)
    assert len(instances) == 120


def test_both_directions_share_the_overlap_features():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration)
    for ab, ba in zip(instances[0::2], instances[1::2]):
        assert ab.features.overlaps == ba.features.overlaps
        assert ab.label == ba.label


def test_unlabeled_utterance_is_rejected():
    streams, utterances, duration = two_speaker_corpus()
    utterances[1][0] = Utterance(1, 950, 1900, floor_label=None)
    with pytest.raises(CorpusError):
        make_training_instances(streams, utterances, duration)


def test_sample_period_scales_instance_count():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration, sample_period_ms=2000)
    assert len(instances) == 60


# --- training ---------------------------------------------------------------


def test_balanced_priors_are_exactly_half():
    instances = [
        TrainingInstance(PairFeatures(None, 0, 0, 0), SAME),
        TrainingInstance(PairFeatures(None, 0, 0, 0), DIFF),
    ]
    model = train(instances)
    assert model.priors[SAME] == 0.5
    assert model.priors[DIFF] == 0.5


def test_add_one_smoothing_hand_computed():
    instances = [TrainingInstance(PairFeatures(None, 0, 0, 0), SAME)] * 5
    instances += [TrainingInstance(PairFeatures(None, 999, 0, 0), DIFF)] * 5
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
    rng = np.random.default_rng(11)
    instances = [
        TrainingInstance(random_features(rng), int(rng.integers(0, 2)))
        for _ in range(400)
    ]
    model = train(instances)
    for name in FEATURE_NAMES:
        sums = model.tables[name].sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(model.tables[name] > 0)


def test_training_needs_both_classes():
    instances = [TrainingInstance(PairFeatures(None, 0, 0, 0), SAME)] * 3
    with pytest.raises(TrainingError, match="diff"):
        train(instances)
    with pytest.raises(TrainingError, match="same"):
        train([TrainingInstance(PairFeatures(None, 0, 0, 0), DIFF)] * 3)


def test_instance_order_does_not_matter():
    rng = np.random.default_rng(13)
    instances = [
        TrainingInstance(random_features(rng), int(rng.integers(0, 2)))
        for _ in range(200)
    ]
    m1 = train(instances)
    shuffled = list(instances)
    rng.shuffle(shuffled)
    m2 = train(shuffled)
    assert np.array_equal(m1.priors, m2.priors)
    for name in FEATURE_NAMES:
        assert np.array_equal(m1.tables[name], m2.tables[name])


def test_summarize_training_counts():
    streams, utterances, duration = two_speaker_corpus()
    instances = make_training_instances(streams, utterances, duration)
    instances += [TrainingInstance(PairFeatures(None, 999, 0, 0), DIFF)] * 4
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
    f = PairFeatures(200, 10, 300, 4000)
    assert posterior(model, f) == pytest.approx(0.3, abs=1e-12)


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
    f = PairFeatures(None, 0, 0, 0)
    assert posterior(model, f) == pytest.approx(0.8, abs=1e-12)


def test_posterior_complement_sums_to_one():
    rng = np.random.default_rng(17)
    for _ in range(100):
        model = random_model(rng)
        swapped = FloorModel(
            priors=model.priors[::-1].copy(),
            tables={k: v[::-1].copy() for k, v in model.tables.items()},
            binning=model.binning,
        )
        f = random_features(rng)
        assert posterior(model, f) + posterior(swapped, f) == pytest.approx(
            1.0, abs=1e-9
        )


def test_log_space_matches_direct_product():
    rng = np.random.default_rng(19)
    for _ in range(300):
        model = random_model(rng)
        f = random_features(rng)
        bins = model.binning.bin_features(f)
        s = model.priors[SAME]
        d = model.priors[DIFF]
        for name, b in zip(FEATURE_NAMES, bins):
            s *= model.tables[name][SAME, b]
            d *= model.tables[name][DIFF, b]
        assert posterior(model, f) == pytest.approx(s / (s + d), abs=1e-9)


def test_posterior_batch_matches_scalar_path():
    rng = np.random.default_rng(23)
    for _ in range(5):
        model = random_model(rng)
        feats = [random_features(rng) for _ in range(301)]
        bins = np.array([model.binning.bin_features(f) for f in feats])
        batch = posterior_batch(model, bins)
        for f, p in zip(feats, batch):
            assert p == posterior(model, f)


def test_pair_posterior_is_the_mean_of_both_directions():
    rng = np.random.default_rng(29)
    model = random_model(rng)
    f_ab = random_features(rng)
    f_ba = random_features(rng)
    expected = 0.5 * (posterior(model, f_ab) + posterior(model, f_ba))
    assert pair_posterior(model, f_ab, f_ba) == pytest.approx(expected, abs=1e-12)


def test_boosting_an_observed_bin_never_lowers_the_posterior():
    rng = np.random.default_rng(31)
    for _ in range(100):
        model = random_model(rng)
        f = random_features(rng)
        b = model.binning.bin_features(f)[0]
        trp = model.tables["trp_gap"].copy()
        trp[SAME, b] += 0.5
        trp[SAME] /= trp[SAME].sum()
        boosted = FloorModel(
            priors=model.priors,
            tables={**model.tables, "trp_gap": trp},
            binning=model.binning,
        )
        assert posterior(boosted, f) >= posterior(model, f) - 1e-12


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
    f = random_features(rng)
    assert posterior(model, f) == posterior(back, f)


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
