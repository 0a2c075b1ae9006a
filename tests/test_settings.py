"""The two rules every setting is checked by, at every site.

An integer setting is an int or a NumPy integer, never a bool, within
its site's bounds; a number setting is an int or a float (NumPy's
too), never a bool, finite and within its site's bounds. Each site
raises the exception class its callers catch, naming the field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floorspace import vad
from floorspace.corpus import GeneratorConfig, TurnRecord
from floorspace.errors import CapacityError, ConfigError, CorpusError, FloorspaceError
from floorspace.features import FeatureBinning
from floorspace.learner import make_training_instances
from floorspace.server import ServerConfig
from floorspace.transport import JitterBuffer

INF = math.inf


def generator(**kw):
    return GeneratorConfig(**{"participants": 2, "duration_ms": 10_000,
                              "schedule": [(0, ((0, 1),))], **kw})


# the site of settings that are now constants: their rows check that the
# constant keeps the setting's rule and that no config document sets it
FORMER = "VadConfig"

# (site, field, build from a value, exception, integer?, lo, hi): lo and hi
# are the edges the site accepts; a value past one is rejected, though not
# always by the rule (an end at 0 makes an empty turn)
ROWS = [
    ("TurnRecord", "start_ms", lambda v: TurnRecord("a", v, 10**30, 0), CorpusError, True,
     0, INF),
    ("TurnRecord", "end_ms", lambda v: TurnRecord("a", 0, v, 0), CorpusError, True, 1, INF),
    ("TurnRecord", "floor_label", lambda v: TurnRecord("a", 0, 1, v), CorpusError, True,
     -INF, INF),
    ("GeneratorConfig", "participants",
     lambda v: GeneratorConfig(v, 1000, [(0, (tuple(range(v) if isinstance(v, int) else [0]),))]),
     CorpusError, True, 1, 10),
    ("GeneratorConfig", "duration_ms", lambda v: generator(duration_ms=v), CorpusError, True,
     0, INF),
    ("GeneratorConfig", "seed", lambda v: generator(seed=v), CorpusError, True, 0, INF),
    ("GeneratorConfig", "min_turn_ms", lambda v: generator(min_turn_ms=v), CorpusError, True,
     1, INF),
    ("GeneratorConfig", "schedule epoch time",
     lambda v: generator(schedule=[(0, ((0, 1),)), (v, ((0,), (1,)))]), CorpusError, True,
     1, INF),
    ("GeneratorConfig", "member of the epoch",
     lambda v: GeneratorConfig(1, 1000, [(0, ((v,),))]), CorpusError, True, 0, 0),
    # the median turn must be positive: the least positive float is its edge
    ("GeneratorConfig", "turn_median_ms", lambda v: generator(turn_median_ms=v), CorpusError,
     False, 5e-324, INF),
    ("GeneratorConfig", "turn_sigma", lambda v: generator(turn_sigma=v), CorpusError, False,
     0, INF),
    ("GeneratorConfig", "pause_mean_ms", lambda v: generator(pause_mean_ms=v), CorpusError,
     False, -INF, INF),
    ("GeneratorConfig", "pause_sd_ms", lambda v: generator(pause_sd_ms=v), CorpusError, False,
     0, INF),
    ("GeneratorConfig", "pause_floor_ms", lambda v: generator(pause_floor_ms=v), CorpusError,
     False, -INF, INF),
    ("GeneratorConfig", "overlap_probability", lambda v: generator(overlap_probability=v),
     CorpusError, False, 0, 1),
    ("GeneratorConfig", "solo_gap_mean_ms", lambda v: generator(solo_gap_mean_ms=v),
     CorpusError, False, -INF, INF),
    ("GeneratorConfig", "solo_gap_sd_ms", lambda v: generator(solo_gap_sd_ms=v), CorpusError,
     False, 0, INF),
    ("ServerConfig", "max_participants", lambda v: ServerConfig(max_participants=v),
     CapacityError, True, 1, 10),
    ("ServerConfig", "audio_port", lambda v: ServerConfig(audio_port=v), ConfigError, True,
     0, 65535),
    ("ServerConfig", "control_port", lambda v: ServerConfig(control_port=v), ConfigError, True,
     0, 65535),
    ("ServerConfig", "jitter_depth_ms", lambda v: ServerConfig(jitter_depth_ms=v), ConfigError,
     True, 20, INF),
    ("make_training_instances", "sample period",
     lambda v: make_training_instances({}, {}, 0, sample_period_ms=v), ConfigError, True,
     1, INF),
    ("JitterBuffer", "jitter_depth_ms", lambda v: JitterBuffer(depth_ms=v), ValueError, True,
     20, INF),
] + [
    ("FeatureBinning", name, lambda v, name=name: FeatureBinning(**{name: v}), ValueError, True,
     1, INF)
    for name in ("trp_bin_width_ms", "trp_clip_ms", "overlap_bins_per_window")
] + [
    ("FeatureBinning", "window_lengths_ms",
     lambda v: FeatureBinning(window_lengths_ms=(v, 14_000, 15_000)), ValueError, True, 1, INF),
] + [
    # the detector's former settings, now vad's constants
    (FORMER, name, lambda v, name=name: ServerConfig.from_dict({"vad": {name: v}}),
     ConfigError, integer, lo, hi)
    for name, integer, lo, hi in (("energy_floor_db", False, -INF, INF),
                                  ("snr_threshold_db", False, -INF, INF),
                                  ("noise_adapt_rate", False, 0, 1),
                                  ("hangover_ms", True, 0, INF))
]

NOT_NUMBERS = [True, False, "2", None, [2], float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("site, field, build, error, integer, lo, hi", ROWS,
                         ids=[f"{r[0]}.{r[1]}" for r in ROWS])
def test_every_setting_is_checked_by_its_rule(site, field, build, error, integer, lo, hi):
    bad = NOT_NUMBERS + ([2.5, np.float64(3.0)] if integer else [])
    if site == FORMER:
        # the constant keeps the rule the setting had; no value sets it
        constant = getattr(vad, field.upper())
        assert type(constant) is (int if integer else float) and lo <= constant <= hi
        for value in bad + [lo, hi, constant, np.float64(1), np.int64(1)]:
            with pytest.raises(error) as err:
                build(value)
            assert str(err.value) == "unknown server config fields: ['vad']"
        return
    for value in bad:
        with pytest.raises(error, match=field):
            build(value)
    edges = [v for v in (lo, hi) if abs(v) < INF]
    for value in edges:
        build(value)
        beyond = (value - 1, value + 1) if integer else (
            float(np.nextafter(value, -INF)), float(np.nextafter(value, INF)))
        for outside in beyond:
            if not lo <= outside <= hi:
                with pytest.raises(error):
                    build(outside)
    inside = edges[0] if edges else 0
    # 1 lies within every number row's bounds
    numpy_values = ([np.int64(inside), np.int32(inside), np.uint16(inside)] if integer
                    else [np.float64(inside), np.float32(1), np.int64(1)])
    for value in numpy_values:
        build(value)


def test_an_integer_setting_is_kept_as_a_python_int():
    # a narrow NumPy integer's arithmetic overflows: 2 * np.int16(20000) is
    # negative
    narrow = np.int16(600)
    binning = FeatureBinning(trp_clip_ms=np.int16(20_000))
    assert binning.n_trp_value_bins == 400
    kept = [binning.trp_clip_ms, *binning.window_lengths_ms,
            JitterBuffer(narrow).depth_frames,
            *(getattr(ServerConfig(max_participants=np.int8(4), audio_port=narrow,
                                   control_port=narrow), name)
              for name in ("max_participants", "audio_port", "control_port")),
            *(getattr(generator(participants=np.int8(2), duration_ms=np.int16(30_000),
                                seed=narrow, min_turn_ms=narrow), name)
              for name in ("participants", "duration_ms", "seed", "min_turn_ms"))]
    assert all(type(value) is int for value in kept)
    cfg = generator(schedule=[(np.int16(0), ((0, 1),)), (np.int64(5000), ((0,), (1,)))])
    assert [type(t) for t, _ in cfg.schedule] == [int, int]


def test_a_binning_of_numpy_integers_saves_as_python_ints():
    binning = FeatureBinning(np.int64(100), np.int32(5000), np.uint8(20),
                             (np.int64(1000), np.int64(14_000), np.int64(15_000)))
    assert binning.to_dict() == FeatureBinning().to_dict()
    assert all(type(v) is int for v in binning.to_dict()["window_lengths_ms"])


# --- any JSON document builds a config that keeps the rules, or is an error ---

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value):
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and -INF < value < INF)


@st.composite
def objects(draw, valid, odd, unknown=("bogus",)):
    """An object with every field drawn from ``valid``, then up to two
    fields (or an ``unknown`` one) dropped or drawn from ``odd``."""
    doc = {name: draw(st.sampled_from(values)) for name, values in valid.items()}
    for name in draw(st.lists(st.sampled_from([*valid, *unknown]), max_size=2)):
        if draw(st.integers(0, 4)) == 0:
            doc.pop(name, None)
        else:
            doc[name] = draw(odd.get(name, odd_values))
    return doc


# what JSON can hold that no setting should take, drawn more often than
# json_values alone would
odd_values = st.sampled_from([True, False, 2.5, "2", None, INF, -INF, math.nan]) | json_values
not_objects = json_values.filter(lambda doc: not isinstance(doc, dict))

# the detector's former fields, which a vad object may still name
VAD_FORMER = {"energy_floor_db": [-60.0, -50], "snr_threshold_db": [10.0, 0],
              "hangover_ms": [200, 0], "noise_adapt_rate": [0.05, 1]}
SERVER_VALID = {"host": ["127.0.0.1"], "audio_port": [0, 46000], "control_port": [0, 65535],
                "model_path": [None, "model.json"], "max_participants": [1, 10],
                "jitter_depth_ms": [20, 60]}
SERVER_INTEGERS = ("max_participants", "audio_port", "control_port", "jitter_depth_ms")
server_documents = not_objects | objects(
    SERVER_VALID, {"vad": objects(VAD_FORMER, {}) | odd_values}, unknown=("bogus", "vad"))


@settings(max_examples=400, deadline=None)
@given(server_documents)
def test_a_server_config_document_keeps_the_rules_or_is_one_error(doc):
    if isinstance(doc, dict) and "vad" in doc:
        # the detector takes no settings, whatever the object holds
        with pytest.raises(ConfigError, match=r"unknown server config fields: .*'vad'"):
            ServerConfig.from_dict(doc)
        return
    try:
        cfg = ServerConfig.from_dict(doc)
    except FloorspaceError:
        return
    assert all(is_integer(getattr(cfg, name)) for name in SERVER_INTEGERS)
    assert isinstance(cfg.host, str) and isinstance(cfg.model_path, (str, type(None)))


GENERATOR_INTEGERS = ("participants", "duration_ms", "seed", "min_turn_ms")
GENERATOR_NUMBERS = ("turn_median_ms", "turn_sigma", "pause_mean_ms", "pause_sd_ms",
                     "pause_floor_ms", "overlap_probability", "solo_gap_mean_ms",
                     "solo_gap_sd_ms")
GENERATOR_VALID = {"participants": [2], "duration_ms": [10_000, 0], "seed": [0, 7],
                   "min_turn_ms": [100, 1], "turn_median_ms": [2000.0, 1],
                   "turn_sigma": [0.8, 0], "pause_mean_ms": [250.0, -5],
                   "pause_sd_ms": [200.0, 0], "pause_floor_ms": [-200.0, 0],
                   "overlap_probability": [0.1, 1], "solo_gap_mean_ms": [3000.0, 0],
                   "solo_gap_sd_ms": [1500.0, 0],
                   "schedule": [[[0, [[0, 1]]]], [[0, [[0], [1]]], [5000, [[1, 0]]]]]}
# schedules of one or two epochs whose times and members may be any JSON value
schedules = st.lists(
    st.tuples(st.sampled_from([0, 5000]) | odd_values,
              st.lists(st.lists(st.sampled_from([0, 1]) | odd_values, max_size=2), max_size=2)),
    min_size=1, max_size=2).map(lambda epochs: [list(epoch) for epoch in epochs])
generator_documents = not_objects | objects(
    GENERATOR_VALID, {"schedule": schedules | odd_values})


@settings(max_examples=400, deadline=None)
@given(generator_documents)
def test_a_generator_config_document_keeps_the_rules_or_is_one_error(doc):
    try:
        cfg = GeneratorConfig.from_dict(doc)
    except FloorspaceError:
        return
    assert all(is_integer(getattr(cfg, name)) for name in GENERATOR_INTEGERS)
    assert all(is_number(getattr(cfg, name)) for name in GENERATOR_NUMBERS)
    assert all(is_integer(t) and all(is_integer(m) for block in part for m in block)
               for t, part in cfg.schedule)
