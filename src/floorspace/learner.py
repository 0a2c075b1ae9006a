"""Learned mapping from pair features to same-floor posteriors.

A two-class Naive Bayes over discretized features. Likelihood lookup
tables are trained offline from labeled corpora with add-one
smoothing, and evaluated in log space at runtime. The classifier is
directional (features for (a, b) and (b, a) differ in the gap
feature); callers that need one probability per unordered pair
average the two directions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CorpusError, ModelFormatError, ModelVersionError, TrainingError
# simultaneous_speech and trp_gap_from_arrays are unused here but stay
# importable under these names, where the benchmark's tracer wraps them
from .features import (  # noqa: F401
    NO_GAP,
    FeatureBinning,
    FeatureEngine,
    PairFeatures,
    feature_arrays,
    simultaneous_speech,
    trp_gap_from_arrays,
)
from .timeline import ActivityStream, Tick, Utterance

SAME, DIFF = 0, 1
CLASS_NAMES = ("same", "diff")

FEATURE_NAMES = ("trp_gap", "overlap_w1", "overlap_w2", "overlap_w3")

MODEL_FORMAT = "floorspace-model"
MODEL_FORMAT_VERSION = 1

DEFAULT_SAMPLE_PERIOD_MS = 1000
# activity fed to the feature engine per batch of samples
TRAINING_BATCH_MS = 60_000


@dataclass
class TrainingInstance:
    features: PairFeatures
    label: int  # SAME or DIFF


@dataclass
class FloorModel:
    """Priors plus per-feature likelihood tables.

    ``tables[name]`` has shape (2, n_bins); row 0 is the same-floor
    class, row 1 different-floor. Rows are proper distributions.
    """

    priors: np.ndarray
    tables: Dict[str, np.ndarray]
    binning: FeatureBinning = field(default_factory=FeatureBinning)
    format_version: int = MODEL_FORMAT_VERSION

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        self.tables = {k: np.asarray(v, dtype=np.float64) for k, v in self.tables.items()}
        self._log_priors = np.log(self.priors)
        self._log_tables = {k: np.log(v) for k, v in self.tables.items()}

    def log_likelihoods(self, feature: str) -> np.ndarray:
        return self._log_tables[feature]


def make_training_instances(
    streams: Mapping[int, ActivityStream],
    utterances: Mapping[int, Sequence[Utterance]],
    duration_ms: Optional[Tick] = None,
    sample_period_ms: int = DEFAULT_SAMPLE_PERIOD_MS,
) -> List[TrainingInstance]:
    """Sample labeled feature vectors from a labeled corpus.

    Every ``sample_period_ms`` an instance is emitted for each ordered
    pair in which both participants produced speech within the last
    30 s. The class is whether the two participants' most recent
    utterances carry the same floor label.

    Raises CorpusError when an utterance is unlabeled.
    """
    ids = sorted(streams)
    for pid in ids:
        for u in utterances.get(pid, ()):
            if u.floor_label is None:
                raise CorpusError(
                    f"utterance at {u.start} of participant {pid} has no floor label"
                )
    if duration_ms is None:
        duration_ms = max((s.end_tick for s in streams.values()), default=0)

    starts = {pid: [u.start for u in utterances.get(pid, ())] for pid in ids}
    ends = {pid: [u.end for u in utterances.get(pid, ())] for pid in ids}
    codes: Dict[object, int] = {}
    labels = [
        np.array([codes.setdefault(u.floor_label, len(codes))
                  for u in utterances.get(pid, ())] + [-1], dtype=np.int64)
        for pid in ids
    ]
    engine = FeatureEngine(
        ids,
        {pid: (lambda s=starts[pid], e=ends[pid]: (s, e)) for pid in ids},
        step_ms=sample_period_ms,
    )
    iu, ju = np.triu_indices(len(ids), 1)
    m = len(iu)

    out: List[TrainingInstance] = []
    sample_ticks = np.arange(sample_period_ms, duration_ms + 1, sample_period_ms)
    per_batch = max(TRAINING_BATCH_MS // sample_period_ms, 1)
    start_arrays = [np.array(starts[pid], dtype=np.int64) for pid in ids]
    fed = 0
    for lo in range(0, len(sample_ticks), per_batch):
        ticks = sample_ticks[lo : lo + per_batch]
        upto = int(ticks[-1])
        for pid in ids:
            engine.add_activity(pid, streams[pid].window(fed, upto))
        fed = upto
        raw = engine.raw(ticks)
        active = raw.speech > 0
        # label of each participant's newest utterance begun by t (-1: none)
        latest = np.stack(
            [lab[np.searchsorted(s, ticks, side="right") - 1]
             for s, lab in zip(start_arrays, labels)],
            axis=1,
        )
        same = (latest[:, iu] >= 0) & (latest[:, iu] == latest[:, ju])
        rows, pairs = np.nonzero(active[:, iu] & active[:, ju])
        gaps_ab = raw.gaps[rows, pairs].tolist()
        gaps_ba = raw.gaps[rows, m + pairs].tolist()
        overlaps = raw.overlaps[rows, pairs].tolist()
        classes = np.where(same[rows, pairs], SAME, DIFF).tolist()
        for g_ab, g_ba, (w1, w2, w3), label in zip(gaps_ab, gaps_ba, overlaps, classes):
            g_ab = None if g_ab == NO_GAP else g_ab
            g_ba = None if g_ba == NO_GAP else g_ba
            out.append(TrainingInstance(PairFeatures(g_ab, w1, w2, w3), label))
            out.append(TrainingInstance(PairFeatures(g_ba, w1, w2, w3), label))
    return out


def train(
    instances: Iterable[TrainingInstance],
    binning: Optional[FeatureBinning] = None,
) -> FloorModel:
    """Fit priors and add-one smoothed likelihood tables.

    Needs at least one instance of each class; raises TrainingError
    otherwise.
    """
    binning = binning or FeatureBinning()
    labels, bins = _binned(instances, binning)
    class_counts = np.bincount(labels, minlength=2)
    counts = {}
    for k, name in enumerate(FEATURE_NAMES):
        counts[name] = np.zeros((2, binning.bins_for(name)), dtype=np.int64)
        np.add.at(counts[name], (labels, bins[:, k]), 1)
    if class_counts.min() == 0:
        missing = CLASS_NAMES[int(np.argmin(class_counts))]
        raise TrainingError(
            f"training data contains no '{missing}' instances "
            f"(counts: same={class_counts[SAME]}, diff={class_counts[DIFF]})"
        )
    tables = {}
    for name in FEATURE_NAMES:
        n_bins = binning.bins_for(name)
        tables[name] = (counts[name] + 1.0) / (
            class_counts[:, None] + float(n_bins)
        )
    priors = class_counts / class_counts.sum()
    return FloorModel(priors=priors, tables=tables, binning=binning)


def _binned(
    instances: Iterable[TrainingInstance], binning: FeatureBinning
) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, bins) arrays of shape (N,) and (N, 4)."""
    instances = list(instances)
    labels = np.array([inst.label for inst in instances], dtype=np.intp)
    bins = binning.bin_array(*feature_arrays([inst.features for inst in instances]))
    return labels, bins


def summarize_training(
    instances: Iterable[TrainingInstance],
    binning: Optional[FeatureBinning] = None,
) -> dict:
    """Class counts and per-feature occupied-bin counts, for reporting."""
    binning = binning or FeatureBinning()
    labels, bins = _binned(instances, binning)
    class_counts = {c: int(np.count_nonzero(labels == c)) for c in (SAME, DIFF)}
    occupied = {
        name: {c: len(np.unique(bins[labels == c, k])) for c in (SAME, DIFF)}
        for k, name in enumerate(FEATURE_NAMES)
    }
    return {
        "instances": {
            CLASS_NAMES[c]: class_counts[c] for c in (SAME, DIFF)
        },
        "occupied_bins": {
            name: {
                CLASS_NAMES[c]: occupied[name][c] for c in (SAME, DIFF)
            }
            for name in FEATURE_NAMES
        },
        "total_bins": {name: binning.bins_for(name) for name in FEATURE_NAMES},
    }


def posterior(model: FloorModel, f: PairFeatures) -> float:
    """P(same floor | features) for one ordered pair: a one-row posterior_batch."""
    return float(posterior_batch(model, [model.binning.bin_features(f)])[0])


def posterior_batch(model: FloorModel, bins: np.ndarray) -> np.ndarray:
    """Posteriors for many pre-binned feature vectors at once.

    ``bins`` has shape (m, 4) in FEATURE_NAMES order; returns shape (m,).
    """
    bins = np.asarray(bins, dtype=np.intp)
    log_same = log_diff = None
    for k, name in enumerate(FEATURE_NAMES):
        lt = model.log_likelihoods(name)
        if k == 0:
            # prior + first term, the first of the same left-to-right sums
            log_same = model._log_priors[SAME] + lt[SAME, bins[:, 0]]
            log_diff = model._log_priors[DIFF] + lt[DIFF, bins[:, 0]]
        else:
            log_same += lt[SAME, bins[:, k]]
            log_diff += lt[DIFF, bins[:, k]]
    return np.exp(log_same - np.logaddexp(log_same, log_diff))


def pair_posterior(model: FloorModel, f_ab: PairFeatures, f_ba: PairFeatures) -> float:
    """Single probability for an unordered pair: mean of both directions."""
    bins = [model.binning.bin_features(f) for f in (f_ab, f_ba)]
    both = posterior_batch(model, bins)
    return float(0.5 * (both[0] + both[1]))


def save_model(model: FloorModel, path: str) -> None:
    """Write a model as deterministic JSON; reruns are byte-identical."""
    doc = {
        "format": MODEL_FORMAT,
        "format_version": model.format_version,
        "binning": model.binning.to_dict(),
        "priors": {
            "same": float(model.priors[SAME]),
            "diff": float(model.priors[DIFF]),
        },
        "tables": {
            name: {
                "same": [float(x) for x in model.tables[name][SAME]],
                "diff": [float(x) for x in model.tables[name][DIFF]],
            }
            for name in FEATURE_NAMES
        },
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def load_model(path: str) -> FloorModel:
    """Read a model file, validating format, version, and table shapes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {version!r} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        binning = FeatureBinning.from_dict(doc["binning"])
        priors = np.array(
            [doc["priors"]["same"], doc["priors"]["diff"]], dtype=np.float64
        )
        tables = {}
        for name in FEATURE_NAMES:
            rows = doc["tables"][name]
            tables[name] = np.array(
                [rows["same"], rows["diff"]], dtype=np.float64
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} is malformed: {exc}") from exc
    for name, table in tables.items():
        if table.shape != (2, binning.bins_for(name)):
            raise ModelFormatError(
                f"table '{name}' has shape {table.shape}, "
                f"expected (2, {binning.bins_for(name)})"
            )
        if not np.all(table > 0):
            raise ModelFormatError(f"table '{name}' contains non-positive entries")
    if not np.isclose(priors.sum(), 1.0):
        raise ModelFormatError("class priors do not sum to 1")
    return FloorModel(
        priors=priors, tables=tables, binning=binning, format_version=version
    )
