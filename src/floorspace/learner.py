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
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .errors import (ConfigError, CorpusError, ModelFormatError, ModelVersionError,
                     TrainingError, check_integer, check_number, check_numbers, read_json)
# simultaneous_speech and trp_gap_from_arrays are unused here but stay
# importable under these names, where the benchmark's tracer wraps them
from .features import (  # noqa: F401
    FeatureBinning,
    FeatureEngine,
    simultaneous_speech,
    trp_gap_from_arrays,
    utterance_views,
)
from .timeline import ActivityStream, Tick, Utterance, floor_labels

SAME, DIFF = 0, 1
CLASS_NAMES = ("same", "diff")

FEATURE_NAMES = ("trp_gap", "overlap_w1", "overlap_w2", "overlap_w3")

MODEL_FORMAT = "floorspace-model"
MODEL_FORMAT_VERSION = 1

# A model file's priors and table entries are probabilities: finite,
# positive (from the smallest positive float) and at most 1, and each
# row sums to 1 within PROBABILITY_SUM_TOLERANCE, far above the rounding
# of a trained row's sum and far below any entry it holds.
SMALLEST_PROBABILITY = math.ulp(0.0)
PROBABILITY_SUM_TOLERANCE = 1e-9

DEFAULT_SAMPLE_PERIOD_MS = 1000
# activity fed to the feature engine per batch of samples
TRAINING_BATCH_MS = 60_000


@dataclass(frozen=True)
class TrainingSet:
    """Labeled feature vectors as aligned arrays, one row per ordered pair.

    ``labels`` (N,) holds SAME or DIFF, ``gaps`` (N,) the gap with
    NO_GAP for a missing one, and ``overlaps`` (N, 3) the counts over
    the windows of ``binning``, which a model trained on them keeps.
    """

    labels: np.ndarray
    gaps: np.ndarray
    overlaps: np.ndarray
    binning: FeatureBinning

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class FloorModel:
    """Priors plus per-feature likelihood tables.

    ``tables[name]`` has shape (2, n_bins); row 0 is the same-floor
    class, row 1 different-floor. Rows are proper distributions.
    """

    priors: np.ndarray
    tables: Dict[str, np.ndarray]
    binning: FeatureBinning = field(default_factory=FeatureBinning)

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        self.tables = {k: np.asarray(v, dtype=np.float64) for k, v in self.tables.items()}
        self._log_priors = np.log(self.priors)
        self._log_tables = {k: np.log(v) for k, v in self.tables.items()}


def make_training_instances(
    streams: Mapping[int, ActivityStream],
    utterances: Mapping[int, Sequence[Utterance]],
    duration_ms: Optional[Tick] = None,
    sample_period_ms: int = DEFAULT_SAMPLE_PERIOD_MS,
    binning: FeatureBinning = FeatureBinning(),
) -> TrainingSet:
    """Sample labeled feature vectors from a labeled corpus.

    Every ``sample_period_ms`` a row is emitted for each ordered pair,
    (a, b) then (b, a), in which both participants produced speech
    within the lookback of ``binning``'s windows (30 s by default).
    The class is whether the two participants' most recent utterances
    carry the same floor label.

    Raises CorpusError when an utterance is unlabeled, and ConfigError
    unless ``sample_period_ms`` is a positive integer.
    """
    sample_period_ms = check_integer(sample_period_ms, "sample period", 1, math.inf, ConfigError)
    ids = sorted(streams)
    for pid in ids:
        for u in utterances.get(pid, ()):
            if u.floor_label is None:
                raise CorpusError(
                    f"utterance at {u.start} of participant {pid} has no floor label"
                )
    if duration_ms is None:
        duration_ms = max((s.end_tick for s in streams.values()), default=0)

    utterances = {pid: utterances.get(pid, ()) for pid in ids}
    engine = FeatureEngine(ids, utterance_views(utterances), binning, step_ms=sample_period_ms)
    iu, ju = np.triu_indices(len(ids), 1)
    m = len(iu)

    labels_out = [np.zeros(0, dtype=np.intp)]
    gaps_out = [np.zeros(0, dtype=np.int64)]
    overlaps_out = [np.zeros((0, 3), dtype=np.int64)]
    sample_ticks = np.arange(sample_period_ms, duration_ms + 1, sample_period_ms)
    per_batch = max(TRAINING_BATCH_MS // sample_period_ms, 1)
    labels = floor_labels(utterances, ids, sample_ticks)
    same = (labels[:, iu] >= 0) & (labels[:, iu] == labels[:, ju])
    for lo in range(0, len(sample_ticks), per_batch):
        ticks = sample_ticks[lo : lo + per_batch]
        engine.add_activity([streams[pid].window(engine.coverage, int(ticks[-1])) for pid in ids])
        raw = engine.raw(ticks)
        active = raw.speech > 0
        rows, pairs = np.nonzero(active[:, iu] & active[:, ju])
        # both directions of each pair share its label and overlaps
        labels_out.append(np.repeat(np.where(same[lo + rows, pairs], SAME, DIFF), 2))
        gaps = (raw.gaps[rows, pairs], raw.gaps[rows, m + pairs])
        gaps_out.append(np.stack(gaps, axis=1).ravel())
        overlaps_out.append(np.repeat(raw.overlaps[rows, pairs], 2, axis=0))
    return TrainingSet(
        np.concatenate(labels_out), np.concatenate(gaps_out), np.concatenate(overlaps_out),
        binning,
    )


def train(instances: TrainingSet) -> FloorModel:
    """Fit priors and add-one smoothed tables over the instances' binning.

    Each feature's (class, bin) tally is one ``np.bincount`` of
    ``label * n_bins + bin``, which counts far faster than
    ``np.add.at`` on the (2, n_bins) table. Needs at least one instance
    of each class; raises TrainingError otherwise.
    """
    binning = instances.binning
    labels = instances.labels
    bins = binning.bin_array(instances.gaps, instances.overlaps)
    class_counts = np.bincount(labels, minlength=2)
    if class_counts.min() == 0:
        missing = CLASS_NAMES[int(np.argmin(class_counts))]
        raise TrainingError(
            f"training data contains no '{missing}' instances "
            f"(counts: same={class_counts[SAME]}, diff={class_counts[DIFF]})"
        )
    tables = {}
    for k, name in enumerate(FEATURE_NAMES):
        n_bins = binning.bins_for(name)
        counts = np.bincount(labels * n_bins + bins[:, k], minlength=2 * n_bins)
        tables[name] = (counts.reshape(2, n_bins) + 1.0) / (
            class_counts[:, None] + float(n_bins)
        )
    priors = class_counts / class_counts.sum()
    return FloorModel(priors=priors, tables=tables, binning=binning)


def summarize_training(instances: TrainingSet) -> dict:
    """Class counts and per-feature occupied-bin counts, for reporting."""
    binning = instances.binning
    labels = instances.labels
    bins = binning.bin_array(instances.gaps, instances.overlaps)
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


def posterior_batch(model: FloorModel, bins: np.ndarray) -> np.ndarray:
    """Posteriors for many pre-binned feature vectors at once.

    ``bins`` has shape (m, 4) in FEATURE_NAMES order; returns shape (m,).
    """
    bins = np.asarray(bins, dtype=np.intp)
    log_same = log_diff = None
    for k, name in enumerate(FEATURE_NAMES):
        lt = model._log_tables[name]
        if k == 0:
            # prior + first term, the first of the same left-to-right sums
            log_same = model._log_priors[SAME] + lt[SAME, bins[:, 0]]
            log_diff = model._log_priors[DIFF] + lt[DIFF, bins[:, 0]]
        else:
            log_same += lt[SAME, bins[:, k]]
            log_diff += lt[DIFF, bins[:, k]]
    return np.exp(log_same - np.logaddexp(log_same, log_diff))


def save_model(model: FloorModel, path: str) -> None:
    """Write a model as deterministic JSON; reruns are byte-identical."""
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
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
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # a failed write or rename leaves no temp file beside ``path``
        os.remove(tmp)
        raise


def _distribution(row: np.ndarray, what: str) -> np.ndarray:
    """``row`` if it sums to 1 within PROBABILITY_SUM_TOLERANCE."""
    total = float(row.sum())
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOLERANCE:
        raise ModelFormatError(
            f"{what} sums to {total!r}, not 1 within {PROBABILITY_SUM_TOLERANCE}")
    return row


def load_model(path: str) -> FloorModel:
    """Read a model file, validating format, version, table shapes and
    every prior and table entry: each a JSON number, finite, positive
    and at most 1, each row summing to 1. Anything else raises
    ModelFormatError naming the entry or row."""
    doc = read_json(path, "model file", ModelFormatError)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {version!r} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    where = f"model file {path}:"
    probability = (SMALLEST_PROBABILITY, 1.0, ModelFormatError)
    try:
        binning = FeatureBinning.from_dict(doc["binning"])
        priors = _distribution(np.array(
            [check_number(doc["priors"][c], f"{where} priors.{c}", *probability)
             for c in CLASS_NAMES]), f"{where} priors")
        tables = {}
        for name in FEATURE_NAMES:
            rows = [check_numbers(doc["tables"][name][c], f"{where} tables.{name}.{c}",
                                  *probability) for c in CLASS_NAMES]
            if any(len(row) != binning.bins_for(name) for row in rows):
                raise ModelFormatError(
                    f"{where} tables.{name} has rows of {[len(row) for row in rows]} "
                    f"entries, expected {binning.bins_for(name)}"
                )
            tables[name] = np.stack([_distribution(row, f"{where} tables.{name}.{c}")
                                     for c, row in zip(CLASS_NAMES, rows)])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} is malformed: {exc}") from exc
    return FloorModel(priors=priors, tables=tables, binning=binning)
