"""Tick-driven floor tracking, corpus replay, and accuracy evaluation.

``FloorTracker`` is the room's feature engine with the posteriors and
the floor decision on top, advancing one evaluation period (30 ms) at
a time. It is purely a function of input timing: one block or
frame-sized blocks of the same activity produce the same periods.
Replay feeds a whole labeled corpus as one block through the identical
path the live server uses, as fast as the machine allows, and keeps
what its one ``process_due`` call returns. The live server keeps one
tracker per room, feeds it a block per frame and changes its
participants in place as people join and leave; replay's participants
are fixed.

Evaluation compares the replayed configuration stream against ground
truth derived from the corpus labels: at any instant a participant
belongs to the floor of their most recent labeled turn, participants
yet to speak stand alone. That definition is ``timeline.floor_labels``,
by which training labels its samples too; replay reads the truth, and
oracle posteriors, from it. Accuracy is measured in steady state,
excluding a warm-up and a guard band around every ground-truth
change, since the feature windows need history before they mean
anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import ne
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .assigner import (
    EVAL_PERIOD_MS,
    FloorAssigner,
    FloorConfiguration,
    Partition,
    canonical_partition,
    same_floor,
)
from .corpus import Corpus
from .errors import EvaluationError
# trp_gap_from_arrays is unused here but stays importable under this
# name, where the benchmark's tracer wraps it
from .features import (  # noqa: F401
    FeatureEngine,
    UtteranceView,
    trp_gap_from_arrays,
    utterance_views,
)
from .learner import FloorModel, posterior_batch
from .timeline import Tick, floor_labels

WARMUP_MS = 30000
CHANGE_EXCLUSION_MS = 2000


@dataclass
class ConfigurationEvent:
    tick: Tick
    partition: Partition
    score: float


class Periods(NamedTuple):
    """The periods one ``process_due`` call evaluated, oldest first.

    ``posteriors`` is (periods, pairs), in the tracker's ``pairs``
    order; ``events`` are the periods whose partition changed.
    """

    ticks: List[Tick]
    posteriors: np.ndarray
    configs: List[FloorConfiguration]
    events: List[ConfigurationEvent]


class FloorTracker(FeatureEngine):
    """Streams in, periods out, one evaluation period at a time.

    A ``FeatureEngine`` at the period's step: activity, membership and
    turn bookkeeping are the engine's. ``views`` are the full corpus
    records in replay and the online segmenters' views live. Due
    periods, up to ``coverage``, are evaluated in blocks of the engine's
    ``span``: 256 periods for ten members, 1 408 for four. Features for
    a whole block come in array operations, then one posterior row per
    run of periods whose binned features repeat bit for bit. One
    ``FloorAssigner.assign_block`` call decides the block (the block path
    is told in the ``assigner`` module docstring). Events are built only
    where the choice changes. A live pump's block is one period.
    ``posterior_override`` maps a block's ticks to posterior rows in
    ``pairs`` order, in place of the model's (replay's oracle mode).
    The first period evaluated is the first after ``start_tick``.

    ``process_due`` returns the periods it evaluated. The tracker keeps
    only the last: ``ticks`` and ``configs`` hold at most one entry, so a
    caller that wants the whole log collects what each call returns.

    A join or leave leaves the assigner as it is: its previous choice,
    repeat cache and counters carry across. A pin is the caller's to
    dissolve (the live server drops it at every change of its session
    table); ``assign`` drops one that no longer covers the members. With
    fewer than two participants the tracker takes activity but
    evaluates no period.
    """

    def __init__(
        self,
        participants: Sequence[int],
        model: FloorModel,
        views: Mapping[int, UtteranceView],
        posterior_override: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        start_tick: Tick = 0,
    ):
        super().__init__(participants, views, model.binning, start_tick, step_ms=EVAL_PERIOD_MS)
        self.model = model
        self.assigner = FloorAssigner()
        self.posterior_override = posterior_override
        self._next_eval = (start_tick // EVAL_PERIOD_MS + 1) * EVAL_PERIOD_MS

        # the last period evaluated, if any
        self.ticks: List[Tick] = []
        self.configs: List[FloorConfiguration] = []

    def process_due(self) -> Periods:
        """Evaluate every period boundary the activity fed so far covers."""
        limit = self.coverage
        period = EVAL_PERIOD_MS
        due = Periods([], np.zeros((0, len(self.pairs))), [], [])
        if len(self.participants) < 2:
            # nothing to decide; keep only the lookback a later joiner's
            # first period reads
            self.count_through(limit)
            self._next_eval = max(self._next_eval, (limit // period + 1) * period)
            return due
        per_block = max(self.span // period, 1)
        blocks = []
        previous = self.configs[-1].partition if self.configs else None
        while self._next_eval <= limit:
            last = min(limit, self._next_eval + (per_block - 1) * period)
            ticks = np.arange(self._next_eval, last + 1, period)
            rows, runs = self._posteriors(ticks)
            t = self._next_eval
            configs, counts = zip(*self.assigner.assign_block(self.participants, rows, runs, t))
            parts = [c.partition for c in configs]
            starts = list(accumulate(counts, initial=0))
            # events only where the partition changes
            due.events.extend(
                ConfigurationEvent(t + starts[i] * period, parts[i], configs[i].score)
                for i in compress(range(len(parts)), map(ne, parts, [previous] + parts))
            )
            due.configs.extend(chain.from_iterable(map(repeat, configs, counts)))
            due.ticks.extend(ticks.tolist())
            blocks.append(rows if len(rows) == len(ticks) else np.repeat(rows, runs, axis=0))
            previous = parts[-1]
            self._next_eval = t + starts[-1] * period
        if not blocks:
            return due
        self.ticks, self.configs = due.ticks[-1:], due.configs[-1:]
        return due._replace(posteriors=np.concatenate(blocks))

    def pair_posteriors(self, t: Tick) -> np.ndarray:
        """Unordered-pair mutual-floor posteriors at instant t."""
        return self._posteriors(np.array([t]))[0][0]

    def _posteriors(self, ticks: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """(runs, pairs) posteriors, each the mean of both directions, one
        row per run of ticks whose rows are bit-identical, and the runs'
        lengths.

        Only the first tick of each run of repeated binned features is
        computed; the arithmetic is per row, so the ticks after it would
        repeat its bits. Runs of different bins can still give the same
        row, and are joined.
        """
        if self.posterior_override is not None:
            rows = np.asarray(self.posterior_override(ticks), dtype=np.float64)
            runs = np.ones(len(rows), dtype=np.intp)
        elif len(ticks) == 1:
            # a live pump's one period is one run; there is nothing to compare
            return self._pair_means(self.binned(ticks)), [1]
        else:
            bins = self.binned(ticks).reshape(len(ticks), -1)
            firsts = _run_starts(bins)
            runs = np.diff(firsts, append=len(ticks))
            rows = self._pair_means(bins[firsts])
        firsts = _run_starts(rows.view(np.uint64))
        return rows[firsts], np.add.reduceat(runs, firsts).tolist()

    def _pair_means(self, bins: np.ndarray) -> np.ndarray:
        """Per row of every ordered pair's binned features, each pair's
        posterior as the mean of both directions."""
        m = len(self.pairs)
        directed = posterior_batch(self.model, bins.reshape(-1, 4)).reshape(-1, 2 * m)
        return 0.5 * (directed[:, :m] + directed[:, m:])


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of the 2-D integer array ``keys`` starts."""
    return np.flatnonzero(np.concatenate(([len(keys) > 0], (keys[1:] != keys[:-1]).any(axis=1))))


def truth_partitions(labels: np.ndarray, ids: Sequence[int]) -> List[Partition]:
    """Per row of ``floor_labels``, the members grouped by floor code,
    each one without a turn yet (-1) alone; worked out once per run of
    equal rows."""
    firsts = _run_starts(labels).tolist()
    out: List[Partition] = []
    for i, end in zip(firsts, firsts[1:] + [len(labels)]):
        blocks: Dict[int, List[int]] = {}
        for pid, code in zip(ids, labels[i].tolist()):
            blocks.setdefault(code if code >= 0 else -1 - pid, []).append(pid)
        out.extend([canonical_partition(blocks.values())] * (end - i))
    return out


@dataclass
class ReplayResult:
    participants: Tuple[int, ...]
    pairs: List[Tuple[int, int]]
    ticks: np.ndarray
    chosen: List[Partition]
    scores: np.ndarray
    truth: List[Partition]
    events: List[ConfigurationEvent]
    posteriors: np.ndarray  # (periods, n_pairs)

    @cached_property
    def chosen_codes(self) -> Tuple[np.ndarray, List[Partition]]:
        """Each period's chosen partition as a number, and the partitions
        by number, in the order they were first chosen.

        ``evaluate`` and every listener's render read the same numbers,
        so they are worked out once.
        """
        index: Dict[Partition, int] = {}
        codes = partition_codes(self.chosen, index)
        return codes, list(index)


def replay_corpus(
    corpus: Corpus,
    model: FloorModel,
    oracle_posteriors: bool = False,
) -> ReplayResult:
    """Run the labeled corpus through the full detection path.

    With ``oracle_posteriors`` the learned model is bypassed and each
    pair's posterior is 1.0 or 0.0 straight from ground truth, which
    isolates the configuration search from feature or model error.
    """
    ids = sorted(corpus.ids.values())
    utterances = corpus.utterances()

    override = None
    if oracle_posteriors:
        iu, ju = np.triu_indices(len(ids), 1)

        def override(ticks: np.ndarray) -> np.ndarray:
            labels = floor_labels(utterances, ids, ticks)
            return (labels[:, iu] >= 0) & (labels[:, iu] == labels[:, ju])

    tracker = FloorTracker(ids, model, utterance_views(utterances), posterior_override=override)
    streams = corpus.streams()
    tracker.add_activity([streams[pid].bits for pid in ids])
    due = tracker.process_due()

    return ReplayResult(
        participants=tracker.participants,
        pairs=tracker.pairs,
        ticks=np.array(due.ticks, dtype=np.int64),
        chosen=[c.partition for c in due.configs],
        scores=np.array([c.score for c in due.configs]),
        truth=truth_partitions(floor_labels(utterances, ids, due.ticks), ids),
        events=due.events,
        posteriors=due.posteriors,
    )


def partition_codes(partitions: List[Partition], index: Dict[Partition, int]) -> np.ndarray:
    """Each partition's number in ``index``; unseen partitions are added.

    Consecutive periods mostly repeat a partition, so it is looked up
    once per run of equal neighbours.
    """
    n = len(partitions)
    if not n:
        return np.zeros(0, dtype=np.intp)
    moved = np.fromiter(map(ne, partitions[1:], partitions[:-1]), bool, n - 1)
    starts = [0] + (np.flatnonzero(moved) + 1).tolist()
    codes = [index.setdefault(partitions[i], len(index)) for i in starts]
    return np.repeat(np.array(codes, dtype=np.intp), np.diff(starts + [n]))


@dataclass
class EvaluationReport:
    configuration_accuracy: float
    pairwise_accuracy: float
    periods: int
    steady_periods: int
    confusion: Dict[str, int]
    events: List[ConfigurationEvent] = field(repr=False)
    oracle_posteriors: bool = False

    def to_dict(self) -> dict:
        return {
            "configuration_accuracy": self.configuration_accuracy,
            "pairwise_accuracy": self.pairwise_accuracy,
            "periods": self.periods,
            "steady_periods": self.steady_periods,
            "confusion": dict(self.confusion),
            "configuration_changes": len(self.events),
            "warmup_ms": WARMUP_MS,
            "exclusion_ms": CHANGE_EXCLUSION_MS,
            "oracle_posteriors": self.oracle_posteriors,
        }

    def to_text(self) -> str:
        c = self.confusion
        lines = [
            f"periods evaluated      {self.periods}",
            f"steady-state periods   {self.steady_periods}"
            f" (warm-up {WARMUP_MS} ms,"
            f" +-{CHANGE_EXCLUSION_MS} ms around truth changes)",
            f"configuration accuracy {self.configuration_accuracy:.4f}",
            f"pairwise accuracy      {self.pairwise_accuracy:.4f}",
            f"pair confusion         same->same {c['same_as_same']}"
            f"  same->diff {c['same_as_diff']}"
            f"  diff->same {c['diff_as_same']}"
            f"  diff->diff {c['diff_as_diff']}",
            f"configuration changes  {len(self.events)}",
        ]
        if self.oracle_posteriors:
            lines.insert(0, "mode                   oracle posteriors")
        return "\n".join(lines)


def evaluate(
    corpus: Corpus,
    model: FloorModel,
    oracle_posteriors: bool = False,
) -> Tuple[EvaluationReport, ReplayResult]:
    """Replay a corpus and score the result against derived ground truth.

    Periods in the first WARMUP_MS, and within CHANGE_EXCLUSION_MS of a
    truth change, are not scored.
    """
    if corpus.duration_ms <= WARMUP_MS:
        raise EvaluationError(
            f"corpus of {corpus.duration_ms} ms is no longer than the "
            f"{WARMUP_MS} ms warm-up"
        )
    result = replay_corpus(corpus, model, oracle_posteriors=oracle_posteriors)
    ticks = result.ticks
    # equal partitions share a number, so each distinct one is scored once
    chosen, partitions = result.chosen_codes
    index = {part: code for code, part in enumerate(partitions)}
    truth = partition_codes(result.truth, index)
    # per partition, whether it joins each pair, in ``result.pairs`` order
    same = np.array([same_floor(part, result.participants) for part in index],
                    dtype=bool).reshape(len(index), len(result.pairs))
    chosen_same, truth_same = same[chosen], same[truth]
    config_ok = chosen == truth

    steady = ticks > WARMUP_MS
    change_ticks = ticks[1:][truth[1:] != truth[:-1]].tolist()
    if result.truth:
        first_speech = min((r.start_ms for r in corpus.records), default=None)
        if first_speech is not None:
            change_ticks.append(first_speech)
    for c in change_ticks:
        steady &= np.abs(ticks - c) > CHANGE_EXCLUSION_MS

    n_steady = int(steady.sum())
    if n_steady == 0:
        raise EvaluationError("no steady-state periods to evaluate")
    config_acc = float(config_ok[steady].mean())
    pair_acc = float((chosen_same[steady] == truth_same[steady]).mean())
    cs, ts = chosen_same[steady], truth_same[steady]
    confusion = {
        "same_as_same": int((cs & ts).sum()),
        "same_as_diff": int((~cs & ts).sum()),
        "diff_as_same": int((cs & ~ts).sum()),
        "diff_as_diff": int((~cs & ~ts).sum()),
    }
    report = EvaluationReport(
        configuration_accuracy=config_acc,
        pairwise_accuracy=pair_acc,
        periods=len(ticks),
        steady_periods=n_steady,
        confusion=confusion,
        events=result.events,
        oracle_posteriors=oracle_posteriors,
    )
    return report, result


def partition_text(partition: Partition) -> str:
    """Compact one-line form, e.g. "0,1|2,3"."""
    return "|".join(",".join(str(m) for m in block) for block in partition)


def write_timeline(path: str, result: ReplayResult) -> None:
    """Tab-separated per-period rows: tick, chosen partition, truth partition."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick_ms\tchosen\ttruth\n")
        for t, c, g in zip(result.ticks, result.chosen, result.truth):
            fh.write(f"{t}\t{partition_text(c)}\t{partition_text(g)}\n")


def write_report(path: str, report: EvaluationReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
