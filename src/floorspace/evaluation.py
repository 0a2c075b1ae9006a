"""Tick-driven floor tracking, corpus replay, and accuracy evaluation.

The tracker advances one evaluation period (30 ms) at a time and is
purely a function of input timing: feeding the same activity in one
batch or in packet-sized slices produces the same periods. Each
``process_due`` call returns the periods it evaluated; the tracker
itself keeps only its last one, so what it holds does not grow with
the time it runs. Replay feeds a whole labeled corpus through the
identical path the live server uses, just as fast as the machine
allows, and keeps what its one ``process_due`` call returns. The live
server keeps one tracker per room and changes its participants in
place as people join and leave; replay's participants are fixed.

Evaluation compares the replayed configuration stream against ground
truth derived from the corpus labels: at any instant a participant
belongs to the floor of their most recent labeled turn, participants
yet to speak stand alone. Accuracy is measured in steady state,
excluding a warm-up and a guard band around every ground-truth
change, since the feature windows need history before they mean
anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import ne
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .assigner import (
    EVAL_PERIOD_MS,
    FloorAssigner,
    FloorConfiguration,
    PairRow,
    Partition,
    canonical_partition,
    unordered_pairs,
)
from .corpus import Corpus
from .errors import EvaluationError
# trp_gap_from_arrays is unused here but stays importable under this
# name, where the benchmark's tracer wraps it
from .features import (  # noqa: F401
    BLOCK_MS,
    FeatureEngine,
    UtteranceView,
    trp_gap_from_arrays,
)
from .learner import FloorModel, posterior_batch
from .timeline import Tick

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


class FloorTracker:
    """Streams in, periods out, one evaluation period at a time.

    ``views`` supplies per-participant utterance (starts, ends) as
    observed so far; the replay path hands in full corpus records
    (the gap feature only looks at what had started by ``now``), the
    live path hands in online segmenter views. Due periods are
    evaluated in blocks: features for a whole block in array
    operations, then one posterior row per run of periods whose binned
    features repeat bit for bit, the block's rows searched in one pass
    (``FloorAssigner.prime``), and one ``FloorAssigner.assign_run`` per
    run, whose choice, with its tie rule, pin and dwell, is what one
    ``assign`` per period would make. A live pump's block is one period.
    Activity fed starts at ``start_tick``; earlier ticks read as
    non-speech. The first period evaluated is the first after it.

    ``process_due`` returns the periods it evaluated. The tracker keeps
    only the last: ``ticks`` and ``configs`` hold at most one entry, so a
    caller that wants the whole log collects what each call returns.
    ``oldest_needed`` names, per member, the oldest utterance start a
    later period's gap can still read, so a view may drop older turns.

    Participants ``join`` and ``leave`` in place, so one tracker serves
    a live room for as long as anyone is in it. The assigner keeps its
    previous choice, repeat cache and counters across a change; a pin
    dissolves. With fewer than two participants the tracker takes
    activity but evaluates no period.
    """

    def __init__(
        self,
        participants: Sequence[int],
        model: FloorModel,
        views: Mapping[int, UtteranceView],
        assigner: Optional[FloorAssigner] = None,
        posterior_override: Optional[Callable[[Tick], Mapping[Tuple[int, int], float]]] = None,
        start_tick: Tick = 0,
    ):
        self.model = model
        self.assigner = assigner or FloorAssigner()
        self.posterior_override = posterior_override

        self._engine = FeatureEngine(
            participants, views, model.binning, start_tick, step_ms=EVAL_PERIOD_MS
        )
        self.pairs = unordered_pairs(self.participants)
        self._next_eval = (start_tick // EVAL_PERIOD_MS + 1) * EVAL_PERIOD_MS

        # the last period evaluated, if any
        self.ticks: List[Tick] = []
        self.configs: List[FloorConfiguration] = []

    @property
    def participants(self) -> Tuple[int, ...]:
        return self._engine.participants

    def join(self, participant: int, view: UtteranceView) -> None:
        """Add a participant whose activity is fed from ``coverage`` on."""
        self._engine.join(participant, view)
        self._membership_changed()

    def leave(self, participant: int) -> None:
        self._engine.leave(participant)
        self._membership_changed()

    def _membership_changed(self) -> None:
        self.pairs = unordered_pairs(self.participants)
        self.assigner.drop_pin()

    def add_activity(self, participant: int, bits) -> None:
        self._engine.add_activity(participant, bits)

    def add_room_activity(self, bits) -> None:
        """The next chunk of every participant's activity, one row each in
        participant order; every participant must cover the same ticks."""
        self._engine.add_room_activity(bits)

    @property
    def streams(self) -> Dict[int, np.ndarray]:
        """Activity received but not yet turned into overlap counts."""
        return self._engine.streams

    @property
    def coverage(self) -> Tick:
        """Ticks fully observed across every participant."""
        return self._engine.coverage

    @property
    def oldest_needed(self) -> Dict[int, Tick]:
        """Per member with older turns to spare, the oldest utterance start
        that a later period's gap can read (``FeatureEngine.oldest_needed``)."""
        return self._engine.oldest_needed

    def process_due(self, upto: Optional[Tick] = None) -> Periods:
        """Evaluate every period boundary now covered by all streams."""
        limit = self.coverage if upto is None else min(upto, self.coverage)
        period = EVAL_PERIOD_MS
        due = Periods([], np.zeros((0, len(self.pairs))), [], [])
        if len(self.participants) < 2:
            # nothing to decide; keep only the lookback a later joiner's
            # first period reads
            self._engine.count_through(limit)
            self._next_eval = max(self._next_eval, (limit // period + 1) * period)
            return due
        per_block = max(BLOCK_MS // period, 1)
        blocks = []
        previous = self.configs[-1] if self.configs else None
        while self._next_eval <= limit:
            last = min(limit, self._next_eval + (per_block - 1) * period)
            ticks = np.arange(self._next_eval, last + 1, period)
            ids = self.participants
            rows, runs = self._posteriors(ticks)
            self.assigner.prime(ids, rows)
            t = self._next_eval
            for p, k in zip(rows, runs):
                for config, n in self.assigner.assign_run(PairRow(ids, p), ids, t, k):
                    if previous is None or previous.partition != config.partition:
                        due.events.append(ConfigurationEvent(t, config.partition, config.score))
                    due.configs.extend([config] * n)
                    previous = config
                    t += n * period
            due.ticks.extend(ticks.tolist())
            blocks.append(rows if len(rows) == len(ticks) else np.repeat(rows, runs, axis=0))
            self._next_eval = t
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
            rows = np.array(
                [[p[k] for k in self.pairs] for p in map(self.posterior_override, ticks.tolist())],
                dtype=np.float64,
            )
            runs = np.ones(len(rows), dtype=np.intp)
        elif len(ticks) == 1:
            # a live pump's one period is one run; there is nothing to compare
            return self._pair_means(self._engine.binned(ticks)), [1]
        else:
            bins = self._engine.binned(ticks).reshape(len(ticks), -1)
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
    return np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))


class TruthTracker:
    """Derived ground-truth partition as a function of time.

    Groups participants by the floor label of their most recent turn;
    a participant with no turn yet is their own singleton floor.
    """

    def __init__(self, corpus: Corpus):
        ids = corpus.ids
        self.participants = tuple(sorted(ids.values()))
        self._events = sorted(
            (r.start_ms, ids[r.participant], r.floor_label) for r in corpus.records
        )
        self._starts = np.array([e[0] for e in self._events], dtype=np.int64)
        self._cursor = 0
        self._label: Dict[int, Optional[int]] = {p: None for p in self.participants}
        self._partition = self._compute()

    def _compute(self) -> Partition:
        blocks: Dict[object, List[int]] = {}
        for pid in self.participants:
            lab = self._label[pid]
            key = ("solo", pid) if lab is None else ("floor", lab)
            blocks.setdefault(key, []).append(pid)
        return canonical_partition(blocks.values())

    def partition_at(self, t: Tick) -> Partition:
        """Advance to instant t (non-decreasing calls) and return the truth."""
        moved = False
        while self._cursor < len(self._events) and self._events[self._cursor][0] <= t:
            _, pid, label = self._events[self._cursor]
            self._cursor += 1
            if self._label[pid] != label:
                self._label[pid] = label
                moved = True
        if moved:
            self._partition = self._compute()
        return self._partition

    def partitions_at(self, ticks: Sequence[Tick]) -> List[Partition]:
        """The truth at each of the non-decreasing instants ``ticks``.

        The truth moves only at turn starts, so it is advanced once per
        run of instants that see the same turns started.
        """
        ticks = np.asarray(ticks, dtype=np.int64)
        started = np.searchsorted(self._starts, ticks, side="right")
        firsts = np.flatnonzero(np.diff(started, prepend=-1)).tolist()
        out: List[Partition] = []
        for i, end in zip(firsts, firsts[1:] + [len(ticks)]):
            out.extend([self.partition_at(int(ticks[i]))] * (end - i))
        return out


def _record_views(corpus: Corpus) -> Dict[int, UtteranceView]:
    views: Dict[int, UtteranceView] = {}
    for pid, utts in corpus.utterances().items():
        starts = [u.start for u in utts]
        ends = [u.end for u in utts]
        views[pid] = lambda s=starts, e=ends: (s, e)
    return views


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
    dwell_ms: int = 0,
    oracle_posteriors: bool = False,
) -> ReplayResult:
    """Run the labeled corpus through the full detection path.

    With ``oracle_posteriors`` the learned model is bypassed and each
    pair's posterior is 1.0 or 0.0 straight from ground truth, which
    isolates the configuration search from feature or model error.
    """
    ids = sorted(corpus.ids.values())

    override = None
    if oracle_posteriors:
        truth_for_oracle = TruthTracker(corpus)

        def override(t: Tick) -> Dict[Tuple[int, int], float]:
            part = truth_for_oracle.partition_at(t)
            block_of = {m: i for i, b in enumerate(part) for m in b}
            return {
                (a, b): 1.0 if block_of[a] == block_of[b] else 0.0
                for (a, b) in unordered_pairs(ids)
            }

    tracker = FloorTracker(
        ids,
        model,
        _record_views(corpus),
        assigner=FloorAssigner(dwell_ms=dwell_ms),
        posterior_override=override,
    )
    streams = corpus.streams()
    for pid in ids:
        tracker.add_activity(pid, streams[pid].bits)
    due = tracker.process_due()

    return ReplayResult(
        participants=tracker.participants,
        pairs=tracker.pairs,
        ticks=np.array(due.ticks, dtype=np.int64),
        chosen=[c.partition for c in due.configs],
        scores=np.array([c.score for c in due.configs]),
        truth=TruthTracker(corpus).partitions_at(due.ticks),
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


def _pair_same_matrix(partitions: List[Partition], pairs: List[Tuple[int, int]]) -> np.ndarray:
    """Per partition, whether it puts each pair in one floor."""
    out = np.zeros((len(partitions), len(pairs)), dtype=bool)
    for i, part in enumerate(partitions):
        block_of = {m: k for k, b in enumerate(part) for m in b}
        out[i] = [block_of.get(a) == block_of.get(b) for a, b in pairs]
    return out


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
    dwell_ms: int = 0,
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
    result = replay_corpus(
        corpus, model, dwell_ms=dwell_ms, oracle_posteriors=oracle_posteriors
    )
    ticks = result.ticks
    # equal partitions share a number, so each distinct one is scored once
    chosen, partitions = result.chosen_codes
    index = {part: code for code, part in enumerate(partitions)}
    truth = partition_codes(result.truth, index)
    same = _pair_same_matrix(list(index), result.pairs)
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
