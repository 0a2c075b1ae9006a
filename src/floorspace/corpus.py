"""Labeled turn-taking corpora: file format, container, generator.

A corpus is a list of turn records, each one participant's speech
interval tagged with the conversational floor it belonged to. The
file format is line-delimited text with an explicit header:

    floorspace-corpus 1
    duration 360000
    participant A
    participant B
    turn A 0 1840 0
    turn B 2100 3950 0

``duration`` and ``participant`` lines come before any ``turn`` line.
Times are integer milliseconds, labels small contiguous integers and
participant names words without whitespace; ``TurnRecord`` and
``Corpus`` reject anything else, so every corpus saves to a file that
loads back equal. Lines starting with ``#`` are comments. Any other
line kind, or extra fields on a line, is an error: the format carries
exactly this.

The generator produces statistically plausible floor behavior from a
membership schedule: within a floor, speakers alternate with pauses
drawn from a truncated normal around 250 ms (occasionally negative,
briefly overlapping at turn boundaries), turn lengths are log-normal
around a 2 s median, and separate floors run independently with no
mutual alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CorpusError, check_integer, check_number, from_object
from .timeline import ActivityStream, Utterance, stream_from_intervals

CORPUS_FORMAT = "floorspace-corpus"
CORPUS_FORMAT_VERSION = 1


def _check_name(name) -> None:
    """Reject a participant name that is not one whitespace-free word."""
    if not isinstance(name, str) or not name or any(c.isspace() for c in name):
        raise CorpusError(
            f"participant name must be a non-empty string without whitespace, not {name!r}")


@dataclass(frozen=True)
class TurnRecord:
    """One speech turn: who, when, and which floor it belonged to."""

    participant: str
    start_ms: int
    end_ms: int
    floor_label: int

    def __post_init__(self):
        _check_name(self.participant)
        check_integer(self.start_ms, "turn start_ms", 0, math.inf, CorpusError)
        for what in ("end_ms", "floor_label"):
            check_integer(getattr(self, what), f"turn {what}", -math.inf, math.inf, CorpusError)
        if self.start_ms >= self.end_ms:
            raise CorpusError(
                f"turn of {self.participant} has empty interval "
                f"[{self.start_ms}, {self.end_ms})"
            )


class Corpus:
    """An ordered collection of labeled turns for named participants."""

    def __init__(
        self,
        participants: Sequence[str],
        records: Sequence[TurnRecord],
        duration_ms: Optional[int] = None,
    ):
        for name in participants:
            _check_name(name)
        if duration_ms is not None:
            check_integer(duration_ms, "duration", -math.inf, math.inf, CorpusError)
        if len(set(participants)) != len(participants):
            raise CorpusError("duplicate participant names")
        self.participants = list(participants)
        self.records = sorted(records, key=lambda r: (r.start_ms, r.participant))
        inferred = max((r.end_ms for r in self.records), default=0)
        self.duration_ms = duration_ms if duration_ms is not None else inferred
        if self.duration_ms < 0:
            raise CorpusError(f"declared duration {self.duration_ms} is negative")
        if self.duration_ms < inferred:
            raise CorpusError(
                f"declared duration {self.duration_ms} shorter than "
                f"last turn end {inferred}"
            )
        self._validate()

    def _validate(self) -> None:
        known = set(self.participants)
        last_end: Dict[str, int] = {}
        labels = set()
        for r in self.records:
            if r.participant not in known:
                raise CorpusError(f"turn for unknown participant {r.participant!r}")
            if r.start_ms < last_end.get(r.participant, 0):
                raise CorpusError(
                    f"overlapping turns for participant {r.participant} "
                    f"around {r.start_ms} ms"
                )
            last_end[r.participant] = r.end_ms
            labels.add(r.floor_label)
        if labels:
            lo, hi = min(labels), max(labels)
            if lo < 0:
                raise CorpusError("negative floor label")
            if len(labels) != hi - lo + 1:
                raise CorpusError(
                    f"floor labels are not contiguous: {sorted(labels)}"
                )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.participants == other.participants
            and self.records == other.records
            and self.duration_ms == other.duration_ms
        )

    @property
    def ids(self) -> Dict[str, int]:
        """Participant name to small integer id, in declaration order."""
        return {name: i for i, name in enumerate(self.participants)}

    def utterances(self) -> Dict[int, List[Utterance]]:
        """Per-participant labeled utterances on the shared tick grid."""
        ids = self.ids
        out: Dict[int, List[Utterance]] = {i: [] for i in ids.values()}
        for r in self.records:
            pid = ids[r.participant]
            out[pid].append(Utterance(pid, r.start_ms, r.end_ms, r.floor_label))
        return out

    def streams(self) -> Dict[int, ActivityStream]:
        """Per-participant activity bits covering the full duration."""
        ids = self.ids
        intervals: Dict[int, List[Tuple[int, int]]] = {i: [] for i in ids.values()}
        for r in self.records:
            intervals[ids[r.participant]].append((r.start_ms, r.end_ms))
        return {
            pid: stream_from_intervals(pid, pairs, self.duration_ms)
            for pid, pairs in intervals.items()
        }


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{CORPUS_FORMAT} {CORPUS_FORMAT_VERSION}\n")
        fh.write(f"duration {corpus.duration_ms}\n")
        for name in corpus.participants:
            fh.write(f"participant {name}\n")
        for r in corpus.records:
            fh.write(f"turn {r.participant} {r.start_ms} {r.end_ms} {r.floor_label}\n")


def load_corpus(path: str) -> Corpus:
    """Parse a corpus file, rejecting unknown or malformed lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    if not lines:
        raise CorpusError(f"{path} is empty")
    head = lines[0].split()
    if len(head) != 2 or head[0] != CORPUS_FORMAT:
        raise CorpusError(f"{path} does not start with a {CORPUS_FORMAT} header")
    if head[1] != str(CORPUS_FORMAT_VERSION):
        raise CorpusError(
            f"corpus format version {head[1]} unsupported "
            f"(expected {CORPUS_FORMAT_VERSION})"
        )
    participants: List[str] = []
    records: List[TurnRecord] = []
    duration: Optional[int] = None
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind in ("duration", "participant") and records:
            raise CorpusError(f"{path}:{lineno}: {kind!r} line after the first 'turn' line")
        if kind == "duration" and duration is not None:
            raise CorpusError(f"{path}:{lineno}: second 'duration' line")
        try:
            if kind == "duration":
                if len(fields) != 2:
                    raise ValueError
                duration = int(fields[1])
            elif kind == "participant":
                if len(fields) != 2:
                    raise ValueError
                participants.append(fields[1])
            elif kind == "turn":
                if len(fields) != 5:
                    raise ValueError
                records.append(
                    TurnRecord(fields[1], int(fields[2]), int(fields[3]), int(fields[4]))
                )
            else:
                raise CorpusError(
                    f"{path}:{lineno}: unknown record kind {kind!r}"
                )
        except (IndexError, ValueError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed {kind!r} line") from exc
    return Corpus(participants, records, duration)


# --- synthetic generation ---------------------------------------------------

Schedule = List[Tuple[int, Tuple[Tuple[int, ...], ...]]]

DEFAULT_NAMES = "ABCDEFGHIJ"


@dataclass
class GeneratorConfig:
    """Everything the synthetic corpus generator needs.

    ``schedule`` maps epoch start times to the floor partition in
    force from then on, as tuples of participant-index tuples. The
    first epoch must start at 0. ``overlap_probability`` is the exact
    chance that a within-floor transition starts before the previous
    turn has ended. The counts, times, seed and members are integers,
    the timing values finite numbers (``errors``' two rules); the median
    turn is positive and the shortest turn kept at least 1 ms.
    """

    participants: int
    duration_ms: int
    schedule: Schedule
    seed: int = 0
    turn_median_ms: float = 2000.0
    turn_sigma: float = 0.8
    pause_mean_ms: float = 250.0
    pause_sd_ms: float = 200.0
    pause_floor_ms: float = -200.0
    overlap_probability: float = 0.1
    solo_gap_mean_ms: float = 3000.0
    solo_gap_sd_ms: float = 1500.0
    min_turn_ms: int = 100

    def __post_init__(self):
        self.participants = check_integer(
            self.participants, "participants", 1, len(DEFAULT_NAMES), CorpusError)
        self.duration_ms = check_integer(self.duration_ms, "duration_ms", 0, math.inf, CorpusError)
        self.seed = check_integer(self.seed, "seed", 0, math.inf, CorpusError)
        self.min_turn_ms = check_integer(self.min_turn_ms, "min_turn_ms", 1, math.inf, CorpusError)
        for name in ("turn_median_ms", "pause_mean_ms", "pause_floor_ms", "solo_gap_mean_ms"):
            check_number(getattr(self, name), name, -math.inf, math.inf, CorpusError)
        for name in ("turn_sigma", "pause_sd_ms", "solo_gap_sd_ms"):
            check_number(getattr(self, name), name, 0, math.inf, CorpusError)
        check_number(self.overlap_probability, "overlap_probability", 0, 1, CorpusError)
        if self.turn_median_ms <= 0:
            raise CorpusError(f"turn_median_ms must be positive, not {self.turn_median_ms!r}")
        times = [check_integer(t, "schedule epoch time", 0, math.inf, CorpusError)
                 for t, _ in self.schedule]
        if not times or times[0] != 0:
            raise CorpusError("schedule must begin with an epoch at 0 ms")
        if times != sorted(times) or len(set(times)) != len(times):
            raise CorpusError("schedule epochs must be strictly increasing")
        self.schedule = [(t, tuple(tuple(b) for b in part))
                         for t, (_, part) in zip(times, self.schedule)]
        everyone = set(range(self.participants))
        for t, partition in self.schedule:
            seen: set = set()
            for block in partition:
                if not block:
                    raise CorpusError(f"empty floor in epoch at {t} ms")
                for m in block:
                    check_integer(m, f"member of the epoch at {t} ms", 0, self.participants - 1,
                                  CorpusError)
                if seen & set(block):
                    raise CorpusError(f"overlapping floors in epoch at {t} ms")
                seen |= set(block)
            if seen != everyone:
                raise CorpusError(
                    f"epoch at {t} ms does not cover every participant"
                )

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        return from_object(cls, d, "generator config", CorpusError)


def _truncated_pause(rng: np.random.Generator, cfg: GeneratorConfig, negative: bool) -> float:
    """Draw from N(mean, sd) restricted to one side of zero, above the floor."""
    for _ in range(1000):
        x = rng.normal(cfg.pause_mean_ms, cfg.pause_sd_ms)
        if x < cfg.pause_floor_ms:
            continue
        if negative and x < 0:
            return x
        if not negative and x >= 0:
            return x
    # distribution parameters make one side vanishingly rare; fall back
    return float(cfg.pause_floor_ms / 2 if negative else max(cfg.pause_mean_ms, 0))


def _log_normal_turn(rng: np.random.Generator, cfg: GeneratorConfig) -> int:
    mu = math.log(cfg.turn_median_ms)
    return max(1, int(round(float(rng.lognormal(mu, cfg.turn_sigma)))))


def generate(cfg: GeneratorConfig) -> Corpus:
    """Generate a labeled corpus from a floor membership schedule.

    Identical configs (seed included) generate identical corpora.
    Floors are scheduled independently of one another; each floor's
    internal turn-taking alternates speakers at transition points.
    """
    rng = np.random.default_rng(cfg.seed)
    names = [DEFAULT_NAMES[i] for i in range(cfg.participants)]
    epochs = list(cfg.schedule) + [(cfg.duration_ms, ())]
    records: List[TurnRecord] = []
    last_end: Dict[int, int] = {i: 0 for i in range(cfg.participants)}
    label = 0
    for (t0, partition), (t1, _) in zip(epochs, epochs[1:]):
        t1 = min(t1, cfg.duration_ms)
        if t0 >= t1:
            continue
        for block in partition:
            _generate_floor(rng, cfg, block, t0, t1, label, names, last_end, records)
            label += 1
    corpus = Corpus(names, records, cfg.duration_ms)
    return corpus


def _generate_floor(
    rng: np.random.Generator,
    cfg: GeneratorConfig,
    block: Tuple[int, ...],
    t0: int,
    t1: int,
    label: int,
    names: List[str],
    last_end: Dict[int, int],
    records: List[TurnRecord],
) -> None:
    members = list(block)
    speaker = members[int(rng.integers(len(members)))]
    # small startup stagger so concurrent floors do not all begin at the
    # epoch boundary in lockstep
    t = t0 + int(rng.integers(0, 400))
    while t < t1:
        dur = _log_normal_turn(rng, cfg)
        start = max(t, last_end[speaker])
        end = min(start + dur, t1)
        if end - start >= cfg.min_turn_ms:
            records.append(TurnRecord(names[speaker], start, end, label))
            last_end[speaker] = end
        natural_end = start + dur
        if len(members) == 1:
            gap = rng.normal(cfg.solo_gap_mean_ms, cfg.solo_gap_sd_ms)
            t = natural_end + max(300, int(round(gap)))
            continue
        overlap = rng.random() < cfg.overlap_probability
        pause = _truncated_pause(rng, cfg, negative=overlap)
        # forced forward progress; a tiny turn plus a negative pause
        # must not walk the clock backwards
        t = max(natural_end + int(round(pause)), t + 1)
        others = [m for m in members if m != speaker]
        speaker = others[int(rng.integers(len(others)))]
