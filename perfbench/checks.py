"""Output checks: every operation the benchmark times is checked here.

A floor decision is checked against an exhaustive argmax built from
``enumerate_partitions`` and ``score``. A decision fails when the
chosen partition does not cover the present participants, when its
reported score is not ``score(chosen)``, or when some partition scores
higher by more than float round-off.

Scores can only be compared within round-off, because the assigner
scores all partitions with one matrix product while ``score`` sums
pair by pair. Partitions that tie exactly in real arithmetic (pairs
with identical posteriors make this common) can differ in the last
bit of the assigner's scores, and then its tie rules (keep the
previous choice, else the fewest floors, else the smallest canonical
form) never run. Such a choice is optimal, so it is not a failure; it
is counted as a tie-rule deviation and reported next to the failures.

At the 10-person cap there are 115 975 partitions, too many to pass
through ``score`` for every sampled period; a vectorised pass over
the same enumeration picks the candidates within round-off of the
best, and ``score`` decides among them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from floorspace.assigner import enumerate_partitions, score, unordered_pairs

ROUNDOFF = 1e-12  # well above float64 error on a mean of <= 45 terms in [0, 1]
EXACT_LIMIT = 1000  # partitions scored one by one; larger rooms are pre-filtered


class PartitionOracle:
    """Exhaustive best partition of one participant set."""

    def __init__(self, ids: Sequence[int]):
        self.ids = tuple(sorted(ids))
        self.pairs = unordered_pairs(self.ids)
        self.partitions = enumerate_partitions(self.ids)
        self._within: Optional[np.ndarray] = None
        if len(self.partitions) > EXACT_LIMIT:
            pos = {m: i for i, m in enumerate(self.ids)}
            labels = np.empty((len(self.partitions), len(self.ids)), dtype=np.int8)
            for r, part in enumerate(self.partitions):
                for k, block in enumerate(part):
                    for m in block:
                        labels[r, pos[m]] = k
            self._within = np.stack(
                [labels[:, pos[a]] == labels[:, pos[b]] for a, b in self.pairs], axis=1
            )

    def candidates(self, post: Dict[Tuple[int, int], float]) -> List:
        if self._within is None:
            return self.partitions
        p = np.array([post[k] for k in self.pairs])
        # in row blocks, so the check adds little to the peak RSS it sits beside
        w = 2.0 * p - 1.0
        approx = np.concatenate([
            self._within[i: i + 8192].astype(np.float64) @ w
            for i in range(0, len(self.partitions), 8192)
        ])
        approx = (np.sum(1.0 - p) + approx) / len(p)
        keep = np.flatnonzero(approx >= approx.max() - 1e6 * ROUNDOFF)
        return [self.partitions[r] for r in keep]

    def best(self, post: Dict[Tuple[int, int], float], previous) -> Tuple[tuple, float]:
        """Expected choice and its score, by the assigner's tie rules."""
        scored = [(score(part, post), part) for part in self.candidates(post)]
        top = max(s for s, _ in scored)
        tied = [part for s, part in scored if s >= top - ROUNDOFF]
        if previous is not None and previous in tied:
            return previous, top
        return min(tied, key=lambda part: (len(part), part)), top


def check_replay(result, oracle: PartitionOracle, sample_every: int = 1) -> Tuple[int, int, List[str]]:
    """(failed periods, tie-rule deviations, first few reasons) of a ReplayResult.

    Every period is checked for coverage and for its reported score;
    every ``sample_every``-th period also against the exhaustive argmax.
    """
    ids = list(result.participants)
    failed = deviations = 0
    reasons: List[str] = []
    for i, (tick, chosen, reported) in enumerate(
        zip(result.ticks, result.chosen, result.scores)
    ):
        post = dict(zip(result.pairs, result.posteriors[i]))
        exact = score(chosen, post)
        why = None
        if sorted(m for b in chosen for m in b) != ids:
            why = f"partition {chosen} does not cover {ids}"
        elif abs(exact - float(reported)) > ROUNDOFF:
            why = f"reported score {reported} != score() {exact}"
        elif i % sample_every == 0:
            previous = result.chosen[i - 1] if i > 0 else None
            expected, top = oracle.best(post, previous)
            if exact < top - ROUNDOFF:
                why = f"chose {chosen} ({exact}), exhaustive search gives {expected} ({top})"
            elif chosen != expected:
                deviations += 1
        if why is not None:
            failed += 1
            if len(reasons) < 3:
                reasons.append(f"tick {int(tick)}: {why}")
    return failed, deviations, reasons
