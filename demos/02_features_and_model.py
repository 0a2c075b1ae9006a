"""
What turn-taking timing says about who talks with whom
======================================================

Builds a small synthetic room with two conversations running side by
side, reads the two pairwise timing features at one instant by their
scalar definitions, then trains the classifier and compares its
verdicts, from the feature engine's bins at that instant, for a
within-floor pair and a cross-floor pair.
"""

import tempfile
from pathlib import Path

import numpy as np

from floorspace import (
    GeneratorConfig,
    generate,
    load_model,
    make_training_instances,
    save_model,
    train,
)
from floorspace.features import (
    NO_GAP,
    FeatureEngine,
    simultaneous_speech,
    trp_gap_from_arrays,
    utterance_views,
)
from floorspace.learner import posterior_batch

# four people, two floors, ten minutes: A+B talk, C+D talk
cfg = GeneratorConfig(
    participants=4,
    duration_ms=600_000,
    schedule=[(0, ((0, 1), (2, 3)))],
    seed=42,
)
corpus = generate(cfg)
streams = corpus.streams()
utterances = corpus.utterances()
ids = sorted(corpus.ids.values())
print(f"corpus: {len(corpus.records)} turns, participants {sorted(corpus.ids)}")

now = 120_000
starts = {pid: [u.start for u in utts] for pid, utts in utterances.items()}
ends = {pid: [u.end for u in utts] for pid, utts in utterances.items()}


def features(a, b):
    """Gaps of (a, b) and (b, a), NO_GAP for a missing one, and the
    simultaneous speech they share, at ``now``, by the scalar definitions."""
    gaps = [trp_gap_from_arrays(starts[x], starts[y], ends[y], now) for x, y in ((a, b), (b, a))]
    overlaps = simultaneous_speech(streams[a], streams[b], now)
    return [NO_GAP if g is None else g for g in gaps], overlaps


def describe(a, b):
    gaps, overlaps = features(a, b)
    gap = "none" if gaps[0] == NO_GAP else f"{gaps[0]} ms"
    return f"gap {gap}, overlap {'/'.join(str(w) for w in overlaps)} ms"


print(f"\nfeatures at t={now} ms")
print(f"  A vs B (same floor):  {describe(0, 1)}")
print(f"  A vs C (other floor): {describe(0, 2)}")

# partners time their turns around each other's completions, so the
# within-floor gap is small and the overlap low; strangers overlap
# freely and their gaps are arbitrary

instances = make_training_instances(
    streams, utterances, duration_ms=corpus.duration_ms
)
model = train(instances)
print(f"\ntrained on {len(instances)} instances")
print(f"priors: same {model.priors[0]:.3f}, diff {model.priors[1]:.3f}")

# the engine that training and the tracker read: the room's activity in,
# one row per participant, every ordered pair's bins at a batch of
# instants out, (a, b) for each pair in ``engine.pairs`` order, then (b, a)
engine = FeatureEngine(ids, utterance_views(utterances), model.binning)
engine.add_activity([streams[pid].window(0, now) for pid in ids])
bins = engine.binned([now])[0]
m = len(engine.pairs)


def pair_bins(a, b):
    """The engine's bins of (a, b) and (b, a) at ``now``."""
    k = engine.pairs.index((a, b))
    return bins[[k, m + k]]


# the engine bins exactly the values the scalar definitions give
for a, b in engine.pairs:
    gaps, overlaps = features(a, b)
    assert np.array_equal(pair_bins(a, b), model.binning.bin_array(gaps, [overlaps] * 2))


def p_same(model, a, b):
    """One probability per unordered pair: the mean of both directions."""
    return float(posterior_batch(model, pair_bins(a, b)).mean())


p_same_ab = p_same(model, 0, 1)
p_same_ac = p_same(model, 0, 2)
print(f"\nP(same floor) at t={now}")
print(f"  A,B: {p_same_ab:.3f}")
print(f"  A,C: {p_same_ac:.3f}")
assert p_same_ab > p_same_ac, "the within-floor pair should read likelier to share a floor"

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, str(path))
    back = load_model(str(path))
    assert abs(p_same(back, 0, 1) - p_same_ab) < 1e-12
    print(f"\nmodel round-trips through {path}")
