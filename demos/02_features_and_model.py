"""
What turn-taking timing says about who talks with whom
======================================================

Builds a small synthetic room with two conversations running side by
side, reads the two pairwise timing features at one instant from the
feature engine, then trains the classifier and compares its verdicts
for a within-floor pair and a cross-floor pair.
"""

import tempfile
from pathlib import Path

from floorspace import (
    GeneratorConfig,
    generate,
    load_model,
    make_training_instances,
    save_model,
    train,
)
from floorspace.features import NO_GAP, FeatureBinning, FeatureEngine, utterance_views
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

# the engine the tracker and training use: the room's activity in, one
# row per participant, every pair's features at a batch of instants out,
# over the default binning's windows
now = 120_000
engine = FeatureEngine(ids, utterance_views(utterances), FeatureBinning())
engine.add_activity([streams[pid].window(0, now) for pid in ids])
raw = engine.raw([now])
pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]


def features(a, b):
    """Gaps of (a, b) and (b, a), and the overlaps they share, at ``now``."""
    k, m = pairs.index((a, b)), len(pairs)
    return raw.gaps[0, [k, m + k]], raw.overlaps[0, [k, k]]


def describe(a, b):
    gaps, overlaps = features(a, b)
    gap = "none" if gaps[0] == NO_GAP else f"{gaps[0]} ms"
    return f"gap {gap}, overlap {'/'.join(str(w) for w in overlaps[0])} ms"


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


def p_same(model, a, b):
    """One probability per unordered pair: the mean of both directions."""
    bins = model.binning.bin_array(*features(a, b))
    return float(posterior_batch(model, bins).mean())


p_same_ab = p_same(model, 0, 1)
p_same_ac = p_same(model, 0, 2)
print(f"\nP(same floor) at t={now}")
print(f"  A,B: {p_same_ab:.3f}")
print(f"  A,C: {p_same_ac:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, str(path))
    back = load_model(str(path))
    assert abs(p_same(back, 0, 1) - p_same_ab) < 1e-12
    print(f"\nmodel round-trips through {path}")
