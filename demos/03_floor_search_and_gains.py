"""
From pairwise probabilities to a seating chart
==============================================

The classifier only ever judges pairs. Turning six pairwise verdicts
into one room layout means scoring every way to split four people
into groups and keeping the best. This script walks that search by
hand, then shows the gain matrix the winner implies and what pinning
does to the search.
"""

from floorspace import FloorAssigner, enumerate_partitions, gains, score

ids = (0, 1, 2, 3)
candidates = enumerate_partitions(ids)
print(f"{len(candidates)} candidate configurations for 4 people "
      "(the Bell number B4 = 15)")

# pairwise P(same floor): 0+1 clearly together, 2+3 clearly together,
# everything across the aisle near zero
posteriors = {
    (0, 1): 0.95,
    (0, 2): 0.10,
    (0, 3): 0.05,
    (1, 2): 0.08,
    (1, 3): 0.12,
    (2, 3): 0.90,
}

print("\nevery candidate, scored:")
ranked = sorted(candidates, key=lambda p: score(p, posteriors), reverse=True)
for part in ranked:
    label = " | ".join(",".join(str(m) for m in b) for b in part)
    print(f"  {score(part, posteriors):.4f}  {label}")

# one decision per 30 ms evaluation period, each at its time in ms
assigner = FloorAssigner()
cfg = assigner.assign(posteriors, ids, now_ms=30)
print(f"\nassigner picks {cfg.partition} with score {cfg.score:.4f}")

gm = gains(cfg, ids)
print("\ngain matrix (rows = listener, cols = speaker):")
for listener, row in zip(sorted(ids), gm):
    print(f"  {listener}: " + "  ".join(f"{g:.1f}" for g in row))
print("floor-mates at 1.0, the other conversation at 0.2, self muted")

# a pin freezes the layout no matter what the probabilities say
assigner.pin([(0, 2), (1, 3)], owner=0, participants=ids)
pinned = assigner.assign(posteriors, ids, now_ms=60)
print(f"\npinned: assigner now returns {pinned.partition} "
      f"(score {pinned.score:.4f}, ignored)")

try:
    assigner.unpin(owner=3)
except Exception as exc:
    print(f"participant 3 cannot release it: {exc}")
assigner.unpin(owner=0)
after = assigner.assign(posteriors, ids, now_ms=90)
print(f"unpinned by its owner, the search resumes: {after.partition}")
