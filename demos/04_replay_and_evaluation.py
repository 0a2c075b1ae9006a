"""
Scoring the detector against ground truth it has never seen
===========================================================

Trains on one synthetic room and evaluates on a second one generated
from a different seed, including a mid-session regrouping: two side
conversations merge into one big floor at the halfway mark. Ends by
rendering what one listener would actually hear as a WAV file.
"""

import tempfile
from pathlib import Path

from floorspace import (
    GeneratorConfig,
    evaluate,
    generate,
    make_training_instances,
    partition_text,
    read_wav,
    train,
    write_report,
    write_timeline,
)
from floorspace.mixdown import render_listener_mix, tone_audio_for_corpus, write_wav

SPLIT = ((0, 1), (2, 3))
MERGED = ((0, 1, 2, 3),)

def room(seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        participants=4,
        duration_ms=240_000,
        schedule=[(0, SPLIT), (120_000, MERGED)],
        seed=seed,
    )

train_corpus = generate(room(7))
model = train(make_training_instances(
    train_corpus.streams(), train_corpus.utterances(),
    duration_ms=train_corpus.duration_ms,
))
print(f"trained on seed-7 room ({len(train_corpus.records)} turns)")

eval_corpus = generate(room(8))
report, result = evaluate(eval_corpus, model)
print(f"evaluated on seed-8 room ({len(eval_corpus.records)} turns)\n")
print(report.to_text())

print("\nfirst configuration changes:")
for ev in result.events[:5]:
    print(f"  @{ev.tick:>7} ms  -> {partition_text(ev.partition)}")

# the merge at 120 s shows up in the chosen timeline shortly after
for t, part in zip(result.ticks, result.chosen):
    if t > 120_000 and part == MERGED:
        print(f"\ndetector first adopts the merged floor at {t} ms "
              f"({t - 120_000} ms after truth changed)")
        break

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    write_report(str(out / "report.json"), report)
    write_timeline(str(out / "timeline.tsv"), result)
    print(f"report and per-period timeline written under {out}")

    # audible version, as `floorspace mixdown --tones` renders it: a tone
    # per speaker over their turns, mixed for listener A under the
    # replayed timeline
    tracks = tone_audio_for_corpus(eval_corpus)
    path = str(out / "mix_A.wav")
    write_wav(path, render_listener_mix(eval_corpus, result, eval_corpus.ids["A"], tracks))
    samples = read_wav(path)
    print(f"listener A mix: {path} ({len(samples) / 8000:.0f} s at 8000 Hz)")
