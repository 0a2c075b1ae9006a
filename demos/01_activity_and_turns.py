"""
From raw microphone samples to turns at talk
============================================

Synthesizes a few seconds of 8 kHz audio with speech bursts over a
quiet noise bed, runs the energy detector on it, and segments the
resulting 1 ms activity bits into utterances.
"""

import numpy as np

from floorspace import VadConfig, detect, segment
from floorspace.segmenter import speech_runs

SAMPLE_RATE = 8000
rng = np.random.default_rng(1)


def tone(duration_ms, freq=440.0, amplitude=6000):
    t = np.arange(duration_ms * SAMPLE_RATE // 1000)
    return amplitude * np.sin(2 * np.pi * freq * t / SAMPLE_RATE)


def silence(duration_ms):
    return np.zeros(duration_ms * SAMPLE_RATE // 1000)


# a 4 s scene: quiet, one long burst, a pause, then a burst broken by
# a 350 ms hesitation (long enough that the detector's 200 ms
# hangover cannot absorb it on its own)
scene = np.concatenate([
    silence(400),
    tone(900),
    silence(700),
    tone(500),
    silence(350),
    tone(340),
    silence(810),
])
noise = rng.normal(0.0, 30.0, scene.shape)  # around -55 dBFS
pcm = np.clip(scene + noise, -32768, 32767).astype(np.int16)

stream = detect(pcm, cfg=VadConfig())
bits = stream.window(0, 4000)
print(f"samples in: {len(pcm)}  activity ticks out: {len(bits)} (1 per ms)")
print(f"total speech: {int(bits.sum())} ms")

# raw speech runs, before any smoothing
raw = speech_runs(stream.bits)
print("\nraw runs:")
for start, end in raw:
    print(f"  [{start:>5} ms, {end:>5} ms)  {end - start} ms")

# the defaults bridge what is left of the hesitation
utterances = segment(stream)
print("\nsegmented utterances:")
for u in utterances:
    print(f"  [{u.start:>5} ms, {u.end:>5} ms)  {u.end - u.start} ms")

print("\nhangover already stretched each burst past the tone; the")
print("segmenter then absorbed the remaining gap, so the hesitation")
print("reads as one turn, not two")
