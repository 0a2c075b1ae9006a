"""
From raw microphone samples to turns at talk
============================================

Synthesizes a few seconds of 8 kHz audio with speech bursts over a
quiet noise bed and walks it as the live server does: each 20 ms frame
goes through the energy detector, and the 1 ms activity bits that come
out are fed to an online segmenter, which keeps the utterances so far.
"""

import numpy as np

from floorspace.segmenter import OnlineSegmenter
from floorspace.transport import FRAME_MS, FRAME_SAMPLES, SAMPLE_RATE
from floorspace.vad import VoiceActivityDetector, room_frame_bits

rng = np.random.default_rng(1)


def tone(duration_ms, freq=440.0, amplitude=6000):
    t = np.arange(duration_ms * SAMPLE_RATE // 1000)
    return amplitude * np.sin(2 * np.pi * freq * t / SAMPLE_RATE)


def silence(duration_ms):
    return np.zeros(duration_ms * SAMPLE_RATE // 1000)


def spans(starts, ends):
    return ", ".join(f"[{s}, {e})" for s, e in zip(starts, ends)) or "none"


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

# one participant: a room of one detector, one row of samples per frame
detector = VoiceActivityDetector()
segmenter = OnlineSegmenter(participant=0)
frames = []
print("utterances known as the frames arrive:")
for start in range(0, len(pcm), FRAME_SAMPLES):
    bits = room_frame_bits([detector], pcm[None, start : start + FRAME_SAMPLES])[0]
    segmenter.feed(bits)
    frames.append(bits)
    now = len(frames) * FRAME_MS
    if now % 500 == 0:
        print(f"  at {now:>4} ms: {spans(*segmenter.view())}")

bits = np.concatenate(frames)
print(f"\nsamples in: {len(pcm)}  activity ticks out: {len(bits)} (1 per ms)")
print(f"total speech: {int(bits.sum())} ms")

# raw speech runs, before any smoothing
edges = np.flatnonzero(np.diff(np.concatenate([[0], bits.astype(np.int8), [0]])))
print("\nraw runs:")
for start, end in zip(edges[::2], edges[1::2]):
    print(f"  [{start:>5} ms, {end:>5} ms)  {end - start} ms")

# the segmenter bridges what is left of the hesitation
print("\nsegmented utterances:")
for start, end in zip(*segmenter.view()):
    print(f"  [{start:>5} ms, {end:>5} ms)  {end - start} ms")

print("\nhangover already stretched each burst past the tone; the")
print("segmenter then absorbed the remaining gap, so the hesitation")
print("reads as one turn, not two")
