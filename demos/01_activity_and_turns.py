"""
From raw microphone samples to turns at talk
============================================

Synthesizes a few seconds of 8 kHz audio with speech bursts over a
quiet noise bed and walks it as the live server does: each 20 ms frame
goes through the energy detector, and the 1 ms activity bits that come
out are fed to an online segmenter, which keeps the utterances so far.
"""

import numpy as np

from floorspace.segmenter import BRIDGE_GAP_MS, OnlineSegmenter
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


# a 5.2 s scene: quiet, one long burst, a pause, a burst broken by a
# 150 ms hesitation, then two bursts 350 ms apart. The detector holds
# nothing over a pause; the segmenter bridges one shorter than
# BRIDGE_GAP_MS (200 ms) and keeps a longer one as a change of turn.
scene = np.concatenate([
    silence(400),
    tone(900),
    silence(700),
    tone(500),
    silence(150),
    tone(340),
    silence(600),
    tone(400),
    silence(350),
    tone(400),
    silence(460),
])
noise = rng.normal(0.0, 30.0, scene.shape)  # around -61 dBFS
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

# raw speech runs: the detector's bits follow the tones to the frame
edges = np.flatnonzero(np.diff(np.concatenate([[0], bits.astype(np.int8), [0]])))
runs = list(zip(edges[::2].tolist(), edges[1::2].tolist()))
print("\nraw runs:")
for start, end in runs:
    print(f"  [{start:>5} ms, {end:>5} ms)  {end - start} ms")

# the segmenter bridges the hesitation, not the longer pause
turns = list(zip(*segmenter.view()))
print("\nsegmented utterances:")
for start, end in turns:
    print(f"  [{start:>5} ms, {end:>5} ms)  {end - start} ms")

assert runs == [(400, 1300), (2000, 2500), (2650, 2990), (3590, 3990), (4340, 4740)]
assert turns == [(400, 1300), (2000, 2990), (3590, 3990), (4340, 4740)]
print(f"\nthe {BRIDGE_GAP_MS} ms bridge joined the bursts around the 150 ms")
print("hesitation into one turn; the 350 ms pause still parts two turns")
