"""Offline audible renders: what each listener would have heard.

Each participant gets a fixed-frequency tone that sounds whenever
their corpus turns say they speak, the corpus is replayed to get the
configuration timeline, and the per-listener mixes are rendered with
the same gain ramps the live mixer uses. Same-floor voices
come through at full level, other floors sit at the background level,
so floor changes are directly audible as tones fading in and out.
"""

from __future__ import annotations

import os
import wave
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import Corpus
from .errors import UnsupportedFormatError
from .evaluation import ReplayResult, replay_corpus
from .learner import FloorModel
from .mixer import mix_timeline
from .assigner import FloorConfiguration, gains
from .transport import FRAME_SAMPLES, SAMPLE_RATE, SAMPLES_PER_MS

# roughly a C-major scale so concurrent voices stay tellable apart
TONE_FREQS_HZ = (262, 294, 330, 349, 392, 440, 494, 523, 587, 659)
TONE_AMPLITUDE = 0.35
TONE_EDGE_MS = 10


def write_wav(path: str, pcm: np.ndarray) -> None:
    data = np.asarray(pcm, dtype=np.int16)
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(data.tobytes())


def read_wav(path: str) -> np.ndarray:
    """Load mono 16-bit PCM at the native rate; anything else is rejected."""
    with wave.open(path, "rb") as wf:
        if wf.getnchannels() != 1:
            raise UnsupportedFormatError(
                f"{path}: expected mono, got {wf.getnchannels()} channels"
            )
        if wf.getsampwidth() != 2:
            raise UnsupportedFormatError(
                f"{path}: expected 16-bit samples, got {8 * wf.getsampwidth()}-bit"
            )
        if wf.getframerate() != SAMPLE_RATE:
            raise UnsupportedFormatError(
                f"{path}: expected {SAMPLE_RATE} Hz, got {wf.getframerate()}"
            )
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype=np.int16)


def _write_tones(track: np.ndarray, freq_hz: float, spans: List[Tuple[int, int]]) -> None:
    """Write a tone burst into ``track`` on every [a, b) span.

    Every burst starts at phase 0, so the sine and its rounding are
    computed once, as long as the longest burst; only the
    raised-cosine edges, which keep turn boundaries click-free, are
    computed per burst.
    """
    if not spans:
        return
    # in place, so one float array is alive: the operations and their
    # order are those of TONE_AMPLITUDE * 32767 * sin(2 pi f t / rate)
    sine = np.arange(max(b - a for a, b in spans), dtype=np.float64)
    sine *= 2.0 * np.pi * freq_hz
    sine /= SAMPLE_RATE
    np.sin(sine, out=sine)
    sine *= TONE_AMPLITUDE * 32767.0
    # TONE_AMPLITUDE < 1 and the edges only scale down, so no sample
    # leaves int16 and the rounded values need no clip
    level = np.rint(sine).astype(np.int16)
    for a, b in spans:
        n = b - a
        track[a:b] = level[:n]
        edge = min(TONE_EDGE_MS * SAMPLES_PER_MS, n // 2)
        if edge > 0:
            ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
            track[a : a + edge] = np.rint(sine[:edge] * ramp)
            track[b - edge : b] = np.rint(sine[n - edge : n] * ramp[::-1])


def tone_audio_for_corpus(corpus: Corpus) -> Dict[int, np.ndarray]:
    """Per-participant int16 tracks, a tone burst per labeled turn."""
    ids = corpus.ids
    n = corpus.duration_ms * SAMPLES_PER_MS
    tracks = {pid: np.zeros(n, dtype=np.int16) for pid in ids.values()}
    spans: Dict[int, List[Tuple[int, int]]] = {pid: [] for pid in ids.values()}
    for rec in corpus.records:
        a = rec.start_ms * SAMPLES_PER_MS
        b = min(rec.end_ms * SAMPLES_PER_MS, n)
        if b > a:
            spans[ids[rec.participant]].append((a, b))
    for pid, track in tracks.items():
        _write_tones(track, TONE_FREQS_HZ[pid % len(TONE_FREQS_HZ)], spans[pid])
    return tracks


def load_participant_tracks(corpus: Corpus, audio_dir: str) -> Dict[int, np.ndarray]:
    """One WAV per participant, named ``<participant>.wav`` in audio_dir.

    Tracks are zero-padded or truncated to the corpus duration so the
    mix walks every frame.
    """
    n = corpus.duration_ms * SAMPLES_PER_MS
    tracks: Dict[int, np.ndarray] = {}
    missing = []
    for name, pid in corpus.ids.items():
        path = os.path.join(audio_dir, f"{name}.wav")
        if not os.path.exists(path):
            missing.append(path)
            continue
        pcm = read_wav(path)
        if pcm.shape[0] < n:
            pcm = np.concatenate([pcm, np.zeros(n - pcm.shape[0], dtype=np.int16)])
        tracks[pid] = pcm[:n]
    if missing:
        raise FileNotFoundError(
            "missing participant audio: " + ", ".join(sorted(missing))
        )
    return tracks


def render_listener_mix(
    corpus: Corpus,
    result: ReplayResult,
    listener: int,
    tracks: Optional[Dict[int, np.ndarray]] = None,
) -> np.ndarray:
    """Render what one listener hears from the timeline of target gains.

    Each frame, the last one possibly partial, is mixed under the
    partition chosen at its start (singletons before the first choice),
    with the live mixer's ramp law, in array blocks.
    """
    if tracks is None:
        tracks = tone_audio_for_corpus(corpus)
    ids = sorted(corpus.ids.values())
    n = corpus.duration_ms * SAMPLES_PER_MS
    starts_ms = np.arange(0, n, FRAME_SAMPLES) // SAMPLES_PER_MS
    chosen = np.searchsorted(result.ticks, starts_ms, side="right") - 1
    # one gain row per distinct partition; before the first choice
    # (period -1) everyone is a singleton, numbered after the chosen ones
    codes, partitions = result.chosen_codes
    period_codes = np.concatenate([[len(partitions)], codes])
    me = ids.index(listener)
    singletons = tuple((pid,) for pid in ids)
    rows = np.array([gains(FloorConfiguration(p, 0.0), ids)[me]
                     for p in partitions + [singletons]])
    targets = rows[period_codes[chosen + 1]]
    return mix_timeline([tracks[pid][:n] for pid in ids], targets)


def mixdown_corpus(
    corpus: Corpus,
    model: FloorModel,
    out_dir: str,
    listeners: Optional[Sequence[str]] = None,
    tracks: Optional[Dict[int, np.ndarray]] = None,
    dwell_ms: int = 0,
) -> List[str]:
    """Replay a corpus and write one WAV per requested listener.

    Returns the written paths. ``listeners`` are corpus participant
    names, all of them by default; ``tracks`` default to synthesized
    tones.
    """
    ids = corpus.ids
    names = list(listeners) if listeners is not None else list(corpus.participants)
    for name in names:
        if name not in ids:
            raise UnsupportedFormatError(f"unknown participant {name!r}")
    result = replay_corpus(corpus, model, dwell_ms=dwell_ms)
    if tracks is None:
        tracks = tone_audio_for_corpus(corpus)
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for name in names:
        pcm = render_listener_mix(corpus, result, ids[name], tracks=tracks)
        path = os.path.join(out_dir, f"mix_{name}.wav")
        write_wav(path, pcm)
        written.append(path)
    return written
