"""Offline audible renders: what a listener would have heard.

The pieces of ``floorspace mixdown``. Each participant's track is
either their recorded WAV (``load_participant_tracks``) or a
fixed-frequency tone that sounds whenever their corpus turns say they
speak (``tone_audio_for_corpus``; one period of the tone, repeated, see
``_write_tones``). Given the configuration timeline of a replay,
``render_listener_mix`` renders one listener's mix with the same gain
ramps the live mixer uses. Same-floor voices come through at full
level, other floors sit at the background level, so floor changes are
directly audible as tones fading in and out.
"""

from __future__ import annotations

import os
import wave
from math import gcd
from typing import Dict, List, Tuple

import numpy as np

from .corpus import Corpus
from .errors import UnsupportedFormatError
from .evaluation import ReplayResult
from .mixer import mix_timeline
from .assigner import FloorConfiguration, gains
from .transport import FRAME_SAMPLES, SAMPLE_RATE, SAMPLES_PER_MS

# roughly a C-major scale so concurrent voices stay tellable apart
TONE_FREQS_HZ = (262, 294, 330, 349, 392, 440, 494, 523, 587, 659)
TONE_AMPLITUDE = 0.35
TONE_EDGE_MS = 10


def write_wav(path: str, pcm: np.ndarray) -> None:
    data = np.asarray(pcm, dtype=np.int16)
    # opened here, not by ``wave``: a writer that fails to open its path
    # fails again as it is collected, past the caller's error
    with open(path, "wb") as f, wave.open(f, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(data.tobytes())


# the sample count ``wave`` reads from the 0xFFFFFFFF data size that a
# streaming writer leaves in a header it never came back to fill in
_STREAMED_FRAMES = 0xFFFFFFFF // 2


def read_wav(path: str) -> np.ndarray:
    """Load mono 16-bit PCM at the native rate; anything else is rejected,
    as is a file whose data holds fewer samples than its header declares,
    unless the header carries a streaming writer's placeholder size."""
    try:
        wf = wave.open(path, "rb")
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends in its header
        raise UnsupportedFormatError(f"{path}: not a WAV file: {str(exc) or 'cut short'}") from exc
    with wf:
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
        declared = wf.getnframes()
        raw = wf.readframes(declared)
    if len(raw) % 2:
        raise UnsupportedFormatError(f"{path}: not a WAV file: cut short mid-sample")
    if len(raw) // 2 < declared and declared != _STREAMED_FRAMES:
        raise UnsupportedFormatError(
            f"{path}: cut short: its header declares {declared} samples,"
            f" its data holds {len(raw) // 2}"
        )
    return np.frombuffer(raw, dtype=np.int16)


def _tone(t: np.ndarray, freq_hz: int) -> np.ndarray:
    """TONE_AMPLITUDE * 32767 * sin(2 pi f t / rate) at the sample
    numbers ``t``, by these operations in this order, on one array."""
    x = t.astype(np.float64)
    x *= 2.0 * np.pi * freq_hz
    x /= SAMPLE_RATE
    np.sin(x, out=x)
    x *= TONE_AMPLITUDE * 32767.0
    return x


def _write_tones(track: np.ndarray, freq_hz: int, spans: List[Tuple[int, int]]) -> None:
    """Write a tone burst into ``track`` on every [a, b) span.

    Every burst starts at phase 0. The tone repeats every
    P = SAMPLE_RATE / gcd(f, SAMPLE_RATE) samples (at most 8 000; 200 at
    440 Hz), so ``_tone`` is computed and rounded over one period and
    laid along the longest burst. That equals a sine computed afresh for
    each burst wherever the value computed at t rounds like the one
    computed at t mod P. They differ by the roundings of the argument
    2 pi f t / rate, about 3e-12 * t after scaling (7.7e-6 at 600 s),
    while the period sample nearest a rounding boundary x.5 lies 1.64e-4
    from it: only a turn of about two hours could round otherwise. Only
    the raised-cosine edges, which keep turn boundaries click-free, are
    computed per burst, the tails from their own sample numbers; the
    ramp and the head of each fade length are built once per track.
    """
    if not spans:
        return
    longest = max(b - a for a, b in spans)
    period = SAMPLE_RATE // gcd(freq_hz, SAMPLE_RATE)
    edge = TONE_EDGE_MS * SAMPLES_PER_MS
    # one period, and at least one edge for the heads, up to the longest burst
    sine = _tone(np.arange(min(max(period, edge), longest)), freq_hz)
    # TONE_AMPLITUDE < 1 and the edges only scale down, so no sample
    # leaves int16 and the rounded values need no clip
    level = np.resize(np.rint(sine[:period]).astype(np.int16), longest)
    fades: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for a, b in spans:
        n = b - a
        track[a:b] = level[:n]
        fade = min(edge, n // 2)
        if fade > 0:
            if fade not in fades:
                ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
                fades[fade] = ramp[::-1], np.rint(sine[:fade] * ramp)
            fall, head = fades[fade]
            track[a : a + fade] = head
            track[b - fade : b] = np.rint(_tone(np.arange(n - fade, n), freq_hz) * fall)


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
    tracks: Dict[int, np.ndarray],
) -> np.ndarray:
    """Render what one listener hears of ``tracks`` from the timeline of
    target gains.

    Each frame, the last one possibly partial, is mixed under the
    partition chosen at its start (singletons before the first choice),
    with the live mixer's ramp law, in array blocks.
    """
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
