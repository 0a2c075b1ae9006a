"""The live room decides like replay: train/serve parity through the audio path.

Replay reads a corpus's clean activity bits and its turn records; the
live room reads the VAD's bits from audio and the online segmenter's
turns. This plays a corpus as tones with hiss through an in-process
room and counts the periods whose partition equals replay's at the
same tick. Any change to a VAD constant is judged by this fraction.
"""

import numpy as np
import pytest

from floorspace.corpus import GeneratorConfig, generate
from floorspace.evaluation import replay_corpus
from floorspace.server import RealtimeServer, ServerConfig
from floorspace.transport import FRAME_MS, FRAME_SAMPLES, Packetizer

DURATION_MS = 120_000
FROM_MS = 30_000  # past the first features' windows


class DroppedDatagrams:
    """Stands in for the server's audio socket and sends nothing."""

    def sendto(self, data, addr):
        return len(data)


def parity_corpus(n, seed):
    """Pairs, then halves, then one floor, in thirds of the corpus."""
    pairs = tuple((i, i + 1) for i in range(0, n, 2))
    halves = (tuple(range(n // 2)), tuple(range(n // 2, n)))
    third = DURATION_MS // 3
    return generate(GeneratorConfig(
        participants=n, duration_ms=DURATION_MS, seed=seed,
        schedule=[(0, pairs), (third, halves), (2 * third, (tuple(range(n)),))]))


def live_agreement(model, periods, n, seed):
    """The share of periods from FROM_MS whose live partition is replay's."""
    corpus = parity_corpus(n, seed)
    replay = replay_corpus(corpus, model)
    streams = corpus.streams()
    # member i speaks a tone of its own wherever the corpus has it speak,
    # over a hiss of its own level
    rng = np.random.default_rng(seed)
    t = np.arange(DURATION_MS * FRAME_SAMPLES // FRAME_MS)
    pcm = np.empty((n, t.size), dtype=np.int16)
    for i in range(n):
        mask = np.repeat(streams[i].bits, FRAME_SAMPLES // FRAME_MS)
        tone = 9000 * np.sin(2 * np.pi * (300 + 45 * i) * t / 8000)
        hiss = rng.normal(0.0, 8.0 + 2.0 * i, t.size)
        pcm[i] = np.clip(np.rint(tone * mask + hiss), -32768, 32767)

    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=model)
    sock, srv.audio_sock = srv.audio_sock, DroppedDatagrams()
    packetizers = [Packetizer(ssrc=100 + i) for i in range(n)]
    try:
        for i in range(n):
            srv._join(f"p{i}", 100 + i, ("127.0.0.1", 9000 + i))
        while srv.tick < DURATION_MS:
            lo = srv.tick * FRAME_SAMPLES // FRAME_MS
            for i in range(n):
                packet = packetizers[i].packetize(pcm[i, lo:lo + FRAME_SAMPLES])
                srv._handle_audio(packet.to_bytes(), ("127.0.0.1", 7000 + i))
            srv.pump_once()
        live = periods[srv.tracker]
    finally:
        srv.audio_sock = sock
        srv.stop()

    chosen = dict(zip(replay.ticks.tolist(), replay.chosen))
    pairs = [(c.partition, chosen[t]) for t, c in zip(live.ticks, live.configs)
             if t >= FROM_MS and t in chosen]
    # both decide on the same 30 ms grid, so nearly every period pairs up
    assert len(pairs) > (DURATION_MS - FROM_MS) // 40
    return sum(a == b for a, b in pairs) / len(pairs)


# the fraction measured with the VAD's constants, rounded down
@pytest.mark.parametrize("n, seed, measured", [(4, 5, 0.71), (10, 5, 0.65)])
def test_the_live_room_decides_like_replay(floor_model, periods, n, seed, measured):
    """Known cause of the disagreement: the VAD's 200 ms hangover
    (``vad.HANGOVER_MS``) lengthens every turn, so a same-floor handoff
    reads as overlap and the room regroups where replay does not
    (ROADMAP item 8). Raise the bound when a change closes the gap."""
    assert live_agreement(floor_model, periods, n, seed) >= measured
