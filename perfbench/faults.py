"""Faults the benchmark's own tests inject, to show that its checks catch them.

``wrong-partition`` makes every seventh floor decision return a
covering but non-optimal partition; ``drop-frame`` makes the server
skip one listener's mix every hundredth frame.
"""

from __future__ import annotations

import functools
import itertools

from floorspace.assigner import FloorAssigner, FloorConfiguration, score
from floorspace.server import RealtimeServer


def inject(kind: str) -> None:
    if kind == "wrong-partition":
        original = FloorAssigner.assign
        calls = itertools.count()

        @functools.wraps(original)
        def assign(self, posteriors, participants, now_ms=None):
            cfg = original(self, posteriors, participants, now_ms=now_ms)
            if next(calls) % 7:
                return cfg
            ids = tuple(sorted(participants))
            singletons = tuple((m,) for m in ids)
            other = (ids,) if cfg.partition == singletons else singletons
            return FloorConfiguration(other, score(other, posteriors))

        FloorAssigner.assign = assign
    elif kind == "drop-frame":
        original = RealtimeServer._send_mixes
        calls = itertools.count()

        @functools.wraps(original)
        def send_mixes(self, sessions, popped, config):
            if next(calls) % 100 or not sessions:
                return original(self, sessions, popped, config)
            victim = sessions[0]
            addr, victim.audio_addr = victim.audio_addr, None
            try:
                return original(self, sessions, popped, config)
            finally:
                victim.audio_addr = addr

        RealtimeServer._send_mixes = send_mixes
    else:
        raise ValueError(f"unknown fault {kind!r}")
