"""Span recorder for the traced run, and the wrappers that feed it.

Spans are recorded from outside the program: the benchmark replaces
public entry points of floorspace modules with thin wrappers that
note start, end and parent of every call. Where a module imports a
function by name from another, the wrapper is installed under that
name in the calling module, because that is the name the call goes
through.

A span is recorded only under a root span. Roots are the workload's
own operations (one evaluate, one training run, one frame pump, one
control request handled by the server); calls the benchmark makes as
a client, such as packetizing the audio it sends, run outside any
root and are not attributed to the program. Spans of one frame or
one evaluation period share a group id. Spans are held in memory in
flat arrays and written out once, at the end.

Self time is a span's duration minus the time its direct children
cover; calls on one thread nest, so children never overlap and the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.group = array("q")
        self.start = array("d")
        self.end = array("d")
        self.root_kind = array("b")  # 1 for roots of the timed section, 0 otherwise
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.first_assign_ms: Dict[Tuple[int, ...], float] = {}
        self.timed = False  # roots count toward layer totals only while True

    # -- recording --

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.group = -1
            self._local.frame = False
        return st

    def set_group(self, group: int, frame: bool = False) -> None:
        """Group id of the spans that follow; a frame's id holds until ``end_frame``."""
        self._stack()
        if frame or not self._local.frame:
            self._local.group = group
        self._local.frame = self._local.frame or frame

    def end_frame(self) -> None:
        self._stack()
        self._local.frame = False
        self._local.group = -1

    def count(self, name: str, value: float = 1) -> None:
        if not self.timed:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _open(self, name: str, root: bool) -> int:
        stack = self._stack()
        if not root and not stack:
            return -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.group.append(self._local.group)
            self.root_kind.append(1 if (root and not stack and self.timed) else 0)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        if idx < 0:
            return
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn: Callable, name: str, root: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """Wrapped ``fn`` recording a span per call; ``after(args, kwargs, result, ms)`` counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if idx >= 0 and after is not None:
                after(args, kwargs, result, 1000.0 * (rec.end[idx] - rec.start[idx]))
            return result

        return traced

    # -- analysis --

    def arrays(self) -> Dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n].copy(),
            "group": np.frombuffer(self.group, dtype=np.int64)[:n].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[:n].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[:n].copy(),
            "root_kind": np.frombuffer(self.root_kind, dtype=np.int8)[:n].copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls and self time (ms) under roots of the timed section."""
        a = self.arrays()
        return summarize(a, self.names)

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Duration minus the time direct children cover, per span."""
    child = np.zeros(len(dur))
    has = parent >= 0
    if has.any():
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of the root span above every span (spans are in open order)."""
    root = np.arange(len(parent))
    for i in range(len(parent)):
        p = parent[i]
        if p >= 0:
            root[i] = root[p]
    return root


def summarize(a: Dict[str, np.ndarray], names: List[str]) -> Dict[str, Dict[str, float]]:
    dur = a["end"] - a["start"]
    selfs = self_times(a["parent"], dur)
    root = root_of(a["parent"])
    counted = a["root_kind"][root] == 1
    out: Dict[str, Dict[str, float]] = {}
    for nid, name in enumerate(names):
        sel = counted & (a["name_id"] == nid)
        if not sel.any():
            continue
        out[name] = {
            "calls": int(sel.sum()),
            "self_ms": float(1000.0 * selfs[sel].sum()),
            "total_ms": float(1000.0 * dur[sel].sum()),
        }
    roots = counted & (a["parent"] < 0)
    out["<roots>"] = {
        "calls": int(roots.sum()),
        "self_ms": float(1000.0 * selfs[roots].sum()),
        "total_ms": float(1000.0 * dur[roots].sum()),
    }
    return out


def _patch(obj, attr: str, replacement, undo: List[Tuple[object, str, object]]) -> None:
    undo.append((obj, attr, getattr(obj, attr)))
    setattr(obj, attr, replacement)


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap floorspace entry points; returns a function that removes the wrappers."""
    import floorspace.assigner as assigner
    import floorspace.corpus as corpus
    import floorspace.evaluation as evaluation
    import floorspace.learner as learner
    import floorspace.mixdown as mixdown
    import floorspace.mixer as mixer
    import floorspace.segmenter as segmenter
    import floorspace.server as server
    import floorspace.transport as transport
    import floorspace.vad as vad

    undo: List[Tuple[object, str, object]] = []
    bell = _bell_numbers(12)

    def count_assign(args, kwargs, result, ms):
        participants = args[2] if len(args) > 2 else kwargs["participants"]
        ids = tuple(sorted(participants))
        self_ = args[0]
        if ids not in rec.first_assign_ms:
            rec.first_assign_ms[ids] = ms
        if self_.pinned is None:
            rec.count("assigner.partitions_scored", bell[len(ids)])

    def count_posterior(args, kwargs, result, ms):
        rec.count("learner.posterior_batch.rows", len(result))

    def count_instances(args, kwargs, result, ms):
        rec.count("learner.instances", len(result))

    def count_bits(args, kwargs, result, ms):
        rec.count("vad.bits", len(result))
        rec.count("vad.speech_bits", int(np.count_nonzero(result)))

    def group_period(fn):
        # spans of one evaluation period share the period tick as group id
        @functools.wraps(fn)
        def traced(self_, t, *a, **k):
            rec.set_group(int(t))
            return fn(self_, t, *a, **k)
        return traced

    tracker = evaluation.FloorTracker
    # entry points a workload calls directly open a root span
    roots = [
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "replay_corpus", "evaluation.replay_corpus", None),
        (learner, "make_training_instances", "learner.make_training_instances",
         count_instances),
        (learner, "train", "learner.train", None),
        (mixdown, "render_listener_mix", "mixdown.render_listener_mix", None),
        (mixdown, "tone_audio_for_corpus", "mixdown.tone_audio", None),
    ]
    for obj, attr, name, after in roots:
        _patch(obj, attr, rec.wrap(getattr(obj, attr), name, root=True, after=after), undo)
    patches = [
        (tracker, "add_activity", "evaluation.add_activity", None),
        (tracker, "process_due", "evaluation.process_due", None),
        (tracker, "__init__", "evaluation.tracker_init", None),
        (evaluation, "trp_gap_from_arrays", "features.trp_gap", None),
        (learner, "trp_gap_from_arrays", "features.trp_gap", None),
        (learner, "simultaneous_speech", "features.simultaneous_speech", None),
        (evaluation, "posterior_batch", "learner.posterior_batch", count_posterior),
        (assigner.FloorAssigner, "assign", "assigner.assign", count_assign),
        (server, "gains", "assigner.gains", None),
        (mixdown, "gains", "assigner.gains", None),
        (corpus.Corpus, "streams", "corpus.streams", None),
        (corpus.Corpus, "utterances", "corpus.utterances", None),
        (mixer.Mixer, "mix_frame", "mixer.mix_frame", None),
        (transport, "encode_ulaw", "ulaw.encode", None),
        (transport, "decode_ulaw", "ulaw.decode", None),
        (transport.Packetizer, "packetize", "transport.packetize", None),
        (transport.JitterBuffer, "push", "transport.jitter_push", None),
        (transport.JitterBuffer, "pop", "transport.jitter_pop", None),
        (vad.VoiceActivityDetector, "frame_bits", "vad.frame_bits", count_bits),
        (segmenter.OnlineSegmenter, "feed", "segmenter.feed", None),
        (segmenter.OnlineSegmenter, "view", "segmenter.view", None),
    ]
    for obj, attr, name, after in patches:
        _patch(obj, attr, rec.wrap(getattr(obj, attr), name, after=after), undo)
    pp = rec.wrap(tracker.pair_posteriors, "evaluation.pair_posteriors")
    _patch(tracker, "pair_posteriors", group_period(pp), undo)
    # the live server's entry points are roots: they run on the pump
    # thread and on the server's receive threads
    srv = server.RealtimeServer
    frames = itertools.count()
    traced_pump = rec.wrap(srv.pump_once, "server.pump_once", root=True)

    @functools.wraps(srv.pump_once)
    def pump_once(self_):
        # spans of one frame share the frame's number as group id
        rec.set_group(next(frames), frame=True)
        try:
            return traced_pump(self_)
        finally:
            rec.end_frame()

    _patch(srv, "pump_once", pump_once, undo)
    _patch(srv, "_handle_control",
           rec.wrap(srv._handle_control, "server.control", root=True), undo)
    _patch(srv, "_handle_audio",
           rec.wrap(srv._handle_audio, "server.audio_rx", root=True), undo)

    def remove() -> None:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return remove


def _bell_numbers(n: int) -> List[int]:
    """Bell numbers B(0)..B(n) by the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out
