"""Real-time audio space server: UDP audio in, per-listener mixes out.

Two sockets. The audio port speaks the 12-byte-header packet format
from transport; the control port speaks small length-prefixed JSON
messages (join, leave, pin, unpin, status, and the clock-sync
exchange the server initiates). Each client session owns its jitter
buffer, voice activity detector, online segmenter, and measured
clock offset; a single pump advances the shared timeline one
transport frame (FRAME_MS, 20 ms) at a time: drain arrivals, pop one
frame per session and decode them together, hand the room's VAD bits
to the floor tracker as one block, re-evaluate the floor
configuration on its own EVAL_PERIOD_MS (30 ms) grid, then mix every
listener's return frame in one ``Mixer.mix_frame`` call at the fixed
NORMAL_GAIN / QUIET_GAIN levels, encode them together and send each.
The frame, the period and the gains are constants, not
``ServerConfig`` fields.

The room has one ``FloorTracker`` from its first member until it
empties. A join or leave on the control thread only edits the session
table and replies at once. The pump makes the tracker and the mixer
follow the table at the top of its next frame, on its own thread; a
pin or unpin that comes first does so before it uses the tracker. A
status reads the table and the tracker's last floors as they stand,
so it never changes the tracker. Only the pump advances the tick, so
each change applies at the tick it arrived at. Membership changes in
place, so the assigner's previous choice, search caches and counters
carry across it, while a pin dissolves; until the next period the
mixes follow the last floors, less whoever left, with a joiner alone.

What the room keeps does not grow with the time it is open: the
tracker keeps only its last period, and after each frame every
session's segmenter forgets the turns no later period can read
(``FloorTracker.oldest_needed``). ``events``, one entry per
configuration change, is the exception.

The pump is callable directly (pump_once) so tests and the replay
path can drive time without a wall clock; serve() runs it paced.

Activity joins the shared timeline at jitter-buffer playout, so all
streams are already expressed on the server clock when features see
them; the measured per-client offsets are kept on the session for
diagnostics and log timestamps rather than re-timing audio.
"""

from __future__ import annotations

import json
import logging
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .assigner import (
    FloorAssigner,
    FloorConfiguration,
    Partition,
    build_scorers,
    canonical_partition,
    check_dwell,
    gains,
)
from .errors import CapacityError, ConfigError, FloorspaceError, PacketFormatError
from .evaluation import ConfigurationEvent, FloorTracker
from .learner import FloorModel, load_model
from .mixer import Mixer
from .segmenter import OnlineSegmenter
from .timeline import ActivityStream, MAX_PARTICIPANTS
from .transport import (
    AudioPacket,
    FRAME_MS,
    SAMPLE_RATE,
    JitterBuffer,
    Packetizer,
    check_payload,
    decode_room,
    encode_room,
    estimate_clock_offset,
    ClockOffset,
)
from .vad import VadConfig, VoiceActivityDetector, room_frame_bits

log = logging.getLogger("floorspace.server")

_LEN = struct.Struct(">I")
MAX_CONTROL_BYTES = 64 * 1024
INBOX_FRAMES = 64
# control messages that act for a session, and the field naming it: they
# count only from the control address that session joined from
SESSION_FIELD = {"leave": "name", "pin": "owner", "unpin": "owner", "sync_response": "name"}


def encode_message(msg: dict) -> bytes:
    body = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


def decode_message(data: bytes) -> dict:
    if len(data) < _LEN.size:
        raise PacketFormatError(f"control message too short: {len(data)} bytes")
    (n,) = _LEN.unpack_from(data)
    if n > MAX_CONTROL_BYTES or len(data) != _LEN.size + n:
        raise PacketFormatError(
            f"control length prefix {n} does not match body of "
            f"{len(data) - _LEN.size} bytes"
        )
    try:
        msg = json.loads(data[_LEN.size :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested thousands deep fit in the size limit
        raise PacketFormatError(f"control message is not valid JSON: {exc}") from exc
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        raise PacketFormatError("control message must be an object with a type")
    return msg


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    audio_port: int = 46000
    control_port: int = 46001
    model_path: Optional[str] = None
    max_participants: int = MAX_PARTICIPANTS
    jitter_depth_ms: int = 60
    dwell_ms: int = 0
    sync_interval_s: float = 10.0
    vad: VadConfig = field(default_factory=VadConfig)

    def __post_init__(self):
        if not 1 <= self.max_participants <= MAX_PARTICIPANTS:
            raise CapacityError(
                f"max_participants must be in [1, {MAX_PARTICIPANTS}]"
            )
        # rejected here, not at the first join, where the client gets the blame
        if self.jitter_depth_ms < FRAME_MS:
            raise ConfigError(f"jitter_depth_ms must hold at least one frame ({FRAME_MS} ms)")
        for name in ("audio_port", "control_port"):
            if not 0 <= getattr(self, name) <= 65535:
                raise ConfigError(f"{name} must be in [0, 65535]")
        # both are first read by the pump, where a bad value ends the room
        check_dwell(self.dwell_ms)
        sync = self.sync_interval_s
        if isinstance(sync, bool) or not isinstance(sync, (int, float)) or not sync >= 0:
            raise ConfigError(
                f"sync_interval_s must be a non-negative number of seconds, got {sync!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ServerConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise FloorspaceError(
                f"unknown server config fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        try:
            if "vad" in kwargs:
                # anything but an object fails here, not in __post_init__
                kwargs["vad"] = VadConfig(**kwargs["vad"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise FloorspaceError(f"bad server config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ServerConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class ClientSession:
    def __init__(
        self,
        name: str,
        participant: int,
        ssrc: int,
        control_addr: Tuple[str, int],
        cfg: ServerConfig,
        start_tick: int,
    ):
        self.name = name
        self.participant = participant
        self.ssrc = ssrc
        self.control_addr = control_addr
        self.audio_addr: Optional[Tuple[str, int]] = None
        self.inbox: Deque[AudioPacket] = deque()
        self.overload_drops = 0
        self.jitter = JitterBuffer(depth_ms=cfg.jitter_depth_ms)
        self.vad = VoiceActivityDetector(cfg.vad)
        # both start at the joining tick; earlier ticks read as silence
        self.segmenter = OnlineSegmenter(participant, start_tick)
        # the tick and VAD bits of the session's last frame
        self.last_frame: Tuple[int, np.ndarray] = (start_tick, np.zeros(0, dtype=bool))
        self.packetizer = Packetizer(ssrc=ssrc ^ 0xFFFFFFFF)
        self.clock: Optional[ClockOffset] = None
        self.pending_sync_t1: Optional[int] = None

    @property
    def stream(self) -> ActivityStream:
        """The last frame's VAD bits as a stream.

        The pump feeds the room's tracker directly; this stays for readers
        outside the server, the live golden test and perfbench's
        retained-state count.
        """
        tick, bits = self.last_frame
        return ActivityStream(self.participant, tick, bits)

    def push_packet(self, pkt: AudioPacket) -> None:
        if len(self.inbox) >= INBOX_FRAMES:
            self.inbox.popleft()
            self.overload_drops += 1
        self.inbox.append(pkt)


class RealtimeServer:
    def __init__(self, cfg: ServerConfig, model: Optional[FloorModel] = None):
        if model is None:
            if cfg.model_path is None:
                raise FloorspaceError("a model (or model_path) is required")
            model = load_model(cfg.model_path)
        self.cfg = cfg
        self.model = model
        self.sessions: Dict[str, ClientSession] = {}
        self._by_ssrc: Dict[int, ClientSession] = {}
        self.tracker: Optional[FloorTracker] = None
        # the session each tracker member stands for, and whether the
        # session table (or the room's emptying) has changed since
        self._members: Dict[int, ClientSession] = {}
        self._table_changed = False
        self._emptied = False
        self.events: List[ConfigurationEvent] = []
        self.tick = 0
        self._mixer = Mixer()
        build_scorers(cfg.max_participants)
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._last_sync = 0.0
        self.control_rejects = 0
        self.audio_rejects = 0
        self.overruns = 0  # paced pumps that started a whole frame or more late
        # the last gain matrix sent with, and the (partition, ids) it is for
        self._gains_key: Optional[Tuple[Partition, Tuple[int, ...]]] = None
        self._gains: Optional[np.ndarray] = None

        self.audio_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.control_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.audio_sock.bind((cfg.host, cfg.audio_port))
            self.control_sock.bind((cfg.host, cfg.control_port))
        except BaseException:
            # a failed bind must not hold the other port or leak either socket
            self.audio_sock.close()
            self.control_sock.close()
            raise
        self.audio_addr = self.audio_sock.getsockname()
        self.control_addr = self.control_sock.getsockname()
        self._threads: List[threading.Thread] = []

    # ---- membership ----

    def _join(self, name: str, ssrc: int, addr: Tuple[str, int]) -> dict:
        # the packet header carries a 32-bit SSRC; no packet reaches any other
        if not 0 <= ssrc < 1 << 32:
            return {"type": "error", "message": f"ssrc {ssrc} outside [0, 2**32)"}
        with self._lock:
            if name in self.sessions:
                existing = self.sessions[name]
                if existing.ssrc != ssrc:
                    return {"type": "error", "message": f"name {name!r} already joined"}
                if existing.control_addr != addr:
                    self.control_rejects += 1
                    log.debug("rejoin of %s from %s rejected", name, addr)
                    return {
                        "type": "error",
                        "message": f"rejoin of {name!r} must come from that "
                        "participant's control address",
                    }
                return self._joined_reply(existing)
            if len(self.sessions) >= self.cfg.max_participants:
                return {
                    "type": "error",
                    "message": f"room is full ({self.cfg.max_participants})",
                }
            if ssrc in self._by_ssrc:
                return {"type": "error", "message": f"ssrc {ssrc} already in use"}
            used = {s.participant for s in self.sessions.values()}
            participant = min(set(range(self.cfg.max_participants)) - used)
            session = ClientSession(name, participant, ssrc, addr, self.cfg, self.tick)
            self.sessions[name] = session
            self._by_ssrc[ssrc] = session
            self._table_changed = True
            log.info("join %s as participant %d (ssrc %d)", name, participant, ssrc)
            return self._joined_reply(session)

    def _joined_reply(self, session: ClientSession) -> dict:
        return {
            "type": "joined",
            "name": session.name,
            "participant": session.participant,
            "frame_ms": FRAME_MS,
            "sample_rate": SAMPLE_RATE,
            "participants": {
                s.name: s.participant for s in self.sessions.values()
            },
        }

    def _leave(self, name: str) -> dict:
        with self._lock:
            session = self.sessions.pop(name, None)
            if session is None:
                return {"type": "error", "message": f"unknown participant {name!r}"}
            self._by_ssrc.pop(session.ssrc, None)
            self._table_changed = True
            if not self.sessions:
                # whoever joins next starts the room afresh
                self._emptied = True
            log.info("leave %s", name)
            return {"type": "left", "name": name}

    def _follow_sessions(self) -> None:
        """Make the tracker and the mixer follow the session table.

        A member whose session is gone or replaced leaves; a new session
        joins. The tick only advances in the pump, so each change applies
        at the tick, and the coverage, it had when it arrived. A join and
        a leave of one session in between cost the tracker nothing, but
        like any join or leave they dissolve a pin. Call it with the lock
        held, before reading the tracker.
        """
        if not self._table_changed:
            return
        self._table_changed = False
        present = {s.participant: s for s in self.sessions.values()}
        if self._emptied:
            self._emptied = False
            self.tracker = None
        elif self.tracker is not None:
            self.tracker.assigner.drop_pin()
        for pid, session in list(self._members.items()):
            if present.get(pid) is not session:
                del self._members[pid]
                self._mixer.forget(pid)
                if self.tracker is not None:
                    self.tracker.leave(pid)
        for pid in sorted(present.keys() - self._members.keys()):
            if self.tracker is None:
                self.tracker = FloorTracker(
                    [], self.model, {}, FloorAssigner(dwell_ms=self.cfg.dwell_ms),
                    start_tick=self.tick,
                )
            self._members[pid] = present[pid]
            self.tracker.join(pid, present[pid].segmenter.view)

    def _fresh_tracker_due(self) -> bool:
        """Whether the next pump makes a new tracker for the room."""
        return self.tracker is None or self._emptied

    def _floors(self) -> Optional[FloorConfiguration]:
        """The current floors over the present sessions, or None before the
        first period. A leaver drops out of its floor; a joiner stands
        alone until the next period decides. Reads the session table, so
        membership the pump has yet to apply counts already."""
        if self._fresh_tracker_due() or not self.tracker.configs:
            return None
        config = self.tracker.configs[-1]
        present = sorted(s.participant for s in self.sessions.values())
        blocks = [[m for m in b if m in present] for b in config.partition]
        placed = {m for b in blocks for m in b}
        blocks += [[m] for m in present if m not in placed]
        return FloorConfiguration(canonical_partition(b for b in blocks if b), config.score)

    # ---- control plane ----

    def _handle_control(self, data: bytes, addr: Tuple[str, int]) -> None:
        try:
            msg = decode_message(data)
        except PacketFormatError as exc:
            self._send_control({"type": "error", "message": str(exc)}, addr)
            return
        kind = msg.get("type")
        try:
            if kind in SESSION_FIELD and not self._from_session(msg, kind, addr):
                if kind == "sync_response":
                    return
                reply = {
                    "type": "error",
                    "message": f"{kind} for {msg[SESSION_FIELD[kind]]!r} must come "
                    "from that participant's control address",
                }
            elif kind == "join":
                reply = self._join(str(msg["name"]), int(msg["ssrc"]), addr)
            elif kind == "leave":
                reply = self._leave(str(msg["name"]))
            elif kind == "pin":
                reply = self._pin(msg)
            elif kind == "unpin":
                reply = self._unpin(msg)
            elif kind == "status":
                reply = self._status()
            elif kind == "sync_response":
                self._finish_sync(msg)
                return
            else:
                reply = {"type": "error", "message": f"unknown message type {kind!r}"}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a JSON number such as 1e400 reads as inf
            reply = {"type": "error", "message": f"malformed {kind}: {exc!r}"}
        except FloorspaceError as exc:
            reply = {"type": "error", "message": str(exc)}
        self._send_control(reply, addr)

    def _from_session(self, msg: dict, kind: str, addr: Tuple[str, int]) -> bool:
        """Whether ``addr`` may act for the session ``msg`` names.

        An unknown name passes, so its handler can say it is unknown.
        """
        with self._lock:
            session = self.sessions.get(str(msg.get(SESSION_FIELD[kind])))
            if session is None or session.control_addr == addr:
                return True
            self.control_rejects += 1
            log.debug("%s for %s from %s rejected", kind, session.name, addr)
            return False

    def _names_to_partition(self, floors: List[List[str]]) -> Tuple[Tuple[int, ...], ...]:
        part = []
        for block in floors:
            if not block:
                raise FloorspaceError("a pinned floor must not be empty")
            ids = []
            for name in block:
                if name not in self.sessions:
                    raise FloorspaceError(f"unknown participant {name!r}")
                ids.append(self.sessions[name].participant)
            part.append(tuple(sorted(ids)))
        return tuple(part)

    def _pin(self, msg: dict) -> dict:
        with self._lock:
            self._follow_sessions()
            if len(self.sessions) < 2:
                return {"type": "error", "message": "fewer than two participants"}
            owner = str(msg["owner"])
            if owner not in self.sessions:
                return {"type": "error", "message": f"unknown participant {owner!r}"}
            partition = self._names_to_partition(msg["floors"])
            self.tracker.assigner.pin(
                partition, owner, self.tracker.participants
            )
            log.info("pin by %s: %s", owner, partition)
            return {"type": "pinned", "owner": owner}

    def _unpin(self, msg: dict) -> dict:
        with self._lock:
            self._follow_sessions()
            if len(self.sessions) < 2:
                return {"type": "error", "message": "fewer than two participants"}
            owner = str(msg["owner"])
            self.tracker.assigner.unpin(owner)
            return {"type": "unpinned", "owner": owner}

    def _status(self) -> dict:
        with self._lock:
            names = {s.participant: s.name for s in self.sessions.values()}
            config = self._floors()
            if config is not None:
                floors = [[names[m] for m in b] for b in config.partition]
                score = config.score
            else:
                floors = [[n] for n in sorted(self.sessions)]
                score = None
            search = None
            if len(self.sessions) >= 2:
                # the room's periods by how the search decided them, over
                # its whole occupancy; none yet if the next pump starts it
                fresh = self._fresh_tracker_due()
                search = {k: 0 if fresh else getattr(self.tracker.assigner, k)
                          for k in ("searched", "certified", "reused")}
            return {
                "type": "status",
                "tick_ms": self.tick,
                "floors": floors,
                "score": score,
                "search": search,
                "changes": len(self.events),
                "last_change_ms": int(self.events[-1].tick) if self.events else None,
                "overruns": self.overruns,
                "control_rejects": self.control_rejects,
                "audio_rejects": self.audio_rejects,
                "participants": {
                    s.name: {
                        "participant": s.participant,
                        "clock_offset_ms": None if s.clock is None else s.clock.offset_ms,
                        "jitter": vars(s.jitter.stats).copy(),
                        "overload_drops": s.overload_drops,
                    }
                    for s in self.sessions.values()
                },
            }

    def _send_control(self, msg: dict, addr: Tuple[str, int]) -> None:
        try:
            self.control_sock.sendto(encode_message(msg), addr)
        except OSError as exc:
            log.warning("control send to %s failed: %s", addr, exc)

    # ---- clock sync ----

    def _start_sync(self) -> None:
        t1 = self.tick
        with self._lock:
            for session in self.sessions.values():
                session.pending_sync_t1 = t1
                self._send_control(
                    {"type": "sync_request", "t1": t1}, session.control_addr
                )

    def _finish_sync(self, msg: dict) -> None:
        t4 = self.tick
        with self._lock:
            # a stray response (unknown name, nothing pending) is dropped
            # before its fields are read
            session = self.sessions.get(str(msg.get("name", "")))
            if session is None or session.pending_sync_t1 is None:
                return
            t1, t2, t3 = int(msg["t1"]), int(msg["t2"]), int(msg["t3"])
            if session.pending_sync_t1 != t1:
                return
            session.pending_sync_t1 = None
            session.clock = estimate_clock_offset(t1, t2, t3, t4)
            log.debug(
                "sync %s: offset %d ms, rtt %d ms",
                session.name,
                session.clock.offset_ms,
                session.clock.round_trip_ms,
            )

    # ---- audio plane ----

    def _handle_audio(self, data: bytes, addr: Tuple[str, int]) -> None:
        try:
            pkt = AudioPacket.from_bytes(data)
        except PacketFormatError:
            with self._lock:
                self.audio_rejects += 1
            return
        with self._lock:
            session = self._by_ssrc.get(pkt.ssrc)
            if session is None:
                self.audio_rejects += 1
                return
            # a frame the jitter buffer could not play never reaches it
            try:
                check_payload(pkt)
            except FloorspaceError:
                self.audio_rejects += 1
                return
            # the first packet fixes where the session's mix goes
            if session.audio_addr is None:
                session.audio_addr = addr
            elif session.audio_addr != addr:
                self.audio_rejects += 1
                return
            session.push_packet(pkt)

    def pump_once(self) -> None:
        """Advance the shared timeline by one frame."""
        with self._lock:
            self._follow_sessions()
            sessions = sorted(self.sessions.values(), key=lambda s: s.participant)
            if not sessions:
                self.tick += FRAME_MS
                return
            for s in sessions:
                while s.inbox:
                    s.jitter.push(s.inbox.popleft())
            # one decode into one (sessions, samples) array, which feeds
            # both the VAD and the mixer
            pcm = decode_room([s.jitter.pop() for s in sessions])
            # the tracker's rows are the sessions in participant order
            bits = room_frame_bits([s.vad for s in sessions], pcm)
            for s, b in zip(sessions, bits):
                s.last_frame = (self.tick, b)
                s.segmenter.feed(b)
            tracker = self.tracker
            tracker.add_room_activity(bits)
            self.tick += FRAME_MS
            for event in tracker.process_due(self.tick).events:
                self.events.append(event)
                names = {s.participant: s.name for s in sessions}
                log.info(
                    "configuration @%dms: %s (score %.3f)",
                    event.tick,
                    [[names[m] for m in b] for b in event.partition],
                    event.score,
                )
            # views keep only the turns a later period's gap can read
            for pid, start in tracker.oldest_needed.items():
                self._members[pid].segmenter.forget(start)
            # the floors of the last period; gains() leaves out whoever has
            # left since, and a joiner stays alone until the next period
            config = tracker.configs[-1] if tracker.configs else None
            self._send_mixes(sessions, pcm, config)

    def _send_mixes(
        self,
        sessions: List[ClientSession],
        pcm: np.ndarray,
        config: Optional[FloorConfiguration],
    ) -> None:
        """Mix and send every listener's frame; ``pcm`` holds a row per session."""
        rows = [i for i, s in enumerate(sessions) if s.audio_addr is not None]
        if len(sessions) < 2 or not rows:
            return
        ids = tuple(s.participant for s in sessions)
        if config is None:
            config = FloorConfiguration(tuple((pid,) for pid in ids), 0.0)
        # the targets change only with the partition or the room
        key = (config.partition, ids)
        if self._gains_key != key:
            self._gains_key = key
            self._gains = gains(config, ids)
        # every listener in one pass; a listener without an address yet
        # neither hears a mix nor advances its ramps
        mixes = self._mixer.mix_frame([ids[i] for i in rows], ids, pcm, self._gains[rows])
        # one encode for the room; each listener stamps its own header
        for i, codes in zip(rows, encode_room(mixes)):
            listener = sessions[i]
            datagram = listener.packetizer.stamp(codes)
            try:
                self.audio_sock.sendto(datagram, listener.audio_addr)
            except OSError as exc:
                log.warning("audio send to %s failed: %s", listener.audio_addr, exc)

    # ---- lifecycle ----

    def start(self) -> None:
        for name, sock, handler in (
            ("audio-rx", self.audio_sock, self._handle_audio),
            ("control-rx", self.control_sock, self._handle_control),
        ):
            t = threading.Thread(
                target=self._rx_loop, args=(sock, handler), name=name, daemon=True
            )
            t.start()
            self._threads.append(t)

    def _rx_loop(self, sock: socket.socket, handler) -> None:
        sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                data, addr = sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                handler(data, addr)
            except Exception:
                # a datagram no handler foresaw must not end this thread
                log.exception("%s: datagram from %s failed", threading.current_thread().name, addr)
                with self._lock:
                    if sock is self.control_sock:
                        self.control_rejects += 1
                    else:
                        self.audio_rejects += 1

    def run(self) -> None:
        """Paced pump loop; blocks until stop() or KeyboardInterrupt."""
        self.start()
        period = FRAME_MS / 1000.0
        next_at = time.monotonic() + period
        try:
            while not self._stop.is_set():
                now = time.monotonic()
                if now < next_at:
                    time.sleep(min(next_at - now, period))
                    continue
                if now - next_at >= period:
                    # a whole frame late: the pump is not keeping up
                    self.overruns += 1
                next_at += period
                self.pump_once()
                if (
                    self.cfg.sync_interval_s > 0
                    and time.monotonic() - self._last_sync >= self.cfg.sync_interval_s
                ):
                    self._last_sync = time.monotonic()
                    self._start_sync()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=1.0)
        self._threads.clear()
        self.audio_sock.close()
        self.control_sock.close()

