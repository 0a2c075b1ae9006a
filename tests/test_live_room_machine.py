"""A stateful test of the live room's membership, driven in process.

A ``hypothesis`` rule machine draws the room's jitter depth, then
joins, leaves and rejoins participants from several control
addresses, pins and unpins (valid and bogus), asks for status, sends
audio and pumps. It calls ``_handle_control``, ``_handle_audio`` and
``pump_once`` directly, with recording sockets in place of the real
sends, and checks after every pump that the room's tracker follows
the session table, every listener with an address gets one mix, the
mixer holds no ramp state for an id that no session holds, and the
search counted each period the pump decided unpinned once, as
``searched`` or ``reused``, with ``bounded`` no more than ``searched``.
A status leaves the tracker as it was, and its reply does not change
when the pump's next step, applying the table, is taken before it.

Hostile audio arrives too: truncated datagrams, a bad RTP version, a
wrong payload length or payload type, an unknown SSRC, and a known
SSRC from a second address. Each is counted in ``audio_rejects``
exactly once, valid audio never is, and after every step no counter
that ``status`` reports has fallen: the room's for good, a session's
while it stays, the search's while its tracker does. A burst of valid
audio past ``INBOX_FRAMES`` between pumps counts each frame over in
``overload_drops``, and no inbox ever holds more. A message of a type
the room does not know, a ``sync_response`` or ``sync_request`` among
them, gets exactly one ``error`` naming the type and moves no counter
or session. ``control_rejects`` counts every leave, pin, unpin or
rejoin (with the session's SSRC) from another control address, and no
other message.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from floorspace.server import (
    INBOX_FRAMES,
    RealtimeServer,
    ServerConfig,
    decode_message,
    encode_message,
)
from floorspace.transport import FRAME_BYTES, FRAME_SAMPLES, HEADER_BYTES, Packetizer

from conftest import SentDatagrams

NAMES = ("a", "b", "c", "d", "e", "f")
CONTROL = [("127.0.0.1", 9000 + i) for i in range(3)]
# a name's own SSRC mostly; else another name's, or one outside the
# header's 32 bits
SSRCS = st.sampled_from(("own", "own", "own", "other", -1, 1 << 32))
# the field naming the session a message acts for
ACTS_FOR = {"join": "name", "leave": "name", "pin": "owner", "unpin": "owner"}
LOUD = np.full(FRAME_SAMPLES, 8000, dtype=np.int16)
QUIET = np.zeros(FRAME_SAMPLES, dtype=np.int16)


class LiveRoom(RuleBasedStateMachine):
    model = None

    def __init__(self):
        super().__init__()
        self.srv = None
        self.packetizers = {}
        self.counters = {}

    def teardown(self):
        if self.srv is not None:
            self.srv.audio_sock, self.srv.control_sock = self.sockets
            self.srv.stop()

    def control(self, msg, addr):
        """Send ``msg`` from ``addr``; the one reply, as bytes and decoded.

        ``control_rejects`` rises by one when ``msg`` acts for a session
        from another control address (a leave, pin or unpin naming it, or
        a rejoin with its SSRC), and by none otherwise.
        """
        srv = self.srv
        session = srv.sessions.get(msg.get(ACTS_FOR.get(msg["type"])))
        foreign = (session is not None and session.control_addr != addr
                   and msg.get("ssrc", session.ssrc) == session.ssrc)
        sent, rejects = srv.control_sock.sent, srv.control_rejects
        before = len(sent)
        srv._handle_control(encode_message(msg), addr)
        assert len(sent) == before + 1 and sent[-1][1] == addr
        assert srv.control_rejects == rejects + foreign
        return sent[-1][0], decode_message(sent[-1][0])

    @initialize(n=st.integers(0, 5), jitter_depth_ms=st.sampled_from([20, 60]))
    def occupy(self, n, jitter_depth_ms):
        self.srv = RealtimeServer(ServerConfig(
            audio_port=0, control_port=0, max_participants=5,
            jitter_depth_ms=jitter_depth_ms), model=self.model)
        self.sockets = self.srv.audio_sock, self.srv.control_sock
        self.srv.audio_sock, self.srv.control_sock = SentDatagrams(), SentDatagrams()
        for i, name in enumerate(NAMES[:n]):
            self.join(name, CONTROL[i % len(CONTROL)], "own")

    @rule(name=st.sampled_from(NAMES), addr=st.sampled_from(CONTROL), ssrc=SSRCS)
    def join(self, name, addr, ssrc):
        if ssrc in ("own", "other"):
            ssrc = 100 + (NAMES.index(name) + (ssrc == "other")) % len(NAMES)
        _, reply = self.control({"type": "join", "name": name, "ssrc": ssrc}, addr)
        assert reply["type"] in ("joined", "error")
        if reply["type"] == "joined":
            assert self.srv.sessions[name].ssrc == ssrc

    @rule(name=st.sampled_from(NAMES), addr=st.sampled_from(CONTROL), own=st.booleans())
    def leave(self, name, addr, own):
        joined = self.srv.sessions.get(name)
        if own and joined is not None:
            addr = joined.control_addr
        _, reply = self.control({"type": "leave", "name": name}, addr)
        assert (reply["type"] == "left") == (joined is not None and joined.control_addr == addr)

    @rule(owner=st.sampled_from(NAMES), addr=st.sampled_from(CONTROL),
          floors=st.lists(st.lists(st.sampled_from(NAMES + ("zed",)), max_size=3), max_size=3))
    def pin_bogus(self, owner, addr, floors):
        _, reply = self.control({"type": "pin", "owner": owner, "floors": floors}, addr)
        assert reply["type"] in ("pinned", "error")

    @rule(cut=st.integers(0, 5), data=st.data())
    def pin_the_room(self, cut, data):
        names = sorted(self.srv.sessions)
        if not names:
            return
        owner = self.srv.sessions[data.draw(st.sampled_from(names))]
        floors = [f for f in (names[:cut], names[cut:]) if f]
        _, reply = self.control(
            {"type": "pin", "owner": owner.name, "floors": floors}, owner.control_addr)
        assert reply["type"] == ("pinned" if len(names) >= 2 else "error")

    @rule(owner=st.sampled_from(NAMES), addr=st.sampled_from(CONTROL))
    def unpin(self, owner, addr):
        _, reply = self.control({"type": "unpin", "owner": owner}, addr)
        assert reply["type"] in ("unpinned", "error")

    @rule(addr=st.sampled_from(CONTROL), apply=st.booleans())
    def status(self, addr, apply):
        srv = self.srv
        tracker = srv.tracker
        members = tracker and tracker.participants
        data, reply = self.control({"type": "status"}, addr)
        assert encode_message(reply) == data
        assert set(reply["participants"]) == set(srv.sessions)
        # a status reads the session table and leaves the tracker alone
        assert srv.tracker is tracker and (tracker and tracker.participants) == members
        if apply:
            # what the next pump does first; the reply is the same after it
            with srv._lock:
                srv._follow_sessions()
            self.check_tracker()
            assert self.control({"type": "status"}, addr)[0] == data

    def packet(self, ssrc, loud=False):
        packetizer = self.packetizers.setdefault(ssrc, Packetizer(ssrc=ssrc))
        return packetizer.packetize(LOUD if loud else QUIET).to_bytes()

    def rejected(self, data, addr):
        """Send ``data`` from ``addr``, which the room must count as one reject."""
        before = self.srv.audio_rejects
        self.srv._handle_audio(data, addr)
        assert self.srv.audio_rejects == before + 1

    def audio_addr(self, ssrc):
        """The address the session holding ``ssrc`` sends audio from."""
        names = [s.name for s in self.srv.sessions.values() if s.ssrc == ssrc]
        return ("127.0.0.1", 7000 + (NAMES.index(names[0]) if names else 0))

    @rule(name=st.sampled_from(NAMES), loud=st.booleans())
    def audio(self, name, loud):
        session = self.srv.sessions.get(name)
        if session is None:
            return
        before = self.srv.audio_rejects
        self.srv._handle_audio(self.packet(session.ssrc, loud), self.audio_addr(session.ssrc))
        assert self.srv.audio_rejects == before

    @rule(name=st.sampled_from(NAMES), excess=st.integers(1, 3))
    def audio_burst(self, name, excess):
        srv = self.srv
        session = srv.sessions.get(name)
        if session is None:
            return
        drops, rejects = session.overload_drops, srv.audio_rejects
        for _ in range(INBOX_FRAMES - len(session.inbox) + excess):
            srv._handle_audio(self.packet(session.ssrc), self.audio_addr(session.ssrc))
        assert session.overload_drops == drops + excess
        assert srv.audio_rejects == rejects

    def some_ssrc(self, data):
        """A present session's SSRC, else one no session holds."""
        ssrcs = sorted(s.ssrc for s in self.srv.sessions.values())
        return data.draw(st.sampled_from(ssrcs)) if ssrcs else 99

    @rule(size=st.integers(0, HEADER_BYTES - 1), data=st.data())
    def truncated_audio(self, size, data):
        self.rejected(self.packet(self.some_ssrc(data))[:size], ("127.0.0.1", 7000))

    @rule(version=st.sampled_from([0, 1, 3]), data=st.data())
    def audio_of_another_version(self, version, data):
        packet = bytearray(self.packet(self.some_ssrc(data)))
        packet[0] = version << 6 | packet[0] & 0x3F
        self.rejected(bytes(packet), ("127.0.0.1", 7000))

    @rule(size=st.sampled_from([0, 1, FRAME_BYTES - 1, FRAME_BYTES + 1, 2 * FRAME_BYTES]),
          data=st.data())
    def audio_of_a_wrong_length(self, size, data):
        packet = self.packet(self.some_ssrc(data))
        self.rejected(packet[:HEADER_BYTES] + bytes(size), ("127.0.0.1", 7000))

    @rule(payload_type=st.sampled_from([8, 96, 127]), data=st.data())
    def audio_of_another_payload_type(self, payload_type, data):
        # from the session's own address: only the payload type is wrong
        ssrc = self.some_ssrc(data)
        packet = bytearray(self.packet(ssrc))
        packet[1] = payload_type
        self.rejected(bytes(packet), self.audio_addr(ssrc))

    @rule()
    def audio_of_an_unknown_source(self):
        self.rejected(self.packet(99), ("127.0.0.1", 7000))

    @rule(data=st.data())
    def audio_from_a_second_address(self, data):
        heard = sorted((s for s in self.srv.sessions.values() if s.audio_addr),
                       key=lambda s: s.participant)
        if not heard:
            return
        session = data.draw(st.sampled_from(heard))
        addr = session.audio_addr
        self.rejected(self.packet(session.ssrc), ("127.0.0.1", addr[1] + 1000))
        assert session.audio_addr == addr

    @rule(kind=st.sampled_from(("sync_response", "sync_request", "hello")),
          name=st.sampled_from(NAMES + ("zed",)), addr=st.sampled_from(CONTROL),
          own=st.booleans(), t1=st.sampled_from([-1, 0, 1, float("inf")]))
    def stray_unknown_message(self, kind, name, addr, own, t1):
        srv = self.srv
        session = srv.sessions.get(name)
        if own and session is not None:
            addr = session.control_addr
        sessions, status = dict(srv.sessions), srv._status()
        _, reply = self.control({"type": kind, "name": name, "t1": t1, "t2": 0, "t3": 0}, addr)
        assert reply == {"type": "error", "message": f"unknown message type {kind!r}"}
        assert srv.sessions == sessions and srv._status() == status

    @invariant()
    def no_inbox_overflows(self):
        assert all(len(s.inbox) <= INBOX_FRAMES for s in self.srv.sessions.values())

    @invariant()
    def no_status_counter_falls(self):
        srv = self.srv
        reply = srv._status()
        counters = {name: reply[name]
                    for name in ("changes", "overruns", "control_rejects", "audio_rejects")}
        for s in srv.sessions.values():
            counters.update({(s, k): v for k, v in vars(s.jitter.stats).items()})
            counters[(s, "overload_drops")] = s.overload_drops
        if reply["search"] is not None and not srv._fresh_tracker_due():
            counters.update({(srv.tracker, k): v for k, v in reply["search"].items()})
        for key, value in counters.items():
            assert value >= self.counters.get(key, value), key
        self.counters = counters

    @rule()
    def pump(self):
        srv = self.srv
        listeners = sorted(s.audio_addr for s in srv.sessions.values() if s.audio_addr)
        before = len(srv.audio_sock.sent)
        # the pump's first step, taken here to watch the tracker it decides with
        with srv._lock:
            srv._follow_sessions()
        tracker, decided = srv.tracker, []
        if tracker is not None:
            search = tracker.assigner
            counted = search.searched + search.reused
            process_due = tracker.process_due

            def watched():
                decided.append(process_due())
                return decided[-1]

            tracker.process_due = watched
        srv.pump_once()
        if tracker is not None:
            del tracker.process_due
            # each period decided unpinned with two or more members counts
            # once; a pin is never set in a pump, so one held now held throughout
            periods = sum(len(due.ticks) for due in decided) if search.pinned is None else 0
            assert search.searched + search.reused == counted + periods
            assert search.bounded <= search.searched
        sent = srv.audio_sock.sent[before:]
        if len(srv.sessions) < 2:
            listeners = []
        assert sorted(addr for _, addr in sent) == listeners
        assert all(len(data) == HEADER_BYTES + FRAME_BYTES for data, _ in sent)  # 172
        self.check_tracker()
        # the pump fed the tracker the frame it advanced the tick by
        assert srv.tracker is None or srv.tracker.coverage == srv.tick
        self.check_mixer()

    def check_tracker(self):
        srv = self.srv
        if not srv.sessions:
            assert srv.tracker is None
            return
        assert srv.tracker.participants == tuple(
            sorted(s.participant for s in srv.sessions.values()))

    def check_mixer(self):
        """The mixer keeps ramps only for present participants: every slot
        of an id no session holds is all zeros, and the room it mixes
        densely, if any, lists present ids only."""
        mixer = self.srv._mixer
        present = {s.participant for s in self.srv.sessions.values()}
        for pid, slot in mixer._slot.items():
            if pid not in present:
                assert not mixer._state[:, slot].any() and not mixer._state[:, :, slot].any(), pid
        if mixer._room is not None:
            assert set(mixer._room[0]) | set(mixer._room[1]) <= present


def test_the_tracker_follows_the_rooms_membership(floor_model):
    class Room(LiveRoom):
        model = floor_model

    run_state_machine_as_test(Room, settings=settings(
        max_examples=100, stateful_step_count=50, deadline=None, derandomize=True,
        database=None))
