"""Live server plumbing over loopback UDP: membership, audio and control."""

import contextlib
import gc
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from floorspace.assigner import QUIET_GAIN
from floorspace.errors import CapacityError, ConfigError, FloorspaceError, PacketFormatError
from floorspace.server import (
    MAX_ERROR_CHARS,
    MAX_NAME_CHARS,
    RealtimeServer,
    ServerConfig,
    decode_message,
    encode_message,
)
from floorspace.segmenter import BRIDGE_GAP_MS
from floorspace.timeline import MAX_PARTICIPANTS
from floorspace.transport import FRAME_MS, FRAME_SAMPLES, AudioPacket, Packetizer, decode_ulaw
from floorspace.vad import DETECTOR_FRAME_MS, ENERGY_FLOOR_DB

# the scripted client lives beside the live demo, which uses it too
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "demos"))
from loopback_client import ScriptedClient  # noqa: E402

LOUD = np.full(160, 8000, dtype=np.int16)
QUIET = np.zeros(160, dtype=np.int16)


def wait_for(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.001)
    return False


@contextlib.contextmanager
def running_server(model, **cfg_kwargs):
    cfg = ServerConfig(audio_port=0, control_port=0, **cfg_kwargs)
    srv = RealtimeServer(cfg, model=model)
    srv.start()
    try:
        yield srv
    finally:
        srv.stop()


@contextlib.contextmanager
def joined(srv, name, ssrc):
    client = ScriptedClient(name, ssrc, srv.audio_addr, srv.control_addr)
    try:
        client.join()
        yield client
    finally:
        client.close()


def recv_frame(sock):
    data, _ = sock.recvfrom(65536)
    return decode_ulaw(AudioPacket.from_bytes(data).payload)


def pump_with(srv, sends):
    """Deliver one frame per client, wait for arrival, advance one frame."""
    for client, pcm in sends:
        client.send_frame(pcm)
    names = [c.name for c, _ in sends]
    assert wait_for(
        lambda: all(len(srv.sessions[n].inbox) >= 1 for n in names)
    ), "audio packets did not arrive"
    srv.pump_once()


# --- control message framing -------------------------------------------------


def test_control_framing_round_trip():
    for msg in (
        {"type": "join", "name": "alice", "ssrc": 7},
        {"type": "status"},
        {"type": "pin", "owner": "a", "floors": [["a"], ["b"]]},
    ):
        assert decode_message(encode_message(msg)) == msg


def test_control_framing_rejects_short_data():
    with pytest.raises(PacketFormatError, match="too short"):
        decode_message(b"\x00\x00")


def test_control_framing_rejects_length_mismatch():
    body = b'{"type":"x"}'
    data = len(body + b"xx").to_bytes(4, "big") + body
    with pytest.raises(PacketFormatError, match="does not match"):
        decode_message(data)


def test_control_framing_rejects_bad_json():
    body = b"not json at all"
    with pytest.raises(PacketFormatError, match="not valid JSON"):
        decode_message(len(body).to_bytes(4, "big") + body)


def test_control_framing_requires_typed_object():
    body = b'["a","b"]'
    with pytest.raises(PacketFormatError, match="object with a type"):
        decode_message(len(body).to_bytes(4, "big") + body)
    body = b'{"kind":"join"}'
    with pytest.raises(PacketFormatError, match="object with a type"):
        decode_message(len(body).to_bytes(4, "big") + body)


# --- server configuration ----------------------------------------------------


def test_config_from_dict_applies_nested_vad(floor_model):
    # nothing nested is left to apply: a vad object is refused with the
    # fields beside it, and the server's detectors run at vad's constants
    doc = {"audio_port": 0, "control_port": 0}
    with pytest.raises(ConfigError) as err:
        ServerConfig.from_dict({**doc, "vad": {"hangover_ms": 120}})
    assert str(err.value) == "unknown server config fields: ['vad']"
    cfg = ServerConfig.from_dict(doc)
    assert cfg == ServerConfig(audio_port=0, control_port=0)
    srv = RealtimeServer(cfg, model=floor_model)
    try:
        srv._join("a", 1, ("127.0.0.1", 9000))
        detector = srv.sessions["a"].vad
        assert detector.noise_floor_db == ENERGY_FLOOR_DB
        # one full-scale frame, then silence: that frame alone is speech,
        # as nothing holds speech on past it
        tone = (20000 * np.sin(np.arange(80) * 0.5)).astype(np.int16)
        frames = np.concatenate([tone, np.zeros(80 * 30, np.int16)])
        bits = detector.frame_bits(frames)
        assert bits.sum() == DETECTOR_FRAME_MS
    finally:
        srv.stop()


def test_config_rejects_unknown_fields():
    # the second set the period of a clock exchange the server no longer runs
    for doc in ({"audio_prot": 46000}, {"sync_interval_s": 10}):
        with pytest.raises(ConfigError, match="unknown server config") as err:
            ServerConfig.from_dict(doc)
        assert str(err.value) == f"unknown server config fields: {sorted(doc)}"


def test_config_rejects_the_fixed_format_and_policy():
    # the frame, the evaluation period and the gains are constants
    for field in ("frame_ms", "eval_period_ms", "normal_gain", "quiet_gain"):
        with pytest.raises(FloorspaceError, match="unknown server config"):
            ServerConfig.from_dict({field: 10})
    # and so are the detector's frame and its thresholds
    for vad in ({"frame_ms": 10}, {"hangover_ms": 120}, {}):
        with pytest.raises(ConfigError) as err:
            ServerConfig.from_dict({"vad": vad})
        assert str(err.value) == "unknown server config fields: ['vad']"


def test_config_rejects_bad_vad_fields():
    # the detector takes no settings: whatever a vad field holds, even
    # beside valid fields, it is unknown, and ServerConfig has no such field
    for vad in ({"hangover_ms": -1}, {"hangover_ms": 5.5}, {"hangover_ms": True},
                {"noise_adapt_rate": 2.0}, {"bogus": 1}, None, 5, [1],
                {"energy_floor_db": float("nan")}, {"snr_threshold_db": float("nan")}):
        with pytest.raises(ConfigError) as err:
            ServerConfig.from_dict({"audio_port": 0, "control_port": 0, "vad": vad})
        assert str(err.value) == "unknown server config fields: ['vad']"
        with pytest.raises(TypeError, match="vad"):
            ServerConfig(vad=vad)


def test_config_bounds_participant_count():
    with pytest.raises(CapacityError):
        ServerConfig(max_participants=0)
    with pytest.raises(CapacityError):
        ServerConfig(max_participants=11)


def test_config_rejects_a_jitter_depth_below_one_frame():
    # else the server starts and answers every join as malformed; a depth
    # that is not an integer (a NaN or infinite one never starts playout,
    # so every session is heard as silence) is rejected too
    for depth in (0, 19, -20, float("inf"), float("nan"), 60.5, True, "60", None):
        with pytest.raises(ConfigError, match="jitter_depth_ms"):
            ServerConfig(jitter_depth_ms=depth)
        with pytest.raises(ConfigError, match="jitter_depth_ms"):
            ServerConfig.from_dict({"jitter_depth_ms": depth})
    assert ServerConfig(jitter_depth_ms=20).jitter_depth_ms == 20


def test_config_bounds_both_ports():
    for field in ("audio_port", "control_port"):
        for port in (-1, 65536, 70000):
            with pytest.raises(ConfigError, match=field):
                ServerConfig(**{field: port})
            with pytest.raises(ConfigError, match=field):
                ServerConfig.from_dict({field: port})


def test_config_rejects_a_count_or_port_that_is_not_an_integer():
    # a float passed the range checks, then failed as a bare TypeError in
    # the search tables' build or in bind, and true counted as 1
    for field in ("max_participants", "audio_port", "control_port"):
        for value in (2.5, 0.5, True, False, "2", None):
            with pytest.raises(ConfigError, match=field):
                ServerConfig(**{field: value})
            with pytest.raises(ConfigError, match=field):
                ServerConfig.from_dict({"audio_port": 0, "control_port": 0, field: value})
    cfg = ServerConfig.from_dict({"audio_port": 0, "control_port": 0, "max_participants": 2})
    assert (cfg.audio_port, cfg.control_port, cfg.max_participants) == (0, 0, 2)


def test_config_rejects_a_bad_dwell():
    # the assigner no longer holds a regroup, so no dwell is good: a config
    # naming one, whatever its value, is refused rather than ignored
    for dwell in (600, 0, "600", -100, 1.5, True, None):
        with pytest.raises(ConfigError, match=r"unknown server config fields: \['dwell_ms'\]"):
            ServerConfig.from_dict({"audio_port": 0, "control_port": 0, "dwell_ms": dwell})
        with pytest.raises(TypeError, match="dwell_ms"):
            ServerConfig(dwell_ms=dwell)


def test_config_rejects_a_host_or_model_path_that_is_not_a_string():
    # a host of another type ended serve in a TypeError from bind; an
    # integer model path read that file descriptor, and true (descriptor 1)
    # closed the process's stdout
    for host in (5, True, None, b"127.0.0.1", ["127.0.0.1"]):
        with pytest.raises(ConfigError, match="host"):
            ServerConfig(host=host)
        with pytest.raises(ConfigError, match="host"):
            ServerConfig.from_dict({"audio_port": 0, "control_port": 0, "host": host})
    for model_path in (7, True, False, 0, 1.5, ["model.json"]):
        with pytest.raises(ConfigError, match="model_path"):
            ServerConfig(model_path=model_path)
        with pytest.raises(ConfigError, match="model_path"):
            ServerConfig.from_dict({"audio_port": 0, "control_port": 0,
                                    "model_path": model_path})
    cfg = ServerConfig.from_dict({"host": "localhost", "model_path": "model.json"})
    assert (cfg.host, cfg.model_path) == ("localhost", "model.json")
    assert ServerConfig.from_dict({"model_path": None}).model_path is None


def test_a_bind_that_fails_without_an_os_error_closes_both_sockets(floor_model):
    # an unclosed socket warns when collected, which the test settings
    # make an error
    cfg = ServerConfig(audio_port=0, control_port=0)
    cfg.control_port = 70000  # set after the checks, as bind sees it
    with pytest.raises(OverflowError):
        RealtimeServer(cfg, model=floor_model)
    gc.collect()


def test_server_needs_a_model():
    with pytest.raises(FloorspaceError, match="model"):
        RealtimeServer(ServerConfig(audio_port=0, control_port=0))


def test_a_failed_control_bind_frees_the_audio_port(floor_model):
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        blocker.bind(("127.0.0.1", 0))
        probe.bind(("127.0.0.1", 0))
        audio_port = probe.getsockname()[1]
        probe.close()
        cfg = ServerConfig(audio_port=audio_port, control_port=blocker.getsockname()[1])
        with pytest.raises(OSError):
            RealtimeServer(cfg, model=floor_model)
        again = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            again.bind(("127.0.0.1", audio_port))
        finally:
            again.close()
    finally:
        blocker.close()
        probe.close()


# --- membership ---------------------------------------------------------------


def test_join_assigns_distinct_participants(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a, joined(srv, "bob", 2) as b:
            assert a.participant == 0
            assert b.participant == 1
            reply = b.request({"type": "status"})
            assert reply["type"] == "status"
            assert set(reply["participants"]) == {"alice", "bob"}


def test_duplicate_name_is_rejected(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1):
            impostor = ScriptedClient("alice", 2, srv.audio_addr, srv.control_addr)
            try:
                reply = impostor.request(
                    {"type": "join", "name": "alice", "ssrc": 2}
                )
                assert reply["type"] == "error"
                assert "already joined" in reply["message"]
            finally:
                impostor.close()


def test_rejoin_with_same_ssrc_is_idempotent(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a:
            again = a.request({"type": "join", "name": "alice", "ssrc": 1})
            assert again["type"] == "joined"
            assert again["participant"] == a.participant


def test_room_capacity_is_enforced(floor_model):
    with running_server(floor_model, max_participants=2) as srv:
        with joined(srv, "a", 1), joined(srv, "b", 2):
            extra = ScriptedClient("c", 3, srv.audio_addr, srv.control_addr)
            try:
                reply = extra.request({"type": "join", "name": "c", "ssrc": 3})
                assert reply["type"] == "error"
                assert "full" in reply["message"]
            finally:
                extra.close()


def test_ssrc_outside_32_bits_is_rejected(floor_model):
    with running_server(floor_model) as srv:
        client = ScriptedClient("x", 1, srv.audio_addr, srv.control_addr)
        try:
            for ssrc in (2**32, -1):
                reply = client.request({"type": "join", "name": "x", "ssrc": ssrc})
                assert reply["type"] == "error"
                assert "ssrc" in reply["message"]
            assert not srv.sessions
            assert client.join()["participant"] == 0
        finally:
            client.close()


def test_a_full_room_of_the_longest_names_still_gets_its_replies(floor_model):
    # a joined reply carries the joiner's name twice and every other once,
    # a status every name twice; JSON escapes an astral character to 12
    # bytes, so these are the longest names as the wire carries them
    names = [chr(0x1F600 + i) * MAX_NAME_CHARS for i in range(MAX_PARTICIPANTS)]
    with running_server(floor_model) as srv, contextlib.ExitStack() as stack:
        clients = [stack.enter_context(joined(srv, name, 1 + i)) for i, name in enumerate(names)]
        assert [c.participant for c in clients] == list(range(MAX_PARTICIPANTS))
        assert clients[-1].request({"type": "join", "name": names[-1], "ssrc": 10}) == {
            "type": "joined", "name": names[-1], "participant": MAX_PARTICIPANTS - 1,
            "frame_ms": FRAME_MS, "sample_rate": 8000,
            "participants": {name: i for i, name in enumerate(names)}}
        # the room's floors decided, and every counter at 16 digits
        srv.pump_once()
        srv.pump_once()
        for session in srv.sessions.values():
            for field in vars(session.jitter.stats):
                setattr(session.jitter.stats, field, 2**53)
            session.overload_drops = 2**53
        srv.control_rejects = srv.audio_rejects = srv.overruns = 2**53
        reply = clients[0].request({"type": "status"})
        assert reply["type"] == "status"
        assert sorted(n for floor in reply["floors"] for n in floor) == names
        assert sorted(reply["participants"]) == names


def test_a_name_one_character_too_long_gets_one_error_and_no_session(floor_model):
    # the session was made, and its joined reply, then every status,
    # failed to send: no datagram holds them
    name = chr(0x1F600) * (MAX_NAME_CHARS + 1)
    with running_server(floor_model) as srv, joined(srv, "a", 10), joined(srv, "b", 20):
        client = ScriptedClient(name, 1, srv.audio_addr, srv.control_addr)
        try:
            for msg in ({"type": "join", "name": name, "ssrc": 1},
                        {"type": "leave", "name": name},
                        {"type": "unpin", "owner": name},
                        {"type": "pin", "owner": name, "floors": [["a", "b"]]}):
                reply = client.request(msg)
                assert reply["type"] == "error", msg
                assert f"longer than {MAX_NAME_CHARS} characters" in reply["message"]
                client.control_sock.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    client.control_sock.recvfrom(65536)
                client.control_sock.settimeout(2.0)
                assert sorted(srv.sessions) == ["a", "b"] and 1 not in srv._by_ssrc
            assert client.request({"type": "status"})["type"] == "status"
        finally:
            client.close()


def test_leave_frees_the_lowest_participant_number(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2):
            assert a.leave()["type"] == "left"
            with joined(srv, "c", 3) as c:
                assert c.participant == 0


def test_unknown_message_type_gets_an_error(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a:
            reply = a.request({"type": "shout"})
            assert reply["type"] == "error"
            assert "unknown message type" in reply["message"]


def framed(body: bytes) -> bytes:
    """A control datagram around a body written by hand, not by json.dumps."""
    return len(body).to_bytes(4, "big") + body


def test_malformed_bytes_get_an_error_reply(floor_model):
    with running_server(floor_model) as srv:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2.0)
        try:
            sock.sendto(framed(b"garbage"), srv.control_addr)
            reply = decode_message(sock.recvfrom(65536)[0])
            assert reply["type"] == "error"
        finally:
            sock.close()


# each got no reply, or one of 60 092 bytes: its error quoted the value,
# and JSON writes a raw two-byte "é" as six
LONG_VALUE_BODIES = {
    "type": '{"type":"%s"}' % ("é" * 20_000),
    "ssrc": '{"type":"join","name":"x","ssrc":"%s"}' % ("é" * 20_000),
    "name key": '{"type":"leave","name":{"%s":1}}' % ("é" * 30_000),
    "name list": '{"type":"join","name":[%s],"ssrc":1}' % ",".join(['"x"'] * 12_000),
}


@pytest.mark.parametrize("what", sorted(LONG_VALUE_BODIES))
def test_a_message_that_echoes_a_long_value_gets_one_short_error(floor_model, what):
    # an empty error's frame, and at most 12 bytes for each character quoted
    bound = len(encode_message({"type": "error", "message": ""})) + 12 * MAX_ERROR_CHARS
    with running_server(floor_model) as srv:
        client = ScriptedClient("x", 1, srv.audio_addr, srv.control_addr)
        try:
            body = LONG_VALUE_BODIES[what].encode("utf-8")
            client.control_sock.sendto(framed(body), srv.control_addr)
            data = client.control_sock.recvfrom(65536)[0]
            assert decode_message(data)["type"] == "error"
            assert len(data) <= bound
            client.control_sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                client.control_sock.recvfrom(65536)
            client.control_sock.settimeout(2.0)
            assert client.request({"type": "status"})["type"] == "status"
            assert not srv.sessions
        finally:
            client.close()


def test_a_pin_with_an_empty_floor_gets_an_error(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a, joined(srv, "bob", 2):
            body = b'{"type":"pin","owner":"alice","floors":[["alice","bob"],[]]}'
            a.control_sock.sendto(framed(body), srv.control_addr)
            reply = decode_message(a.control_sock.recvfrom(65536)[0])
            assert reply["type"] == "error"
            assert "empty" in reply["message"]
            assert a.request({"type": "status"})["type"] == "status"
            assert srv.tracker.assigner.pinned is None


def test_a_join_with_an_ssrc_past_float_range_gets_an_error(floor_model):
    with running_server(floor_model) as srv:
        client = ScriptedClient("x", 1, srv.audio_addr, srv.control_addr)
        try:
            body = b'{"type":"join","name":"x","ssrc":1e400}'
            client.control_sock.sendto(framed(body), srv.control_addr)
            reply = decode_message(client.control_sock.recvfrom(65536)[0])
            assert reply["type"] == "error"
            assert "malformed join" in reply["message"]
            assert client.request({"type": "status"})["type"] == "status"
            assert not srv.sessions
        finally:
            client.close()


def test_a_sync_message_is_an_unknown_type(floor_model):
    # the server once ran a clock exchange; "t1": 1e400 ended its control thread
    response = b'{"type":"sync_response","name":"alice","t1":1e400,"t2":0,"t3":0}'
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a, joined(srv, "bob", 2) as b:
            sessions, status = dict(srv.sessions), a.request({"type": "status"})
            for client, kind, body in ((a, "sync_response", response),
                                       (b, "sync_response", response),
                                       (a, "sync_request", b'{"type":"sync_request","t1":0}')):
                client.control_sock.sendto(framed(body), srv.control_addr)
                reply = decode_message(client.control_sock.recvfrom(65536)[0])
                assert reply == {"type": "error", "message": f"unknown message type {kind!r}"}
                # one reply only: the next is the status's, and nothing moved
                assert client.request({"type": "status"}) == status
                assert srv.sessions == sessions


def test_a_join_with_a_mistyped_name_or_ssrc_gets_an_error(floor_model):
    # 1.9 and true joined as SSRC 1, and a name was str() of whatever came:
    # ["x"] joined as "['x']", and null as "None"
    with running_server(floor_model) as srv:
        client = ScriptedClient("x", 1, srv.audio_addr, srv.control_addr)
        try:
            for name, ssrc in (("x", 1.9), ("x", True), ("x", "8"), (None, 8), (None, "8"),
                               (["x"], 8), (5, 8)):
                reply = client.request({"type": "join", "name": name, "ssrc": ssrc})
                assert reply["type"] == "error", (name, ssrc)
                assert "malformed join" in reply["message"]
                assert not srv.sessions and not srv._by_ssrc
                assert client.request({"type": "status"})["type"] == "status"
            assert client.join()["participant"] == 0
        finally:
            client.close()


def test_a_leave_with_a_mistyped_name_gets_an_error(floor_model):
    # null read as the name "None"
    with running_server(floor_model) as srv:
        with joined(srv, "None", 1) as a:
            for name in (None, ["None"], 5):
                reply = a.request({"type": "leave", "name": name})
                assert reply["type"] == "error" and "malformed leave" in reply["message"]
                assert "None" in srv.sessions
            assert a.leave()["type"] == "left"
            assert not srv.sessions


def test_a_pin_or_unpin_with_an_owner_that_is_not_a_string_gets_an_error(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20):
            floors = [["alice"], ["bob"]]
            for owner in (None, 5, ["alice"], {"alice": 1}):
                for kind in ("pin", "unpin"):
                    reply = a.request({"type": kind, "owner": owner, "floors": floors})
                    assert reply["type"] == "error", (kind, owner)
                    assert f"malformed {kind}" in reply["message"]
                    assert srv.tracker.assigner.pinned is None
            pin = {"type": "pin", "owner": "alice", "floors": floors}
            assert a.request(pin)["type"] == "pinned"
            assert a.request({"type": "unpin", "owner": "alice"})["type"] == "unpinned"


def test_a_pin_whose_floors_are_not_arrays_of_names_gets_an_error(floor_model):
    # "ab" and {"a": 1, "b": 2} were iterated into [["a"], ["b"]] and pinned
    with running_server(floor_model) as srv:
        with joined(srv, "a", 10) as a, joined(srv, "b", 20):
            for floors in ("ab", {"a": 1, "b": 2}, 5, None, [["a", 5]], [["a"], "b"],
                           [["a"], [["b"]]], [["a", "b"], []],
                           [["a"], ["b", "c" * (MAX_NAME_CHARS + 1)]]):
                reply = a.request({"type": "pin", "owner": "a", "floors": floors})
                assert reply["type"] == "error", floors
                assert "floors" in reply["message"]
                assert srv.tracker.assigner.pinned is None
            pin = {"type": "pin", "owner": "a", "floors": [["a"], ["b"]]}
            assert a.request(pin)["type"] == "pinned"


def test_deeply_nested_control_json_gets_an_error(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a:
            body = b'{"type":"status","x":' + b"[" * 20_000 + b"]" * 20_000 + b"}"
            a.control_sock.sendto(framed(body), srv.control_addr)
            reply = decode_message(a.control_sock.recvfrom(65536)[0])
            assert reply["type"] == "error"
            assert a.request({"type": "status"})["type"] == "status"


def raising_once(monkeypatch, name):
    """Make the server's handler ``name`` raise on its next call only."""
    original = getattr(RealtimeServer, name)
    armed = []

    def handler(self, data, addr):
        if armed:
            armed.clear()
            raise RuntimeError("unforeseen")
        return original(self, data, addr)

    monkeypatch.setattr(RealtimeServer, name, handler)
    return armed


def test_an_unforeseen_control_error_is_counted_and_the_thread_goes_on(floor_model, monkeypatch):
    armed = raising_once(monkeypatch, "_handle_control")
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a:
            before = srv.control_rejects
            armed.append(True)
            a.control_sock.sendto(encode_message({"type": "status"}), srv.control_addr)
            assert a.request({"type": "status"})["type"] == "status"
            assert srv.control_rejects == before + 1
            assert srv.audio_rejects == 0


def test_an_unforeseen_audio_error_is_counted_and_the_thread_goes_on(floor_model, monkeypatch):
    armed = raising_once(monkeypatch, "_handle_audio")
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 1) as a:
            armed.append(True)
            a.send_frame(LOUD)
            assert wait_for(lambda: srv.audio_rejects == 1)
            a.send_frame(LOUD)
            assert wait_for(lambda: len(srv.sessions["alice"].inbox) == 1)
            assert srv.audio_rejects == 1
            assert srv.control_rejects == 0


# --- audio plane ---------------------------------------------------------------


def test_mix_returns_peers_but_never_the_listener(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            a.audio_sock.settimeout(2.0)
            b.audio_sock.settimeout(2.0)
            a_frames, b_frames = [], []
            for _ in range(12):
                pump_with(srv, [(a, LOUD), (b, QUIET)])
                a_frames.append(recv_frame(a.audio_sock))
                b_frames.append(recv_frame(b.audio_sock))
            # bob is silent, so alice's own voice is all there could be;
            # the mixer must not echo it back
            assert all(np.all(f == 0) for f in a_frames)
            # alice's voice reaches bob once the jitter buffer primes, at
            # the quiet gain or better
            peak = max(int(np.abs(f.astype(np.int64)).max()) for f in b_frames)
            assert peak >= 1500
            assert len(srv.events) >= 1
            assert srv.events[0].tick == 30


def test_audio_path_is_deterministic(floor_model):
    def run():
        with running_server(floor_model) as srv:
            with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
                a.audio_sock.settimeout(2.0)
                b.audio_sock.settimeout(2.0)
                frames = []
                for i in range(10):
                    pcm = (LOUD if i % 3 else QUIET).copy()
                    pump_with(srv, [(a, pcm), (b, QUIET)])
                    recv_frame(a.audio_sock)
                    frames.append(recv_frame(b.audio_sock))
                return np.vstack(frames)

    assert np.array_equal(run(), run())


def test_rejoiner_hears_the_current_gains_at_once(floor_model):
    # a leave frees the participant id and the next join reuses it; the
    # mixer must not carry the old holder's ramps into the new mixes
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2) as b, joined(srv, "c", 3) as c:
            c.audio_sock.settimeout(2.0)
            sends = [(a, LOUD), (b, QUIET), (c, QUIET)]
            pin = {"type": "pin", "owner": "a", "floors": [["a", "c"], ["b"]]}
            assert a.request(pin)["type"] == "pinned"
            for _ in range(20):  # primes the jitter buffers and settles the ramps
                pump_with(srv, sends)
                together = recv_frame(c.audio_sock)
            assert c.leave()["type"] == "left"
            c.join()
            assert c.participant == 2
            pin = {"type": "pin", "owner": "a", "floors": [["a"], ["b"], ["c"]]}
            assert a.request(pin)["type"] == "pinned"
            pump_with(srv, sends)
            apart = recv_frame(c.audio_sock)
    heard = float(np.abs(together.astype(np.int64)).max())
    assert heard > 5000
    assert float(np.abs(apart.astype(np.int64)).max()) == pytest.approx(
        QUIET_GAIN * heard, rel=0.05
    )


def test_inbox_overflow_drops_oldest(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10):
            pk = Packetizer(ssrc=10)
            for _ in range(81):
                pkt = pk.packetize(QUIET)
                srv._handle_audio(pkt.to_bytes(), ("127.0.0.1", 9))
            session = srv.sessions["alice"]
            assert len(session.inbox) == 64
            assert session.overload_drops == 17


def test_status_reports_jitter_counters(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            a.audio_sock.settimeout(2.0)
            b.audio_sock.settimeout(2.0)
            reply = a.request({"type": "status"})
            assert (reply["changes"], reply["last_change_ms"]) == (0, None)
            for _ in range(5):
                pump_with(srv, [(a, LOUD), (b, QUIET)])
                recv_frame(a.audio_sock)
                recv_frame(b.audio_sock)
            reply = a.request({"type": "status"})
            stats = reply["participants"]["alice"]["jitter"]
            assert stats["received"] == 5
            assert reply["tick_ms"] == 100
            # configuration events since the server started
            assert reply["changes"] == len(srv.events) >= 1
            assert reply["last_change_ms"] == srv.events[-1].tick


def test_status_reports_how_the_search_decided_each_period(floor_model, periods):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a:
            assert a.request({"type": "status"})["search"] is None
            with joined(srv, "bob", 20) as b:
                a.audio_sock.settimeout(2.0)
                b.audio_sock.settimeout(2.0)
                for _ in range(8):
                    pump_with(srv, [(a, LOUD), (b, QUIET)])
                    recv_frame(a.audio_sock)
                    recv_frame(b.audio_sock)
                search = a.request({"type": "status"})["search"]
                assigner = srv.tracker.assigner
                assert search == {"searched": assigner.searched, "reused": assigner.reused,
                                  "bounded": assigner.bounded}
                assert search["searched"] >= 1
                assert search["searched"] + search["reused"] == len(periods[srv.tracker].configs)


# --- a pause inside a turn ------------------------------------------------------


def one_talker(model, frames, lost=()):
    """Play ``frames`` (PCM, one row per transport frame) as one session of
    an in-process room, never delivering the frames numbered in ``lost``.

    Returns the session's VAD bits, one array for the whole stream, and
    its segmenter's view after the last pump.
    """
    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=model)
    try:
        srv._join("a", 1, ("127.0.0.1", 9000))
        packetizer = Packetizer(ssrc=1)
        session = srv.sessions["a"]
        bits = []
        for i, frame in enumerate(frames):
            packet = packetizer.packetize(frame)
            if i not in lost:
                srv._handle_audio(packet.to_bytes(), ("127.0.0.1", 7000))
            srv.pump_once()
            bits.append(session.last_frame[1])
        return np.concatenate(bits), session.segmenter.view()
    finally:
        srv.stop()


def runs_of(bits):
    edges = np.flatnonzero(np.diff(np.concatenate([[0], bits.astype(np.int8), [0]])))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def tone_frames(mask_ms):
    """A 440 Hz tone wherever ``mask_ms`` is true, over a faint hiss, cut
    into transport frames."""
    t = np.arange(len(mask_ms) * FRAME_SAMPLES // FRAME_MS)
    mask = np.repeat(mask_ms, FRAME_SAMPLES // FRAME_MS)
    hiss = np.random.default_rng(3).normal(0.0, 8.0, t.size)
    pcm = np.clip(np.rint(8000 * np.sin(2 * np.pi * 440 * t / 8000) * mask + hiss),
                  -32768, 32767).astype(np.int16)
    return pcm.reshape(-1, FRAME_SAMPLES)


def test_a_dip_inside_a_tone_is_two_runs_of_bits_but_one_turn(floor_model):
    # the detector holds nothing over the 100 ms dip; the segmenter's
    # bridge is the one rule that keeps the turn whole
    mask = np.zeros(1500, dtype=bool)
    mask[200:600] = mask[700:1100] = True
    bits, (starts, ends) = one_talker(floor_model, tone_frames(mask))
    runs = runs_of(bits)
    assert len(runs) == 2
    assert runs[1][0] - runs[0][1] == 100 < BRIDGE_GAP_MS
    assert (starts, ends) == ([runs[0][0]], [runs[1][1]])


def test_a_packet_lost_inside_speech_is_two_runs_of_bits_but_one_turn(floor_model):
    # the jitter buffer plays the lost frame as silence, 20 ms the
    # detector marks as such; the bridge keeps the turn whole
    mask = np.zeros(1500, dtype=bool)
    mask[200:1100] = True
    bits, (starts, ends) = one_talker(floor_model, tone_frames(mask), lost={30})
    runs = runs_of(bits)
    assert len(runs) == 2
    assert runs[1][0] - runs[0][1] == FRAME_MS
    assert (starts, ends) == ([runs[0][0]], [runs[1][1]])
    # played whole, the same tone is one run
    whole, _ = one_talker(floor_model, tone_frames(mask))
    assert runs_of(whole) == [(runs[0][0], runs[1][1])]


# --- pinning -------------------------------------------------------------------


def test_an_unpin_from_an_unknown_owner_gets_an_error(floor_model):
    # as a pin from that owner does; it was answered "unpinned"
    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=floor_model)
    try:
        for i, name in enumerate("ab"):
            srv._join(name, 1 + i, ("127.0.0.1", 9000 + i))
        unknown = {"type": "error", "message": "unknown participant 'nobody'"}
        assert srv._unpin({"owner": "nobody"}) == unknown
        assert srv._pin({"owner": "nobody", "floors": [["a", "b"]]}) == unknown
        assert srv._pin({"owner": "a", "floors": [["a", "b"]]})["type"] == "pinned"
        assert srv._unpin({"owner": "nobody"}) == unknown
        assert srv.tracker.assigner.pin_owner == "a"
        assert srv._unpin({"owner": "a"}) == {"type": "unpinned", "owner": "a"}
        assert srv.tracker.assigner.pinned is None
    finally:
        srv.stop()


def test_pin_overrides_the_search_until_unpinned(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            a.audio_sock.settimeout(2.0)
            b.audio_sock.settimeout(2.0)
            for _ in range(2):
                pump_with(srv, [(a, LOUD), (b, QUIET)])
                recv_frame(a.audio_sock)
                recv_frame(b.audio_sock)
            reply = a.request(
                {"type": "pin", "owner": "alice", "floors": [["alice"], ["bob"]]}
            )
            assert reply["type"] == "pinned"
            for _ in range(2):
                pump_with(srv, [(a, LOUD), (b, QUIET)])
                recv_frame(a.audio_sock)
                recv_frame(b.audio_sock)
            status = a.request({"type": "status"})
            assert status["floors"] == [["alice"], ["bob"]]

            wrong = b.request({"type": "unpin", "owner": "bob"})
            assert wrong["type"] == "error"
            ok = a.request({"type": "unpin", "owner": "alice"})
            assert ok["type"] == "unpinned"


def test_pin_must_cover_every_participant(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20):
            reply = a.request(
                {"type": "pin", "owner": "alice", "floors": [["alice"]]}
            )
            assert reply["type"] == "error"


def test_pin_names_must_be_known(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20):
            reply = a.request(
                {"type": "pin", "owner": "alice", "floors": [["alice"], ["zed"]]}
            )
            assert reply["type"] == "error"
            assert "zed" in reply["message"]


# --- control addresses ---------------------------------------------------------


def test_only_a_sessions_own_address_acts_for_it(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            pin = {"type": "pin", "owner": "alice", "floors": [["alice"], ["bob"]]}
            assert a.request(pin)["type"] == "pinned"
            pinned = srv.tracker.assigner.pinned
            assert pinned is not None

            assert b.request({"type": "leave", "name": "alice"})["type"] == "error"
            assert b.request({"type": "unpin", "owner": "alice"})["type"] == "error"
            as_alice = {"type": "pin", "owner": "alice", "floors": [["alice", "bob"]]}
            assert b.request(as_alice)["type"] == "error"
            assert "alice" in srv.sessions
            assert srv.tracker.assigner.pinned == pinned
            assert b.request({"type": "status"})["control_rejects"] == 3

            assert a.leave()["type"] == "left"


def test_a_rejoin_must_come_from_the_sessions_own_address(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            reply = b.request({"type": "join", "name": "alice", "ssrc": 10})
            assert reply["type"] == "error"
            assert srv.sessions["alice"].control_addr == a.control_sock.getsockname()
            assert b.request({"type": "leave", "name": "alice"})["type"] == "error"
            assert "alice" in srv.sessions
            assert b.request({"type": "status"})["control_rejects"] == 2
            assert a.request({"type": "join", "name": "alice", "ssrc": 10})["type"] == "joined"


def test_the_first_audio_packet_fixes_where_the_mix_goes(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            pump_with(srv, [(a, LOUD), (b, LOUD)])
            alice = srv.sessions["alice"]
            assert alice.audio_addr == a.audio_sock.getsockname()
            recv_frame(a.audio_sock)
            recv_frame(b.audio_sock)
            # a packet with alice's ssrc from bob's audio socket is dropped
            forged = AudioPacket(sequence=1, timestamp=0, ssrc=10, payload=b"\xff" * 160)
            b.audio_sock.sendto(forged.to_bytes(), srv.audio_addr)
            assert wait_for(lambda: srv.audio_rejects == 1)
            assert not alice.inbox
            assert alice.audio_addr == a.audio_sock.getsockname()
            pump_with(srv, [(a, LOUD), (b, LOUD)])
            assert len(recv_frame(a.audio_sock)) == 160
            assert len(recv_frame(b.audio_sock)) == 160
            assert a.request({"type": "status"})["audio_rejects"] == 1


def test_malformed_audio_is_rejected_and_the_room_plays_on(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a, joined(srv, "bob", 20) as b:
            a.audio_sock.settimeout(2.0)
            b.audio_sock.settimeout(2.0)
            for _ in range(4):
                pump_with(srv, [(a, LOUD), (b, QUIET)])
                recv_frame(a.audio_sock)
                recv_frame(b.audio_sock)
            # a short payload and a payload type other than mu-law, from
            # alice's own address with alice's ssrc
            short = AudioPacket(sequence=4, timestamp=640, ssrc=10, payload=b"\xff" * 100)
            alaw = AudioPacket(sequence=5, timestamp=800, ssrc=10,
                               payload=b"\xff" * 160, payload_type=8)
            a.audio_sock.sendto(short.to_bytes(), srv.audio_addr)
            a.audio_sock.sendto(alaw.to_bytes(), srv.audio_addr)
            assert wait_for(lambda: srv.audio_rejects == 2)
            assert not srv.sessions["alice"].inbox
            for _ in range(4):
                srv.pump_once()
                assert len(recv_frame(a.audio_sock)) == 160
                assert len(recv_frame(b.audio_sock)) == 160
            reply = a.request({"type": "status"})
            assert reply["audio_rejects"] == 2
            assert reply["participants"]["alice"]["jitter"]["received"] == 4


def test_unparseable_audio_datagrams_are_counted(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a:
            # shorter than the header
            a.audio_sock.sendto(b"\x80\x00\x01", srv.audio_addr)
            assert wait_for(lambda: srv.audio_rejects == 1)
            # a whole frame under a version-1 header
            data = bytearray(Packetizer(ssrc=10).packetize(QUIET).to_bytes())
            data[0] = 1 << 6
            a.audio_sock.sendto(bytes(data), srv.audio_addr)
            assert wait_for(lambda: srv.audio_rejects == 2)
            assert a.request({"type": "status"})["audio_rejects"] == 2
            assert not srv.sessions["alice"].inbox


def test_audio_on_an_unknown_ssrc_is_counted(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "alice", 10) as a:
            stranger = Packetizer(ssrc=11)
            for _ in range(50):
                srv._handle_audio(stranger.packetize(QUIET).to_bytes(), ("127.0.0.1", 9))
            assert a.request({"type": "status"})["audio_rejects"] == 50
            assert not srv.sessions["alice"].inbox


def test_status_counts_pumps_that_start_a_frame_late(floor_model):
    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=floor_model)
    pump = srv.pump_once

    def slow_pump():
        time.sleep(0.045)  # more than two frames
        pump()

    srv.pump_once = slow_pump
    runner = threading.Thread(target=srv.run)
    runner.start()
    try:
        with joined(srv, "alice", 10) as a:
            assert wait_for(lambda: srv.overruns >= 2)
            reply = a.request({"type": "status"})
            assert reply["overruns"] >= 2
    finally:
        srv.stop()
        runner.join(timeout=5.0)
    assert not runner.is_alive()


# --- membership changes in place ---------------------------------------------


def test_rebuild_after_a_long_session_matches_a_full_history_tracker(floor_model, periods):
    """After 90 s at n=10, a leave and a rejoin change the room's tracker
    in place at the next pump; its periods after the rejoin equal those
    of a tracker fed the whole history of the final room, the rejoiner
    silent before."""
    from floorspace.corpus import GeneratorConfig, generate
    from floorspace.evaluation import FloorTracker
    from floorspace.transport import FRAME_SAMPLES

    frame_ms, names = 20, [f"p{i}" for i in range(10)]
    corpus = generate(GeneratorConfig(
        participants=10, duration_ms=100_000, seed=8,
        schedule=[(0, tuple((2 * i, 2 * i + 1) for i in range(5)))]))
    bits = [s.bits for s in corpus.streams().values()]
    t = np.arange(FRAME_SAMPLES)
    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=floor_model)
    history = {}  # every frame of bits each participant's VAD produced
    try:
        for i, name in enumerate(names):
            srv._join(name, 100 + i, ("127.0.0.1", 9))
        lookback = sum(floor_model.binning.window_lengths_ms)
        packetizers = [Packetizer(ssrc=100 + i) for i in range(10)]

        def pump():
            tick = srv.tick
            for i, name in enumerate(names):
                mask = np.repeat(bits[i][tick : tick + frame_ms], FRAME_SAMPLES // frame_ms)
                tone = 8000 * np.sin(2 * np.pi * (300 + 45 * i) * (t + tick * 8) / 8000)
                pcm = (tone * mask).astype(np.int16)
                srv.sessions[name].push_packet(packetizers[i].packetize(pcm))
            srv.pump_once()
            for s in srv.sessions.values():
                history.setdefault(s.participant, []).append(s.stream.bits[-frame_ms:])

        # a pin keeps the 90 s cheap; the features run as always
        everyone = {"owner": "p0", "floors": [names]}
        srv._pin(everyone)
        # the pin made the room's tracker follow the joins
        tracker = srv.tracker
        while srv.tick < 90_000:
            pump()
        # everyone spoke in the lookback the tracker goes on reading
        assert all(np.concatenate(f)[-lookback:].any() for f in history.values())
        assert srv._leave("p3")["type"] == "left"
        rejoined = srv._join("p3", 103, ("127.0.0.1", 9))["participant"]
        rejoined_at = srv.tick

        sessions = sorted(srv.sessions.values(), key=lambda s: s.participant)
        full = FloorTracker(
            [s.participant for s in sessions], floor_model,
            {s.participant: s.segmenter.view for s in sessions})
        # the same pin until the rejoin, so both assigners carry the
        # same previous choice into the periods compared
        full.assigner.pin([range(10)], "p0", range(10))
        history[rejoined] = [np.zeros(rejoined_at, dtype=bool)]
        full.add_activity(np.stack([np.concatenate(history[s.participant]) for s in sessions]))
        full.process_due()
        full.assigner.unpin("p0")
        for k in range(10):
            pump()
            if k == 0:
                # the first pump since applied the leave and the rejoin
                assert srv.tracker is tracker and tracker.assigner.pinned is None
                assert max(len(s) for s in tracker.streams.values()) <= lookback + frame_ms
            full.add_activity(np.stack([history[s.participant][-1] for s in sessions]))
            full.process_due()
    finally:
        srv.stop()

    tracker, full = periods[tracker], periods[full]
    after = [i for i, t in enumerate(tracker.ticks) if t > rejoined_at]
    since = [i for i, t in enumerate(full.ticks) if t > rejoined_at]
    assert len(after) == 6 and [tracker.ticks[i] for i in after] == [full.ticks[i] for i in since]
    assert np.array_equal(np.vstack([tracker.posteriors[i] for i in after]),
                          np.vstack([full.posteriors[i] for i in since]))
    assert [tracker.configs[i].partition for i in after] == [
        full.configs[i].partition for i in since]


def _room(model, n, bits, silent=()):
    """An in-process room of ``n`` and a pump that plays ``bits`` as tones."""
    from floorspace.transport import FRAME_SAMPLES

    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=model)
    names = [f"p{i}" for i in range(n)]
    packetizers = {}

    def join(i):
        srv._join(names[i], 100 + i, ("127.0.0.1", 9000 + i))
        packetizers[i] = Packetizer(ssrc=100 + i)

    t = np.arange(FRAME_SAMPLES)

    def pump():
        tick = srv.tick
        for i, name in enumerate(names):
            if name not in srv.sessions:
                continue
            mask = np.repeat(bits[i][tick : tick + 20], FRAME_SAMPLES // 20)
            if i in silent:
                mask[:] = 0
            tone = 8000 * np.sin(2 * np.pi * (300 + 45 * i) * (t + tick * 8) / 8000)
            srv._handle_audio(packetizers[i].packetize((tone * mask).astype(np.int16))
                              .to_bytes(), ("127.0.0.1", 7000 + i))
        srv.pump_once()

    for i in range(n):
        join(i)
    return srv, join, pump


def test_status_counts_the_periods_the_bound_decided(floor_model):
    """In a steady ten-person room most new posterior rows move a few
    pairs, so the anchor's bound decides some of them without a program
    pass; each of those is a searched period."""
    from floorspace.corpus import GeneratorConfig, generate

    corpus = generate(GeneratorConfig(
        participants=10, duration_ms=8_000, seed=32,
        schedule=[(0, tuple((2 * i, 2 * i + 1) for i in range(5)))]))
    srv, _, pump = _room(floor_model, 10, [s.bits for s in corpus.streams().values()])
    try:
        while srv.tick < 6_000:
            pump()
        search = srv._status()["search"]
    finally:
        srv.stop()
    assert 0 < search["bounded"] <= search["searched"]


def test_a_leave_and_rejoin_between_periods_keeps_the_floors_and_the_search(
        floor_model, periods):
    """The room's tracker lives on: a leave and rejoin of a silent member
    with no period between adds no configuration event, and the next
    10-person period is decided as in a room without the change: by the
    kept repeat cache or margin, not by a fresh search."""
    from floorspace.corpus import GeneratorConfig, generate

    corpus = generate(GeneratorConfig(
        participants=10, duration_ms=20_000, seed=31,
        schedule=[(0, tuple((2 * i, 2 * i + 1) for i in range(5)))]))
    bits = [s.bits for s in corpus.streams().values()]

    def counts(srv):
        a = srv.tracker.assigner
        return (a.searched, a.reused, len(srv.events),
                srv.tracker.configs[-1].partition)

    # a room without the change: the first pump after 12 s whose one
    # period the search did not decide afresh
    srv, _, pump = _room(floor_model, 10, bits, silent={9})
    try:
        while srv.tick < 12_000:
            pump()
        while True:
            log = periods[srv.tracker]
            tick, (searched, *_), decided = srv.tick, counts(srv), len(log.configs)
            pump()
            if len(log.configs) == decided + 1 and counts(srv)[0] == searched:
                break
        want = counts(srv)
    finally:
        srv.stop()

    srv, join, pump = _room(floor_model, 10, bits, silent={9})
    try:
        while srv.tick < tick:
            pump()
        tracker = srv.tracker
        assert srv._leave("p9")["type"] == "left"
        join(9)
        pump()
        assert srv.tracker is tracker and len(tracker.participants) == 10
        assert counts(srv) == want
    finally:
        srv.stop()


def test_a_pin_dissolves_at_a_leave_and_rejoin(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2), joined(srv, "c", 3) as c:
            pin = {"type": "pin", "owner": "a", "floors": [["a"], ["b"], ["c"]]}
            assert a.request(pin)["type"] == "pinned"
            assert srv.tracker.assigner.pinned is not None
            # the same ids come back before any period runs; the next
            # pump applies the leave and the rejoin
            assert c.leave()["type"] == "left"
            c.join()
            srv.pump_once()
            assert srv.tracker.participants == (0, 1, 2)
            assert srv.tracker.assigner.pinned is None
            assert a.request({"type": "unpin", "owner": "a"})["type"] == "unpinned"


def test_listeners_keep_their_floor_mates_gains_across_a_leave(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2) as b, \
                joined(srv, "c", 3) as c, joined(srv, "d", 4) as d:
            for client in (a, b, c, d):
                client.audio_sock.settimeout(2.0)
            pin = {"type": "pin", "owner": "a", "floors": [["a", "b"], ["c", "d"]]}
            assert a.request(pin)["type"] == "pinned"
            sends = [(a, QUIET), (b, LOUD), (c, QUIET)]
            # prime the jitter buffers and settle the ramps; stop where the
            # next pump decides no period (periods fall on multiples of 30 ms)
            while srv.tick < 400 or srv.tick % 60:
                pump_with(srv, sends + [(d, QUIET)])
                before = {x.name: recv_frame(x.audio_sock) for x in (a, b, c, d)}
            assert np.all(before["a"] == before["a"][0]) and before["a"][0] > 5000
            assert d.leave()["type"] == "left"
            # the floors of the last period, less the leaver, until the next
            pump_with(srv, sends)
            after = {x.name: recv_frame(x.audio_sock) for x in (a, b, c)}
    for name in "abc":
        assert np.array_equal(after[name], before[name]), name


# --- who applies membership ------------------------------------------------------


def test_joins_and_leaves_reach_the_tracker_and_mixer_on_the_pumping_thread(
        floor_model, monkeypatch):
    """A join or leave over the control socket only edits the session
    table; the tracker is made and regrouped, and the mixer forgets a
    leaver, on the thread that pumps."""
    from floorspace.evaluation import FloorTracker
    from floorspace.features import FeatureEngine
    from floorspace.mixer import Mixer

    calls = []

    def record(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((FeatureEngine, "_regroup"), (FloorTracker, "__init__"), (Mixer, "forget")):
        record(cls, name)
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2), joined(srv, "c", 3) as c:
            srv.pump_once()
            assert c.leave()["type"] == "left"
            # a status before the pump reads the table, not the tracker
            status = a.request({"type": "status"})
            assert sorted(sum(status["floors"], [])) == ["a", "b"]
            srv.pump_once()
            c.join()
            status = a.request({"type": "status"})
            assert ["c"] in status["floors"] and set(status["participants"]) == set("abc")
            srv.pump_once()
            assert srv.tracker.participants == (0, 1, 2)
    assert {name for name, _ in calls} == {"_regroup", "__init__", "forget"}
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_joins_and_leaves_from_many_threads_reach_the_tracker_whole(floor_model, monkeypatch):
    """Control threads churning joins and leaves while the pump runs: no
    change is lost, and every regroup runs on the pumping thread."""
    from floorspace.features import FeatureEngine

    regroups = []
    regroup = FeatureEngine._regroup
    monkeypatch.setattr(FeatureEngine, "_regroup",
                        lambda *a: regroups.append(threading.get_ident()) or regroup(*a))
    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=floor_model)
    replies = []
    monkeypatch.setattr(srv, "_send_control", lambda msg, addr: replies.append(msg["type"]))
    rounds, threads = 40, 4

    def churn(k):
        join = encode_message({"type": "join", "name": f"p{k}", "ssrc": 100 + k})
        leave = encode_message({"type": "leave", "name": f"p{k}"})
        addr = ("127.0.0.1", 9000 + k)
        for _ in range(rounds):
            srv._handle_control(join, addr)
            srv._handle_control(leave, addr)
        srv._handle_control(join, addr)

    workers = [threading.Thread(target=churn, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        deadline = time.monotonic() + 30
        while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
            srv.pump_once()
        for w in workers:
            w.join(timeout=5)
            assert not w.is_alive()
        srv.pump_once()
    finally:
        sys.setswitchinterval(interval)
        srv.stop()
    assert replies.count("joined") == threads * (rounds + 1)
    assert replies.count("left") == threads * rounds
    assert srv.tracker.participants == tuple(range(threads))
    assert regroups and set(regroups) == {threading.get_ident()}


def test_a_pin_sent_before_the_pump_covers_the_joiner_and_holds(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2):
            srv.pump_once()
            with joined(srv, "c", 3):
                pin = {"type": "pin", "owner": "a", "floors": [["a", "c"], ["b"]]}
                assert a.request(pin)["type"] == "pinned"
                while not srv.tracker.configs:
                    srv.pump_once()
                assert srv.tracker.assigner.pinned == ((0, 2), (1,))
                assert a.request({"type": "status"})["floors"] == [["a", "c"], ["b"]]


def test_a_status_before_the_pump_lists_a_joiner_alone(floor_model):
    with running_server(floor_model) as srv:
        with joined(srv, "a", 1) as a, joined(srv, "b", 2):
            pin = {"type": "pin", "owner": "a", "floors": [["a", "b"]]}
            assert a.request(pin)["type"] == "pinned"
            while not srv.tracker.configs:
                srv.pump_once()
            assert a.request({"type": "status"})["floors"] == [["a", "b"]]
            with joined(srv, "c", 3):
                status = a.request({"type": "status"})
                assert status["floors"] == [["a", "b"], ["c"]]
                assert set(status["participants"]) == {"a", "b", "c"}


def test_a_join_and_leave_between_pumps_leave_the_tracker_untouched(
        floor_model, monkeypatch, periods):
    """They never reach the tracker; like any join or leave, they
    dissolve a pin."""
    from floorspace.features import FeatureEngine

    srv = RealtimeServer(ServerConfig(audio_port=0, control_port=0), model=floor_model)
    try:
        for i, name in enumerate("ab"):
            srv._join(name, 1 + i, ("127.0.0.1", 9000 + i))
        while len(periods[srv.tracker].configs if srv.tracker else ()) < 3:
            srv.pump_once()
        tracker = srv.tracker
        assigner = tracker.assigner
        counters = (assigner.searched, assigner.reused)
        cum = tracker._cum
        counts = cum.copy()
        assert srv._pin({"owner": "a", "floors": [["a", "b"]]})["type"] == "pinned"
        regroups = []
        regroup = FeatureEngine._regroup
        monkeypatch.setattr(FeatureEngine, "_regroup",
                            lambda *a: regroups.append(a) or regroup(*a))
        assert srv._join("z", 9, ("127.0.0.1", 9100))["type"] == "joined"
        assert srv._leave("z")["type"] == "left"
        assert srv._status()["floors"]
        with srv._lock:
            srv._follow_sessions()  # applies the table, as the next pump does first
        assert srv.tracker is tracker and tracker.participants == (0, 1)
        assert assigner.pinned is None
        assert (assigner.searched, assigner.reused) == counters
        assert tracker._cum is cum and np.array_equal(cum, counts)
        srv.pump_once()
        assert not regroups
    finally:
        srv.stop()
