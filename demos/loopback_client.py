"""A scripted loopback client for the live server.

Not part of the package: ``demos/05_live_loopback.py`` and
``tests/test_server.py`` drive a ``floorspace.server.RealtimeServer``
with it over loopback UDP. It is not a demo itself (the demos are the
``0*.py`` scripts beside it).
"""

from __future__ import annotations

import socket
from typing import List, Optional, Tuple

import numpy as np

from floorspace.errors import FloorspaceError, PacketFormatError
from floorspace.server import decode_message, encode_message
from floorspace.transport import AudioPacket, Packetizer, decode_ulaw


class ScriptedClient:
    """Minimal loopback client for tests and demos.

    Sends prepared PCM frames on the audio socket, sends control
    requests and reads their one reply each, and collects whatever
    mixed audio comes back.
    """

    def __init__(
        self,
        name: str,
        ssrc: int,
        server_audio: Tuple[str, int],
        server_control: Tuple[str, int],
    ):
        self.name = name
        self.ssrc = ssrc
        self.server_audio = server_audio
        self.server_control = server_control
        self.audio_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.audio_sock.bind(("127.0.0.1", 0))
        self.audio_sock.settimeout(0.2)
        self.control_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.control_sock.bind(("127.0.0.1", 0))
        self.control_sock.settimeout(2.0)
        self.packetizer = Packetizer(ssrc=ssrc)
        self.participant: Optional[int] = None
        self.received: List[np.ndarray] = []

    def request(self, msg: dict) -> dict:
        self.control_sock.sendto(encode_message(msg), self.server_control)
        data, _ = self.control_sock.recvfrom(65536)
        return decode_message(data)

    def join(self) -> dict:
        reply = self.request({"type": "join", "name": self.name, "ssrc": self.ssrc})
        if reply["type"] != "joined":
            raise FloorspaceError(f"join failed: {reply}")
        self.participant = reply["participant"]
        return reply

    def leave(self) -> dict:
        return self.request({"type": "leave", "name": self.name})

    def send_frame(self, pcm: np.ndarray) -> None:
        pkt = self.packetizer.packetize(pcm)
        self.audio_sock.sendto(pkt.to_bytes(), self.server_audio)

    def drain_audio(self) -> int:
        """Collect any mixed frames waiting on the audio socket."""
        got = 0
        self.audio_sock.settimeout(0.01)
        while True:
            try:
                data, _ = self.audio_sock.recvfrom(65536)
            except (socket.timeout, OSError):
                break
            try:
                pkt = AudioPacket.from_bytes(data)
            except PacketFormatError:
                continue
            self.received.append(decode_ulaw(pkt.payload))
            got += 1
        return got

    def close(self) -> None:
        self.audio_sock.close()
        self.control_sock.close()
