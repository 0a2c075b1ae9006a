"""
A live room over loopback UDP
=============================

Starts the real-time server on ephemeral ports, joins two scripted
clients, and pushes audio through the whole pipeline: codec on the
wire, jitter buffer, activity detection, floor tracking, and the
per-listener mix coming back. The server is pumped by hand so every
step is visible; a production deployment would call run() instead.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from floorspace import GeneratorConfig, generate, make_training_instances, save_model, train
from floorspace.server import RealtimeServer, ServerConfig
from loopback_client import ScriptedClient  # demos/loopback_client.py, beside this script

corpus = generate(GeneratorConfig(
    participants=4,
    duration_ms=300_000,
    schedule=[(0, ((0, 1), (2, 3)))],
    seed=13,
))
model = train(make_training_instances(
    corpus.streams(), corpus.utterances(), duration_ms=corpus.duration_ms,
))
# the server reads the model file once, when it is built
with tempfile.TemporaryDirectory() as tmp:
    model_path = Path(tmp) / "model.json"
    save_model(model, str(model_path))
    cfg = ServerConfig(audio_port=0, control_port=0, model_path=str(model_path))
    server = RealtimeServer(cfg)
server.start()
print(f"server up: audio {server.audio_addr}, control {server.control_addr}")

alice = ScriptedClient("alice", 0x1111, server.audio_addr, server.control_addr)
bob = ScriptedClient("bob", 0x2222, server.audio_addr, server.control_addr)
print(f"alice joined as participant {alice.join()['participant']}")
print(f"bob joined as participant {bob.join()['participant']}")

LOUD = np.full(160, 8000, dtype=np.int16)
QUIET = np.zeros(160, dtype=np.int16)

# alice talks, bob stays silent; one pump per 20 ms frame
def wait_for_inboxes(n: int) -> None:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with server._lock:
            if all(len(s.inbox) >= n for s in server.sessions.values()):
                return
        time.sleep(0.001)
    raise TimeoutError("frames never arrived")

for _ in range(12):
    alice.send_frame(LOUD)
    bob.send_frame(QUIET)
    wait_for_inboxes(1)
    server.pump_once()

alice.drain_audio()
bob.drain_audio()
a_peak = max(int(np.abs(f).max()) for f in alice.received)
b_peak = max(int(np.abs(f).max()) for f in bob.received)
print(f"\nafter {server.tick} ms of alice talking:")
print(f"  alice hears peak {a_peak} (her own voice is excluded)")
print(f"  bob hears peak {b_peak} (alice, through codec and ramp-in)")

status = alice.request({"type": "status"})
floors = [" + ".join(block) for block in status["floors"]]
print(f"  floors: {floors}, server clock at {status['tick_ms']} ms")
jit = status["participants"]["alice"]["jitter"]
print(f"  alice jitter buffer: {jit}")

reply = alice.request({
    "type": "pin", "owner": "alice", "floors": [["alice", "bob"]],
})
print(f"\npin request -> {reply['type']}; layout is frozen until alice unpins")
alice.request({"type": "unpin", "owner": "alice"})

bob.leave()
alice.leave()
bob.close()
alice.close()
server.stop()
print("clients left, server stopped")
