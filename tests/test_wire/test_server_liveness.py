"""A busy sink must still answer PING.

``ShardRouter.probe`` decides a shard is dead when its PING goes
unanswered, so a shard that is merely verifying a large batch must keep
answering.  Today ``SinkServer._ingest_batch`` runs ``service.flush()``
inside the event loop, so a PING on another connection waits for the
whole batch: the test below pins that as a strict xfail until
verification moves off the loop.

The server runs on its own event loop in a thread.  The batch carries
200 packets with distinct reports and one garbage mark each on a 32 x 32
grid (1,023 keys), so no chain ever verifies, the learned route never
warms, and every packet pays an exhaustive anonymous-ID table: several
hundred milliseconds of verification.  Once the server-side table
counter shows the batch is being processed, a PING goes out on a second
connection; on loopback the verdict's bytes are readable as soon as the
server has written them, so the verdict must not be readable yet when
the PING comes back.
"""

import asyncio
import select
import socket
import threading
import time

import pytest

from repro.crypto.keys import KeyStore
from repro.experiments.cluster_sweep import make_sink_factory
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.service import SinkIngestService
from repro.wire.frames import FrameDecoder, FrameType, encode_frame
from repro.wire.messages import encode_batch
from repro.wire.server import SinkServer

GRID_SIDE = 32
PACKETS = 200
TIMEOUT_S = 60.0
FMT = PNMMarking(mark_prob=1.0).fmt


def read_frame(sock: socket.socket, timeout: float = TIMEOUT_S):
    """Block until one whole frame arrives on ``sock``."""
    decoder = FrameDecoder()
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("no frame before the deadline")
        readable, _, _ = select.select([sock], [], [], remaining)
        if readable:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            frames = decoder.feed(chunk)
            if frames:
                return frames[0]


@pytest.fixture
def server_thread():
    """A :class:`SinkServer` on its own event loop in a daemon thread."""
    topology = grid_topology(GRID_SIDE, GRID_SIDE)
    keystore = KeyStore.from_master_secret(b"liveness", topology.sensor_nodes())
    service = SinkIngestService(make_sink_factory(topology, keystore)())
    server = SinkServer(service, FMT)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(TIMEOUT_S)
    try:
        yield server, topology
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(TIMEOUT_S)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(TIMEOUT_S)
        loop.close()
        service.close()


def slow_batch(delivering_node: int) -> bytes:
    garbage = Mark(id_field=b"\x00" * FMT.id_len, mac=b"\x00" * FMT.mac_len)
    packets = [
        MarkedPacket(
            report=Report(event=b"liveness", location=(1.0, 1.0), timestamp=t),
            marks=(garbage,),
        )
        for t in range(PACKETS)
    ]
    return encode_frame(FrameType.BATCH, encode_batch(packets, delivering_node, FMT))


@pytest.mark.xfail(
    strict=True,
    reason="SinkServer verifies a batch inside its event loop, so PING "
    "waits for the whole batch (see ROADMAP: a busy shard stays alive)",
)
def test_ping_answered_while_batch_verifies(server_thread):
    server, topology = server_thread
    cache = server.service.cache
    delivering_node = sorted(topology.neighbors(topology.sink))[0]
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address) as batch_conn, socket.create_connection(
        address
    ) as ping_conn:
        misses_before = cache.table_misses
        batch_conn.sendall(slow_batch(delivering_node))
        deadline = time.monotonic() + TIMEOUT_S
        while cache.table_misses == misses_before:
            assert time.monotonic() < deadline, "server never started the batch"
            time.sleep(0.001)
        ping_conn.sendall(encode_frame(FrameType.PING, b"alive?"))
        pong = read_frame(ping_conn)
        verdict_ready, _, _ = select.select([batch_conn], [], [], 0)
        verdict = read_frame(batch_conn)
    assert pong.frame_type is FrameType.PING
    assert pong.payload == b"alive?"
    assert verdict.frame_type is FrameType.VERDICT
    assert cache.table_misses - misses_before == PACKETS
    assert not verdict_ready, "PING came back only after the batch's VERDICT"
