"""Server/client behavior over real loopback sockets.

Each test spins an ephemeral-port :class:`SinkServer` inside its own
``asyncio.run``; the workload is a small grid deployment from
``cluster_sweep.build_cluster_workload`` so verdicts are meaningful, not mocked.
"""

import asyncio
import struct
import zlib

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.marking.pnm import PNMMarking
from repro.obs.profiling import ObsProvider
from repro.packets.marks import MarkFormat
from repro.service import SinkIngestService
from repro.wire.client import SinkClient
from repro.wire.errors import (
    BackpressureError,
    ConnectError,
    ErrorCode,
    RemoteError,
)
from repro.wire.codec import write_varint
from repro.wire.frames import PROTOCOL_VERSION, FrameDecoder, FrameType, encode_frame
from repro.wire.messages import WireErrorInfo, decode_error, encode_batch, encode_error
from repro.wire.server import SinkServer

GRID_SIDE = 6
PACKETS = 12


@pytest.fixture(scope="module")
def workload():
    topology, keystore, [(stream, delivering)], _ = build_cluster_workload(
        GRID_SIDE,
        PACKETS,
        sources=1,
        batch_size=PACKETS,
        master_secret=b"service-sweep",
    )
    return topology, keystore, stream, delivering


def make_service(workload, capacity: int | None = None) -> SinkIngestService:
    topology, keystore, stream, _delivering = workload
    sink = make_sink_factory(topology, keystore)()
    return SinkIngestService(
        sink, capacity=len(stream) if capacity is None else capacity
    )


FMT = PNMMarking(mark_prob=1.0).fmt


class TestPing:
    def test_echo(self, workload):
        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        echo = await client.ping(b"version-probe")
                    await server.wait_idle()
            return echo

        assert asyncio.run(scenario()) == b"version-probe"

    def test_wait_idle_waits_for_live_handlers(self, workload):
        # Not idle while a client is connected; idle once it has gone.
        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        await client.ping()
                        busy = await server.wait_idle(timeout=0.01)
                    idle = await server.wait_idle()
            return busy, idle

        assert asyncio.run(scenario()) == (False, True)


class TestBatchIngest:
    def test_verdict_matches_in_process(self, workload):
        topology, keystore, stream, delivering = workload
        reference = make_sink_factory(topology, keystore)()
        for packet in stream:
            reference.receive(packet, delivering)
        expected = reference.verdict()

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        verdict = await client.send_batch(stream, delivering, FMT)
                    await server.wait_idle()
                    stats = server.stats()
            return verdict, stats

        verdict, stats = asyncio.run(scenario())
        assert verdict.identified == expected.identified
        assert verdict.packets_used == expected.packets_used
        assert verdict.suspect_neighborhood() == expected.suspect
        assert stats["batches_ok"] == 1
        assert stats["connections_active"] == 0

    def test_single_report_path(self, workload):
        """A single report is a BATCH of one."""
        _topology, _keystore, stream, delivering = workload

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        return await client.send_batch(
                            [stream[0]], delivering, FMT
                        )

        verdict = asyncio.run(scenario())
        assert verdict.packets_used == 1

    def test_pipelined_batches_reply_in_order(self, workload):
        _topology, _keystore, stream, delivering = workload
        batches = [
            (stream[:4], delivering),
            (stream[4:8], delivering),
            (stream[8:], delivering),
        ]

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        return await client.send_batches(batches, FMT)

        replies = asyncio.run(scenario())
        assert [r.packets_used for r in replies] == [4, 8, PACKETS]


class TestFrameCounters:
    def test_client_counts_every_pipelined_reply(self, workload):
        """k pipelined batches: the client counts k VERDICT frames, and its
        VERDICT rx bytes equal the server's VERDICT tx bytes.  Replies
        that arrive together in one read are each counted."""
        _topology, _keystore, stream, delivering = workload
        batches = [(stream[i : i + 2], delivering) for i in range(0, PACKETS, 2)]

        async def scenario():
            client_obs, server_obs = ObsProvider(), ObsProvider()
            with make_service(workload) as service:
                async with SinkServer(service, FMT, obs=server_obs) as server:
                    async with SinkClient(
                        "127.0.0.1", server.port, obs=client_obs
                    ) as client:
                        replies = await client.send_batches(batches, FMT)
                    await server.wait_idle()
            return replies, client_obs.registry, server_obs.registry

        replies, client, server = asyncio.run(scenario())
        assert len(replies) == len(batches) == 6

        def count(registry, name):
            return registry.get(name).get(frame="VERDICT")

        assert count(client, "wire_frames_rx_total") == len(batches)
        assert count(server, "wire_frames_tx_total") == len(batches)
        assert count(client, "wire_bytes_rx_total") == count(
            server, "wire_bytes_tx_total"
        )
        assert client.get("wire_bytes_tx_total").get(frame="BATCH") == (
            server.get("wire_bytes_rx_total").get(frame="BATCH")
        )


class TestBackpressure:
    def test_shed_batch_gets_typed_retry_hint(self, workload):
        _topology, _keystore, stream, delivering = workload

        async def scenario():
            with make_service(workload) as service:
                # Occupy one queue slot so the full batch cannot fit.
                service.submit(stream[0], delivering)
                server = SinkServer(service, FMT, retry_after_ms=123)
                async with server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        with pytest.raises(BackpressureError) as excinfo:
                            await client.send_batch(stream, delivering, FMT)
                    await server.wait_idle()
                    stats = server.stats()
            return excinfo.value, stats

        error, stats = asyncio.run(scenario())
        assert error.error_code is ErrorCode.BACKPRESSURE
        assert error.retry_after_ms == 123
        assert stats["packets_shed"] > 0
        assert stats["batches_rejected"] == 1

    def test_rejected_batch_ingests_nothing(self, workload):
        """BACKPRESSURE is a guarantee, not a hint: zero packets entered.

        Per-packet admission would leave the accepted prefix queued, and
        a client retrying the whole batch (the router does exactly that)
        would ingest those packets twice — inflating packets_received and
        breaking cluster/single-sink verdict equivalence.
        """
        _topology, _keystore, stream, delivering = workload

        async def scenario():
            with make_service(workload) as service:
                # Occupy one queue slot so the full batch cannot fit.
                service.submit(stream[0], delivering)
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        with pytest.raises(BackpressureError):
                            await client.send_batch(stream, delivering, FMT)
                    await server.wait_idle()
                depth = service.queue.depth
                service.flush()
                return depth, service.sink.packets_received

        depth, received = asyncio.run(scenario())
        # Only the slot-occupying packet: nothing from the batch entered.
        assert depth == 1
        assert received == 1

    def test_verbatim_resend_after_drain_counts_once(self, workload):
        """The retry contract end to end: reject, drain, resend, no dupes."""
        _topology, _keystore, stream, delivering = workload

        async def scenario():
            with make_service(workload, capacity=len(stream)) as service:
                # Occupy one queue slot so the full batch cannot fit.
                service.submit(stream[0], delivering)
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        with pytest.raises(BackpressureError):
                            await client.send_batch(stream, delivering, FMT)
                        service.flush()  # queue drains between retries
                        verdict = await client.send_batch(
                            stream, delivering, FMT
                        )
                    await server.wait_idle()
                return verdict, service.sink.packets_received

        verdict, received = asyncio.run(scenario())
        # The pre-filled packet plus the batch, each exactly once.
        assert received == PACKETS + 1
        assert verdict.packets_used == PACKETS + 1


class TestRejections:
    def test_mark_format_mismatch_is_one_clean_error(self, workload):
        _topology, _keystore, stream, delivering = workload
        other_fmt = MarkFormat(id_len=4, mac_len=8)

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        with pytest.raises(RemoteError) as excinfo:
                            await client.send_batch(
                                [stream[0].with_marks(())], delivering, other_fmt
                            )
            return excinfo.value

        error = asyncio.run(scenario())
        assert error.error_code is ErrorCode.BAD_FRAME
        assert "mark format mismatch" in str(error)

    def test_client_side_frames_are_protocol_violations(self, workload):
        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(
                        encode_frame(
                            FrameType.ERROR,
                            encode_error(WireErrorInfo(code=ErrorCode.INTERNAL)),
                        )
                    )
                    await writer.drain()
                    # The server replies, then closes the connection, so
                    # reading to EOF returns exactly its one reply.
                    raw = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    await server.wait_idle()
            return raw

        raw = asyncio.run(scenario())
        decoder = FrameDecoder()
        frames = decoder.feed(raw)
        decoder.finish()
        assert len(frames) == 1
        assert frames[0].frame_type is FrameType.ERROR
        info = decode_error(frames[0].payload)
        assert info.code is ErrorCode.BAD_FRAME
        assert "ERROR frame" in info.message

    def test_retired_report_type_is_a_typed_error(self, workload):
        """Type 1 (the retired REPORT frame) is an unknown type, even with
        a valid CRC: ERROR BAD_FRAME, a counted decode error, and close."""
        _topology, _keystore, stream, delivering = workload
        payload = encode_batch([stream[0]], delivering, FMT)
        body = bytes((PROTOCOL_VERSION, 1)) + write_varint(len(payload)) + payload

        async def scenario():
            obs = ObsProvider()
            with make_service(workload) as service:
                async with SinkServer(service, FMT, obs=obs) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(body + struct.pack(">I", zlib.crc32(body)))
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    await server.wait_idle()
                    stats = server.stats()
                received = service.sink.packets_received
            errors = obs.registry.get("wire_decode_errors_total")
            return raw, stats, errors.get(kind="BadFrameError"), received

        raw, stats, counted, received = asyncio.run(scenario())
        decoder = FrameDecoder()
        frames = decoder.feed(raw)
        decoder.finish()  # EOF on a frame boundary: the server closed
        assert [f.frame_type for f in frames] == [FrameType.ERROR]
        info = decode_error(frames[0].payload)
        assert info.code is ErrorCode.BAD_FRAME
        assert "unknown frame type 1" in info.message
        assert stats["decode_errors"] == 1
        assert counted == 1
        assert stats["connections_active"] == 0
        assert received == 0

    def test_bad_version_bytes_get_error_reply(self, workload):
        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    garbled = bytearray(encode_frame(FrameType.PING, b"x"))
                    garbled[0] = 99
                    writer.write(bytes(garbled))
                    await writer.drain()
                    raw = await reader.read(64 * 1024)
                    writer.close()
                    await writer.wait_closed()
                    await server.wait_idle()
                    stats = server.stats()
            return raw, stats

        raw, stats = asyncio.run(scenario())
        frames = FrameDecoder().feed(raw)
        assert len(frames) == 1
        assert frames[0].frame_type is FrameType.ERROR
        assert decode_error(frames[0].payload).code is ErrorCode.BAD_VERSION
        assert stats["decode_errors"] == 1


class TestConnect:
    def test_retries_then_typed_failure(self):
        async def scenario():
            # Port 1 on loopback: nothing listens, refusal is immediate.
            client = SinkClient(
                "127.0.0.1",
                1,
                connect_timeout=0.5,
                retries=2,
                backoff_base=0.001,
            )
            with pytest.raises(ConnectError):
                await client.connect()
            return client.connect_attempts

        assert asyncio.run(scenario()) == 3

    def test_backoff_is_deterministic_and_capped(self):
        client = SinkClient(
            "127.0.0.1", 1, backoff_base=0.05, backoff_max=0.2, retries=5
        )
        delays = [client._backoff_delay(i) for i in range(5)]
        assert delays == [0.05, 0.1, 0.2, 0.2, 0.2]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            SinkClient("127.0.0.1", 1, retries=-1)
