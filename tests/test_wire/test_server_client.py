"""Server/client behavior over real loopback sockets.

Each test spins an ephemeral-port :class:`SinkServer` inside its own
``asyncio.run``; the workload is a small grid deployment from
``cluster_sweep.build_cluster_workload`` so verdicts are meaningful, not mocked.
"""

import asyncio

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.marking.pnm import PNMMarking
from repro.packets.marks import MarkFormat
from repro.service import SinkIngestService
from repro.wire.client import SinkClient
from repro.wire.errors import (
    BackpressureError,
    ConnectError,
    ErrorCode,
    RemoteError,
    TruncatedError,
)
from repro.wire.frames import FrameDecoder, FrameType, encode_frame
from repro.wire.messages import WireErrorInfo, decode_error
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
        _topology, _keystore, stream, delivering = workload

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        return await client.send_report(stream[0], delivering, FMT)

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
                    async with SinkClient("127.0.0.1", server.port) as client:
                        await client.send_error(
                            WireErrorInfo(code=ErrorCode.INTERNAL)
                        )
                        reply = await client._read_frame()
                        info = decode_error(reply.payload)
                        # The server closes the connection after replying.
                        with pytest.raises(TruncatedError):
                            await client._read_frame()
            return reply.frame_type, info

        frame_type, info = asyncio.run(scenario())
        assert frame_type is FrameType.ERROR
        assert info.code is ErrorCode.BAD_FRAME
        assert "ERROR frame" in info.message

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
