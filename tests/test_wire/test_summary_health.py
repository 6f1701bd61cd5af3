"""Cluster-facing wire features: SUMMARY frames, health checks, WRONG_SHARD.

The cluster layer (:mod:`repro.cluster`) rides three protocol additions:
evidence snapshots over SUMMARY frames (verdict merge), PING-based
health checks with a typed timeout (liveness probes), and whole-batch
WRONG_SHARD rejection via the server's ``owns`` predicate (stale-ring
safety).  These tests pin the wire-level behavior of each, independent
of any cluster harness.
"""

import asyncio
import dataclasses

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.marking.pnm import PNMMarking
from repro.service import SinkIngestService
from repro.traceback.sink import SinkEvidence
from repro.wire.client import SinkClient
from repro.wire.errors import (
    BadFrameError,
    PingTimeoutError,
    TrailingBytesError,
    TruncatedError,
    WrongShardError,
)
from repro.wire.messages import decode_summary, encode_summary

GRID_SIDE = 6
PACKETS = 12
FMT = PNMMarking(mark_prob=1.0).fmt


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


def make_service(workload) -> SinkIngestService:
    topology, keystore, stream, _delivering = workload
    sink = make_sink_factory(topology, keystore)()
    return SinkIngestService(sink, capacity=len(stream))


def sample_evidence(delivering: int | None = 7) -> SinkEvidence:
    return SinkEvidence(
        nodes=(1, 2, 3, 9),
        edges=((1, 2), (2, 3), (3, 9)),
        tamper_stops=((2, 4), (9, 1)),
        packets_received=25,
        tampered_packets=5,
        chains_with_marks=20,
        fallback_searches=3,
        delivering_node=delivering,
    )


class TestSummaryCodec:
    def test_round_trip(self):
        evidence = sample_evidence()
        assert decode_summary(encode_summary(evidence)) == evidence

    def test_round_trip_without_delivering_node(self):
        evidence = sample_evidence(delivering=None)
        decoded = decode_summary(encode_summary(evidence))
        assert decoded == evidence
        assert decoded.delivering_node is None

    def test_round_trip_empty_evidence(self):
        evidence = SinkEvidence(
            nodes=(),
            edges=(),
            tamper_stops=(),
            packets_received=0,
            tampered_packets=0,
            chains_with_marks=0,
            fallback_searches=0,
            delivering_node=None,
        )
        assert decode_summary(encode_summary(evidence)) == evidence

    def test_identical_evidence_encodes_identical_bytes(self):
        assert encode_summary(sample_evidence()) == encode_summary(
            sample_evidence()
        )

    def test_truncation_every_prefix_raises_cleanly(self):
        payload = encode_summary(sample_evidence())
        for cut in range(len(payload)):
            with pytest.raises((TruncatedError, BadFrameError)):
                decode_summary(payload[:cut])

    def test_trailing_bytes_rejected(self):
        payload = encode_summary(sample_evidence())
        with pytest.raises(TrailingBytesError):
            decode_summary(payload + b"\x00")

    def test_unknown_flag_bits_rejected(self):
        payload = bytearray(encode_summary(sample_evidence(delivering=None)))
        # Flags byte sits right after the four counter varints (all small
        # here, one byte each).
        assert payload[4] == 0
        payload[4] = 0x80
        with pytest.raises(BadFrameError, match="flag"):
            decode_summary(bytes(payload))

    def test_absurd_count_rejected_before_allocation(self):
        payload = bytearray(encode_summary(sample_evidence(delivering=None)))
        # Replace the node count (offset 5: 4 counters + flags) with a
        # huge varint claiming more nodes than the payload could hold.
        huge = b"\xff\xff\xff\xff\x7f"  # varint for ~34 billion
        corrupted = bytes(payload[:5]) + huge + bytes(payload[6:])
        with pytest.raises(BadFrameError, match="count"):
            decode_summary(corrupted)


class TestSummaryCanonicalOrder:
    """SUMMARY sections must arrive in the order honest encoders emit.

    The verdict reads an unmerged record as it stands (``dict`` over the
    tamper stops), so a frame carrying the same node twice would mean one
    thing to the verdict and another to the merge.
    """

    def test_repeated_and_unsorted_stops_rejected(self):
        evidence = dataclasses.replace(
            sample_evidence(), tamper_stops=((5, 1), (5, 2), (4, 2))
        )
        # Read as it stands, the verdict would see {5: 2, 4: 2} while
        # merge_evidence would see ((4, 2), (5, 3)).
        with pytest.raises(BadFrameError, match="canonical"):
            decode_summary(encode_summary(evidence))

    @pytest.mark.parametrize(
        "field, entries",
        [
            ("nodes", (3, 1, 2)),
            ("nodes", (1, 1, 2)),
            ("edges", ((2, 3), (1, 2))),
            ("edges", ((1, 2), (1, 2))),
            ("tamper_stops", ((2, 0),)),
            ("watchdog_claims", ((4, 1), (3, 1))),
            ("watchdog_claims", ((4, 1), (4, 1))),
            ("watchdog_claims", ((4, 0),)),
            ("algebraic", ((2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))),
        ],
    )
    def test_non_canonical_section_rejected(self, field, entries):
        evidence = dataclasses.replace(sample_evidence(), **{field: entries})
        with pytest.raises(BadFrameError, match="canonical"):
            decode_summary(encode_summary(evidence))

    def test_repeated_algebraic_observations_accepted(self):
        observation = (1, 2, 3, 4, 5, 6)
        evidence = dataclasses.replace(
            sample_evidence(), algebraic=(observation, observation)
        )
        assert decode_summary(encode_summary(evidence)) == evidence


class TestSummaryClaimsSection:
    def test_round_trip_sets_flag_bit(self):
        evidence = dataclasses.replace(
            sample_evidence(delivering=None), watchdog_claims=((3, 2), (8, 1))
        )
        payload = encode_summary(evidence)
        assert payload[4] == 0x04
        assert payload.endswith(bytes((2, 3, 2, 8, 1)))
        assert decode_summary(payload) == evidence

    def test_zero_count_with_flag_rejected(self):
        payload = bytearray(encode_summary(sample_evidence(delivering=None)))
        payload[4] = 0x04
        payload.extend(b"\x00")
        with pytest.raises(BadFrameError, match="zero"):
            decode_summary(bytes(payload))

    def test_truncation_every_prefix_raises_cleanly(self):
        payload = encode_summary(
            dataclasses.replace(sample_evidence(), watchdog_claims=((3, 2),))
        )
        for cut in range(len(payload)):
            with pytest.raises((TruncatedError, BadFrameError)):
                decode_summary(payload[:cut])


class TestSummaryOverWire:
    def test_fetch_summary_matches_sink_evidence(self, workload):
        _topology, _keystore, stream, delivering = workload
        from repro.wire.server import SinkServer

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        await client.send_batch(stream, delivering, FMT)
                        summary = await client.fetch_summary()
                    await server.wait_idle()
                return summary, service.sink.evidence()

        summary, local = asyncio.run(scenario())
        assert summary == local
        assert summary.packets_received == PACKETS

    def test_fetch_summary_on_idle_sink_is_empty(self, workload):
        from repro.wire.server import SinkServer

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        return await client.fetch_summary()

        summary = asyncio.run(scenario())
        assert summary.packets_received == 0
        assert summary.nodes == ()
        assert summary.delivering_node is None


class TestHealthCheck:
    def test_echo_within_timeout(self, workload):
        from repro.wire.server import SinkServer

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(service, FMT) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        return await client.health_check(
                            timeout=5.0, payload=b"alive?"
                        )

        assert asyncio.run(scenario()) == b"alive?"

    def test_unresponsive_server_raises_typed_timeout(self):
        async def scenario():
            async def black_hole(reader, writer):
                # Accept the connection, read forever, never reply.
                try:
                    while await reader.read(4096):
                        pass
                finally:
                    writer.close()

            server = await asyncio.start_server(
                black_hole, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                async with SinkClient("127.0.0.1", port) as client:
                    with pytest.raises(PingTimeoutError, match="echo"):
                        await client.health_check(timeout=0.05)
                    # The in-flight PING was abandoned; its echo could
                    # still arrive and would be misread as the reply to
                    # the next request, so the timeout closed the
                    # connection.
                    return client.connected
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario()) is False

    def test_late_echo_cannot_mispair_after_reconnect(self):
        """A slow (not dead) peer's stale echo never pollutes the stream.

        The first PING's echo arrives well after the health-check
        deadline. Because the timeout closed the connection, the late
        echo dies with the old socket; after reconnecting, the next ping
        gets *its own* echo back, not the stale one.
        """
        from repro.wire.frames import FrameDecoder, FrameType, encode_frame

        async def scenario():
            first = {"pending": True}

            async def laggy_echo(reader, writer):
                decoder = FrameDecoder()
                try:
                    while True:
                        chunk = await reader.read(4096)
                        if not chunk:
                            return
                        for frame in decoder.feed(chunk):
                            if first["pending"]:
                                first["pending"] = False
                                await asyncio.sleep(0.3)
                            writer.write(
                                encode_frame(FrameType.PING, frame.payload)
                            )
                            await writer.drain()
                except (ConnectionError, OSError):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(laggy_echo, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = SinkClient("127.0.0.1", port)
                await client.connect()
                with pytest.raises(PingTimeoutError):
                    await client.health_check(timeout=0.05, payload=b"stale")
                await client.connect()  # caller deems the peer merely slow
                echo = await client.health_check(timeout=5.0, payload=b"fresh")
                await client.close()
                return echo
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario()) == b"fresh"


class TestWrongShard:
    def test_foreign_batch_rejected_whole(self, workload):
        _topology, _keystore, stream, delivering = workload
        from repro.wire.server import SinkServer

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(
                    service, FMT, owns=lambda packet: False
                ) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        with pytest.raises(WrongShardError):
                            await client.send_batch(stream, delivering, FMT)
                    await server.wait_idle()
                    stats = server.stats()
                service.flush()
                return stats, service.sink.packets_received

        stats, received = asyncio.run(scenario())
        # The whole batch was refused before any packet was submitted, so
        # a resend through the correct shard can never double-count.
        assert received == 0
        assert stats["batches_wrong_shard"] == 1
        assert stats["batches_ok"] == 0

    def test_owned_batch_accepted(self, workload):
        _topology, _keystore, stream, delivering = workload
        from repro.wire.server import SinkServer

        async def scenario():
            with make_service(workload) as service:
                async with SinkServer(
                    service, FMT, owns=lambda packet: True
                ) as server:
                    async with SinkClient("127.0.0.1", server.port) as client:
                        await client.send_batch(stream, delivering, FMT)
                    await server.wait_idle()
                    stats = server.stats()
                service.flush()
                return stats, service.sink.packets_received

        stats, received = asyncio.run(scenario())
        assert received == PACKETS
        assert stats["batches_wrong_shard"] == 0
