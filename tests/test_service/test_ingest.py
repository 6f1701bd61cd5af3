"""SinkIngestService end to end: equivalence, backpressure, lifecycle."""

import random

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.isolation import RevocationList
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.obs.profiling import ObsProvider
from repro.obs.spans import Tracer
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.routing.tree import build_routing_tree
from repro.service import SinkIngestService
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import ctx_for, mark_through_path
from tests.test_service.test_learned_route import offered_ids

PROVIDER = KeyedHashProvider()
SCHEME = PNMMarking(mark_prob=1.0)
N_FORWARDERS = 6


@pytest.fixture
def deployment():
    topology, source_id = linear_path_topology(N_FORWARDERS)
    store = KeyStore.from_master_secret(b"ingest", topology.sensor_nodes())
    return topology, store, source_id


def stream(store, count, tamper_indices=()):
    """``count`` marked packets along the chain, optionally tampered."""
    forwarders = list(range(1, N_FORWARDERS + 1))
    packets = []
    for t in range(count):
        packet = MarkedPacket(
            report=Report(event=b"svc", location=(7.0, 0.0), timestamp=t)
        )
        packet = mark_through_path(SCHEME, store, PROVIDER, forwarders, packet)
        if t in tamper_indices:
            # Flip a byte of the most upstream mark's MAC.
            mark = packet.marks[0]
            broken = mark.__class__(
                id_field=mark.id_field,
                mac=bytes([mark.mac[0] ^ 0xFF]) + mark.mac[1:],
            )
            packet = packet.with_marks((broken,) + packet.marks[1:])
        packets.append(packet)
    return packets


def make_sink(deployment):
    topology, store, _source = deployment
    return TracebackSink(SCHEME, store, PROVIDER, topology)


class TestEquivalence:
    def test_verdicts_match_serial_sink(self, deployment):
        packets = stream(deployment[1], 12, tamper_indices={3, 7})
        delivering = N_FORWARDERS

        serial = make_sink(deployment)
        for packet in packets:
            serial.receive(packet, delivering)

        sink = make_sink(deployment)
        service = SinkIngestService(sink, capacity=64)
        try:
            for packet in packets:
                assert service.submit(packet, delivering)
            assert service.verdict() == serial.verdict()
        finally:
            service.close()
        assert set(sink.precedence.edges()) == set(serial.precedence.edges())
        assert sink.packets_received == serial.packets_received
        assert sink.tampered_packets == serial.tampered_packets
        assert sink.chains_with_marks == serial.chains_with_marks

    def test_cache_actually_engages(self, deployment):
        packets = stream(deployment[1], 8)
        service = SinkIngestService(make_sink(deployment))
        for packet in packets:
            service.submit(packet, N_FORWARDERS)
            service.process_batch()
        stats = service.stats()
        # After the first packet teaches the route, every mark of every
        # later packet resolves from its learned set without falling back.
        assert stats.cache["hot_searches"] == (len(packets) - 1) * N_FORWARDERS
        assert stats.cache["hot_misses"] == 0
        assert stats.cache["hot_hit_rate"] == 1.0


class TestBackpressure:
    def test_drop_newest_sheds_excess_exactly(self, deployment):
        service = SinkIngestService(make_sink(deployment), capacity=3)
        packets = stream(deployment[1], 8)
        outcomes = [service.submit(p, N_FORWARDERS) for p in packets]
        assert outcomes == [True] * 3 + [False] * 5
        stats = service.stats()
        assert stats.dropped == 5
        assert stats.queue["dropped"] == 5
        assert service.flush() == 3
        assert service.sink.packets_received == 3
        # The three oldest packets survived (arrival order preserved).
        assert service.sink.packets_received == service.stats().processed

    def test_queue_depth_visible_in_stats(self, deployment):
        service = SinkIngestService(make_sink(deployment), capacity=10)
        for packet in stream(deployment[1], 4):
            service.submit(packet, N_FORWARDERS)
        assert service.stats().queue["depth"] == 4
        service.flush()
        assert service.stats().queue["depth"] == 0
        assert service.stats().queue["high_water"] == 4


class TestLifecycle:
    def test_close_drains_cleanly(self, deployment):
        service = SinkIngestService(make_sink(deployment), capacity=16)
        for packet in stream(deployment[1], 5):
            service.submit(packet, N_FORWARDERS)
        drained = service.close()
        assert drained == 5
        assert service.closed
        assert service.sink.packets_received == 5
        with pytest.raises(RuntimeError):
            service.submit(stream(deployment[1], 1)[0], N_FORWARDERS)

    def test_close_without_drain_discards(self, deployment):
        service = SinkIngestService(make_sink(deployment), capacity=16)
        for packet in stream(deployment[1], 5):
            service.submit(packet, N_FORWARDERS)
        assert service.close(drain=False) == 0
        assert service.sink.packets_received == 0

    def test_close_twice_is_noop(self, deployment):
        service = SinkIngestService(make_sink(deployment))
        assert service.close() == 0
        assert service.close() == 0

    def test_context_manager_drains(self, deployment):
        sink = make_sink(deployment)
        with SinkIngestService(sink, capacity=16) as service:
            for packet in stream(deployment[1], 3):
                service.submit(packet, N_FORWARDERS)
        assert sink.packets_received == 3


class TestObservability:
    def test_stats_snapshot_fields(self, deployment):
        service = SinkIngestService(make_sink(deployment), capacity=8)
        for packet in stream(deployment[1], 4):
            service.submit(packet, N_FORWARDERS)
        service.flush()
        stats = service.stats()
        assert stats.submitted == 4
        assert stats.processed == 4
        assert stats.queue["capacity"] == 8
        assert stats.cache["hot_size"] == N_FORWARDERS
        assert stats.verify_latency["count"] == 4
        assert stats.verify_latency["mean"] > 0

    def test_latency_histogram_percentiles(self, deployment):
        service = SinkIngestService(make_sink(deployment))
        for packet in stream(deployment[1], 6):
            service.submit(packet, N_FORWARDERS)
        service.flush()
        latency = service.verify_latency
        assert latency.count == 6
        assert 0 < latency.quantile(0.5) <= latency.quantile(0.99)

    @pytest.mark.parametrize("drain", [True, False])
    def test_duplicate_submissions_each_get_a_queue_span(self, deployment, drain):
        """A report queued twice before the first copy is taken keeps one
        open ``queue`` span per copy, and every one of them is finished."""
        tracer = Tracer()
        service = SinkIngestService(
            make_sink(deployment), obs=ObsProvider(tracer=tracer)
        )
        first, second = stream(deployment[1], 2)
        for packet in (first, first, second):
            assert service.submit(packet, N_FORWARDERS)
        service.close(drain=drain)
        assert service.sink.packets_received == (3 if drain else 0)
        queue_spans = [s for s in tracer.finished if s.name == "queue"]
        assert len(queue_spans) == 3
        assert all(s.attrs.get("dropped", False) is not drain for s in queue_spans)


class TestRevocationInvalidation:
    def test_revoking_a_node_purges_cached_state(self, deployment):
        revocations = RevocationList()
        service = SinkIngestService(
            make_sink(deployment), revocations=revocations
        )
        for packet in stream(deployment[1], 3):
            service.submit(packet, N_FORWARDERS)
        service.flush()
        assert 3 in offered_ids(service)
        revocations.revoke(3, reason="identified mole")
        assert 3 not in offered_ids(service)
        assert service.cache.stats()["tables_cached"] == 0
        assert service.cache.invalidations == 1


class TestFaultInvalidation:
    """A faulted node's packets stop mid-stream; cached state must go."""

    def test_invalidate_node_purges_cache_and_counts(self, deployment):
        service = SinkIngestService(make_sink(deployment))
        for packet in stream(deployment[1], 4):
            service.submit(packet, N_FORWARDERS)
        service.flush()
        assert service.cache.stats()["tables_cached"] > 0
        assert 3 in offered_ids(service)
        service.invalidate_node(3)
        assert 3 not in offered_ids(service)
        assert service.cache.stats()["tables_cached"] == 0
        assert service.cache.invalidations == 1
        assert service.stats().cache["invalidations"] == 1

    def test_crash_mid_stream_keeps_verdict_equal_to_serial(self, deployment):
        """Regression: a node crashing mid-run (fault injector calls
        ``invalidate_node``) must leave no stale cache entries, and the
        service verdict must match a serial sink fed the same stream."""
        topology, store, _source = deployment
        packets = stream(store, 8)
        crashed = 3

        serial = make_sink(deployment)
        for packet in packets:
            serial.receive(packet, N_FORWARDERS)

        service = SinkIngestService(make_sink(deployment))
        for i, packet in enumerate(packets):
            service.submit(packet, N_FORWARDERS)
            if i == 3:
                service.flush()
                # Mid-stream crash of forwarder 3: the injector purges
                # its cached resolver state exactly like this.
                service.invalidate_node(crashed)
                assert crashed not in offered_ids(service)
        processed = service.flush()
        assert processed >= 0
        stats = service.stats()
        assert stats.processed == len(packets)
        assert stats.cache["invalidations"] == 1
        assert service.verdict() == serial.verdict()


class TestSimIntegration:
    def test_network_simulation_feeds_service(self, deployment):
        topology, store, source_id = deployment
        routing = build_routing_tree(topology)

        def build(ingest_for_sink):
            sink = TracebackSink(SCHEME, store, PROVIDER, topology)
            behaviors = {
                node: HonestForwarder(ctx_for(node, store, PROVIDER), SCHEME)
                for node in range(1, N_FORWARDERS + 1)
            }
            service = ingest_for_sink(sink)
            sim = NetworkSimulation(
                topology, routing, behaviors, sink, ingest=service
            )
            source = BogusReportSource(
                source_id, claimed_location=(7.0, 0.0), rng=random.Random(5)
            )
            sim.add_periodic_source(source, interval=1.0, count=20)
            sim.run()
            return sink, service

        sink_direct, _ = build(lambda sink: None)
        sink_service, service = build(
            lambda sink: SinkIngestService(sink, capacity=64)
        )
        # run() flushed the pipeline: the sink saw every delivered packet.
        assert sink_service.packets_received == 20
        assert sink_service.verdict() == sink_direct.verdict()
        assert service.stats().processed == 20
