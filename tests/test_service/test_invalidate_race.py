"""``invalidate_node`` racing concurrent ingest must never change verdicts.

The cache is an accelerator, not an oracle: the verifier's exhaustive
fallback guarantees a purged hot-set or table memo only costs re-warming.
These tests exercise the claim under real concurrency -- an invalidator
thread hammering :meth:`SinkIngestService.invalidate_node` while the
service drains the stream -- and pin the service's verdict to a serial,
cache-free reference sink.
"""

import threading

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from tests.conftest import mark_through_path

PROVIDER = KeyedHashProvider()
SCHEME = PNMMarking(mark_prob=1.0)
N_FORWARDERS = 6
PACKETS = 48
ROUNDS = 6


@pytest.fixture
def deployment():
    topology, _source = linear_path_topology(N_FORWARDERS)
    store = KeyStore.from_master_secret(b"inval-race", topology.sensor_nodes())
    return topology, store


def stream(store, count, tamper_indices=()):
    forwarders = list(range(1, N_FORWARDERS + 1))
    packets = []
    for t in range(count):
        packet = MarkedPacket(
            report=Report(event=b"race", location=(7.0, 0.0), timestamp=t)
        )
        packet = mark_through_path(SCHEME, store, PROVIDER, forwarders, packet)
        if t in tamper_indices:
            mark = packet.marks[0]
            broken = mark.__class__(
                id_field=mark.id_field,
                mac=bytes([mark.mac[0] ^ 0xFF]) + mark.mac[1:],
            )
            packet = packet.with_marks((broken,) + packet.marks[1:])
        packets.append(packet)
    return packets


def serial_verdict(deployment, packets):
    topology, store = deployment
    sink = TracebackSink(SCHEME, store, PROVIDER, topology)
    for packet in packets:
        sink.receive(packet, delivering_node=N_FORWARDERS)
    return sink.verdict()


def drain_with_invalidator(deployment, packets):
    """Drain ``packets`` while a thread purges every node's cached state.

    The invalidator cycles through all forwarder IDs continuously until
    the drain finishes, so purges land during verification, between
    batches, and mid-hot-set-warmup -- every window the pipeline has.
    """
    topology, store = deployment
    sink = TracebackSink(SCHEME, store, PROVIDER, topology)
    stop = threading.Event()
    purges = 0

    with SinkIngestService(sink, capacity=len(packets)) as service:

        def invalidator():
            nonlocal purges
            node_ids = list(range(1, N_FORWARDERS + 1))
            while not stop.is_set():
                for node_id in node_ids:
                    service.invalidate_node(node_id)
                    purges += 1

        thread = threading.Thread(target=invalidator)
        thread.start()
        try:
            # Several submit/process rounds so the hot-set re-warms (and
            # is re-purged) repeatedly rather than being built just once.
            per_round = len(packets) // ROUNDS
            for start in range(0, len(packets), per_round):
                for packet in packets[start : start + per_round]:
                    assert service.submit(packet, N_FORWARDERS)
                service.process_batch()
            service.flush()
        finally:
            stop.set()
            thread.join()
        verdict = service.verdict()
        cache_stats = service.stats().cache
    return verdict, purges, cache_stats


class TestInvalidateRace:
    def test_honest_stream_verdict_unchanged(self, deployment):
        _topology, store = deployment
        packets = stream(store, PACKETS)
        reference = serial_verdict(deployment, packets)

        verdict, purges, cache_stats = drain_with_invalidator(
            deployment, packets
        )
        assert purges > 0  # the race actually happened
        assert cache_stats["invalidations"] == purges
        assert verdict == reference
        assert verdict.packets_used == PACKETS

    def test_tampered_stream_verdict_unchanged(self, deployment):
        _topology, store = deployment
        tampered = set(range(0, PACKETS, 5))
        packets = stream(store, PACKETS, tamper_indices=tampered)
        reference = serial_verdict(deployment, packets)
        assert reference.identified  # the tamper evidence is real

        verdict, purges, _stats = drain_with_invalidator(
            deployment, packets
        )
        assert purges > 0
        assert verdict == reference

    def test_invalidate_between_every_packet_serially(self, deployment):
        """The deterministic skeleton of the race: purge after each merge."""
        topology, store = deployment
        packets = stream(store, 12)
        reference = serial_verdict(deployment, packets)

        sink = TracebackSink(SCHEME, store, PROVIDER, topology)
        with SinkIngestService(sink, capacity=16) as service:
            for index, packet in enumerate(packets):
                assert service.submit(packet, N_FORWARDERS)
                service.process_batch()
                service.invalidate_node(1 + index % N_FORWARDERS)
            assert service.verdict() == reference
