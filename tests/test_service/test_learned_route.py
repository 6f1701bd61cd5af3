"""The service's learned-route search: adversarial bounds and invalidation.

A mole decides which marks miss the learned route, so the guarantee that
matters is the worst case: at most one exhaustive table per packet, and
a verdict identical to a serial sink's.  Revocation and rebalance must
take nodes out of every search set even though the precedence graph,
which is append-only evidence, keeps their edges.
"""

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
from tests.test_traceback.test_verify_equivalence import delivered_packets

PROVIDER = KeyedHashProvider()
SCHEME = PNMMarking(mark_prob=1.0)
ROUTE = [1, 2, 3, 4, 5, 6]


@pytest.fixture
def deployment():
    topology, _source = linear_path_topology(len(ROUTE))
    store = KeyStore.from_master_secret(b"learned", topology.sensor_nodes())
    return topology, store


def packets_along(store, route, first, count):
    return [
        mark_through_path(
            SCHEME,
            store,
            PROVIDER,
            route,
            MarkedPacket(report=Report(event=b"lr", location=(0.0, 0.0), timestamp=t)),
        )
        for t in range(first, first + count)
    ]


def make_service(deployment) -> SinkIngestService:
    topology, store = deployment
    return SinkIngestService(TracebackSink(SCHEME, store, PROVIDER, topology))


def offered_ids(service) -> set[int]:
    """Every node some learned search set of ``service`` would offer."""
    packet = packets_along(service.sink.verifier.keystore, ROUTE, 0, 1)[0]
    sets = service.verifier.resolver.search_sets(packet)
    anchors = [None, *sorted(service.sink.precedence.observed)]
    return {node for anchor in anchors for node in sets[anchor] or ()}


@pytest.mark.parametrize(
    "attack", ["identity-swap", "reorder", "remove-remark", "selective-drop"]
)
def test_at_most_one_exhaustive_table_per_packet(attack):
    built, delivered = delivered_packets("pnm", attack)
    args = (built.scheme, built.keystore, built.provider)
    service = SinkIngestService(TracebackSink(*args, built.topology))
    exhaustive: list[MarkedPacket] = []
    build = built.scheme.build_resolution_table

    def counting(packet, keystore, provider, search_ids=None):
        if search_ids is None:
            exhaustive.append(packet)
        return build(packet, keystore, provider, search_ids)

    built.scheme.build_resolution_table = counting
    verify = service.verifier.verify
    per_packet: list[int] = []

    def verify_counted(packet):
        before = len(exhaustive)
        result = verify(packet)
        per_packet.append(len(exhaustive) - before)
        return result

    service.verifier.verify = verify_counted
    for packet, delivering_node in delivered:
        service.submit(packet, delivering_node)
    service.flush()
    assert len(per_packet) == len(delivered)
    assert max(per_packet) <= 1
    # Not vacuous: the learned route answered some marks.
    assert service.cache.hot_searches > 0


def test_invalidated_node_leaves_every_search_set(deployment):
    service = make_service(deployment)
    service.submit_batch(packets_along(deployment[1], ROUTE, 0, 4), 6)
    service.flush()
    assert 3 in offered_ids(service)
    service.invalidate_node(3)
    assert service.sink.precedence.has_edge(2, 3)
    assert service.sink.precedence.has_edge(3, 4)
    assert 3 not in offered_ids(service)
    assert offered_ids(service) == {1, 2, 4, 5, 6}


def test_invalidate_all_makes_the_next_packet_search_exhaustively(deployment):
    service = make_service(deployment)
    service.submit_batch(packets_along(deployment[1], ROUTE, 0, 3), 6)
    service.flush()
    service.invalidate_all()
    searches = service.cache.hot_searches
    misses = service.cache.table_misses
    service.submit_batch(packets_along(deployment[1], ROUTE, 3, 1), 6)
    service.flush()
    assert service.cache.hot_searches == searches
    assert service.cache.table_misses == misses + 1
    # The packet taught the route again: the next one uses it.
    service.submit_batch(packets_along(deployment[1], ROUTE, 4, 1), 6)
    service.flush()
    assert service.cache.hot_searches == searches + len(ROUTE)
    assert service.cache.table_misses == misses + 1


def test_route_change_mid_stream_matches_serial_sink(deployment):
    topology, store = deployment
    # Node 2 drops out of the route: 1 -> 3 is a new edge between nodes
    # the learned route already knows, so mark 0 first misses.
    packets = packets_along(store, ROUTE, 0, 5) + packets_along(
        store, [1, 3, 4, 5, 6], 5, 5
    )
    serial = TracebackSink(SCHEME, store, PROVIDER, topology)
    for packet in packets:
        serial.receive(packet, 6)
    service = make_service(deployment)
    for packet in packets:
        service.submit(packet, 6)
        service.flush()
    assert service.verdict() == serial.verdict()
    assert service.sink.precedence.has_edge(1, 3)
    # One miss teaches the new edge; later packets resolve from it.
    assert service.cache.hot_misses == 1
