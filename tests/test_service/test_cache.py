"""ResolverCache: table memoization, hot-set learning, learned search sets,
invalidation."""

import pytest

from repro.crypto.mac import KeyedHashProvider
from repro.crypto.keys import KeyStore
from repro.isolation import RevocationList
from repro.marking.pnm import PNMMarking
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.service import CachingResolver, ResolverCache, SinkIngestService
from repro.traceback.reconstruct import PrecedenceGraph
from repro.traceback.resolver import ExhaustiveResolver, TopologyBoundedResolver
from repro.traceback.sink import TracebackSink
from repro.net.topology import linear_path_topology
from tests.conftest import mark_through_path

PROVIDER = KeyedHashProvider()
SCHEME = PNMMarking(mark_prob=1.0)


def packet_for(timestamp: int) -> MarkedPacket:
    return MarkedPacket(
        report=Report(event=b"cache", location=(0.0, 0.0), timestamp=timestamp)
    )


@pytest.fixture
def cache(keystore) -> ResolverCache:
    return ResolverCache(SCHEME, keystore, PROVIDER, table_capacity=4)


class TestTableMemo:
    def test_same_report_hits(self, cache, keystore):
        packet = packet_for(1)
        first = cache.resolution_table(packet)
        second = cache.resolution_table(packet)
        assert first is second
        assert cache.table_hits == 1
        assert cache.table_misses == 1

    def test_distinct_reports_miss(self, cache):
        cache.resolution_table(packet_for(1))
        cache.resolution_table(packet_for(2))
        assert cache.table_misses == 2
        assert cache.table_hits == 0

    def test_table_matches_direct_build(self, cache, keystore):
        packet = packet_for(3)
        expected = SCHEME.build_resolution_table(packet, keystore, PROVIDER)
        assert cache.resolution_table(packet) == expected

    def test_lru_eviction(self, cache):
        for t in range(6):  # capacity 4
            cache.resolution_table(packet_for(t))
        assert cache.table_evictions == 2
        # Oldest entries are gone: re-requesting them misses again.
        cache.resolution_table(packet_for(0))
        assert cache.table_misses == 7


class TestHotSet:
    def test_empty_hot_set_is_none(self, cache):
        assert cache.hot_members({1, 2}) == []
        assert cache.hot_members(None) == []

    def test_touch_and_snapshot(self, cache):
        cache.touch([5, 3, 9])
        assert cache.hot_members({9, 3, 5, 11}) == [3, 5, 9]
        # The chain's most downstream marker is its last hop.
        assert cache.hot_members(None) == [9]

    def test_snapshot_reused_until_membership_changes(self, cache):
        graph = PrecedenceGraph()
        graph.add_chain([1, 2, 3])
        resolver = CachingResolver(ExhaustiveResolver(), cache, graph)
        packet = packet_for(1)
        cache.touch([1, 2, 3])
        first = resolver.search_sets(packet)[3]
        assert first == [2]
        cache.touch([2, 1, 3])  # LRU refresh only, same membership
        assert resolver.search_sets(packet)[3] is first
        graph.add_chain([7, 3])  # new evidence: the set is recomputed
        cache.touch([7, 3])
        assert resolver.search_sets(packet)[3] == [2, 7]

    def test_lru_eviction_of_cold_markers(self, keystore):
        cache = ResolverCache(SCHEME, keystore, PROVIDER, hot_capacity=3)
        cache.touch([1, 2, 3])
        cache.touch([4])  # evicts 1, the least recently seen
        assert cache.hot_members({1, 2, 3, 4}) == [2, 3, 4]


class TestInvalidation:
    def test_invalidate_node_clears_tables_and_hot_entry(self, cache):
        cache.resolution_table(packet_for(1))
        cache.touch([2, 5])
        cache.invalidate_node(5)
        assert cache.hot_members({2, 5}) == [2]
        assert cache.hot_members(None) == []  # 5 was the last hop
        assert cache.invalidations == 1
        # Tables were purged: same report misses again.
        cache.resolution_table(packet_for(1))
        assert cache.table_misses == 2

    def test_revocation_list_subscription(self, cache):
        revocations = RevocationList()
        revocations.subscribe(
            lambda record: cache.invalidate_node(record.node_id)
        )
        cache.touch([4, 8])
        revocations.revoke(8, reason="test evidence")
        assert cache.hot_members({4, 8}) == [4]
        revocations.revoke(8, reason="again")  # re-revocation: no re-fire
        assert cache.invalidations == 1

    def test_clear(self, cache):
        cache.resolution_table(packet_for(1))
        cache.touch([1])
        cache.clear()
        assert cache.hot_members({1}) == []
        assert cache.hot_members(None) == []
        cache.resolution_table(packet_for(1))
        assert cache.table_misses == 2

    def test_stats_dict(self, cache):
        cache.resolution_table(packet_for(1))
        cache.resolution_table(packet_for(1))
        cache.touch([1, 2])
        stats = cache.stats()
        assert stats["table_hit_rate"] == 0.5
        assert stats["hot_size"] == 2
        assert stats["tables_cached"] == 1


class TestCachingResolver:
    def test_passes_bounded_inner_through(self, cache):
        topo, _source = linear_path_topology(5)
        inner = TopologyBoundedResolver(topo, radius=1)
        resolver = CachingResolver(inner, cache, PrecedenceGraph())
        cache.touch([99])
        packet = packet_for(1)
        assert resolver.search_sets(packet) is inner.search_sets(packet)
        # The inner ball's searches are not learned searches.
        resolver.notify_packet_done(4)
        assert cache.hot_searches == 0

    def test_offers_learned_route_for_exhaustive_inner(self, cache):
        graph = PrecedenceGraph()
        resolver = CachingResolver(ExhaustiveResolver(), cache, graph)
        packet = packet_for(1)
        assert resolver.search_sets(packet)[None] is None  # cold
        graph.add_chain([1, 2, 7])
        graph.add_chain([4, 2])
        cache.touch([1, 2, 7])
        sets = resolver.search_sets(packet)
        # Most downstream mark: the last hops seen so far.
        assert sets[None] == [7]
        # Mark i: the hot predecessors of mark i+1's verifier; 4 is an
        # upstream of 2 in the graph but has not verified recently.
        assert sets[2] == [1]
        assert sets[7] == [2]
        # No hot predecessor (or an unobserved node): search everything.
        assert sets[1] is None
        assert sets[42] is None
        # The verifier's learned searches reach the cache's count once per
        # packet.
        assert cache.hot_searches == 0
        resolver.notify_packet_done(3)
        assert cache.hot_searches == 3
        cache.touch([4, 2])
        sets = resolver.search_sets(packet)
        assert sets[2] == [1, 4]
        assert sets[None] == [2, 7]

    def test_notify_miss_counts_and_forwards(self, cache):
        class Recorder:
            notified = 0

            def search_sets(self, packet):
                return None

            def notify_miss(self):
                self.notified += 1

        inner = Recorder()
        resolver = CachingResolver(inner, cache, PrecedenceGraph())
        resolver.notify_miss()
        assert inner.notified == 1
        # Misses reach the cache's count with the packet's searches.
        assert cache.hot_misses == 0
        resolver.notify_packet_done(0)
        assert cache.hot_misses == 1

    def test_bounded_inner_misses_are_not_learned_misses(self):
        # A topology-bounded sink: every search set is the inner ball, so
        # no learned search runs and none can miss, however often the
        # ball misses a probabilistic mark that skipped hops.
        topology, _source = linear_path_topology(10)
        store = KeyStore.from_master_secret(b"bounded", topology.sensor_nodes())
        scheme = PNMMarking(mark_prob=0.4)
        resolver = TopologyBoundedResolver(topology, radius=1)
        sink = TracebackSink(scheme, store, PROVIDER, topology, resolver=resolver)
        service = SinkIngestService(sink)
        route = list(range(1, 11))
        for t in range(40):
            marked = mark_through_path(
                scheme, store, PROVIDER, route, packet_for(t), seed=t
            )
            service.submit(marked, route[-1])
        service.flush()
        assert sink.fallback_searches > 0  # the ball did miss marks
        assert service.cache.hot_searches == 0
        assert service.cache.hot_misses == 0
