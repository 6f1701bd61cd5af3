"""Per-packet backward verification."""

import pytest

from repro.marking.ams import ExtendedAMS
from repro.marking.nested import NestedMarking
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.traceback.verify import PacketVerifier
from tests.conftest import mark_through_path


class TestSuffixPolicy:
    def test_clean_packet_fully_verifies(self, keystore, provider, packet):
        scheme = NestedMarking()
        marked = mark_through_path(scheme, keystore, provider, [1, 2, 3], packet)
        result = PacketVerifier(scheme, keystore, provider).verify(marked)
        assert result.chain_ids == [1, 2, 3]
        assert result.all_valid
        assert result.invalid_indices == []

    def test_scan_stops_at_first_invalid_backwards(
        self, keystore, provider, packet
    ):
        scheme = NestedMarking()
        # V1, V2 mark; mole inserts garbage; V3, V4 mark over the garbage.
        p = mark_through_path(scheme, keystore, provider, [1, 2], packet)
        p = p.with_mark(Mark(id_field=b"\xde\xad", mac=b"beef"))
        p = mark_through_path(scheme, keystore, provider, [3, 4], p)
        result = PacketVerifier(scheme, keystore, provider).verify(p)
        # Only the valid suffix after the garbage is trusted.
        assert result.chain_ids == [3, 4]
        assert result.invalid_indices == [2]

    def test_empty_packet(self, keystore, provider, packet):
        scheme = NestedMarking()
        result = PacketVerifier(scheme, keystore, provider).verify(packet)
        assert result.chain_ids == []
        assert result.all_valid  # nothing present, nothing invalid

    def test_stop_node_falls_back_to_deliverer(self, keystore, provider, packet):
        scheme = NestedMarking()
        p = packet.with_mark(Mark(id_field=b"\x00\x01", mac=b"nope"))
        result = PacketVerifier(scheme, keystore, provider).verify(p)
        assert result.chain_ids == []
        assert result.stop_node(delivering_node=17) == 17

    def test_stop_node_is_most_upstream_verified(self, keystore, provider, packet):
        scheme = NestedMarking()
        marked = mark_through_path(scheme, keystore, provider, [5, 6], packet)
        result = PacketVerifier(scheme, keystore, provider).verify(marked)
        assert result.stop_node(delivering_node=20) == 5


class TestIndependentPolicy:
    def test_invalid_marks_skipped_not_fatal(self, keystore, provider, packet):
        scheme = ExtendedAMS(mark_prob=1.0)
        p = mark_through_path(scheme, keystore, provider, [1], packet)
        p = p.with_mark(Mark(id_field=b"\x00\x63", mac=b"zzzz"))  # claims 99
        p = mark_through_path(scheme, keystore, provider, [3], p)
        result = PacketVerifier(scheme, keystore, provider).verify(p)
        assert result.chain_ids == [1, 3]
        assert result.invalid_indices == [1]


class TestAnonymousResolution:
    def test_pnm_chain_resolves_real_ids(self, keystore, provider, packet):
        scheme = PNMMarking(mark_prob=1.0)
        marked = mark_through_path(scheme, keystore, provider, [7, 8, 9], packet)
        result = PacketVerifier(scheme, keystore, provider).verify(marked)
        assert result.chain_ids == [7, 8, 9]

    def test_bounded_resolver_with_fallback(self, keystore, provider, packet):
        from repro.net.topology import linear_path_topology
        from repro.traceback.resolver import TopologyBoundedResolver

        scheme = PNMMarking(mark_prob=1.0)
        topo, _source = linear_path_topology(12)
        marked = mark_through_path(scheme, keystore, provider, [3, 9], packet)
        resolver = TopologyBoundedResolver(topo, radius=1)
        verifier = PacketVerifier(scheme, keystore, provider, resolver)
        result = verifier.verify(marked)
        # Mark by node 9 is far outside the radius-1 ball around the sink
        # (whose neighbor is node 12), and node 3 is far from node 9's
        # ball; both need the exhaustive fallback -- but both resolve.
        assert result.chain_ids == [3, 9]
        assert result.fallback_searches >= 1

    def test_bounded_resolver_without_fallback_misses(
        self, keystore, provider, packet
    ):
        from repro.net.topology import linear_path_topology
        from repro.traceback.resolver import TopologyBoundedResolver

        scheme = PNMMarking(mark_prob=1.0)
        topo, _source = linear_path_topology(12)
        marked = mark_through_path(scheme, keystore, provider, [3], packet)
        resolver = TopologyBoundedResolver(topo, radius=1)
        verifier = PacketVerifier(
            scheme, keystore, provider, resolver, exhaustive_fallback=False
        )
        result = verifier.verify(marked)
        assert result.chain_ids == []  # missed: ball around sink is {0, 12, 11}

    def test_resolution_table_cached_across_marks(
        self, keystore, provider, packet, monkeypatch
    ):
        scheme = PNMMarking(mark_prob=1.0)
        marked = mark_through_path(
            scheme, keystore, provider, [1, 2, 3, 4, 5], packet
        )
        calls = {"n": 0}
        original = scheme.build_resolution_table

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(scheme, "build_resolution_table", counting)
        PacketVerifier(scheme, keystore, provider).verify(marked)
        assert calls["n"] == 1  # one table for the whole packet


class TestAdaptiveResolver:
    def test_radius_grows_on_misses(self, keystore, provider, packet):
        from repro.net.topology import linear_path_topology
        from repro.traceback.resolver import AdaptiveBoundedResolver

        scheme = PNMMarking(mark_prob=1.0)
        topo, _source = linear_path_topology(12)
        resolver = AdaptiveBoundedResolver(topo, initial_radius=1)
        verifier = PacketVerifier(scheme, keystore, provider, resolver)
        marked = mark_through_path(scheme, keystore, provider, [3, 9], packet)
        result = verifier.verify(marked)
        assert result.chain_ids == [3, 9]
        assert resolver.misses >= 1
        assert resolver.radius > 1

    def test_converges_to_no_fallbacks(self, keystore, provider):
        from repro.net.topology import linear_path_topology
        from repro.packets.packet import MarkedPacket
        from repro.packets.report import Report
        from repro.traceback.resolver import AdaptiveBoundedResolver

        scheme = PNMMarking(mark_prob=0.4)
        topo, _source = linear_path_topology(12)
        resolver = AdaptiveBoundedResolver(topo, initial_radius=1)
        verifier = PacketVerifier(scheme, keystore, provider, resolver)
        fallbacks = []
        for i in range(40):
            report = Report(event=bytes([i]), location=(0, 0), timestamp=i)
            marked = mark_through_path(
                scheme,
                keystore,
                provider,
                list(range(1, 13)),
                MarkedPacket(report=report),
                seed=i,
            )
            fallbacks.append(verifier.verify(marked).fallback_searches)
        # Early packets trigger widening; late packets verify bounded-only.
        assert sum(fallbacks[:5]) > 0
        assert sum(fallbacks[-10:]) == 0

    def test_radius_capped(self, keystore, provider):
        from repro.net.topology import linear_path_topology
        from repro.traceback.resolver import AdaptiveBoundedResolver

        topo, _ = linear_path_topology(5)
        resolver = AdaptiveBoundedResolver(topo, initial_radius=1, max_radius=4)
        for _ in range(10):
            resolver.notify_miss()
        assert resolver.radius == 4

    def test_validation(self, keystore, provider):
        from repro.net.topology import linear_path_topology
        from repro.traceback.resolver import AdaptiveBoundedResolver

        topo, _ = linear_path_topology(5)
        with pytest.raises(ValueError):
            AdaptiveBoundedResolver(topo, initial_radius=0)
        with pytest.raises(ValueError):
            AdaptiveBoundedResolver(topo, initial_radius=4, max_radius=2)


def brute_force_ball(topology, center, radius):
    """Every node within ``radius`` hops of ``center``, by repeated
    expansion over the whole node list."""
    ball = {center}
    for _ in range(radius):
        ball |= {
            node
            for node in topology.nodes()
            if topology.neighbors(node) & ball
        }
    return sorted(ball)


class TestBallMemo:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_bounded_sets_are_bfs_balls(self, packet, radius):
        from repro.net.topology import grid_topology
        from repro.traceback.resolver import (
            AdaptiveBoundedResolver,
            TopologyBoundedResolver,
        )

        topo = grid_topology(6, 6)
        for resolver in (
            TopologyBoundedResolver(topo, radius=radius),
            AdaptiveBoundedResolver(topo, initial_radius=radius),
        ):
            sets = resolver.search_sets(packet)
            assert sets[None] == brute_force_ball(topo, topo.sink, radius)
            for center in topo.nodes():
                assert sets[center] == brute_force_ball(topo, center, radius)
            # Memoized: the next packet gets the same ball objects back.
            assert resolver.search_sets(packet)[7] is sets[7]

    def test_adaptive_miss_widens_the_next_mark_of_the_packet(
        self, keystore, provider, packet
    ):
        from repro.net.topology import linear_path_topology
        from repro.traceback.resolver import AdaptiveBoundedResolver

        scheme = PNMMarking(mark_prob=1.0)
        topo, _source = linear_path_topology(12)
        resolver = AdaptiveBoundedResolver(topo, initial_radius=1)
        offered = []

        class RecordingSets:
            """The resolver's mapping, recording each set it offers."""

            def __init__(self, sets):
                self.sets = sets

            def __getitem__(self, prev_verified):
                search = self.sets[prev_verified]
                offered.append((prev_verified, list(search)))
                return search

        search_sets = resolver.search_sets
        resolver.search_sets = lambda p: RecordingSets(search_sets(p))
        marked = mark_through_path(scheme, keystore, provider, [3, 9], packet)
        result = PacketVerifier(scheme, keystore, provider, resolver).verify(marked)
        assert result.chain_ids == [3, 9]
        # Mark 1 (node 9) misses the radius-1 ball around the sink and is
        # found exhaustively; mark 0 (node 3) is then offered the radius-2
        # ball around node 9, within the same packet, and misses it too.
        assert offered == [
            (None, brute_force_ball(topo, topo.sink, 1)),
            (9, brute_force_ball(topo, 9, 2)),
        ]
        assert result.fallback_searches == 2
        assert resolver.radius == 4  # node 3 missed the radius-2 ball too
