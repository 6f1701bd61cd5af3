"""Routing: tables, trees, geographic forwarding, dynamics."""

import pytest

from repro.net.topology import (
    Topology,
    grid_topology,
    linear_path_topology,
    random_topology,
)
from repro.routing.base import RoutingError, RoutingTable
from repro.routing.dynamics import RouteDynamics
from repro.routing.geographic import build_greedy_geographic_table
from repro.routing.tree import build_routing_tree


class TestRoutingTable:
    def test_path_to_sink(self):
        table = RoutingTable({3: 2, 2: 1, 1: 0}, sink=0)
        assert table.path_to_sink(3) == [3, 2, 1, 0]
        assert table.hop_count(3) == 3

    def test_forwarders_between(self):
        table = RoutingTable({3: 2, 2: 1, 1: 0}, sink=0)
        assert table.forwarders_between(3) == [2, 1]

    def test_sink_path_is_trivial(self):
        table = RoutingTable({}, sink=0)
        assert table.path_to_sink(0) == [0]

    def test_missing_route_raises(self):
        table = RoutingTable({1: 0}, sink=0)
        with pytest.raises(RoutingError, match="no route"):
            table.next_hop(9)

    def test_sink_does_not_forward(self):
        table = RoutingTable({1: 0}, sink=0)
        with pytest.raises(RoutingError):
            table.next_hop(0)

    def test_loop_detection(self):
        table = RoutingTable({1: 2, 2: 1}, sink=0)
        with pytest.raises(RoutingError, match="loop"):
            table.path_to_sink(1)

    def test_rejects_sink_with_next_hop(self):
        with pytest.raises(ValueError):
            RoutingTable({0: 1}, sink=0)

    def test_equality(self):
        assert RoutingTable({1: 0}, sink=0) == RoutingTable({1: 0}, sink=0)
        assert RoutingTable({1: 0}, sink=0) != RoutingTable({2: 0}, sink=0)


class TestRoutingTree:
    def test_linear_path_order(self):
        topo, source = linear_path_topology(6)
        table = build_routing_tree(topo)
        assert table.forwarders_between(source) == [1, 2, 3, 4, 5, 6]

    def test_shortest_paths_on_grid(self):
        topo = grid_topology(5, 5)
        table = build_routing_tree(topo)
        depths = topo.hop_distances()
        for node in topo.sensor_nodes():
            assert table.hop_count(node) == depths[node]

    def test_every_hop_is_a_radio_neighbor(self):
        topo = random_topology(40, 10, 10, radio_range=2.5, seed=4)
        table = build_routing_tree(topo)
        for node in table.routed_nodes():
            assert table.next_hop(node) in topo.neighbors(node)

    def test_deterministic_tie_break(self):
        topo = grid_topology(4, 4)
        assert build_routing_tree(topo) == build_routing_tree(topo)

    def test_randomized_tie_break_still_shortest(self):
        topo = grid_topology(5, 5)
        depths = topo.hop_distances()
        table = build_routing_tree(topo, tie_break_seed=99)
        for node in topo.sensor_nodes():
            assert table.hop_count(node) == depths[node]

    def test_disconnected_raises(self):
        topo = Topology({0: (0, 0), 1: (9, 9)}, [], sink=0)
        with pytest.raises(RoutingError, match="cannot reach"):
            build_routing_tree(topo)

    def test_disconnected_tolerated_when_not_required(self):
        topo = Topology({0: (0, 0), 1: (1, 0), 2: (9, 9)}, [(0, 1)], sink=0)
        table = build_routing_tree(topo, require_full_coverage=False)
        assert table.routed_nodes() == [1]


class TestGreedyGeographic:
    def test_linear_path(self):
        topo, source = linear_path_topology(5)
        table = build_greedy_geographic_table(topo)
        assert table.forwarders_between(source) == [1, 2, 3, 4, 5]

    def test_grid_reaches_sink(self):
        topo = grid_topology(6, 6)
        table = build_greedy_geographic_table(topo)
        for node in topo.sensor_nodes():
            assert table.path_to_sink(node)[-1] == topo.sink

    def test_distance_strictly_decreases(self):
        topo = random_topology(50, 10, 10, radio_range=2.5, seed=8)
        table = build_greedy_geographic_table(topo, require_full_coverage=False)
        for node in table.routed_nodes():
            nxt = table.next_hop(node)
            assert topo.distance(nxt, topo.sink) < topo.distance(node, topo.sink)

    def test_void_detection(self):
        # Node 2 is closer to the sink than its only neighbor: a local
        # minimum for greedy forwarding.
        positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (4.0, 0.0)}
        topo = Topology(positions, [(1, 2), (0, 1)], sink=0)
        # 1 -> 2? no: 2 is closer to sink than 1... and 2's only neighbor 1
        # is farther; 2 is stuck.
        from repro.routing.base import RoutingError as RE

        with pytest.raises(RE, match="local minima"):
            build_greedy_geographic_table(topo)

    def test_void_tolerated_when_not_required(self):
        positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (4.0, 0.0)}
        topo = Topology(positions, [(1, 2), (0, 1)], sink=0)
        table = build_greedy_geographic_table(topo, require_full_coverage=False)
        assert table.next_hop(1) == 0  # 1 can still go straight to the sink


class TestRouteDynamics:
    def test_order_preserving_tables_are_shortest(self):
        topo = grid_topology(5, 5)
        depths = topo.hop_distances()
        dyn = RouteDynamics(topo, seed=1, order_preserving=True)
        for _ in range(5):
            table = dyn.next_table()
            for node in topo.sensor_nodes():
                assert table.hop_count(node) == depths[node]

    def test_order_preserving_produces_varied_trees(self):
        topo = grid_topology(5, 5)
        dyn = RouteDynamics(topo, seed=2, order_preserving=True)
        tables = [dyn.next_table() for _ in range(6)]
        assert any(tables[0] != t for t in tables[1:])

    def test_sideways_tables_are_loop_free(self):
        topo = grid_topology(6, 6)
        dyn = RouteDynamics(topo, seed=3, order_preserving=False)
        for _ in range(5):
            table = dyn.next_table()
            for node in topo.sensor_nodes():
                assert table.path_to_sink(node)[-1] == topo.sink

    def test_deterministic_sequence(self):
        topo = grid_topology(4, 4)
        a = RouteDynamics(topo, seed=7)
        b = RouteDynamics(topo, seed=7)
        for _ in range(4):
            assert a.next_table() == b.next_table()
