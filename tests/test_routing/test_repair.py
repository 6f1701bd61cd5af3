"""Route repair: retry policy and the repairing routing table."""

import pytest

from repro.net.topology import grid_topology, linear_path_topology
from repro.routing.base import RoutingError
from repro.routing.repair import RepairingRoutingTable, RepairPolicy
from repro.routing.tree import build_routing_tree


class TestRepairPolicy:
    def test_defaults_valid(self):
        policy = RepairPolicy()
        assert policy.max_retries == 2

    def test_backoff_grows_exponentially(self):
        policy = RepairPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff_delay(0) == pytest.approx(0.1)
        assert policy.backoff_delay(1) == pytest.approx(0.2)
        assert policy.backoff_delay(2) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RepairPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            RepairPolicy(backoff_base=0.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RepairPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="attempt"):
            RepairPolicy().backoff_delay(-1)


class TestRepairingRoutingTable:
    def test_initial_tree_matches_bfs_tree(self):
        topo = grid_topology(4, 4, sink_at="corner")
        repairing = RepairingRoutingTable(topo)
        baseline = build_routing_tree(topo)
        for node in topo.sensor_nodes():
            assert repairing.hop_count(node) == baseline.hop_count(node)

    def test_mark_dead_routes_around(self):
        topo = grid_topology(4, 4, sink_at="corner")
        table = RepairingRoutingTable(topo)
        victim = table.next_hop(15)
        changed = table.mark_dead(victim)
        assert changed > 0
        path = table.path_to_sink(15)
        assert victim not in path
        assert path[-1] == topo.sink

    def test_mark_dead_idempotent(self):
        topo = grid_topology(3, 3)
        table = RepairingRoutingTable(topo)
        assert table.mark_dead(4) > 0
        assert table.mark_dead(4) == 0

    def test_mark_alive_restores_original_routes(self):
        topo = grid_topology(4, 4, sink_at="corner")
        table = RepairingRoutingTable(topo)
        original = table.as_dict()
        table.mark_dead(5)
        table.mark_alive(5)
        assert table.as_dict() == original

    def test_mark_alive_without_death_is_noop(self):
        topo = grid_topology(3, 3)
        table = RepairingRoutingTable(topo)
        assert table.mark_alive(4) == 0
        assert table.repairs == 0

    def test_sink_cannot_die(self):
        topo = grid_topology(3, 3)
        table = RepairingRoutingTable(topo)
        with pytest.raises(ValueError, match="sink"):
            table.mark_dead(topo.sink)

    def test_cut_off_node_becomes_unrouted(self):
        # On a chain, killing the middle node severs everything upstream.
        topo, source_id = linear_path_topology(3)
        table = RepairingRoutingTable(topo)
        middle = table.path_to_sink(source_id)[1]
        table.mark_dead(middle)
        with pytest.raises(RoutingError):
            table.next_hop(source_id)
        # Recovery reconnects the chain.
        table.mark_alive(middle)
        assert table.path_to_sink(source_id)[-1] == topo.sink

    def test_rebuilds_are_deterministic(self):
        topo = grid_topology(5, 5, sink_at="corner")
        a = RepairingRoutingTable(topo)
        b = RepairingRoutingTable(topo)
        for victim in (7, 12, 3):
            a.mark_dead(victim)
            b.mark_dead(victim)
        assert a.as_dict() == b.as_dict()
        a.mark_alive(12)
        b.mark_alive(12)
        assert a.as_dict() == b.as_dict()

    def test_dead_node_loses_its_own_route(self):
        topo = grid_topology(3, 3)
        table = RepairingRoutingTable(topo)
        table.mark_dead(4)
        with pytest.raises(RoutingError):
            table.next_hop(4)

    def test_base_table_sink_mismatch_rejected(self):
        topo = grid_topology(3, 3, sink_at="corner")
        other = grid_topology(3, 3, sink_at="center")
        base = build_routing_tree(other)
        with pytest.raises(ValueError, match="sink"):
            RepairingRoutingTable(topo, base=base)

    def test_counters_track_activity(self):
        topo = grid_topology(4, 4)
        table = RepairingRoutingTable(topo)
        table.mark_dead(5)
        table.mark_alive(5)
        assert table.repairs == 2
        assert table.routes_changed > 0
        assert "repairs=2" in repr(table)
