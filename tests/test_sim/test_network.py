"""Full discrete-event network simulation."""

import random

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import grid_topology
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER, ctx_for


def make_sim(loss_prob=0.0, mark_prob=0.5):
    topo = grid_topology(4, 4, sink_at="corner")
    routing = build_routing_tree(topo)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = PNMMarking(mark_prob=mark_prob)
    behaviors = {
        nid: HonestForwarder(ctx_for(nid, keystore, provider), scheme)
        for nid in topo.sensor_nodes()
    }
    sink = TracebackSink(scheme, keystore, provider, topo)
    sim = NetworkSimulation(
        topology=topo,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001, loss_prob=loss_prob),
        rng=random.Random(7),
    )
    return sim, topo, routing


class TestDelivery:
    def test_all_packets_delivered_lossless(self):
        sim, topo, _ = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.1, count=20)
        sim.run()
        assert sim.metrics.packets_injected == 20
        assert sim.metrics.packets_delivered == 20
        assert len(sim.delivered) == 20

    def test_delivery_delay_positive_and_recorded(self):
        sim, topo, routing = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.5, count=5)
        sim.run()
        hops = routing.hop_count(15)
        for delay in sim.metrics.delivery_delays:
            assert delay >= hops * 0.001

    def test_losses_reduce_delivery(self):
        sim, topo, _ = make_sim(loss_prob=0.3)
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.05, count=100)
        sim.run()
        assert sim.metrics.packets_lost > 0
        assert (
            sim.metrics.packets_delivered + sim.metrics.packets_lost
            == sim.metrics.packets_injected
        )

    def test_traceback_works_over_des(self):
        sim, topo, routing = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.05, count=150)
        sim.run()
        verdict = sim.sink.verdict()
        assert verdict.identified
        # The suspect neighborhood must contain the mole's first forwarder
        # or the mole itself.
        first_hop = routing.next_hop(15)
        assert verdict.suspect.center == first_hop or 15 in verdict.suspect.members


class TestQuarantine:
    def test_quarantined_node_traffic_dies(self):
        sim, topo, _ = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.1, count=10)
        sim.quarantine({15})
        sim.run()
        assert sim.metrics.packets_delivered == 0
        assert sim.metrics.packets_dropped == 10
        assert sim.quarantined == frozenset({15})

    def test_quarantine_midway(self):
        sim, topo, _ = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.1, count=30)
        sim.run(until=1.0)
        delivered_before = sim.metrics.packets_delivered
        assert delivered_before > 0
        sim.quarantine({15})
        sim.run()
        assert sim.metrics.packets_delivered <= delivered_before + 2


class TestTrafficScheduling:
    def test_jitter_keeps_count(self):
        sim, topo, _ = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.2, count=25, jitter=0.05)
        sim.run()
        assert sim.metrics.packets_injected == 25

    def test_zero_count_schedules_nothing(self):
        sim, topo, _ = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.2, count=0)
        sim.run()
        assert sim.metrics.packets_injected == 0

    def test_validation(self):
        sim, topo, _ = make_sim()
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        with pytest.raises(ValueError):
            sim.add_periodic_source(source, interval=0.0, count=5)
        with pytest.raises(ValueError):
            sim.add_periodic_source(source, interval=1.0, count=-1)

    def test_missing_behavior_raises(self):
        sim, topo, _ = make_sim()
        del sim.behaviors[5]
        source = BogusReportSource(15, topo.position(15), random.Random(1))
        sim.add_periodic_source(source, interval=0.1, count=5)
        path = sim.routing.path_to_sink(15)
        if 5 in path:
            with pytest.raises(KeyError):
                sim.run()
        else:
            sim.run()  # node 5 off-path: no error
