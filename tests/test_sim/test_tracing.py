"""Packet tracing."""

import random

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import linear_path_topology
from repro.packets.report import Report
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource
from repro.sim.tracing import PacketTracer
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER, ctx_for


def traced_simulation(loss_prob=0.0, tracer=None):
    topo, source_id = linear_path_topology(5)
    routing = build_routing_tree(topo)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = PNMMarking(mark_prob=0.5)
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
        rng=random.Random(1),
        tracer=tracer,
    )
    return sim, topo, source_id


class TestPacketTracer:
    def test_full_journey_recorded(self):
        tracer = PacketTracer()
        sim, topo, source_id = traced_simulation(tracer=tracer)
        source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
        sim.add_periodic_source(source, interval=0.1, count=3)
        sim.run()
        counts = tracer.counts()
        assert counts["inject"] == 3
        assert counts["deliver"] == 3
        assert counts["forward"] == 3 * 5  # 5 forwarders per packet
        assert counts["drop"] == 0

    def test_journey_in_order(self):
        tracer = PacketTracer()
        sim, topo, source_id = traced_simulation(tracer=tracer)
        source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
        sim.add_periodic_source(source, interval=0.1, count=1)
        sim.run()
        report = sim.delivered[0].report
        journey = tracer.journey(report)
        kinds = [e.kind for e in journey]
        assert kinds[0] == "inject"
        assert kinds[-1] == "deliver"
        assert all(k == "forward" for k in kinds[1:-1])
        times = [e.time for e in journey]
        assert times == sorted(times)

    def test_losses_traced(self):
        tracer = PacketTracer()
        sim, topo, source_id = traced_simulation(loss_prob=0.4, tracer=tracer)
        source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
        sim.add_periodic_source(source, interval=0.05, count=50)
        sim.run()
        assert tracer.counts()["loss"] == sim.metrics.packets_lost
        assert sum(tracer.loss_locations().values()) == sim.metrics.packets_lost

    def test_quarantine_drops_not_traced_as_forward(self):
        tracer = PacketTracer()
        sim, topo, source_id = traced_simulation(tracer=tracer)
        sim.quarantine({source_id})
        source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
        sim.add_periodic_source(source, interval=0.1, count=4)
        sim.run()
        assert tracer.counts()["deliver"] == 0
        assert tracer.counts()["forward"] == 0

    def test_unknown_packet_fate(self):
        tracer = PacketTracer()
        unknown = Report(event=b"ghost", location=(0, 0), timestamp=1)
        assert tracer.journey(unknown) == []

    def test_truncation_flag(self):
        tracer = PacketTracer(max_events=5)
        sim, topo, source_id = traced_simulation(tracer=tracer)
        source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
        sim.add_periodic_source(source, interval=0.1, count=5)
        sim.run()
        assert len(tracer) == 5
        assert tracer.truncated

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketTracer(max_events=0)
        tracer = PacketTracer()
        with pytest.raises(ValueError, match="kind"):
            tracer.record(0.0, "teleport", 1, Report(event=b"", location=(0, 0), timestamp=0))

    def test_fault_and_repair_are_known_kinds(self):
        tracer = PacketTracer()
        report = Report(event=b"f", location=(0, 0), timestamp=1)
        tracer.record(1.0, "fault", 4, report)
        tracer.record(2.0, "repair", 2, report)
        assert tracer.counts()["fault"] == 1
        assert tracer.counts()["repair"] == 1
        assert tracer.fault_locations() == {4: 1}
        assert tracer.repair_locations() == {2: 1}


class TestLocationOrderingAndJson:
    def test_locations_sorted_by_node(self):
        tracer = PacketTracer()
        report = Report(event=b"o", location=(0, 0), timestamp=1)
        for node in (9, 2, 7, 2):
            tracer.record(0.0, "drop", node, report)
        locations = tracer.drop_locations()
        assert list(locations) == [2, 7, 9]
        assert locations == {2: 2, 7: 1, 9: 1}

    def test_to_json_round_trips(self):
        import json

        tracer = PacketTracer()
        sim, topo, source_id = traced_simulation(loss_prob=0.3, tracer=tracer)
        source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
        sim.add_periodic_source(source, interval=0.05, count=20)
        sim.run()
        payload = json.loads(tracer.to_json())
        assert payload["max_events"] == tracer.max_events
        assert payload["truncated"] is False
        assert payload["counts"] == tracer.counts()
        assert len(payload["events"]) == len(tracer)
        first = payload["events"][0]
        assert set(first) == {"time", "kind", "node", "packet"}
        assert {int(k): v for k, v in payload["loss_locations"].items()} == (
            tracer.loss_locations()
        )

    def test_to_json_deterministic_across_equal_runs(self):
        def run():
            tracer = PacketTracer()
            sim, topo, source_id = traced_simulation(loss_prob=0.2, tracer=tracer)
            source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
            sim.add_periodic_source(source, interval=0.05, count=15)
            sim.run()
            return tracer.to_json(indent=2)

        assert run() == run()
