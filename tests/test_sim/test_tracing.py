"""Packet tracing: simulator lifecycle spans and the run's drop trail."""

import json
import random
from collections import Counter

from repro.adversary.attacks import Attack
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.faults import FaultInjector, FaultSchedule, attribute_drops
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import grid_topology, linear_path_topology
from repro.obs import ObsProvider, Tracer, report_key
from repro.packets.report import Report
from repro.routing.repair import RepairingRoutingTable
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource, HonestReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER, ctx_for


def traced_simulation(loss_prob=0.0, routing=None):
    """A 5-forwarder chain whose provider carries a span tracer.

    Returns ``(sim, tracer, source_id)``.
    """
    topo, source_id = linear_path_topology(5)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = PNMMarking(mark_prob=0.5)
    behaviors = {
        nid: HonestForwarder(ctx_for(nid, keystore, provider), scheme)
        for nid in topo.sensor_nodes()
    }
    sink = TracebackSink(scheme, keystore, provider, topo)
    tracer = Tracer()
    sim = NetworkSimulation(
        topology=topo,
        routing=routing(topo) if routing is not None else build_routing_tree(topo),
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001, loss_prob=loss_prob),
        rng=random.Random(1),
        obs=ObsProvider(tracer=tracer),
    )
    return sim, tracer, source_id


def run_bogus(sim, source_id, interval, count):
    source = BogusReportSource(source_id, (6.0, 0.0), random.Random(2))
    sim.add_periodic_source(source, interval=interval, count=count)
    sim.run()


def span_counts(tracer):
    return Counter(span.name for span in tracer.finished)


def nodes_of(tracer, name):
    """Node -> spans named ``name`` there."""
    return Counter(s.attrs["node"] for s in tracer.finished if s.name == name)


class TestSimulatorSpans:
    def test_full_journey_recorded(self):
        sim, tracer, source_id = traced_simulation()
        run_bogus(sim, source_id, interval=0.1, count=3)
        counts = span_counts(tracer)
        assert counts["inject"] == 3
        assert counts["deliver"] == 3
        assert counts["forward"] == 3 * 5  # 5 forwarders per packet
        assert counts["drop"] == 0

    def test_journey_in_order(self):
        sim, tracer, source_id = traced_simulation()
        run_bogus(sim, source_id, interval=0.1, count=1)
        report = sim.delivered[0].report
        journey = tracer.trace_of(report_key(report))
        kinds = [span.name for span in journey]
        assert kinds[0] == "inject"
        assert kinds[-1] == "deliver"
        assert all(k == "forward" for k in kinds[1:-1])
        times = [span.start for span in journey]
        assert times == sorted(times)

    def test_losses_traced(self):
        sim, tracer, source_id = traced_simulation(loss_prob=0.4)
        run_bogus(sim, source_id, interval=0.05, count=50)
        assert span_counts(tracer)["loss"] == sim.metrics.packets_lost
        assert sum(nodes_of(tracer, "loss").values()) == sim.metrics.packets_lost

    def test_quarantine_drops_not_traced_as_forward(self):
        sim, tracer, source_id = traced_simulation()
        sim.quarantine({source_id})
        run_bogus(sim, source_id, interval=0.1, count=4)
        assert span_counts(tracer)["deliver"] == 0
        assert span_counts(tracer)["forward"] == 0
        assert sim.metrics.packets_dropped == 4
        assert sim.metrics.drop_sites == []

    def test_unknown_packet_fate(self):
        unknown = Report(event=b"ghost", location=(0, 0), timestamp=1)
        assert Tracer().trace_of(report_key(unknown)) == []

    def test_fault_and_repair_spans_carry_node(self):
        # V3 is down from the start: V2 retries, declares it dead,
        # repairs, and finds no route left on the chain.
        sim, tracer, source_id = traced_simulation(routing=RepairingRoutingTable)
        sim.fail_node(3)
        run_bogus(sim, source_id, interval=0.1, count=2)
        assert nodes_of(tracer, "repair") == {2: 1}
        assert nodes_of(tracer, "fault") == {2: 2}
        assert sim.metrics.route_repairs == 1
        assert sim.metrics.fault_sites == {2: 2}


class TestLocationOrderingAndJson:
    def test_locations_sorted_by_node(self):
        metrics = MetricsCollector()
        for node in (9, 2, 7, 2):
            metrics.record_drop((0.0, node))
            metrics.record_fault(node)
        attribution = attribute_drops(metrics)
        for locations in (attribution.suspicious_drops, attribution.fault_drops):
            assert list(locations) == [2, 7, 9]
            assert locations == {2: 2, 7: 1, 9: 1}

    def test_to_json_round_trips(self):
        sim, tracer, source_id = traced_simulation(loss_prob=0.3)
        run_bogus(sim, source_id, interval=0.05, count=20)
        lines = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert not tracer.truncated
        assert len(lines) == len(tracer)
        assert set(lines[0]) == {
            "trace_id",
            "span_id",
            "parent_id",
            "name",
            "start",
            "end",
            "duration",
            "attrs",
        }
        loss_nodes = Counter(s["attrs"]["node"] for s in lines if s["name"] == "loss")
        assert loss_nodes == nodes_of(tracer, "loss")
        assert sum(loss_nodes.values()) == sim.metrics.packets_lost

    def test_to_json_deterministic_across_equal_runs(self):
        def run():
            sim, tracer, source_id = traced_simulation(loss_prob=0.2)
            run_bogus(sim, source_id, interval=0.05, count=15)
            return tracer.to_jsonl()

        assert run() == run()


class DropEveryOtherAttack(Attack):
    """A mole that silently discards every second packet it sees."""

    def __init__(self):
        self.seen = 0

    def apply(self, mole, packet):
        self.seen += 1
        return None if self.seen % 2 else packet


class TestSpansMatchMetricsSites:
    def test_churned_grid_with_dropping_mole(self):
        topo = grid_topology(4, 4, sink_at="corner")
        routing = RepairingRoutingTable(topo)
        provider = KeyedHashProvider()
        keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
        scheme = PNMMarking(mark_prob=0.5)
        behaviors = {
            nid: HonestForwarder(ctx_for(nid, keystore, provider), scheme)
            for nid in topo.sensor_nodes()
        }
        source_id = max(topo.sensor_nodes())
        mole_id = routing.path_to_sink(source_id)[1]
        behaviors[mole_id] = ForwardingMole(
            ctx_for(mole_id, keystore, provider), scheme, DropEveryOtherAttack()
        )
        tracer = Tracer()
        sim = NetworkSimulation(
            topology=topo,
            routing=routing,
            behaviors=behaviors,
            sink=TracebackSink(scheme, keystore, provider, topo),
            link=LinkModel(base_delay=0.001),
            rng=random.Random(7),
            obs=ObsProvider(tracer=tracer),
        )
        schedule = FaultSchedule.random_churn(
            topo,
            rate=0.3,
            duration=3.0,
            rng=random.Random(7),
            protect={source_id, mole_id},
        )
        FaultInjector(sim, schedule).arm()
        source = HonestReportSource(
            source_id, topo.position(source_id), random.Random(2)
        )
        sim.add_periodic_source(source, interval=0.05, count=60)
        # Late in the run the source is cut off: its discarded
        # transmissions are drops, but not drop sites.
        sim.sim.schedule_at(2.5, lambda: sim.quarantine({source_id}))
        sim.run()

        metrics = sim.metrics
        drop_sites = Counter(node for _time, node in metrics.drop_sites)
        assert drop_sites[mole_id] > 0
        assert nodes_of(tracer, "drop") == drop_sites
        assert nodes_of(tracer, "fault") == metrics.fault_sites
        assert sum(metrics.fault_sites.values()) == metrics.packets_faulted > 0
        assert span_counts(tracer)["repair"] == metrics.route_repairs > 0
        assert metrics.packets_dropped > len(metrics.drop_sites)
        drop_times = [s.start for s in tracer.finished if s.name == "drop"]
        assert [t for t, _node in metrics.drop_sites] == drop_times
