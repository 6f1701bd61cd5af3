"""Fault-injection cost: churn simulation, repair, and attribution.

The fault subsystem rides the hot path of every transmission (energy
listeners, retry/repair on dead hops), so its overhead has to stay
bounded.  These benchmarks measure a grid workload three ways -- static
baseline, churning with repairs, and the sink-side drop attribution over
a completed run -- and each run doubles as a correctness check: the
churned run must keep the honest false-accusation rate at exactly 0.0.
"""

import random

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    accusation_report,
    attribute_drops,
)
from repro.marking.base import NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import grid_topology
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource
from repro.traceback.sink import TracebackSink

GRID_SIDE = 6
PACKETS = 120
INTERVAL = 0.05
CHURN_RATE = 0.2
MASTER = b"bench-faults-master"
PROVIDER = KeyedHashProvider()


def run_workload(churn_rate: float, seed: int = 11):
    """One honest grid run; returns ``(sim, sink, metrics, injector)``."""
    topology = grid_topology(GRID_SIDE, GRID_SIDE, sink_at="corner")
    routing = RepairingRoutingTable(topology)
    keystore = KeyStore.from_master_secret(MASTER, topology.sensor_nodes())
    scheme = PNMMarking(mark_prob=0.5)
    behaviors = {
        nid: HonestForwarder(
            NodeContext(
                node_id=nid,
                key=keystore[nid],
                provider=PROVIDER,
                rng=random.Random(f"bench:{seed}:{nid}"),
            ),
            scheme,
        )
        for nid in topology.sensor_nodes()
    }
    sink = TracebackSink(scheme, keystore, PROVIDER, topology)
    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001),
        rng=random.Random(f"bench:link:{seed}"),
    )
    source_id = max(topology.sensor_nodes(), key=routing.hop_count)
    schedule = FaultSchedule.random_churn(
        topology,
        rate=churn_rate,
        duration=PACKETS * INTERVAL,
        rng=random.Random(f"bench:churn:{seed}"),
        protect={source_id},
    )
    injector = FaultInjector(sim, schedule)
    injector.arm()
    source = HonestReportSource(
        source_id, topology.position(source_id), random.Random(f"bench:src:{seed}")
    )
    sim.add_periodic_source(source, interval=INTERVAL, count=PACKETS)
    sim.run()
    return sim, sink, sim.metrics, injector


@pytest.fixture(scope="module")
def churned_run():
    return run_workload(CHURN_RATE)


class TestBenchFaultSimulation:
    def test_bench_static_baseline(self, benchmark):
        sim, *_ = benchmark(run_workload, 0.0)
        assert sim.metrics.packets_delivered == PACKETS
        assert sim.metrics.packets_faulted == 0

    def test_bench_churned_run(self, benchmark):
        sim, sink, metrics, injector = benchmark(run_workload, CHURN_RATE)
        assert sim.metrics.packets_injected == PACKETS
        assert injector.counts().get("crash", 0) > 0
        # The acceptance gate rides along: churn never frames anyone.
        report = accusation_report(
            sink.evidence(), sink.topology, attribute_drops(metrics, injector)
        )
        assert report.false_accusation_rate == 0.0


class TestBenchAttribution:
    def test_bench_attribute_drops(self, benchmark, churned_run):
        _sim, _sink, metrics, injector = churned_run
        attribution = benchmark(attribute_drops, metrics, injector)
        assert attribution.total_suspicious == 0

    def test_bench_accusation_report(self, benchmark, churned_run):
        _sim, sink, metrics, injector = churned_run
        attribution = attribute_drops(metrics, injector)
        report = benchmark(
            lambda: accusation_report(sink.evidence(), sink.topology, attribution)
        )
        assert report.accused == ()
        assert report.false_accusation_rate == 0.0
