"""Property-based fault tests: churn never frames honest nodes.

The fault subsystem's core claim extends the paper's precision theorems
to dynamic networks: benign failures -- crashes, recoveries, lossy
links, route repairs -- must never cause the sink-side attribution to
accuse an honest node.  The mechanism is structural: benign faults
cannot forge MACs (no tamper evidence) and every fault-era drop site is
explained by a recorded fault interval (no suspicious drops).  Hypothesis
drives random churn schedules over an all-honest deployment and checks:

* zero accusations and a 0.0 false-accusation rate, always;
* every delivered packet still verifies end-to-end (faults kill packets,
  they never corrupt them);
* packet conservation: injected = delivered + lost + fault-killed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    accusation_report,
    attribute_drops,
)
from repro.marking.base import NodeContext
from repro.marking.nested import NestedMarking
from repro.net.links import LinkModel
from repro.net.topology import grid_topology
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource
from repro.traceback.sink import TracebackSink

PROVIDER = KeyedHashProvider()
MASTER = b"faults-property-master"


def run_honest_under_churn(
    side: int, churn_rate: float, loss_prob: float, seed: int, packets: int = 25
):
    """An all-honest grid run under a seeded random churn schedule."""
    topo = grid_topology(side, side, sink_at="corner")
    routing = RepairingRoutingTable(topo)
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = NestedMarking()
    behaviors = {
        nid: HonestForwarder(
            NodeContext(
                node_id=nid,
                key=keystore[nid],
                provider=PROVIDER,
                rng=random.Random(f"fp:{seed}:{nid}"),
            ),
            scheme,
        )
        for nid in topo.sensor_nodes()
    }
    sink = TracebackSink(scheme, keystore, PROVIDER, topo)
    sim = NetworkSimulation(
        topology=topo,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001, loss_prob=loss_prob),
        rng=random.Random(f"fp:link:{seed}"),
    )
    source_id = max(topo.sensor_nodes())
    interval = 0.05
    schedule = FaultSchedule.random_churn(
        topo,
        rate=churn_rate,
        duration=packets * interval,
        rng=random.Random(f"fp:churn:{seed}"),
        mean_downtime=1.0,
        protect={source_id},
    )
    injector = FaultInjector(sim, schedule)
    injector.arm()
    source = HonestReportSource(
        source_id, topo.position(source_id), random.Random(f"fp:src:{seed}")
    )
    sim.add_periodic_source(source, interval=interval, count=packets)
    sim.run()
    return sim, sink, sim.metrics, injector


class TestHonestChurnNeverAccuses:
    @given(
        side=st.integers(min_value=3, max_value=5),
        churn_rate=st.floats(min_value=0.0, max_value=0.5),
        loss_prob=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_zero_false_accusations(self, side, churn_rate, loss_prob, seed):
        """For ANY churn schedule over an honest network, nobody is accused."""
        sim, sink, metrics, injector = run_honest_under_churn(
            side, churn_rate, loss_prob, seed
        )
        attribution = attribute_drops(metrics, injector)
        report = accusation_report(sink.evidence(), sink.topology, attribution)
        assert report.accused == (), (
            f"honest nodes accused under benign churn: {report.accused} "
            f"(churn={churn_rate:.3f}, loss={loss_prob:.3f}, seed={seed})"
        )
        assert report.false_accusations == ()
        assert report.false_accusation_rate == 0.0
        assert not report.tamper_evidence
        assert sink.tampered_packets == 0

    @given(
        side=st.integers(min_value=3, max_value=4),
        churn_rate=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_delivered_packets_still_verify(self, side, churn_rate, seed):
        """Faults kill packets; they never corrupt the survivors' marks."""
        sim, sink, metrics, injector = run_honest_under_churn(
            side, churn_rate, loss_prob=0.0, seed=seed
        )
        for packet in sim.delivered:
            verification = sink.verifier.verify(packet)
            assert verification.all_valid, (
                f"delivered packet failed verification under churn "
                f"{churn_rate:.3f} (seed={seed}): {verification}"
            )

    @given(
        churn_rate=st.floats(min_value=0.0, max_value=0.6),
        loss_prob=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_packet_conservation(self, churn_rate, loss_prob, seed):
        """Every injected packet is accounted for exactly once."""
        sim, *_ = run_honest_under_churn(4, churn_rate, loss_prob, seed)
        m = sim.metrics
        assert (
            m.packets_delivered + m.packets_lost + m.packets_faulted
            + m.packets_dropped
            == m.packets_injected
        )
        assert m.packets_dropped == 0  # honest forwarders never drop
