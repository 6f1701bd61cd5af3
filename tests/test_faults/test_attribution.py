"""Drop-site attribution and the false-accusation accounting."""

import random

from repro.adversary.attacks import Attack, MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    accusation_report,
    attribute_drops,
)
from repro.marking.pnm import PNMMarking
from repro.sim.metrics import MetricsCollector
from repro.sim.sources import HonestReportSource
from tests.conftest import MASTER, ctx_for
from tests.test_faults.conftest import make_grid_sim


def run_workload(sim, topo, count=40, interval=0.05, seed=2):
    source_id = max(topo.sensor_nodes())
    source = HonestReportSource(
        source_id, topo.position(source_id), random.Random(seed)
    )
    sim.add_periodic_source(source, interval=interval, count=count)
    sim.run()
    return source_id


class DropEverythingAttack(Attack):
    """A blunt mole that silently discards every packet it sees."""

    def apply(self, mole, packet):
        return None


def make_mole(topo, node_id, attack, mark_prob=0.5):
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    return ForwardingMole(
        ctx_for(node_id, keystore, provider), PNMMarking(mark_prob=mark_prob), attack
    )


class TestAttributeDrops:
    def test_honest_faulted_run_is_all_benign(self):
        sim, topo, routing, metrics, _ = make_grid_sim()
        schedule = FaultSchedule.random_churn(
            topo,
            rate=0.2,
            duration=2.0,
            rng=random.Random(9),
            protect={max(topo.sensor_nodes())},
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()
        run_workload(sim, topo)
        attribution = attribute_drops(metrics, injector)
        assert attribution.suspicious_drops == {}
        # Every fault death the metrics saw is attributed as a fault drop.
        assert attribution.total_fault == sim.metrics.packets_faulted

    def test_mole_drops_are_suspicious(self):
        sim, topo, routing, metrics, _ = make_grid_sim()
        source_id = max(topo.sensor_nodes())
        mole_id = routing.path_to_sink(source_id)[1]
        sim.behaviors[mole_id] = make_mole(topo, mole_id, DropEverythingAttack())
        run_workload(sim, topo, count=20)
        attribution = attribute_drops(metrics, injector=None)
        assert attribution.suspicious_drops == {mole_id: 20}
        assert attribution.total_suspicious == 20
        assert attribution.total_benign == 0

    def test_baseline_explains_honest_filtering_drops(self):
        # Fabricate a metrics-only scenario: node 3 dropped 4 packets, and
        # the fault-free baseline shows it drops 4 on this workload too.
        metrics = MetricsCollector()
        for i in range(4):
            metrics.record_drop((float(i), 3))
        baseline = {3: 4}
        attribution = attribute_drops(metrics, injector=None, baseline=baseline)
        assert attribution.suspicious_drops == {}
        assert attribution.benign_drops == {3: 4}

    def test_excess_over_baseline_is_suspicious(self):
        metrics = MetricsCollector()
        for i in range(6):
            metrics.record_drop((float(i), 3))
        attribution = attribute_drops(metrics, injector=None, baseline={3: 2})
        assert attribution.benign_drops == {3: 2}
        assert attribution.suspicious_drops == {3: 4}

    def test_summary_keys(self):
        sim, topo, routing, metrics, _ = make_grid_sim()
        run_workload(sim, topo, count=5)
        summary = attribute_drops(metrics).summary()
        assert set(summary) == {
            "fault_drops",
            "benign_drops",
            "suspicious_drops",
            "repairs",
        }


class TestAccusationReport:
    def test_honest_network_zero_accusations(self):
        sim, topo, routing, metrics, sink = make_grid_sim()
        schedule = FaultSchedule.random_churn(
            topo,
            rate=0.3,
            duration=2.0,
            rng=random.Random(4),
            protect={max(topo.sensor_nodes())},
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()
        run_workload(sim, topo)
        report = accusation_report(
            sink.evidence(), topo, attribute_drops(metrics, injector)
        )
        assert report.accused == ()
        assert report.false_accusations == ()
        assert report.false_accusation_rate == 0.0
        assert not report.tamper_evidence

    def test_tampering_mole_gets_accused_not_framed_wholesale(self):
        sim, topo, routing, metrics, sink = make_grid_sim()
        source_id = max(topo.sensor_nodes())
        mole_id = routing.path_to_sink(source_id)[2]
        sim.behaviors[mole_id] = make_mole(
            topo, mole_id, MarkAlteringAttack(target="first", field="mac")
        )
        run_workload(sim, topo, count=60)
        report = accusation_report(
            sink.evidence(), topo, attribute_drops(metrics), moles=frozenset({mole_id})
        )
        assert report.tamper_evidence
        assert len(report.accused) >= 1
        # One-hop precision: anyone accused sits within one hop of the mole.
        for accused in report.accused:
            assert accused in topo.closed_neighborhood(mole_id)
        assert report.false_accusation_rate <= 1 / len(report.honest) * len(
            report.accused
        )

    def test_rate_counts_honest_only(self):
        sim, topo, routing, metrics, sink = make_grid_sim()
        run_workload(sim, topo, count=5)
        report = accusation_report(
            sink.evidence(), topo, attribute_drops(metrics), moles=frozenset({5})
        )
        assert 5 not in report.honest
        assert len(report.honest) == len(topo.sensor_nodes()) - 1
