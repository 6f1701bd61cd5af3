"""Property-based safety pins for watchdog fusion.

Two halves of the headline safety claim:

* **No watchdog-added false accusations.**  Whatever the adversary does
  -- framing by lying watchdogs, collusion, node churn, degraded links --
  a watchdog claim against an *honest* node is never confirmed, so the
  fused false-accusation rate under an honest data plane is exactly 0.0.
  (:func:`repro.faults.attribution.accusation_report` requires PNM
  corroboration for a claim, and an honest data plane never produces
  any.)
* **Disabled parity.**  The watchdog layer draws only from its own RNG,
  so running with the layer attached leaves the data plane bit-identical
  to running without it, and a report over evidence without claims
  carries exactly the PNM-only accusations.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.adversary.watchdog import AccusationSuppressor, LyingWatchdog
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
from repro.net.links import LinkModel, LinkTable
from repro.net.overhear import OverhearModel
from repro.net.topology import linear_path_topology
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource
from repro.traceback.sink import TracebackSink
from repro.watchdog import WatchdogLayer

PACKETS = 40
INTERVAL = 0.05


def run_deployment(
    n: int,
    seed: int,
    mole: int | None = None,
    liar: tuple[int, int] | None = None,
    suppressor: tuple[int, frozenset[int]] | None = None,
    churn_rate: float = 0.0,
    degrade: tuple[int, int] | None = None,
    watchdog_on: bool = True,
):
    """One chain run; returns ``(sim, sink, layer, metrics, injector)``."""
    topology, source_id = linear_path_topology(n)
    routing = RepairingRoutingTable(topology)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(b"wd-prop", topology.sensor_nodes())
    scheme = PNMMarking(mark_prob=2.0 / n)

    def ctx(node_id: int) -> NodeContext:
        return NodeContext(
            node_id=node_id,
            key=keystore[node_id],
            provider=provider,
            rng=random.Random(f"wd-prop:{seed}:{node_id}"),
        )

    behaviors = {
        nid: HonestForwarder(ctx(nid), scheme) for nid in topology.sensor_nodes()
    }
    if mole is not None:
        behaviors[mole] = ForwardingMole(
            ctx(mole), scheme, MarkAlteringAttack(target="first", field="mac")
        )
    links = LinkTable(default=LinkModel(base_delay=0.001))
    layer = (
        WatchdogLayer(
            OverhearModel(topology, links=links),
            rng=random.Random(f"wd-prop:layer:{seed}"),
            liars=(
                (LyingWatchdog(watcher=liar[0], victim=liar[1]),) if liar else ()
            ),
            suppressors=(
                (AccusationSuppressor(node=suppressor[0], protects=suppressor[1]),)
                if suppressor
                else ()
            ),
        )
        if watchdog_on
        else None
    )
    sink = TracebackSink(scheme, keystore, provider, topology)
    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=links,
        rng=random.Random(f"wd-prop:link:{seed}"),
        metrics=MetricsCollector(),
        watchdog=layer,
    )
    injector = None
    if churn_rate > 0.0:
        schedule = FaultSchedule.random_churn(
            topology,
            rate=churn_rate,
            duration=PACKETS * INTERVAL,
            rng=random.Random(f"wd-prop:churn:{seed}"),
            mean_downtime=1.0,
            protect={source_id},
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()
    if degrade is not None:
        frm, to = degrade
        sim.sim.schedule(
            0.8,
            lambda: links.set_override(
                frm, to, LinkModel(base_delay=0.001, loss_prob=0.5)
            ),
        )
    source = HonestReportSource(
        source_id, topology.position(source_id), random.Random(f"wd-prop:src:{seed}")
    )
    sim.add_periodic_source(source, interval=INTERVAL, count=PACKETS)
    sim.run()
    return sim, sink, layer, sim.metrics, injector


class TestNoWatchdogAddedFalseAccusations:
    @given(
        n=st.integers(5, 9),
        liar_pos=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_framing_never_convicts(self, n, liar_pos, seed):
        """Honest data plane + lying watchdog: every claim rejected."""
        _, sink, layer, metrics, _ = run_deployment(
            n, seed, liar=(liar_pos, liar_pos + 1)
        )
        fused = accusation_report(
            sink.evidence(), sink.topology, attribute_drops(metrics)
        )
        assert fused.watchdog_confirmed == ()
        assert fused.false_accusation_rate == 0.0
        assert fused.false_accusations == ()

    @given(
        n=st.integers(5, 9),
        liar_pos=st.integers(1, 4),
        churn_rate=st.floats(0.05, 0.5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_framing_under_churn_never_convicts(
        self, n, liar_pos, churn_rate, seed
    ):
        """A random ``repro.faults`` churn schedule plus degraded links
        on top of framing: drops and missed overhears still corroborate
        nothing."""
        _, sink, layer, metrics, injector = run_deployment(
            n,
            seed,
            liar=(liar_pos, liar_pos + 1),
            churn_rate=churn_rate,
            degrade=(2, 3),
        )
        fused = accusation_report(
            sink.evidence(), sink.topology, attribute_drops(metrics, injector)
        )
        assert fused.watchdog_confirmed == ()
        assert all(node not in fused.honest for node in fused.accused)
        assert fused.false_accusation_rate == 0.0

    @given(
        n=st.integers(6, 9),
        mole_shift=st.integers(2, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_collusion_confirms_no_honest_node(self, n, mole_shift, seed):
        """Mole + colluding suppressor: whatever accusations survive,
        none against an honest node is ever confirmed."""
        mole = min(mole_shift, n - 2)
        _, sink, layer, metrics, _ = run_deployment(
            n,
            seed,
            mole=mole,
            suppressor=(mole + 1, frozenset({mole})),
        )
        fused = accusation_report(
            sink.evidence(),
            sink.topology,
            attribute_drops(metrics),
            moles=frozenset({mole}),
        )
        honest = set(fused.honest)
        assert not honest & set(fused.watchdog_confirmed)


class TestDisabledParity:
    @given(
        n=st.integers(5, 9),
        seed=st.integers(0, 10_000),
        with_mole=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_data_plane_byte_identical_with_layer_attached(
        self, n, seed, with_mole
    ):
        """Attaching the layer must not perturb a single data-plane byte:
        it draws only from its own RNG."""
        mole = 3 if with_mole else None
        sim_on, sink_on, _, metrics_on, _ = run_deployment(n, seed, mole=mole)
        sim_off, sink_off, _, metrics_off, _ = run_deployment(
            n, seed, mole=mole, watchdog_on=False
        )
        wires_on = [packet.wire() for packet in sim_on.delivered]
        wires_off = [packet.wire() for packet in sim_off.delivered]
        assert wires_on == wires_off
        assert sink_on.verdict() == sink_off.verdict()
        # The layer adds claims to the evidence and nothing else.
        pnm_on = replace(sink_on.evidence(), watchdog_claims=())
        assert pnm_on == sink_off.evidence()
        moles = frozenset({mole}) if mole is not None else frozenset()
        report_on = accusation_report(
            pnm_on, sink_on.topology, attribute_drops(metrics_on), moles=moles
        )
        report_off = accusation_report(
            sink_off.evidence(),
            sink_off.topology,
            attribute_drops(metrics_off),
            moles=moles,
        )
        assert report_on == report_off

    @given(n=st.integers(5, 8), seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_empty_log_fuses_to_exactly_pnm(self, n, seed):
        """A report over evidence without claims -- the layer absent, or
        its claims stripped -- carries exactly the PNM-only accusations,
        field for field."""
        _, sink, _, metrics, _ = run_deployment(n, seed, mole=3)
        _, sink_off, _, metrics_off, _ = run_deployment(
            n, seed, mole=3, watchdog_on=False
        )
        moles = frozenset({3})
        base = accusation_report(
            sink_off.evidence(), sink.topology, attribute_drops(metrics_off), moles=moles
        )
        attribution = attribute_drops(metrics)
        for evidence in (
            sink_off.evidence(),
            replace(sink.evidence(), watchdog_claims=()),
        ):
            fused = accusation_report(evidence, sink.topology, attribution, moles=moles)
            assert fused.accused == base.accused
            assert fused.honest == base.honest
            assert fused.false_accusations == base.false_accusations
            assert fused.false_accusation_rate == base.false_accusation_rate
            assert fused.tamper_evidence == base.tamper_evidence
            assert fused.watchdog_claimed == ()
            assert fused.watchdog_confirmed == ()
            assert fused.watchdog_rejected == ()
