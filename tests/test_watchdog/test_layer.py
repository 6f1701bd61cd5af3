"""Layer-level tests: overhearing, accusation transport, and the pin
that the attach-specialized hot path is behaviorally identical to the
readable reference implementation (:meth:`WatchdogLayer.on_transmission`).
"""

import random

import pytest

from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.adversary.watchdog import AccusationSuppressor, LyingWatchdog
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.base import NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel, LinkTable
from repro.net.overhear import OverhearModel
from repro.net.topology import grid_topology, linear_path_topology
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource
from repro.traceback.sink import TracebackSink
from repro.watchdog import WatchdogLayer
from repro.watchdog.accusation import LocalAccusation


def build_sim(
    scenario: str = "honest",
    n: int = 8,
    packets: int = 100,
    seed: int = 3,
    mole_pos: int = 4,
    reference_path: bool = False,
    grid: bool = False,
):
    """One deployment with the watchdog layer riding along.

    ``reference_path=True`` swaps the simulation's transmission tap from
    the attach-specialized closure back to the plain
    :meth:`WatchdogLayer.on_transmission` method, so the same scenario
    can run through either implementation.
    """
    if grid:
        topology = grid_topology(3, 3)
        source_id = max(topology.sensor_nodes())
    else:
        topology, source_id = linear_path_topology(n)
    routing = RepairingRoutingTable(topology)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(b"wd-layer-test", topology.sensor_nodes())
    scheme = PNMMarking(mark_prob=0.25)

    def ctx(node_id: int) -> NodeContext:
        return NodeContext(
            node_id=node_id,
            key=keystore[node_id],
            provider=provider,
            rng=random.Random(f"wd-layer:{seed}:{node_id}"),
        )

    behaviors = {
        nid: HonestForwarder(ctx(nid), scheme) for nid in topology.sensor_nodes()
    }
    liars, suppressors = (), ()
    if scenario == "mole":
        behaviors[mole_pos] = ForwardingMole(
            ctx(mole_pos), scheme, MarkAlteringAttack(target="first", field="mac")
        )
    elif scenario == "collusion":
        behaviors[mole_pos] = ForwardingMole(
            ctx(mole_pos), scheme, MarkAlteringAttack(target="first", field="mac")
        )
        suppressors = (
            AccusationSuppressor(node=mole_pos + 1, protects=frozenset({mole_pos})),
        )
    elif scenario == "framing":
        liars = (LyingWatchdog(watcher=mole_pos, victim=mole_pos + 1),)
    elif scenario != "honest":
        raise ValueError(scenario)

    # One shared link table, so overhearing and packet transport see the
    # same per-edge overrides (and the same version counter).
    links = LinkTable(default=LinkModel(base_delay=0.001))
    layer = WatchdogLayer(
        OverhearModel(topology, links=links),
        rng=random.Random(f"wd-layer:layer:{seed}"),
        liars=liars,
        suppressors=suppressors,
    )
    sink = TracebackSink(scheme, keystore, provider, topology)
    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=links,
        rng=random.Random(f"wd-layer:link:{seed}"),
        metrics=MetricsCollector(),
        watchdog=layer,
    )
    if reference_path:
        sim._watchdog_tap = WatchdogLayer.on_transmission.__get__(layer)
    source = HonestReportSource(
        source_id, topology.position(source_id), random.Random(f"wd-layer:src:{seed}")
    )
    sim.add_periodic_source(source, interval=0.05, count=packets)
    return sim, layer, sink


def layer_outcome(layer: WatchdogLayer) -> dict:
    """Everything observable about a layer run, keyed for comparison.

    Deliberately excludes internals the two implementations legitimately
    differ on: pending-queue keys (report digests vs. pinned object ids)
    and eagerly- vs. lazily-created empty monitors and queues.
    """
    scores = {
        watcher: {
            watched: (
                entry.score,
                entry.observations,
                entry.flagged,
                entry.missing,
                entry.accused,
            )
            for watched, entry in sorted(monitor.scores.items())
        }
        for watcher, monitor in sorted(layer.monitors.items())
        if monitor.scores
    }
    pendings = {
        watcher: {
            watched: len(queue)
            for watched, queue in sorted(monitor._pending.items())
            if queue
        }
        for watcher, monitor in sorted(layer.monitors.items())
        if any(monitor._pending.values())
    }
    return {
        "scores": scores,
        "pendings": pendings,
        "emitted": list(layer.emitted),
        "suppressed": list(layer.suppressed),
        "lost": list(layer.lost),
        "delivered": list(layer.delivered),
    }


def test_hot_path_reads_the_live_down_set(monkeypatch):
    """The bound tap tests watcher liveness against the simulation's own
    down-node set instead of calling ``node_is_down`` per watcher, so the
    set must exist when the simulation attaches the layer."""
    calls = []
    real = NetworkSimulation.node_is_down

    def counting(self, node_id):
        calls.append(node_id)
        return real(self, node_id)

    monkeypatch.setattr(NetworkSimulation, "node_is_down", counting)
    sim, layer, _ = build_sim("honest")
    sim.sim.schedule(1.0, lambda: sim.fail_node(3))
    sim.run()
    assert layer.monitors
    assert calls == []


class TestHotPathEquivalence:
    """The attach-bound closure and the reference method must be
    indistinguishable in every observable outcome, RNG draw for RNG
    draw -- this is the pin the ``attach`` docstring promises."""

    @pytest.mark.parametrize(
        "scenario", ["honest", "mole", "collusion", "framing"]
    )
    def test_chain_scenarios_identical(self, scenario):
        sim_hot, layer_hot, _ = build_sim(scenario)
        sim_hot.run()
        sim_ref, layer_ref, _ = build_sim(scenario, reference_path=True)
        sim_ref.run()
        assert layer_outcome(layer_hot) == layer_outcome(layer_ref)
        # Sanity: the scenario actually exercised the layer.
        assert layer_hot.monitors

    def test_grid_topology_identical(self):
        sim_hot, layer_hot, _ = build_sim("mole", grid=True, mole_pos=4)
        sim_hot.run()
        sim_ref, layer_ref, _ = build_sim(
            "mole", grid=True, mole_pos=4, reference_path=True
        )
        sim_ref.run()
        assert layer_outcome(layer_hot) == layer_outcome(layer_ref)

    def test_link_churn_and_node_churn_identical(self):
        """Mid-run link overrides (plan invalidation) and node failures
        (down-node gating) must not open a gap between the paths."""

        def perturb(sim):
            links = sim.links
            degraded = LinkModel(base_delay=0.001, loss_prob=0.6)
            sim.sim.schedule(1.0, lambda: links.set_override(5, 6, degraded))
            sim.sim.schedule(2.0, lambda: sim.fail_node(3))
            sim.sim.schedule(3.0, lambda: sim.restore_node(3))
            sim.sim.schedule(3.5, lambda: links.clear_override(5, 6))

        sim_hot, layer_hot, _ = build_sim("mole")
        perturb(sim_hot)
        sim_hot.run()
        sim_ref, layer_ref, _ = build_sim("mole", reference_path=True)
        perturb(sim_ref)
        sim_ref.run()
        outcome = layer_outcome(layer_hot)
        assert outcome == layer_outcome(layer_ref)
        assert outcome["scores"], "churn run produced no evidence at all"


class TestWatchdogDetection:
    def test_mole_gets_accused(self):
        sim, layer, _ = build_sim("mole")
        sim.run()
        accused = {accusation.accused for accusation in layer.emitted}
        assert 4 in accused
        # Honest watchers never accuse anyone but the mole here: the
        # chain is reliable enough that missing-evidence stays subcritical.
        assert accused == {4}
        assert any(
            d.accusation.accused == 4 for d in layer.delivered
        )

    def test_honest_run_emits_nothing(self):
        sim, layer, _ = build_sim("honest")
        sim.run()
        assert layer.emitted == []
        assert len(layer.delivered) == 0

    def test_suppressor_starves_the_sink(self):
        sim, layer, _ = build_sim("collusion")
        sim.run()
        assert layer.suppressed, "suppressor never saw an accusation"
        assert all(a.accused == 4 for a in layer.suppressed)
        assert not any(
            d.accusation.accused == 4 for d in layer.delivered
        )

    def test_lying_watchdog_frames_its_victim(self):
        sim, layer, _ = build_sim("framing")
        sim.run()
        fabricated = [a for a in layer.emitted if a.watcher == 4]
        assert len(fabricated) == 1
        assert fabricated[0].accused == 5


class TestAccusationTransport:
    def accusation(self, watcher: int) -> LocalAccusation:
        return LocalAccusation(
            watcher=watcher,
            accused=2,
            score=5.0,
            observations=4,
            flagged=3,
            missing=0,
            emitted_at=0.0,
        )

    def test_relay_delivers_with_hop_count(self):
        sim, layer, _ = build_sim("honest", n=5)
        layer._emit(self.accusation(watcher=3))
        sim.sim.run()
        assert len(layer.delivered) == 1
        delivered = layer.delivered[0]
        # IDs ascend toward the sink: watcher 3 relays 3 -> 4 -> 5 -> sink.
        assert delivered.hops == 3
        assert delivered.latency > 0.0

    def test_delivery_counts_a_claim_in_sink_evidence(self):
        sim, layer, sink = build_sim("honest", n=5)
        layer._emit(self.accusation(watcher=3))
        layer._emit(self.accusation(watcher=4))
        sim.sim.run()
        assert len(layer.delivered) == 2
        assert sink.evidence().watchdog_claims == ((2, 2),)

    def test_relay_dies_at_down_node(self):
        sim, layer, sink = build_sim("honest", n=5)
        sim.fail_node(4)
        layer._emit(self.accusation(watcher=3))
        sim.sim.run()
        assert len(layer.delivered) == 0
        assert layer.lost
        assert sink.evidence().watchdog_claims == ()

    def test_unattached_layer_refuses_to_relay(self):
        topology, _ = linear_path_topology(4)
        layer = WatchdogLayer(OverhearModel(topology))
        with pytest.raises(RuntimeError, match="attach"):
            layer._emit(self.accusation(watcher=2))
