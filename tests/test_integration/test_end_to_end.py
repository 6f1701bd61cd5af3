"""Cross-module integration: full deployments, end to end.

These tests exercise combinations the unit suites cover separately:
geographic routing + PNM + DES, lossy links, SEF + traceback + quarantine,
and the examples' entry points.
"""

import random

import pytest

from repro.core.build import deploy
from repro.isolation.quarantine import QuarantineManager, QuarantinePolicy
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import random_topology
from repro.routing.geographic import build_greedy_geographic_table
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER


def build_deployment(seed: int, routing_style: str = "geographic"):
    topo = random_topology(
        num_nodes=60, width=10, height=10, radio_range=2.6, seed=seed
    )
    if routing_style == "geographic":
        routing = build_greedy_geographic_table(topo, require_full_coverage=False)
    else:
        from repro.routing.tree import build_routing_tree

        routing = build_routing_tree(topo)
    dep = deploy(topo, MASTER, f"{seed}:node")
    scheme = PNMMarking(mark_prob=0.4)
    behaviors = {nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topo.sensor_nodes()}
    sink = TracebackSink(scheme, dep.keystore, dep.provider, topo)
    return topo, routing, behaviors, sink


def farthest_routed_node(topo, routing):
    routed = routing.routed_nodes()
    return max(routed, key=lambda nid: (routing.hop_count(nid), nid))


class TestGeographicRoutingIntegration:
    def test_pnm_traceback_over_greedy_forwarding(self):
        topo, routing, behaviors, sink = build_deployment(seed=11)
        mole = farthest_routed_node(topo, routing)
        sim = NetworkSimulation(
            topology=topo,
            routing=routing,
            behaviors=behaviors,
            sink=sink,
            link=LinkModel(base_delay=0.002),
            rng=random.Random(0),
        )
        sim.add_periodic_source(
            BogusReportSource(mole, topo.position(mole), random.Random(1)),
            interval=0.05,
            count=200,
        )
        sim.run()
        verdict = sink.verdict()
        assert verdict.identified
        first_hop = routing.next_hop(mole)
        assert mole in verdict.suspect.members or verdict.suspect.center == first_hop

    def test_greedy_and_tree_agree_on_outcome(self):
        for style in ("geographic", "tree"):
            topo, routing, behaviors, sink = build_deployment(seed=13, routing_style=style)
            mole = farthest_routed_node(topo, routing)
            sim = NetworkSimulation(
                topology=topo,
                routing=routing,
                behaviors=behaviors,
                sink=sink,
                rng=random.Random(0),
            )
            sim.add_periodic_source(
                BogusReportSource(mole, topo.position(mole), random.Random(1)),
                interval=0.05,
                count=200,
            )
            sim.run()
            verdict = sink.verdict()
            assert verdict.identified, f"{style} routing failed to identify"
            assert verdict.suspect.members & (
                {mole} | topo.neighbors(routing.next_hop(mole))
            )


class TestLossyLinks:
    def test_traceback_survives_packet_loss(self):
        topo, routing, behaviors, sink = build_deployment(seed=17, routing_style="tree")
        mole = farthest_routed_node(topo, routing)
        sim = NetworkSimulation(
            topology=topo,
            routing=routing,
            behaviors=behaviors,
            sink=sink,
            link=LinkModel(base_delay=0.002, loss_prob=0.15),
            rng=random.Random(3),
        )
        sim.add_periodic_source(
            BogusReportSource(mole, topo.position(mole), random.Random(1)),
            interval=0.03,
            count=400,
        )
        sim.run()
        assert sim.metrics.packets_lost > 0
        verdict = sink.verdict()
        assert verdict.identified
        assert mole in verdict.suspect.members or routing.next_hop(
            mole
        ) == verdict.suspect.center


class TestCloseTheLoop:
    def test_traceback_then_quarantine_stops_attack(self):
        topo, routing, behaviors, sink = build_deployment(seed=23, routing_style="tree")
        mole = farthest_routed_node(topo, routing)
        sim = NetworkSimulation(
            topology=topo,
            routing=routing,
            behaviors=behaviors,
            sink=sink,
            rng=random.Random(5),
        )
        sim.add_periodic_source(
            BogusReportSource(mole, topo.position(mole), random.Random(1)),
            interval=0.05,
            count=600,
        )
        sim.run(until=10.0)
        verdict = sink.verdict()
        assert verdict.identified

        manager = QuarantineManager(
            policy=QuarantinePolicy.FULL_NEIGHBORHOOD, protect={topo.sink}
        )
        isolated = manager.apply(verdict.suspect, at=sim.sim.now)
        assert mole in isolated  # the true mole is inside the quarantine set
        sim.quarantine(isolated)
        delivered_before = sim.metrics.packets_delivered
        sim.run()
        # The mole keeps transmitting but neighbors ignore it: at most a
        # few in-flight packets still land.
        assert sim.metrics.packets_delivered - delivered_before <= 3


class TestExamplesRun:
    """Every example must execute cleanly (they are living documentation)."""

    @pytest.mark.parametrize(
        "example",
        [
            "quickstart",
            "colluding_coverup",
            "identity_swap_loop",
            "multi_source_hunt",
            "traceback_shootout",
        ],
    )
    def test_example_main(self, example, capsys):
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        path = root / "examples" / f"{example}.py"
        spec = importlib.util.spec_from_file_location(f"example_{example}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert out.strip()

    def test_field_monitoring_example(self, capsys):
        # Slowest example (DES with ~1700 packets): run it last and check
        # the narrative reaches quarantine.
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        path = root / "examples" / "field_monitoring.py"
        spec = importlib.util.spec_from_file_location("example_field", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "mole inside: True" in out
