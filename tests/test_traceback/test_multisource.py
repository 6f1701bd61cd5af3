"""Multi-source traceback (the paper's future-work extension)."""

import random

import pytest

from repro.core.build import deploy
from repro.crypto.keys import KeyStore
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.sources import BogusReportSource
from repro.traceback.multisource import MultiSourceTracebackSink
from tests.conftest import MASTER


@pytest.fixture
def deployment():
    topo = grid_topology(5, 5, sink_at="corner")
    routing = build_routing_tree(topo)
    dep = deploy(topo, MASTER, "1:node")
    scheme = PNMMarking(mark_prob=0.4)
    sink = MultiSourceTracebackSink(
        scheme, dep.keystore, dep.provider, topo, min_support=3
    )
    behaviors = {nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topo.sensor_nodes()}
    return topo, routing, behaviors, sink


def push_from(source_id, topo, routing, behaviors, sink, count, seed):
    src = BogusReportSource(
        source_id, topo.position(source_id), random.Random(f"ms:{seed}")
    )
    path = routing.forwarders_between(source_id)
    for _ in range(count):
        packet = src.next_packet(timestamp=0)
        for nid in path:
            packet = behaviors[nid].forward(packet)
            assert packet is not None
        deliverer = path[-1] if path else source_id
        sink.receive(packet, deliverer)


class TestMultiSource:
    def test_two_sources_both_confirmed(self, deployment):
        topo, routing, behaviors, sink = deployment
        # Far corners of the grid: distinct branches of the tree.
        for i, source in enumerate((24, 20)):
            push_from(source, topo, routing, behaviors, sink, 120, seed=i)
        verdict = sink.multi_verdict()
        assert verdict.num_sources == 2
        implicated = set().union(*(s.members for s in verdict.suspects))
        assert 24 in implicated
        assert 20 in implicated

    def test_single_source_single_suspect(self, deployment):
        topo, routing, behaviors, sink = deployment
        push_from(24, topo, routing, behaviors, sink, 120, seed=0)
        verdict = sink.multi_verdict()
        assert verdict.num_sources == 1
        assert 24 in verdict.suspects[0].members

    def test_support_threshold_defers_confirmation(self, deployment):
        topo, routing, behaviors, sink = deployment
        sink.min_support = 50
        push_from(24, topo, routing, behaviors, sink, 40, seed=0)
        verdict = sink.multi_verdict()
        # Heads have not accumulated 50 observations yet.
        assert verdict.num_sources == 0
        assert verdict.unconfirmed_candidates

    def test_head_support_counts(self, deployment):
        topo, routing, behaviors, sink = deployment
        # V1 marks ~40% of packets, and whenever it does, it heads the
        # chain: 150 packets give it the 30 heads a confirmation needs.
        sink.min_support = 30
        push_from(24, topo, routing, behaviors, sink, 150, seed=0)
        v1 = routing.forwarders_between(24)[0]
        assert [s.center for s in sink.multi_verdict().suspects] == [v1]

    def test_three_sources(self, deployment):
        topo, routing, behaviors, sink = deployment
        for i, source in enumerate((24, 20, 4)):
            push_from(source, topo, routing, behaviors, sink, 150, seed=i)
        verdict = sink.multi_verdict()
        assert verdict.num_sources == 3
        implicated = set().union(*(s.members for s in verdict.suspects))
        assert {24, 20, 4} <= implicated

    def test_min_support_validation(self, deployment):
        topo, routing, behaviors, _ = deployment
        from repro.crypto.mac import KeyedHashProvider

        with pytest.raises(ValueError):
            MultiSourceTracebackSink(
                PNMMarking(mark_prob=0.4),
                KeyStore.from_master_secret(MASTER, [1]),
                KeyedHashProvider(),
                topo,
                min_support=0,
            )
