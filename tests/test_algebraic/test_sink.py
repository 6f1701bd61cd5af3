"""End-to-end sink behavior: recovery, verdict purity, mole truncation."""

import random

import pytest

from repro.adversary.attacks import Attack
from repro.adversary.moles import ForwardingMole
from repro.algebraic.marking import ACCUMULATOR_LEN, AlgebraicMarking
from repro.algebraic.sink import (
    AlgebraicTracebackSink,
    algebraic_verdict,
    observation_from,
)
from repro.cluster.coordinator import verdict_json
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.base import NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import linear_path_topology
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource
from repro.traceback.verify import PacketVerification

MASTER = b"algebraic-sink-test"


class _GarbleAccumulator(Attack):
    """Deterministically zero the accumulator field (count 0 = malformed)."""

    def apply(self, mole, packet):
        forwarded = mole.scheme.on_forward(mole.ctx, packet)
        return forwarded.with_marks(
            tuple(
                Mark(id_field=b"\x00" * ACCUMULATOR_LEN, mac=mark.mac)
                for mark in forwarded.marks
            )
        )


def run_linear_sim(n_forwarders, packets, mole_id=None, attack=None):
    topology, source_id = linear_path_topology(n_forwarders)
    routing = RepairingRoutingTable(topology)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(MASTER, topology.sensor_nodes())
    scheme = AlgebraicMarking()
    sink = AlgebraicTracebackSink(scheme, keystore, provider, topology)

    def ctx(node_id):
        return NodeContext(
            node_id=node_id,
            key=keystore[node_id],
            provider=provider,
            rng=random.Random(f"algsink:{node_id}"),
        )

    behaviors = {
        nid: HonestForwarder(ctx(nid), scheme) for nid in topology.sensor_nodes()
    }
    if mole_id is not None:
        behaviors[mole_id] = ForwardingMole(ctx(mole_id), scheme, attack)
    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001),
        rng=random.Random("algsink:link"),
        metrics=MetricsCollector(),
    )
    source = HonestReportSource(
        source_id, topology.position(source_id), random.Random("algsink:src")
    )
    sim.add_periodic_source(source, interval=0.05, count=packets)
    sim.run()
    return topology, sink


class TestHonestRecovery:
    def test_recovers_the_true_route_end_to_end(self):
        topology, sink = run_linear_sim(4, packets=10)
        assert (1, 2, 3, 4) in sink.confirmed_paths()
        assert sink.solver.malformed == 0

    def test_verdict_equals_pure_function_of_evidence(self):
        topology, sink = run_linear_sim(4, packets=10)
        assert verdict_json(sink.verdict()) == verdict_json(
            algebraic_verdict(sink.evidence(), topology)
        )

    def test_evidence_observations_are_canonically_sorted(self):
        _topology, sink = run_linear_sim(3, packets=8)
        assert sink.evidence().algebraic == tuple(
            sorted(sink.evidence().algebraic)
        )
        assert len(sink.evidence().algebraic) == 8


class TestMoleTruncation:
    """A garbling mole truncates the recoverable path at its next honest hop."""

    def test_truncated_suffix_confirms_and_localizes(self):
        # Route 1-2-3-4-5-6 with a garbling mole at 4: honest hop 5
        # restarts the polynomial, so only the suffix (5, 6) is
        # recoverable -- which centers the suspect neighborhood on 5,
        # whose one-hop neighborhood contains the mole.
        topology, sink = run_linear_sim(
            6, packets=20, mole_id=4, attack=_GarbleAccumulator()
        )
        assert (5, 6) in sink.confirmed_paths()
        assert all(4 not in path for path in sink.confirmed_paths())
        verdict = sink.verdict()
        assert verdict.identified
        assert 4 in verdict.suspect.members

    def test_garbled_accumulators_never_reach_the_solver(self):
        # The mole sits right next to the sink: its garbage arrives
        # unparseable, yielding no observation (not a malformed one).
        _topology, sink = run_linear_sim(
            3, packets=10, mole_id=3, attack=_GarbleAccumulator()
        )
        assert sink.solver.malformed == 0
        assert sink.confirmed_paths() == ()


class TestObservationExtraction:
    @pytest.fixture
    def sink_parts(self):
        topology, _source = linear_path_topology(3)
        provider = KeyedHashProvider()
        keystore = KeyStore.from_master_secret(MASTER, topology.sensor_nodes())
        return topology, keystore, provider

    def test_unmarked_packet_yields_no_observation(self, report):
        packet = MarkedPacket(report=report, origin=5)
        verification = PacketVerification(packet=packet)
        assert observation_from(verification, 1) is None

    def test_multi_mark_packet_yields_no_observation(self, report):
        packet = MarkedPacket(report=report, origin=5).with_marks(
            (Mark(id_field=b"\x01" * 5, mac=b""), Mark(id_field=b"\x01" * 5, mac=b""))
        )
        verification = PacketVerification(packet=packet)
        assert observation_from(verification, 1) is None

    def test_unmarked_packets_do_not_crash_the_sink(self, report, sink_parts):
        topology, keystore, provider = sink_parts
        sink = AlgebraicTracebackSink(
            AlgebraicMarking(), keystore, provider, topology
        )
        packet = MarkedPacket(report=report, origin=2)
        sink.receive(packet, delivering_node=3)
        assert sink.packets_received == 1
        assert sink.evidence().algebraic == ()

    def test_rejects_non_algebraic_scheme(self, sink_parts):
        topology, keystore, provider = sink_parts
        with pytest.raises(TypeError, match="AlgebraicMarking"):
            AlgebraicTracebackSink(
                PNMMarking(mark_prob=0.5), keystore, provider, topology
            )
