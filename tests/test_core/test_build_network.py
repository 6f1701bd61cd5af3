"""build_network: the event-simulated deployment the churn and watchdog
sweeps run."""

from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.core.build import build_network
from repro.crypto.keys import KeyStore
from repro.marking.pnm import PNMMarking
from repro.net.topology import Topology, grid_topology, linear_path_topology
from repro.sim.behaviors import HonestForwarder

SECRET = b"build-network-test"


def run(topology, packets=5, **kwargs):
    return build_network(
        topology,
        PNMMarking(mark_prob=0.5),
        SECRET,
        packets,
        rng_label="bn-test",
        seed=3,
        **kwargs,
    )


def alter():
    return MarkAlteringAttack(target="first", field="mac")


class TestBuildNetwork:
    def test_source_is_farthest_sensor_ties_to_larger_id(self):
        # Sink 0 - 1 - {2, 3}, plus 4 next to the sink: 2 and 3 tie at two
        # hops, and the largest ID (4) is one hop away.
        topology = Topology(
            {0: (0, 0), 1: (1, 0), 2: (2, 1), 3: (2, -1), 4: (-1, 0)},
            [(0, 1), (1, 2), (1, 3), (0, 4)],
            sink=0,
        )
        assert run(topology).source_id == 3

    def test_source_on_a_grid_and_a_chain(self):
        # 4-neighborhood, sink in the corner: the opposite corner is the
        # one sensor six hops out.
        topology = grid_topology(4, 4, sink_at="corner", radio_range=1.0)
        assert topology.position(run(topology).source_id) == (3.0, 3.0)
        chain, source_id = linear_path_topology(5)
        assert run(chain).source_id == source_id

    def test_mole_defaults_to_middle_forwarder_of_source_route(self):
        topology, source_id = linear_path_topology(6)
        net = run(topology, attack=alter())
        # Route 7 -> 1 -> 2 -> ... -> 6 -> sink (IDs ascend toward the
        # sink): entry 4 of its 8 is forwarder V4.
        assert net.source_id == source_id
        assert net.moles == frozenset({4})
        assert isinstance(net.sim.behaviors[4], ForwardingMole)

    def test_given_mole_id_is_used(self):
        topology, _source = linear_path_topology(6)
        net = run(topology, attack=alter(), mole_id=2)
        assert net.moles == frozenset({2})
        assert isinstance(net.sim.behaviors[2], ForwardingMole)

    def test_no_attack_means_no_moles(self):
        topology, _source = linear_path_topology(6)
        net = run(topology, mole_id=3)
        assert net.moles == frozenset()
        assert set(net.sim.behaviors) == set(topology.sensor_nodes())
        assert all(type(b) is HonestForwarder for b in net.sim.behaviors.values())
        assert net.injector is None and net.probe is None

    def test_churn_spares_source_and_mole(self):
        topology = grid_topology(4, 4, sink_at="corner")
        net = run(topology, packets=20, attack=alter(), churn_rate=5.0)
        spared = {net.source_id} | net.moles
        crashed = [e.node for e in net.injector.schedule if e.kind == "crash"]
        assert len(crashed) > 20  # high churn: many crash events
        assert spared.isdisjoint(crashed)
        assert len(net.moles) == 1

    def test_sink_keys_derive_from_master_secret(self):
        topology = grid_topology(3, 3, sink_at="corner")
        net = run(topology)
        expected = KeyStore.from_master_secret(SECRET, topology.sensor_nodes())
        assert dict(net.sink.verifier.keystore) == dict(expected)

    def test_ingest_factory_gets_sink_routing_and_source(self):
        seen = []

        class Recorder:
            def __init__(self, sink, routing, source_id):
                seen.append((sink, routing.sink, source_id))
                self.sink = sink
                self.submitted = 0

            def submit(self, packet, delivering_node):
                self.submitted += 1
                self.sink.receive(packet, delivering_node)

            def flush(self):
                pass

        topology, source_id = linear_path_topology(4)
        net = run(topology, packets=6, ingest=Recorder)
        assert seen == [(net.sink, topology.sink, source_id)]
        assert net.sim.ingest.submitted == 6
        assert net.sink.packets_received == 6
