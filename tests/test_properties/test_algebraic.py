"""Property-based algebraic traceback: safety and repair under ANY churn.

Three claims the ISSUE pins for the stateful sink:

* **safety** -- for any benign churn/loss schedule over an all-honest
  deployment running the accumulator scheme, the false-accusation rate is
  exactly 0.0 and nobody is accused (interpolation inconsistency is a
  repair signal, never tamper evidence);
* **convergence after churn** -- whenever a route changes its suffix, the
  solver re-confirms the new route from as few observations as it has
  changed hops, reusing the shared prefix;
* **totality** -- adversarially garbled accumulators and observation
  tuples never crash the sink or solver: typed errors at the codec edges,
  counters (never exceptions) in the stream path.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic.errors import (
    MalformedAccumulatorError,
    MalformedObservationError,
)
from repro.algebraic.field import PRIME, eval_poly
from repro.algebraic.marking import (
    ACCUMULATOR_LEN,
    AlgebraicMarking,
    unpack_accumulator,
)
from repro.algebraic.sink import AlgebraicTracebackSink
from repro.algebraic.solver import AlgebraicObservation, AlgebraicSolver
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    accusation_report,
    attribute_drops,
)
from repro.marking.base import NodeContext
from repro.net.links import LinkModel
from repro.net.topology import grid_topology
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource

PROVIDER = KeyedHashProvider()
MASTER = b"algebraic-property-master"


def run_algebraic_under_churn(
    side: int, churn_rate: float, loss_prob: float, seed: int, packets: int = 25
):
    """An all-honest accumulator-scheme grid run under seeded churn."""
    topo = grid_topology(side, side, sink_at="corner")
    routing = RepairingRoutingTable(topo)
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = AlgebraicMarking()
    behaviors = {
        nid: HonestForwarder(
            NodeContext(
                node_id=nid,
                key=keystore[nid],
                provider=PROVIDER,
                rng=random.Random(f"ap:{seed}:{nid}"),
            ),
            scheme,
        )
        for nid in topo.sensor_nodes()
    }
    sink = AlgebraicTracebackSink(scheme, keystore, PROVIDER, topo)
    sim = NetworkSimulation(
        topology=topo,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001, loss_prob=loss_prob),
        rng=random.Random(f"ap:link:{seed}"),
    )
    source_id = max(topo.sensor_nodes())
    interval = 0.05
    schedule = FaultSchedule.random_churn(
        topo,
        rate=churn_rate,
        duration=packets * interval,
        rng=random.Random(f"ap:churn:{seed}"),
        mean_downtime=1.0,
        protect={source_id},
    )
    injector = FaultInjector(sim, schedule)
    injector.arm()
    source = HonestReportSource(
        source_id, topo.position(source_id), random.Random(f"ap:src:{seed}")
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
    @settings(max_examples=15, deadline=None)
    def test_zero_false_accusations(self, side, churn_rate, loss_prob, seed):
        """The stateful sink inherits the 0.0 honest false-accusation pin."""
        sim, sink, metrics, injector = run_algebraic_under_churn(
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
    @settings(max_examples=10, deadline=None)
    def test_confirmed_paths_are_always_admissible(self, side, churn_rate, seed):
        """Whatever churn does, a confirmed path is a real radio path."""
        sim, sink, *_ = run_algebraic_under_churn(
            side, churn_rate, loss_prob=0.0, seed=seed
        )
        topo = sink.topology
        for path in sink.confirmed_paths():
            assert len(set(path)) == len(path)
            assert topo.has_edge(path[-1], topo.sink)
            for upstream, downstream in zip(path, path[1:]):
                assert topo.has_edge(upstream, downstream)


class TestConvergenceAfterChurn:
    @given(
        prefix_len=st.integers(min_value=1, max_value=6),
        changed=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_changed_suffix_reconfirms_from_changed_hops_points(
        self, prefix_len, changed, seed
    ):
        """After a suffix reroute, `changed` observations re-confirm.

        Built on a long linear chain with a parallel twin: route A runs
        down one rail, churn swaps the last ``changed`` hops to the other
        rail.  The solver must confirm B after exactly ``changed`` new
        distinct anchored points, charging an incremental repair.
        """
        total = prefix_len + changed
        # Two parallel rails joined at every rung, both rails reaching
        # the sink (a ladder): any suffix swap stays admissible.
        topo = _ladder_topology(total)
        route_a = tuple(range(1, total + 1))  # bottom rail
        route_b = route_a[:prefix_len] + tuple(
            100 + i for i in range(prefix_len + 1, total + 1)
        )  # suffix jumps to the top rail
        solver = AlgebraicSolver(topo)
        rng = random.Random(f"conv:{seed}")
        points_a = rng.sample(range(1, PRIME - 1), total)
        for i, x in enumerate(points_a):
            solver.observe(_obs(route_a, x, ts=i))
        assert route_a in solver.confirmed_paths()

        points_b = rng.sample(range(1, PRIME - 1), changed)
        confirmed = None
        for j, x in enumerate(points_b):
            confirmed = solver.observe(_obs(route_b, x, ts=1000 + j)) or confirmed
        assert confirmed == route_b, (
            f"suffix repair failed: prefix={prefix_len} changed={changed} "
            f"seed={seed}"
        )
        assert solver.incremental_repairs >= 1


def _ladder_topology(total: int):
    """Two parallel forwarder rails, rung-connected, both ending at the sink.

    Bottom rail: 1..total (node ``total`` adjacent to the sink).  Top
    rail: 101..100+total mirroring it.  Rungs join ``i`` and ``100+i``
    and their successors cross-connect, so any bottom-prefix/top-suffix
    splice is a real radio path.
    """
    from repro.net.topology import Topology

    positions = {0: (0.0, 0.0)}
    edges = []
    for i in range(1, total + 1):
        positions[i] = (float(total + 1 - i), 0.0)
        positions[100 + i] = (float(total + 1 - i), 1.0)
        edges.append((i, 100 + i))  # rung
        if i > 1:
            edges.append((i - 1, i))  # bottom rail
            edges.append((100 + i - 1, 100 + i))  # top rail
            edges.append((i - 1, 100 + i))  # cross rung (splice point)
            edges.append((100 + i - 1, i))
    edges.append((total, 0))
    edges.append((100 + total, 0))
    return Topology(positions=positions, edges=edges, sink=0)


def _obs(route, point, ts):
    return AlgebraicObservation(
        timestamp=ts,
        point=point,
        count=len(route),
        value=eval_poly(route, point),
        delivering_node=route[-1],
        last_hop=route[-1],
    )


class TestAdversarialTotality:
    """Corrupt bytes produce typed errors or counters, never crashes."""

    @given(blob=st.binary(min_size=0, max_size=16))
    @settings(max_examples=100)
    def test_unpack_accumulator_is_total(self, blob):
        try:
            count, value = unpack_accumulator(blob)
        except MalformedAccumulatorError:
            return
        assert len(blob) == ACCUMULATOR_LEN
        assert 1 <= count and 0 <= value < PRIME

    @given(
        raw=st.lists(
            st.integers(min_value=-10, max_value=2**40), min_size=0, max_size=9
        )
    )
    @settings(max_examples=100)
    def test_observation_from_tuple_is_total(self, raw):
        try:
            obs = AlgebraicObservation.from_tuple(tuple(raw))
        except MalformedObservationError:
            return
        assert obs.as_tuple() == tuple(raw)

    @given(
        id_field=st.binary(min_size=0, max_size=8),
        mac=st.binary(min_size=0, max_size=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_garbled_marks_never_crash_the_sink(self, id_field, mac, seed):
        topo = grid_topology(3, 3, sink_at="corner")
        keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
        sink = AlgebraicTracebackSink(
            AlgebraicMarking(), keystore, PROVIDER, topo
        )
        packet = MarkedPacket(
            report=Report(event=b"garble", location=(1.0, 1.0), timestamp=seed),
            origin=8,
        ).with_marks((Mark(id_field=id_field, mac=mac),))
        sink.receive(packet, delivering_node=1)
        assert sink.packets_received == 1
        sink.verdict()  # and the verdict path stays total too

    @given(
        fields=st.tuples(
            st.integers(min_value=0, max_value=2**33),
            st.integers(min_value=0, max_value=2**33),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=2**33),
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=200),
        )
    )
    @settings(max_examples=100)
    def test_solver_observe_is_total_over_garbage(self, fields):
        topo = grid_topology(3, 3, sink_at="corner")
        solver = AlgebraicSolver(topo)
        ts, point, count, value, delivering, last = fields
        obs = AlgebraicObservation(
            timestamp=ts,
            point=point,
            count=count,
            value=value,
            delivering_node=delivering,
            last_hop=None if last == 0 else last,
        )
        solver.observe(obs)  # must not raise
        assert solver.observations == 1
