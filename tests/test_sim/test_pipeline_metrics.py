"""Path pipeline, metrics, behaviors."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import ClusterCoordinator, verdict_json
from repro.core.build import build_scenario
from repro.core.scenario import ATTACK_NAMES, Scenario
from repro.crypto.keys import KeyStore
from repro.filtering.suppression import DuplicateSuppressor
from repro.marking.nested import NestedMarking
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.packets.packet import MarkedPacket
from repro.sim.behaviors import HonestForwarder
from repro.sim.metrics import EnergyModel, MetricsCollector
from repro.sim.pipeline import PathPipeline
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER, ctx_for


def make_pipeline(n=6, scheme=None, provider=None):
    from repro.crypto.mac import KeyedHashProvider

    provider = provider or KeyedHashProvider()
    scheme = scheme or NestedMarking()
    topo, source_id = linear_path_topology(n)
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    forwarders = [
        HonestForwarder(ctx_for(i, keystore, provider), scheme)
        for i in range(1, n + 1)
    ]
    sink = TracebackSink(scheme, keystore, provider, topo)
    source = BogusReportSource(source_id, (9.0, 0.0), random.Random(0))
    return PathPipeline(source=source, forwarders=forwarders, sink=sink), keystore


class TestPathPipeline:
    def test_push_delivers_and_verifies(self):
        pipeline, _ = make_pipeline()
        verification = pipeline.push()
        assert verification is not None
        assert verification.chain_ids == [1, 2, 3, 4, 5, 6]

    def test_path_ids(self):
        pipeline, _ = make_pipeline(n=3)
        pipeline.push()
        # One transmission per node, recorded source first.
        assert list(pipeline.metrics.transmissions.items()) == [
            (4, 1), (1, 1), (2, 1), (3, 1)
        ]

    def test_push_many_counts(self):
        pipeline, _ = make_pipeline()
        results = pipeline.push_many(10)
        assert len(results) == 10
        assert pipeline.metrics.packets_injected == 10
        assert pipeline.metrics.packets_delivered == 10

    def test_metrics_track_growing_packets(self):
        pipeline, _ = make_pipeline(n=4)
        pipeline.push()
        tx = pipeline.metrics.bytes_transmitted
        # Each of the 4 forwarders adds one 6-byte mark (id 2 + mac 4)
        # before transmitting, so sizes strictly increase along the path.
        sizes = [tx[nid] for nid in (5, 1, 2, 3, 4)]  # source first
        assert sizes == sorted(sizes)
        assert sizes[-1] - sizes[0] == 4 * 6

    def test_run_until_identified_stable(self):
        pipeline, _ = make_pipeline(n=6, scheme=PNMMarking(mark_prob=0.5))
        packets, center = pipeline.run_until_identified(
            max_packets=300, stable_window=20
        )
        assert packets is not None
        assert center == 1

    def test_run_until_identified_budget_exhausted(self):
        from repro.marking.plain import NoMarking

        pipeline, _ = make_pipeline(n=6, scheme=NoMarking())
        # NoMarking: verdict centers on the delivering node immediately and
        # stays there, so identification (of the wrong place) is stable.
        packets, center = pipeline.run_until_identified(
            max_packets=30, stable_window=10
        )
        assert packets == 10
        assert center == 6  # the sink's neighbor: all it can ever know

    def test_requires_forwarders(self):
        pipeline, _ = make_pipeline(n=2)
        with pytest.raises(ValueError):
            PathPipeline(pipeline.source, [], pipeline.sink)


def reference_push(pipeline: PathPipeline, clock: int):
    """The plain hop loop: one transmission record per hop, each sized by
    a fresh encoding of the packet that hop sent."""

    def fresh_len(packet: MarkedPacket) -> int:
        return MarkedPacket(packet.report, packet.marks).wire_len

    metrics = pipeline.metrics
    packet = pipeline.source.next_packet(timestamp=clock)
    metrics.record_injection()
    metrics.record_transmission(pipeline.source.node_id, fresh_len(packet))
    for behavior in pipeline.forwarders:
        forwarded = behavior.forward(packet)
        if forwarded is None:
            metrics.record_drop()
            return None
        packet = forwarded
        metrics.record_transmission(behavior.node_id, fresh_len(packet))
    verification = pipeline.sink.receive(packet, pipeline.forwarders[-1].node_id)
    metrics.record_delivery(delay=0.0)
    return verification


def run_against_reference(fast, slow, packets=60):
    """Push ``packets`` through ``fast.pipeline`` and the same number
    through ``reference_push`` on ``slow``; assert both recorded and
    concluded the same."""
    for clock in range(1, packets + 1):
        fast.pipeline.push()
        reference_push(slow.pipeline, clock)
    got, want = fast.pipeline.metrics, slow.pipeline.metrics
    assert got.transmissions == want.transmissions
    assert got.bytes_transmitted == want.bytes_transmitted
    assert got.packets_dropped == want.packets_dropped
    assert got.packets_delivered == want.packets_delivered
    assert got.packets_dropped + got.packets_delivered == packets
    assert fast.sink.evidence() == slow.sink.evidence()
    assert fast.sink.verdict() == slow.sink.verdict()


class EchoingSource:
    """Sends every fresh packet twice in a row."""

    def __init__(self, inner):
        self.inner = inner
        self.node_id = inner.node_id
        self._last = None

    def next_packet(self, timestamp):
        if timestamp % 2:
            self._last = self.inner.next_packet(timestamp)
        return self._last


class TestHopLoopEquivalence:
    """``push`` records what the plain hop loop records, for every attack
    under PNM, under plain-ID nested marking and under the algebraic
    accumulator: drops (``selective-drop`` can read plain IDs only),
    equal-length rewrites (``alter``, ``reorder``, ``remove-all``),
    insertions and honest marking, whether honest hops go through a run
    of :meth:`forward_run` or one ``forward`` call each."""

    @pytest.mark.parametrize("scheme", ["pnm", "nested", "algebraic"])
    @pytest.mark.parametrize("attack", ATTACK_NAMES)
    def test_push_matches_reference_loop(self, attack, scheme):
        scenario = Scenario(n_forwarders=10, scheme=scheme, attack=attack, seed=3)
        run_against_reference(build_scenario(scenario), build_scenario(scenario))

    @pytest.mark.parametrize("scheme", ["pnm", "nested"])
    def test_suppressor_splits_a_run(self, scheme):
        """A suppressing honest hop mid-path drops every echoed packet;
        the honest hops around it still match the hop loop."""
        scenario = Scenario(n_forwarders=10, scheme=scheme, attack="none", seed=3)
        fast, slow = build_scenario(scenario), build_scenario(scenario)
        for built in (fast, slow):
            forwarders = list(built.pipeline.forwarders)
            guard = forwarders[4]
            forwarders[4] = HonestForwarder(
                guard.ctx, guard.scheme, suppressor=DuplicateSuppressor(capacity=8)
            )
            built.pipeline = PathPipeline(
                EchoingSource(built.pipeline.source), forwarders, built.sink
            )
        run_against_reference(fast, slow)
        assert fast.pipeline.metrics.packets_dropped == 30

    @pytest.mark.parametrize("scheme", ["pnm", "algebraic"])
    @pytest.mark.parametrize("attack", ["none", "identity-swap", "alter"])
    def test_shared_random_stream(self, attack, scheme):
        """Every forwarder, mole included, draws from one stream: a run
        that drew its coins out of path order would mark other hops."""
        scenario = Scenario(n_forwarders=10, scheme=scheme, attack=attack, seed=3)
        fast, slow = build_scenario(scenario), build_scenario(scenario)
        for built in (fast, slow):
            shared = random.Random(11)
            for behavior in built.pipeline.forwarders:
                behavior.ctx.rng = shared
        run_against_reference(fast, slow)

    def test_attacks_cover_both_branches(self):
        """The drop branch and the equal-length rewrite branch both run."""
        dropping = build_scenario(
            Scenario(n_forwarders=10, scheme="nested", attack="selective-drop", seed=3)
        )
        dropping.pipeline.push_many(60)
        assert dropping.pipeline.metrics.packets_dropped > 0
        for attack in ("alter", "reorder", "remove-all"):
            built = build_scenario(
                Scenario(n_forwarders=10, scheme="pnm", attack=attack, seed=3)
            )
            mole = next(b for b in built.pipeline.forwarders if hasattr(b, "attack"))
            rewrote = 0
            for clock in range(1, 61):
                packet = built.pipeline.source.next_packet(timestamp=clock)
                for behavior in built.pipeline.forwarders:
                    forwarded = behavior.forward(packet)
                    if behavior is mole and forwarded is not packet:
                        rewrote += forwarded.wire_len == packet.wire_len
                    packet = forwarded
            assert rewrote > 0, attack


class CountingRandom(random.Random):
    """A copy of another random stream that counts its draws."""

    draws = 0

    def __init__(self, copied):
        super().__init__()
        self.setstate(copied.getstate())

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("scheme", ["pnm", "ppm", "nested", "algebraic"])
def test_one_draw_per_honest_node_per_packet(scheme):
    """Every honest node draws its coin and nothing else: marking draws
    nothing, which a run relies on when it draws all coins first."""
    built = build_scenario(
        Scenario(n_forwarders=12, scheme=scheme, attack="no-mark", seed=5)
    )
    honest = [
        b for b in built.pipeline.forwarders if isinstance(b, HonestForwarder)
    ]
    assert len(honest) == 11  # the mole splits the path into two runs
    for behavior in honest:
        behavior.ctx.rng = CountingRandom(behavior.ctx.rng)
    built.pipeline.push_many(40)
    assert built.pipeline.metrics.packets_delivered == 40
    assert [b.ctx.rng.draws for b in honest] == [40] * len(honest)
    assert built.sink.evidence().chains_with_marks > 0


#: ``run_until_identified(max_packets=2000)`` at n = 30: seeds 0-4 of
#: ``no-mark``, and seeds 0-29 of the adversarial attacks (perfbench's
#: ``online-adversarial`` panel), indexed by seed.  Recorded before the
#: hop loop and later the precedence graph were last rewritten.  Any
#: change to the order in which nodes draw their marking coins, or to
#: the verdict, moves these.
IDENTIFIED_PINS = {
    "no-mark": [(238, 1), (59, 1), (83, 1), (93, 1), (99, 1)],
    "identity-swap": [
        (54, 30), (67, 16), (39, 30), (58, 30), (119, 16),
        (68, 30), (87, 1), (80, 11), (100, 16), (127, 16),
        (42, 30), (98, 16), (48, 30), (64, 30), (45, 30),
        (56, 30), (37, 30), (64, 30), (48, 30), (68, 7),
        (44, 30), (117, 13), (105, 1), (37, 30), (96, 3),
        (44, 30), (89, 16), (66, 30), (54, 30), (56, 30),
    ],
    "alter": [
        (33, 30), (49, 16), (45, 16), (35, 20), (30, 17),
        (92, 17), (63, 17), (67, 17), (43, 20), (69, 18),
        (156, 16), (63, 16), (39, 16), (36, 17), (58, 16),
        (55, 16), (43, 18), (43, 17), (66, 20), (57, 16),
        (47, 17), (30, 16), (61, 17), (30, 16), (103, 16),
        (50, 16), (42, 17), (66, 16), (61, 17), (71, 16),
    ],
}


@pytest.mark.parametrize("attack", sorted(IDENTIFIED_PINS))
def test_identification_pinned(attack):
    """Each run identifies the pinned suspect after the pinned number of
    packets, and its final live verdict equals the one recomputed from
    the sink's exported evidence."""
    got = []
    for seed in range(len(IDENTIFIED_PINS[attack])):
        built = build_scenario(
            Scenario(n_forwarders=30, scheme="pnm", attack=attack, seed=seed)
        )
        got.append(built.pipeline.run_until_identified(max_packets=2000))
        recomputed = ClusterCoordinator(built.topology).verdict(built.sink.evidence())
        assert verdict_json(built.sink.verdict()) == verdict_json(recomputed), seed
    assert got == IDENTIFIED_PINS[attack]


class TestHonestForwarderSuppression:
    def test_duplicate_dropped_before_marking(self, keystore, provider, packet):
        forwarder = HonestForwarder(
            ctx_for(1, keystore, provider),
            NestedMarking(),
            suppressor=DuplicateSuppressor(capacity=8),
        )
        first = forwarder.forward(packet)
        assert first is not None
        assert forwarder.forward(packet) is None  # replayed copy dropped


class TestMetrics:
    def test_collector_aggregates(self):
        m = MetricsCollector()
        m.record_injection()
        m.record_transmission(1, 100)
        m.record_transmission(2, 50)
        m.record_transmission(1, 25)
        m.record_delivery(delay=0.5)
        assert m.total_bytes == 175
        assert m.total_transmissions == 3
        assert m.transmissions[1] == 2
        assert m.mean_delivery_delay() == pytest.approx(0.5)

    def test_record_run_matches_per_node_records(self):
        ids = (7, 3, 9, 4, 8)
        changes = [(0, 12), (2, 18), (4, 30)]
        run, per_node = MetricsCollector(), MetricsCollector()
        run.record_run(ids, 10, changes)
        for node_id, size in zip(ids, (12, 12, 18, 18, 30)):
            per_node.record_transmission(node_id, size)
        assert run.bytes_transmitted == per_node.bytes_transmitted
        run.record_run(ids[1:3], 5, [])
        run.record_run(ids, 10, changes)  # pending again after a read
        for node_id, size in zip(ids, (12, 12, 18, 18, 30)):
            per_node.record_transmission(node_id, size)
        for node_id in ids[1:3]:
            per_node.record_transmission(node_id, 5)
        assert run.transmissions == per_node.transmissions
        assert run.bytes_transmitted == per_node.bytes_transmitted

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("tx"), st.integers(0, 5), st.integers(1, 60)),
                st.tuples(
                    st.just("run"),
                    st.lists(st.integers(0, 5), min_size=1, max_size=5).map(tuple),
                    st.integers(1, 60),
                    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 90)), max_size=3),
                ),
                st.tuples(st.just("read"), st.booleans()),
            ),
            max_size=25,
        )
    )
    def test_mixed_tallies_match_per_call_counters(self, ops):
        """Deferred tallies read back as if every send wrote a Counter."""
        metrics = MetricsCollector()
        sent, sizes = Counter(), Counter()
        for op in ops:
            if op[0] == "tx":
                _, node_id, size = op
                metrics.record_transmission(node_id, size)
                sent[node_id] += 1
                sizes[node_id] += size
            elif op[0] == "run":
                _, ids, size, raw = op
                changes = sorted({p: n for p, n in raw if p < len(ids)}.items())
                metrics.record_run(ids, size, changes)
                by_position = dict(changes)
                for position, node_id in enumerate(ids):
                    size = by_position.get(position, size)
                    sent[node_id] += 1
                    sizes[node_id] += size
            elif op[1]:
                assert metrics.transmissions == sent
            else:
                assert metrics.bytes_transmitted == sizes
        # Bytes first: either property alone must see every pending tally.
        assert metrics.bytes_transmitted == sizes
        assert metrics.transmissions == sent
        assert type(metrics.transmissions) is Counter
        assert type(metrics.bytes_transmitted) is Counter
        assert metrics.total_transmissions == sum(sent.values())

    def test_per_node_energy(self):
        m = MetricsCollector(energy_model=EnergyModel(1.0, 0.0))
        m.record_transmission(3, 10)
        assert m.energy_spent(3) == pytest.approx(10.0)
        assert m.energy_spent(4) == pytest.approx(0.0)

    def test_summary_keys(self):
        summary = MetricsCollector().summary()
        assert summary["packets_injected"] == 0
        assert "energy_joules" in summary
