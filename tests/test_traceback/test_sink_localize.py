"""TracebackSink aggregation and suspect localization."""

import pytest

from repro.marking.nested import NestedMarking
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.traceback.localize import SuspectNeighborhood, localize
from repro.traceback.reconstruct import PrecedenceGraph
from repro.traceback.sink import TracebackSink
from tests.conftest import mark_through_path


@pytest.fixture
def topo12():
    topo, source = linear_path_topology(12)
    return topo, source


class TestLocalize:
    def test_unequivocal_maps_to_neighborhood(self, topo12):
        topo, _ = topo12
        g = PrecedenceGraph()
        g.add_chain([1, 2, 3])
        suspect = localize(g.analyze(), topo)
        assert suspect is not None
        assert suspect.center == 1
        assert suspect.members == frozenset(topo.closed_neighborhood(1))

    def test_equivocal_returns_none(self, topo12):
        topo, _ = topo12
        g = PrecedenceGraph()
        g.add_chain([1])
        g.add_chain([2])
        assert localize(g.analyze(), topo) is None

    def test_loop_attachment_used(self, topo12):
        topo, source = topo12
        g = PrecedenceGraph()
        g.add_chain([source, 1, 2, 3, 4])
        g.add_chain([3, 1, 2, source, 4])
        suspect = localize(g.analyze(), topo)
        assert suspect is not None
        assert suspect.via_loop
        assert suspect.center == 4

    def test_loop_at_sink_uses_deliverer(self, topo12):
        topo, _ = topo12
        g = PrecedenceGraph()
        g.add_chain([11, 12])
        g.add_chain([12, 11])
        suspect = localize(g.analyze(), topo, delivering_node=12)
        assert suspect is not None
        assert suspect.center == 12

    def test_no_evidence_falls_back_to_deliverer(self, topo12):
        topo, _ = topo12
        g = PrecedenceGraph()
        suspect = localize(g.analyze(), topo, delivering_node=12)
        assert suspect is not None
        assert suspect.center == 12

    def test_contains_any(self):
        s = SuspectNeighborhood(center=3, members=frozenset({2, 3, 4}))
        assert s.contains_any({4, 9})
        assert not s.contains_any({9})
        assert 3 in s
        assert len(s) == 3


class TestSinkAggregation:
    def build(self, topo, scheme, keystore, provider):
        return TracebackSink(scheme, keystore, provider, topo)

    def test_nested_single_packet_traceback(
        self, topo12, keystore, provider, packet
    ):
        topo, _ = topo12
        scheme = NestedMarking()
        sink = self.build(topo, scheme, keystore, provider)
        marked = mark_through_path(
            scheme, keystore, provider, list(range(1, 13)), packet
        )
        sink.receive(marked, delivering_node=12)
        suspect = sink.last_packet_suspect()
        assert suspect is not None
        assert suspect.center == 1

    def test_pnm_aggregates_to_most_upstream(
        self, topo12, keystore, provider
    ):
        from repro.packets.packet import MarkedPacket
        from repro.packets.report import Report

        topo, _ = topo12
        scheme = PNMMarking(mark_prob=0.4)
        sink = self.build(topo, scheme, keystore, provider)
        for i in range(120):
            report = Report(event=bytes([i]), location=(0, 0), timestamp=i)
            p = mark_through_path(
                scheme,
                keystore,
                provider,
                list(range(1, 13)),
                MarkedPacket(report=report),
                seed=i,
            )
            sink.receive(p, delivering_node=12)
        verdict = sink.verdict()
        assert verdict.identified
        assert verdict.suspect.center == 1
        assert not verdict.loop_detected

    def test_tamper_evidence_counted(self, topo12, keystore, provider, packet):
        from repro.packets.marks import Mark

        topo, _ = topo12
        scheme = NestedMarking()
        sink = self.build(topo, scheme, keystore, provider)
        p = packet.with_mark(Mark(id_field=b"\x00\x01", mac=b"bad!"))
        p = mark_through_path(scheme, keystore, provider, [7, 8], p)
        sink.receive(p, delivering_node=12)
        assert sink.tampered_packets == 1
        verdict = sink.verdict()
        # Precedence says 7 is most upstream -> unequivocal, suspect at 7.
        assert verdict.identified and verdict.suspect.center == 7

    def test_tamper_fallback_when_equivocal(self, topo12, keystore, provider):
        from repro.packets.marks import Mark
        from repro.packets.packet import MarkedPacket
        from repro.packets.report import Report

        topo, _ = topo12
        scheme = NestedMarking()
        sink = self.build(topo, scheme, keystore, provider)
        # Two packets with disjoint verified chains (equivocal precedence),
        # both carrying tamper evidence stopping at nodes 6 and 8.
        for i, suffix in enumerate(([6, 7], [8, 9])):
            report = Report(event=bytes([i]), location=(0, 0), timestamp=i)
            p = MarkedPacket(report=report).with_mark(
                Mark(id_field=b"\x00\x01", mac=b"bad!")
            )
            p = mark_through_path(scheme, keystore, provider, suffix, p)
            sink.receive(p, delivering_node=12)
        verdict = sink.verdict()
        assert verdict.identified
        # 6 and 8 are precedence-incomparable; tie-break picks min ID.
        assert verdict.suspect.center == 6

    def test_empty_sink_verdict(self, topo12, keystore, provider):
        topo, _ = topo12
        sink = self.build(topo, NestedMarking(), keystore, provider)
        verdict = sink.verdict()
        assert not verdict.identified
        assert verdict.packets_used == 0


class TestEvidenceWeighing:
    """Regression for a hypothesis-found framing: a mole invalidating
    nearly every mark can leave one lucky lone marker looking like a
    unique most upstream node (observed = {V7} from a single-mark packet
    the reorderer could not touch).  The sink must weigh evidence mass:
    overwhelming tamper evidence outranks a sparse route picture."""

    def test_sparse_route_does_not_outrank_tamper_mass(self):
        from repro.core.build import build_scenario
        from repro.core.scenario import Scenario

        sc = Scenario(
            n_forwarders=9,
            scheme="pnm",
            mark_prob=0.65,
            attack="reorder",
            mole_position=9,
            seed=311,  # the falsifying example hypothesis shrank to
        )
        built = build_scenario(sc)
        built.pipeline.push_many(80)
        verdict = built.sink.verdict()
        assert verdict.identified
        assert verdict.suspect.members & built.mole_ids
        assert built.sink.tampered_packets > built.sink.chains_with_marks

    def test_reorder_with_valid_suffixes_does_not_frame(self):
        """Pinned: n=9, p=0.74, reorder mole at 6, seed=1446 (ROADMAP flake).

        Reordered packets still carry a *verified* downstream suffix, so a
        sink that counted them toward ``chains_with_marks`` saturated both
        sides of the mass comparison (78 tampered vs. 78 "chains") and
        trusted a route picture built from two lucky lone-marker packets,
        framing {2, 3, 4}.  Clean-chain counting makes the tamper stops
        (which converge one hop downstream of the mole) decide instead.
        """
        from repro.core.build import build_scenario
        from repro.core.scenario import Scenario

        sc = Scenario(
            n_forwarders=9,
            scheme="pnm",
            mark_prob=0.74,
            attack="reorder",
            mole_position=6,
            seed=1446,
        )
        built = build_scenario(sc)
        built.pipeline.push_many(80)
        verdict = built.sink.verdict()
        assert verdict.identified
        assert verdict.suspect.members & built.mole_ids, (
            f"framed {sorted(verdict.suspect.members)}, "
            f"moles {sorted(built.mole_ids)}"
        )
        # The counters the fix hinges on: nearly every packet is tampered,
        # only the untouched ones count as route evidence.
        assert built.sink.tampered_packets > built.sink.chains_with_marks

    def test_route_evidence_still_wins_when_dominant(
        self, topo12, keystore, provider
    ):
        from repro.marking.pnm import PNMMarking
        from repro.packets.packet import MarkedPacket
        from repro.packets.report import Report

        topo, _ = topo12
        scheme = PNMMarking(mark_prob=0.5)
        sink = TracebackSink(scheme, keystore, provider, topo)
        for i in range(100):
            report = Report(event=bytes([i]), location=(0, 0), timestamp=i)
            p = mark_through_path(
                scheme, keystore, provider, list(range(1, 13)),
                MarkedPacket(report=report), seed=i,
            )
            sink.receive(p, delivering_node=12)
        verdict = sink.verdict()
        assert verdict.suspect.center == 1
        assert sink.tampered_packets == 0


#: ``(n, mark_prob, mole_position, seed)`` reorder draws from
#: ``test_never_frames``'s distribution that the verdict frames today.
#: Route evidence stays equivocal (two source candidates), so the tamper
#: stop decides; it sits 2-3 hops below the mole, outside one-hop range.
REORDER_FRAMING_DRAWS = [
    (5, 0.20, 3, 0),
    (6, 0.20, 3, 700),
    (8, 0.23, 3, 388),
    (10, 0.26, 3, 7522),
]


class TestKnownReorderFraming:
    """Pinned framings behind the occasional ``test_never_frames``
    failure.  Strict xfail: a verdict-policy fix turns these into
    XPASS failures, which is the cue to drop the marker."""

    @pytest.mark.xfail(
        strict=True,
        reason="low-rate reorder: tamper stop lands 2-3 hops below the mole",
    )
    @pytest.mark.parametrize(
        ("n", "mark_prob", "mole_position", "seed"), REORDER_FRAMING_DRAWS
    )
    def test_reorder_low_mark_prob_does_not_frame(
        self, n, mark_prob, mole_position, seed
    ):
        from repro.core.build import build_scenario
        from repro.core.scenario import Scenario

        sc = Scenario(
            n_forwarders=n,
            scheme="pnm",
            mark_prob=mark_prob,
            attack="reorder",
            mole_position=mole_position,
            seed=seed,
        )
        built = build_scenario(sc)
        built.pipeline.push_many(80)
        verdict = built.sink.verdict()
        if verdict.identified:
            assert verdict.suspect.members & built.mole_ids, (
                f"framed {sorted(verdict.suspect.members)}, "
                f"moles {sorted(built.mole_ids)}"
            )
