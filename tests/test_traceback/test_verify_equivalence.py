"""The verifier's resolution shortcuts change no result.

``PacketVerifier`` asks ``scheme.verify_candidate`` about each candidate
the resolution found; for PNM that skips the anonymous-ID hash the
resolution already matched, and bounded searches resolve through a
per-packet ``node -> anonymous ID`` memo rather than a table.  A
reference verifier that finds candidates with a table of its own and
runs the full ``scheme.verify_mark_as`` on every one (the check before
those shortcuts) must reach the same ``PacketVerification`` on every
packet the security matrix delivers -- every scheme, every attack --
with inline tables, with :class:`ResolverCache` tables, and under a
topology-bounded resolver with exhaustive fallback.

The ingest service's learned-route search is checked the same way: every
cell streamed through :class:`SinkIngestService` verifies and judges
exactly as one sink with an exhaustive full-check verifier.
"""

import pytest

from repro.cluster.coordinator import verdict_json
from repro.core.build import build_scenario
from repro.core.scenario import Scenario
from repro.experiments.presets import CI
from repro.experiments.security_matrix import ATTACKS, SCHEMES
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.service import ResolverCache, SinkIngestService
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.sink import TracebackSink
from repro.traceback.verify import PacketVerification, PacketVerifier
from tests.conftest import ctx_for, mark_through_path

PACKETS_PER_CELL = 40


class ReferenceVerifier(PacketVerifier):
    """Finds candidates with its own table, ignoring the verifier's
    per-packet resolution state, and confirms each with the scheme's full
    mark check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tables = {}

    def _validate_within(self, packet, index, search, resolution):
        key = (packet.report_wire, None if search is None else tuple(search))
        if key not in self._tables:
            self._tables[key] = self.scheme.build_resolution_table(
                packet, self.keystore, self.provider, search_ids=search
            )
        candidates = self.scheme.candidate_marker_ids(
            packet,
            index,
            self.keystore,
            self.provider,
            search_ids=search,
            table=self._tables[key],
        )
        return [
            node_id
            for node_id in candidates
            if self.scheme.verify_mark_as(
                packet, index, node_id, self.keystore[node_id], self.provider
            )
        ]


def outcome(result: PacketVerification) -> tuple:
    # VerifiedMark equality covers index, real_id and ambiguous.
    return result.verified, result.invalid_indices, result.fallback_searches


def delivered_packets(
    scheme: str, attack: str
) -> tuple[object, list[tuple[MarkedPacket, int]]]:
    """A matrix cell's delivered ``(packet, delivering node)`` stream."""
    built = build_scenario(
        Scenario(
            n_forwarders=CI.matrix_n,
            scheme=scheme,
            attack=attack,
            seed=CI.seed,
            crypto="real",
        )
    )
    delivered: list[tuple[MarkedPacket, int]] = []
    receive = built.sink.receive

    def record(packet: MarkedPacket, delivering_node: int) -> PacketVerification:
        delivered.append((packet, delivering_node))
        return receive(packet, delivering_node)

    built.sink.receive = record
    built.pipeline.push_many(PACKETS_PER_CELL)
    return built, delivered


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("attack", ATTACKS)
def test_matches_reference_verifier(scheme, attack):
    built, delivered = delivered_packets(scheme, attack)
    args = (built.scheme, built.keystore, built.provider)
    cache = ResolverCache(*args)
    pairs = [
        (PacketVerifier(*args), ReferenceVerifier(*args)),
        (
            PacketVerifier(*args, table_factory=cache.resolution_table),
            ReferenceVerifier(*args, table_factory=cache.resolution_table),
        ),
        (
            PacketVerifier(*args, resolver=TopologyBoundedResolver(built.topology)),
            ReferenceVerifier(*args, resolver=TopologyBoundedResolver(built.topology)),
        ),
    ]
    for packet, _node in delivered:
        for fast, reference in pairs:
            assert outcome(fast.verify(packet)) == outcome(reference.verify(packet))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("attack", ATTACKS)
def test_service_matches_exhaustive_reference(scheme, attack):
    """Learned-route search through the ingest service: the same marks
    verify, the same indices fail and the verdict is byte-identical.
    ``fallback_searches`` differs by design and is not compared."""
    built, delivered = delivered_packets(scheme, attack)
    args = (built.scheme, built.keystore, built.provider)
    reference = TracebackSink(*args, built.topology)
    reference.verifier = ReferenceVerifier(*args)
    service = SinkIngestService(TracebackSink(*args, built.topology))
    verifications: list[PacketVerification] = []
    ingest = service.sink.ingest

    def record(verification, delivering_node):
        verifications.append(verification)
        return ingest(verification, delivering_node)

    service.sink.ingest = record
    for packet, delivering_node in delivered:
        service.submit(packet, delivering_node)
    service.flush()
    expected = [reference.receive(p, node) for p, node in delivered]
    assert [(v.verified, v.invalid_indices) for v in verifications] == [
        (v.verified, v.invalid_indices) for v in expected
    ]
    assert verdict_json(service.verdict()) == verdict_json(reference.verdict())


def test_matrix_cells_exercise_marks():
    # Guard against a vacuous comparison: the PNM cells deliver marked
    # packets, some with invalid marks under attack.
    _, honest = delivered_packets("pnm", "none")
    assert any(p.marks for p, _node in honest)
    built, altered = delivered_packets("pnm", "alter")
    verifier = PacketVerifier(built.scheme, built.keystore, built.provider)
    assert any(verifier.verify(p).invalid_indices for p, _node in altered)


class TestPNMFullCheck:
    def test_verify_mark_as_rejects_wrong_anonymous_id(
        self, keystore, provider, packet
    ):
        scheme = PNMMarking(mark_prob=1.0)
        marked = mark_through_path(scheme, keystore, provider, [1, 2], packet)
        # Node 3 writes node 4's anonymous ID under its own key: the MAC is
        # valid for key 3, but the ID field is not H'_{k_3}(M | 3).
        mark = scheme.make_mark(ctx_for(3, keystore, provider), marked, claimed_id=4)
        forged = marked.with_mark(mark)
        assert not scheme.verify_mark_as(forged, 2, 3, keystore[3], provider)
        # The MAC alone would pass: only the anonymous-ID check rejects it.
        assert scheme.verify_candidate(forged, 2, 3, keystore[3], provider)
        # And the resolution table never offers node 3 for that field.
        assert 3 not in scheme.candidate_marker_ids(forged, 2, keystore, provider)
        result = PacketVerifier(scheme, keystore, provider).verify(forged)
        assert result.invalid_indices == [2]

    def test_verify_mark_as_accepts_honest_mark(self, keystore, provider, packet):
        scheme = PNMMarking(mark_prob=1.0)
        marked = mark_through_path(scheme, keystore, provider, [1, 2, 3], packet)
        assert all(
            scheme.verify_mark_as(marked, i, node, keystore[node], provider)
            for i, node in enumerate([1, 2, 3])
        )
        wrong = Mark(id_field=marked.marks[1].id_field, mac=b"\x00" * 4)
        tampered = marked.with_marks((marked.marks[0], wrong, marked.marks[2]))
        assert not scheme.verify_mark_as(tampered, 1, 2, keystore[2], provider)
