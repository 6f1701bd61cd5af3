"""The verifier's MAC-only check of table candidates changes no result.

``PacketVerifier`` asks ``scheme.verify_candidate`` about each candidate
``candidate_marker_ids`` returned; for PNM that skips the anonymous-ID
hash the resolution table already matched.  A reference verifier that
runs the full ``scheme.verify_mark_as`` on every candidate (the check
before that shortcut) must reach the same ``PacketVerification`` on
every packet the security matrix delivers -- every scheme, every attack
-- with inline tables, with :class:`ResolverCache` tables, and under a
topology-bounded resolver with exhaustive fallback.
"""

import pytest

from repro.core.build import build_scenario
from repro.core.scenario import Scenario
from repro.experiments.presets import CI
from repro.experiments.security_matrix import ATTACKS, SCHEMES
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.service import ResolverCache
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.verify import PacketVerification, PacketVerifier
from tests.conftest import ctx_for, mark_through_path

PACKETS_PER_CELL = 40


class ReferenceVerifier(PacketVerifier):
    """Confirms every candidate with the scheme's full mark check."""

    def _validate_within(self, packet, index, search, table):
        candidates = self.scheme.candidate_marker_ids(
            packet,
            index,
            self.keystore,
            self.provider,
            search_ids=search,
            table=table,
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


def delivered_packets(scheme: str, attack: str) -> tuple[object, list[MarkedPacket]]:
    built = build_scenario(
        Scenario(
            n_forwarders=CI.matrix_n,
            scheme=scheme,
            attack=attack,
            seed=CI.seed,
            crypto="real",
        )
    )
    packets: list[MarkedPacket] = []
    verify = built.sink.verifier.verify

    def record(packet: MarkedPacket) -> PacketVerification:
        packets.append(packet)
        return verify(packet)

    built.sink.verifier.verify = record
    built.pipeline.push_many(PACKETS_PER_CELL)
    return built, packets


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("attack", ATTACKS)
def test_matches_reference_verifier(scheme, attack):
    built, packets = delivered_packets(scheme, attack)
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
    for packet in packets:
        for fast, reference in pairs:
            assert outcome(fast.verify(packet)) == outcome(reference.verify(packet))


def test_matrix_cells_exercise_marks():
    # Guard against a vacuous comparison: the PNM cells deliver marked
    # packets, some with invalid marks under attack.
    _, honest = delivered_packets("pnm", "none")
    assert any(p.marks for p in honest)
    built, altered = delivered_packets("pnm", "alter")
    verifier = PacketVerifier(built.scheme, built.keystore, built.provider)
    assert any(verifier.verify(p).invalid_indices for p in altered)


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
