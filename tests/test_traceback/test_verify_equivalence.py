"""The verifier's per-packet mark checkers change no result.

``PacketVerifier`` asks ``scheme.mark_checker`` for one ``check(index,
search)`` per packet.  PNM's checker binds the packet's wire bytes once,
matches anonymous IDs against the exhaustive table or a per-packet
``node -> anonymous ID`` memo, and MACs the received prefix directly.  A
reference verifier whose checker finds candidates with tables of its own
and confirms each with the scheme's full ``scheme.verify_mark_as`` must
reach the same ``PacketVerification`` on every packet the security matrix
delivers -- every scheme, every attack -- with inline tables, with
:class:`ResolverCache` tables, and under a topology-bounded resolver with
exhaustive fallback.

The ingest service's learned-route search is checked the same way, on
packets that crossed the wire codec: every cell streamed through
:class:`SinkIngestService` as ``decode_packet(encode_packet(p))`` verifies
and judges exactly as one sink with an exhaustive full-check verifier fed
the in-process packets.
"""

import hashlib

import pytest

from repro.cluster.coordinator import verdict_json
from repro.core.build import build_scenario
from repro.core.scenario import Scenario
from repro.experiments.presets import CI
from repro.experiments.security_matrix import ATTACKS, SCHEMES
from repro.marking.base import PacketResolution
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.service import ResolverCache, SinkIngestService
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.sink import TracebackSink
from repro.traceback.verify import PacketVerification, PacketVerifier, VerifiedMark
from repro.wire.codec import decode_packet, encode_packet
from tests.conftest import ctx_for, mark_through_path

PACKETS_PER_CELL = 40


class FullCheckScheme:
    """A scheme whose mark checker finds candidates with tables of its
    own, ignoring the verifier's per-packet resolution state, and
    confirms each with the wrapped scheme's full mark check."""

    def __init__(self, scheme):
        self._scheme = scheme

    def __getattr__(self, name):
        return getattr(self._scheme, name)

    def mark_checker(self, packet, keystore, provider, resolution):
        scheme = self._scheme
        tables = {}

        def check(index, search):
            key = None if search is None else tuple(search)
            if key not in tables:
                tables[key] = scheme.build_resolution_table(
                    packet, keystore, provider, search_ids=search
                )
            candidates = scheme.candidate_marker_ids(
                packet,
                index,
                keystore,
                provider,
                search_ids=search,
                table=tables[key],
            )
            return [
                node_id
                for node_id in candidates
                if scheme.verify_mark_as(
                    packet, index, node_id, keystore[node_id], provider
                )
            ]

        return check


class ReferenceVerifier(PacketVerifier):
    """The verifier's backward scan over :class:`FullCheckScheme`."""

    def __init__(self, scheme, *args, **kwargs):
        super().__init__(FullCheckScheme(scheme), *args, **kwargs)


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
    """Learned-route search through the ingest service, on packets that
    crossed the wire codec: the same marks verify, the same indices fail
    and the verdict is byte-identical to the reference on the in-process
    packets.  ``fallback_searches`` differs by design and is not
    compared."""
    built, delivered = delivered_packets(scheme, attack)
    received = [
        (decode_packet(encode_packet(packet), built.scheme.fmt), node)
        for packet, node in delivered
    ]
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
    for packet, delivering_node in received:
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


class OfferResolver:
    """A learned search set: offers the same nodes for every mark."""

    def __init__(self, node_ids):
        self.node_ids = node_ids

    def search_sets(self, packet):
        return self

    def __getitem__(self, prev_verified):
        return self.node_ids


def forge_as_node_4(scheme, keystore, provider, packet):
    """Node 3 writes node 4's anonymous ID under its own key: the MAC is
    valid for key 3, but the ID field is not ``H'_{k_3}(M | 3)``."""
    marked = mark_through_path(scheme, keystore, provider, [1, 2], packet)
    mark = scheme.make_mark(ctx_for(3, keystore, provider), marked, claimed_id=4)
    return marked.with_mark(mark)


class TestPNMFullCheck:
    def test_verify_mark_as_rejects_wrong_anonymous_id(
        self, keystore, provider, packet
    ):
        scheme = PNMMarking(mark_prob=1.0)
        forged = forge_as_node_4(scheme, keystore, provider, packet)
        assert not scheme.verify_mark_as(forged, 2, 3, keystore[3], provider)
        # The MAC alone would pass: only the anonymous-ID check rejects it.
        mark = forged.marks[2]
        signed = forged.prefix_wire(2) + mark.id_field
        assert provider.mac(keystore[3], signed) == mark.mac
        # And the resolution table never offers node 3 for that field.
        assert 3 not in scheme.candidate_marker_ids(forged, 2, keystore, provider)
        result = PacketVerifier(scheme, keystore, provider).verify(forged)
        assert result.invalid_indices == [2]

    def test_learned_search_rejects_wrong_anonymous_id(
        self, keystore, provider, packet
    ):
        # The bounded twin: a search set that offers node 3 (and node 4,
        # whose anonymous ID the field carries) still verifies nothing.
        scheme = PNMMarking(mark_prob=1.0)
        forged = forge_as_node_4(scheme, keystore, provider, packet)
        check = scheme.mark_checker(
            forged, keystore, provider, PacketResolution(lambda: None)
        )
        assert check(2, [3]) == []
        assert check(2, [3, 4]) == []
        assert check(1, [2, 3]) == [2]
        for fallback in (False, True):
            result = PacketVerifier(
                scheme,
                keystore,
                provider,
                resolver=OfferResolver([2, 3, 4]),
                exhaustive_fallback=fallback,
            ).verify(forged)
            assert result.invalid_indices == [2]
            assert result.verified == []

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


class KeyBlindProvider:
    """A provider whose ``anon_id`` and ``mac`` ignore the key (and the
    anonymous ID the node ID too), so every key reproduces every mark:
    the truncation collision that ``VerifiedMark.ambiguous`` reports,
    made certain."""

    mac_len = 4
    anon_id_len = 4

    def mac(self, key: bytes, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()[:4]

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        return b"anon"


class TestAmbiguousAttribution:
    """Ambiguity reflects collisions inside the searched set only."""

    @pytest.fixture
    def marked(self, keystore, packet):
        return mark_through_path(
            PNMMarking(mark_prob=1.0), keystore, KeyBlindProvider(), [5, 9, 12], packet
        )

    def verify(self, keystore, marked, resolver=None):
        return PacketVerifier(
            PNMMarking(mark_prob=1.0), keystore, KeyBlindProvider(), resolver=resolver
        ).verify(marked)

    def test_exhaustive_search_names_the_smallest_validating_id(self, keystore, marked):
        result = self.verify(keystore, marked)
        assert result.verified == [VerifiedMark(i, 1, True) for i in range(3)]
        assert result.invalid_indices == []

    def test_two_node_learned_set_names_the_smaller(self, keystore, marked):
        result = self.verify(keystore, marked, OfferResolver([14, 7]))
        assert result.verified == [
            VerifiedMark(index=i, real_id=7, ambiguous=True) for i in range(3)
        ]
        assert result.fallback_searches == 0

    def test_one_node_learned_set_is_unambiguous(self, keystore, marked):
        result = self.verify(keystore, marked, OfferResolver([14]))
        assert result.verified == [VerifiedMark(i, 14) for i in range(3)]
        assert not any(vm.ambiguous for vm in result.verified)

    def test_records_are_verified_marks(self, keystore, marked):
        for resolver, real_id, ambiguous in ((None, 1, True), (OfferResolver([14]), 14, False)):
            result = self.verify(keystore, marked, resolver)
            assert len(result.verified) == 3
            for position, record in enumerate(result.verified):
                assert type(record) is VerifiedMark
                assert record.index == position
                assert record.real_id == real_id
                assert record.ambiguous is ambiguous
                assert record._asdict() == {
                    "index": position, "real_id": real_id, "ambiguous": ambiguous
                }

    def test_checker_returns_every_validating_id_in_candidate_order(
        self, keystore, marked
    ):
        check = PNMMarking(mark_prob=1.0).mark_checker(
            marked, keystore, KeyBlindProvider(), PacketResolution(lambda: None)
        )
        assert check(2, [14, 7, 3]) == [14, 7, 3]
        assert check(2, [14]) == [14]
        # A keyless node in the set matches nothing.
        assert check(2, [0, 14]) == [14]
