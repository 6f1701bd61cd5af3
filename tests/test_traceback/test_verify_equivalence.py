"""The schemes' backward scans change no result.

``PacketVerifier`` hands each packet to ``scheme.verify_marks``.  PNM's
scan verifies the whole packet in one loop: it binds the packet's wire
bytes once, matches anonymous IDs against the exhaustive table or a
per-packet ``node -> anonymous ID`` memo, and MACs the received prefix
directly.  A reference verifier running the base class's generic scan,
with tables of its own and the scheme's full ``scheme.verify_mark_as``
for every candidate, must reach the same ``PacketVerification`` on every
packet the security matrix delivers -- every scheme, every attack -- with
inline tables, with :class:`ResolverCache` tables, and under a
topology-bounded resolver with exhaustive fallback.  A seeded property
draws offered search sets, keyless nodes, key-blind collisions and
tampered or wrong-length marks against both scans.

The ingest service's learned-route search is checked the same way, on
packets that crossed the wire codec: every cell streamed through
:class:`SinkIngestService` as ``decode_packet(encode_packet(p))`` verifies
and judges exactly as one sink with an exhaustive full-check verifier fed
the in-process packets.
"""

import hashlib
from functools import partial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import verdict_json
from repro.core.build import build_scenario
from repro.core.scenario import Scenario
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.experiments.presets import CI
from repro.experiments.security_matrix import ATTACKS, SCHEMES
from repro.marking.base import MarkingScheme, PacketResolution
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.service import ResolverCache, SinkIngestService
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.sink import TracebackSink
from repro.traceback.verify import PacketVerification, PacketVerifier, VerifiedMark
from repro.wire.codec import decode_packet, encode_packet
from tests.conftest import ctx_for, mark_through_path

PACKETS_PER_CELL = 40


class FullCheckScheme:
    """A scheme that runs the base class's generic backward scan with
    tables of its own, ignoring the verifier's table source, so every
    candidate goes through the wrapped scheme's full mark check."""

    def __init__(self, scheme):
        self._scheme = scheme

    def __getattr__(self, name):
        return getattr(self._scheme, name)

    def verify_marks(self, packet, keystore, provider, resolution, record):
        own = PacketResolution(
            resolution.sets,
            partial(self._scheme.build_resolution_table, packet, keystore, provider),
            resolution.fallback,
            resolution.notify_miss,
        )
        found = MarkingScheme.verify_marks(self, packet, keystore, provider, own, record)
        resolution.searches, resolution.fallbacks = own.searches, own.fallbacks
        return found


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
        # whose anonymous ID the field carries) still verifies nothing,
        # while the honest mark below it verifies from a set offering its
        # marker next to node 3.
        scheme = PNMMarking(mark_prob=1.0)
        forged = forge_as_node_4(scheme, keystore, provider, packet)
        for offered in ([3], [3, 4], [2, 3, 4]):
            for fallback in (False, True):
                result = PacketVerifier(
                    scheme,
                    keystore,
                    provider,
                    resolver=OfferResolver(offered),
                    exhaustive_fallback=fallback,
                ).verify(forged)
                assert result.invalid_indices == [2]
                assert result.verified == []
                assert result.fallback_searches == int(fallback)
        honest = forged.with_marks(forged.marks[:2])
        result = PacketVerifier(
            scheme, keystore, provider, resolver=OfferResolver([2, 3]),
            exhaustive_fallback=False,
        ).verify(honest)
        assert result.verified[-1] == VerifiedMark(1, 2)

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

    def test_learned_set_collisions(self, keystore, marked):
        # Every offered ID that validates makes the mark ambiguous; the
        # smallest one is named.
        for offered, real_id, ambiguous in (
            ([14, 7, 3], 3, True),
            ([14], 14, False),
            # A keyless node in the set matches nothing.
            ([0, 14], 14, False),
        ):
            result = self.verify(keystore, marked, OfferResolver(offered))
            assert result.verified == [
                VerifiedMark(i, real_id, ambiguous) for i in range(3)
            ]
            assert result.fallback_searches == 0


class DrawnSets:
    """Search sets drawn per previously verified node; records the
    verifier's feedback."""

    def __init__(self, sets):
        self.sets = sets
        self.calls = []

    def search_sets(self, packet):
        return None if self.sets is None else self

    def __getitem__(self, prev_verified):
        return self.sets.get(prev_verified)

    def notify_miss(self):
        self.calls.append("miss")

    def notify_packet_done(self, searches):
        self.calls.append(("done", searches))


PROPERTY_KEYS = KeyStore.from_master_secret(b"scan-property", range(1, 13))
PROPERTY_PROVIDERS = (KeyedHashProvider(mac_len=4, anon_id_len=4), KeyBlindProvider())


@st.composite
def scan_cases(draw):
    """A marked packet, possibly tampered, plus offered sets and policy."""
    provider = draw(st.sampled_from(PROPERTY_PROVIDERS))
    scheme = PNMMarking(mark_prob=1.0)
    path = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True))
    packet = MarkedPacket(
        report=Report(event=b"scan", location=(1.0, 2.0), timestamp=draw(st.integers(0, 9)))
    )
    marked = mark_through_path(scheme, PROPERTY_KEYS, provider, path, packet)
    marks = list(marked.marks)
    at = draw(st.integers(0, len(marks) - 1))
    id_field, mac = marks[at]
    tamper = draw(st.sampled_from(("none", "mac", "id", "short-id", "long-mac")))
    if tamper == "mac":
        marks[at] = Mark(id_field, bytes([mac[0] ^ 0x5A]) + mac[1:])
    elif tamper == "id":
        marks[at] = Mark(bytes([id_field[0] ^ 0x01]) + id_field[1:], mac)
    elif tamper == "short-id":
        marks[at] = Mark(id_field[:-1], mac)
    elif tamper == "long-mac":
        marks[at] = Mark(id_field, mac + b"\x00")
    if tamper != "none":
        marked = marked.with_marks(tuple(marks))
    # Offered sets may hold keyless node 0, duplicates and nodes that
    # never marked; None offers every key.
    offered = st.one_of(
        st.none(), st.lists(st.integers(0, 12), min_size=1, max_size=4)
    )
    sets = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {prev: offered for prev in [None, *range(1, 13)]}
            ),
        )
    )
    return scheme, provider, marked, sets, draw(st.booleans())


class TestScanProperty:
    """PNM's one-loop scan against the generic reference scan."""

    @seed(20261020)
    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_pnm_loop_matches_reference_scan(self, case):
        scheme, provider, marked, sets, fallback = case
        fast_sets, reference_sets = DrawnSets(sets), DrawnSets(sets)
        fast = PacketVerifier(
            scheme, PROPERTY_KEYS, provider, fast_sets, exhaustive_fallback=fallback
        ).verify(marked)
        reference = ReferenceVerifier(
            scheme,
            PROPERTY_KEYS,
            provider,
            reference_sets,
            exhaustive_fallback=fallback,
        ).verify(marked)
        assert fast == reference
        assert fast_sets.calls == reference_sets.calls
