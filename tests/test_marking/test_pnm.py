"""PNM: anonymous IDs and their resolution."""

import pytest

from repro.crypto.keys import KeyStore, derive_node_key
from repro.crypto.mac import KeyedHashProvider, NullMacProvider
from repro.marking.pnm import PNMMarking
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from tests.conftest import ctx_for, mark_through_path


@pytest.fixture
def scheme():
    return PNMMarking(mark_prob=1.0)


class TestAnonymousIds:
    def test_id_field_is_not_plain_id(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [3], packet)
        assert marked.marks[0].id_field != (3).to_bytes(4, "big")

    def test_anon_id_changes_per_message(self, scheme, keystore, provider):
        # i' = H'(M | i) is bound to the report: no static mapping an
        # attacker could accumulate.
        r1 = Report(event=b"a", location=(0, 0), timestamp=1)
        r2 = Report(event=b"b", location=(0, 0), timestamp=1)
        a1 = scheme.anonymous_id(provider, keystore[3], r1.encode(), 3)
        a2 = scheme.anonymous_id(provider, keystore[3], r2.encode(), 3)
        assert a1 != a2

    def test_anon_id_differs_across_nodes(self, scheme, keystore, provider, report):
        wire = report.encode()
        ids = {
            scheme.anonymous_id(provider, keystore[i], wire, i) for i in range(1, 15)
        }
        assert len(ids) == 14  # no collisions in this small sample

    def test_anon_id_requires_matching_length(self, keystore, report):
        from repro.crypto.mac import KeyedHashProvider

        scheme = PNMMarking(mark_prob=1.0, anon_id_len=4)
        mismatched = KeyedHashProvider(anon_id_len=2)
        with pytest.raises(ValueError, match="length"):
            scheme.anonymous_id(mismatched, keystore[1], report.encode(), 1)


class TestResolution:
    def test_resolution_table_maps_back(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [2, 9], packet)
        table = scheme.build_resolution_table(marked, keystore, provider)
        assert 2 in table[marked.marks[0].id_field]
        assert 9 in table[marked.marks[1].id_field]

    def test_candidates_via_table(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [6], packet)
        table = scheme.build_resolution_table(marked, keystore, provider)
        assert scheme.candidate_marker_ids(
            marked, 0, keystore, provider, table=table
        ) == [6]

    def test_bounded_search_finds_when_in_ball(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [6], packet)
        assert (
            scheme.candidate_marker_ids(
                marked, 0, keystore, provider, search_ids=[5, 6, 7]
            )
            == [6]
        )

    def test_bounded_search_misses_when_outside(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [6], packet)
        assert (
            scheme.candidate_marker_ids(
                marked, 0, keystore, provider, search_ids=[1, 2, 3]
            )
            == []
        )

    def test_search_space_tolerates_keyless_ids(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [6], packet)
        # 0 (the sink) and 999 have no keys; they must be skipped silently.
        assert (
            scheme.candidate_marker_ids(
                marked, 0, keystore, provider, search_ids=[0, 6, 999]
            )
            == [6]
        )

    def test_truncation_collisions_resolved_by_mac(self, keystore, provider, packet):
        # With 1-byte anonymous IDs, collisions happen; candidate sets may
        # have several nodes, but only the true marker's MAC verifies.
        from repro.crypto.mac import KeyedHashProvider

        tiny = KeyedHashProvider(mac_len=4, anon_id_len=1)
        scheme = PNMMarking(mark_prob=1.0, anon_id_len=1)
        marked = mark_through_path(scheme, keystore, tiny, [5], packet)
        candidates = scheme.candidate_marker_ids(marked, 0, keystore, tiny)
        assert 5 in candidates
        verified = [
            c
            for c in candidates
            if scheme.verify_mark_as(marked, 0, c, keystore[c], tiny)
        ]
        assert verified == [5]


class TestNestedProtection:
    def test_mac_covers_previous_marks(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [1, 2, 3], packet)
        stripped = marked.with_marks(marked.marks[1:])
        # After removing V1's mark, V2's and V3's MACs no longer verify.
        assert not scheme.verify_mark_as(stripped, 0, 2, keystore[2], provider)
        assert not scheme.verify_mark_as(stripped, 1, 3, keystore[3], provider)

    def test_mole_cannot_forge_other_nodes_anon_id(
        self, scheme, keystore, provider, packet
    ):
        # A mole using its own key but claiming ID 2 produces an anonymous
        # ID that does not match node 2's table entry.
        mole = ctx_for(5, keystore, provider)
        fake = scheme.make_mark(mole, packet, claimed_id=2)
        forged = packet.with_mark(fake)
        table = scheme.build_resolution_table(forged, keystore, provider)
        assert 2 not in table.get(fake.id_field, [])

    def test_verify_rejects_spliced_report(self, scheme, keystore, provider, packet):
        marked = mark_through_path(scheme, keystore, provider, [1], packet)
        other = MarkedPacket(
            report=Report(event=b"zz", location=(0, 0), timestamp=2)
        ).with_mark(marked.marks[0])
        assert not scheme.verify_mark_as(other, 0, 1, keystore[1], provider)


class CountingProvider(KeyedHashProvider):
    """A :class:`KeyedHashProvider` that counts its anonymous-ID calls."""

    def __init__(self, anon_id_len: int) -> None:
        super().__init__(anon_id_len=anon_id_len)
        self.anon_ids = 0

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        self.anon_ids += 1
        return super().anon_id(key, data)


def reference_table(packet, keystore, provider, ids):
    """``anonymous ID -> real IDs`` built key by key from ``M | i``."""
    table: dict[bytes, list[int]] = {}
    for node_id in ids:
        if node_id not in keystore:
            continue
        data = packet.report_wire + node_id.to_bytes(8, "big")
        table.setdefault(provider.anon_id(keystore[node_id], data), []).append(
            node_id
        )
    return table


# An explicit table built in no particular order and with gaps, large
# enough that one-byte anonymous IDs collide.
GAPPY = KeyStore(
    {
        node_id: derive_node_key(b"gappy", node_id)
        for node_id in list(range(1057, 999, -3))
        + [907, 3, 41, 0, 512, 77, 12, 600, 5, 999, 230, 18, 64]
    }
)


class TestExhaustiveTable:
    @pytest.mark.parametrize(
        "provider",
        [KeyedHashProvider(), KeyedHashProvider(anon_id_len=1), NullMacProvider()],
        ids=["hmac", "hmac-1-byte", "null"],
    )
    def test_matches_per_key_reference(self, provider, report):
        scheme = PNMMarking(mark_prob=1.0, anon_id_len=provider.anon_id_len)
        packet = MarkedPacket(report=report)
        table = scheme.build_resolution_table(packet, GAPPY, provider)
        assert table == reference_table(packet, GAPPY, provider, sorted(GAPPY))
        if provider.anon_id_len == 1:  # collisions keep ascending order
            assert any(len(ids) > 1 for ids in table.values())
            assert all(ids == sorted(ids) for ids in table.values())

    def test_bounded_branch_skips_keyless_ids(self, report):
        provider = KeyedHashProvider(anon_id_len=1)
        scheme = PNMMarking(mark_prob=1.0, anon_id_len=1)
        packet = MarkedPacket(report=report)
        search = [999, 4, 3, 1000, 2000, 41, 0, 1003, 7]
        table = scheme.build_resolution_table(packet, GAPPY, provider, search)
        assert table == reference_table(packet, GAPPY, provider, search)
        assert sorted(i for ids in table.values() for i in ids) == [
            0, 3, 41, 999, 1000, 1003
        ]

    def test_one_anon_id_call_per_key(self, report):
        provider = CountingProvider(anon_id_len=4)
        scheme = PNMMarking(mark_prob=1.0)
        for timestamp in range(3):
            packet = MarkedPacket(
                report=Report(report.event, report.location, timestamp)
            )
            before = provider.anon_ids
            scheme.build_resolution_table(packet, GAPPY, provider)
            assert provider.anon_ids - before == len(GAPPY)
