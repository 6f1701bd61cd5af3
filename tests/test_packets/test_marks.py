"""Mark wire format and MarkFormat validation.

Marks are parsed only as part of a packet, so the decode tests go
through :meth:`MarkedPacket.decode` with a one-mark packet.  The record
contract of :class:`Mark` and of the sink's :class:`VerifiedMark` is
pinned here too: immutable, keyword-constructible, equal and hashed by
value, with a stable repr and a pickle round-trip.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.traceback.verify import VerifiedMark

REPORT = Report(event=b"ev", location=(1.0, -2.0), timestamp=9)


def decode_one_mark(data: bytes, fmt: MarkFormat) -> Mark:
    """Parse ``data`` as the only mark of a packet."""
    packet = MarkedPacket.decode(REPORT.encode() + data, fmt, num_marks=1)
    assert packet.report == REPORT
    (mark,) = packet.marks
    return mark


class TestMarkFormat:
    def test_mark_len(self):
        assert MarkFormat(id_len=2, mac_len=4).mark_len == 6
        assert MarkFormat(id_len=4, mac_len=0).mark_len == 4

    def test_encode_decode_node_id(self):
        fmt = MarkFormat(id_len=2)
        assert fmt.decode_node_id(fmt.encode_node_id(513)) == 513

    def test_encode_rejects_overflow(self):
        fmt = MarkFormat(id_len=1)
        with pytest.raises(ValueError, match="fit"):
            fmt.encode_node_id(256)

    def test_encode_boundary(self):
        fmt = MarkFormat(id_len=1)
        assert fmt.encode_node_id(255) == b"\xff"

    def test_encode_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            MarkFormat().encode_node_id(-3)

    def test_decode_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            MarkFormat(id_len=2).decode_node_id(b"abc")

    def test_rejects_bad_field_lengths(self):
        with pytest.raises(ValueError):
            MarkFormat(id_len=0)
        with pytest.raises(ValueError):
            MarkFormat(mac_len=-1)

    @given(node_id=st.integers(min_value=0, max_value=0xFFFF))
    def test_id_roundtrip_property(self, node_id):
        fmt = MarkFormat(id_len=2)
        assert fmt.decode_node_id(fmt.encode_node_id(node_id)) == node_id


class TestMark:
    def test_encode_concatenates(self):
        m = Mark(id_field=b"\x00\x07", mac=b"abcd")
        assert m.encode() == b"\x00\x07abcd"
        assert m.wire_len == 6

    def test_decode_roundtrip(self):
        fmt = MarkFormat(id_len=2, mac_len=4)
        m = Mark(id_field=b"\x01\x02", mac=b"wxyz")
        assert decode_one_mark(m.encode(), fmt) == m

    def test_decode_zero_mac_len(self):
        fmt = MarkFormat(id_len=2, mac_len=0)
        m = decode_one_mark(b"\x00\x05", fmt)
        assert m.id_field == b"\x00\x05"
        assert m.mac == b""

    def test_decode_rejects_wrong_size(self):
        fmt = MarkFormat(id_len=2, mac_len=4)
        with pytest.raises(ValueError, match="too short"):
            decode_one_mark(b"\x00\x05", fmt)
        with pytest.raises(ValueError, match="trailing bytes"):
            decode_one_mark(b"\x00\x05abcd!", fmt)

    def test_matches_format(self):
        fmt = MarkFormat(id_len=2, mac_len=4)
        assert Mark(id_field=b"ab", mac=b"cdef").matches_format(fmt)
        assert not Mark(id_field=b"abc", mac=b"def").matches_format(fmt)

    @given(id_field=st.binary(min_size=3, max_size=3), mac=st.binary(min_size=5, max_size=5))
    def test_roundtrip_property(self, id_field, mac):
        fmt = MarkFormat(id_len=3, mac_len=5)
        m = Mark(id_field=id_field, mac=mac)
        assert decode_one_mark(m.encode(), fmt) == m

    def test_is_immutable(self):
        m = Mark(id_field=b"ab", mac=b"cdef")
        with pytest.raises(AttributeError):
            m.mac = b"0000"
        with pytest.raises(AttributeError):
            m.extra = 1

    def test_keyword_and_positional_construction_agree(self):
        m = Mark(b"ab", b"cdef")
        assert m == Mark(mac=b"cdef", id_field=b"ab")
        assert (m.id_field, m.mac) == (b"ab", b"cdef")
        assert hash(m) == hash(Mark(id_field=b"ab", mac=b"cdef"))
        assert m != Mark(id_field=b"ab", mac=b"cdeg")

    def test_repr(self):
        assert repr(Mark(id_field=b"\x00\x07", mac=b"")) == (
            "Mark(id_field=b'\\x00\\x07', mac=b'')"
        )

    def test_pickle_roundtrip(self):
        m = Mark(id_field=b"ab", mac=b"cdef")
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m
        assert type(copy) is Mark


class TestVerifiedMark:
    def test_fields_and_default(self):
        vm = VerifiedMark(index=2, real_id=7)
        assert (vm.index, vm.real_id, vm.ambiguous) == (2, 7, False)
        assert VerifiedMark(2, 7, True).ambiguous

    def test_is_immutable(self):
        vm = VerifiedMark(2, 7)
        with pytest.raises(AttributeError):
            vm.real_id = 8

    def test_equality_and_hash(self):
        assert VerifiedMark(2, 7) == VerifiedMark(index=2, real_id=7, ambiguous=False)
        assert hash(VerifiedMark(2, 7)) == hash(VerifiedMark(2, 7, False))
        assert VerifiedMark(2, 7) != VerifiedMark(2, 7, True)

    def test_repr(self):
        assert repr(VerifiedMark(2, 7)) == (
            "VerifiedMark(index=2, real_id=7, ambiguous=False)"
        )

    def test_pickle_roundtrip(self):
        vm = VerifiedMark(2, 7, True)
        copy = pickle.loads(pickle.dumps(vm))
        assert copy == vm
        assert type(copy) is VerifiedMark
