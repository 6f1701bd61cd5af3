"""Decoded packets keep their received bytes.

``decode_packet`` hands the sink packets whose ``wire()``,
``prefix_wire(i)`` and ``report.encode()`` are slices of the received
buffer rather than a re-encoding, so every MAC is checked over the bytes
exactly as received.  That is only sound because report encoding is
canonical: these properties pin ``decode_packet(encode_packet(p))`` to
``p`` and its fresh encoding over the whole encodable range (event
lengths up to a few hundred bytes, coordinates at the int32 millimetre
extremes, timestamps at the u32 edges, 0-40 marks), check that a
``with_mark`` copy extends the received bytes by its mark while
``with_marks`` copies encode afresh, and that malformed buffers still
raise the typed wire errors.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.wire.codec import decode_packet, encode_packet, write_varint
from repro.wire.errors import BadFrameError, OversizedError, TruncatedError

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

millimetres = st.one_of(
    st.sampled_from([INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX]),
    st.integers(INT32_MIN, INT32_MAX),
)
reports = st.builds(
    Report,
    event=st.binary(max_size=300),
    location=st.tuples(millimetres, millimetres).map(
        lambda mm: (mm[0] / 1000, mm[1] / 1000)
    ),
    timestamp=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
)
formats = st.builds(
    MarkFormat, id_len=st.integers(1, 4), mac_len=st.integers(0, 8)
)


@st.composite
def packets(draw) -> tuple[MarkedPacket, MarkFormat]:
    fmt = draw(formats)
    mark = st.builds(
        Mark,
        id_field=st.binary(min_size=fmt.id_len, max_size=fmt.id_len),
        mac=st.binary(min_size=fmt.mac_len, max_size=fmt.mac_len),
    )
    marks = draw(st.lists(mark, max_size=40))
    return MarkedPacket(report=draw(reports), marks=tuple(marks)), fmt


def fresh_report_wire(report: Report) -> bytes:
    x, y = report.location
    return (
        struct.pack(">H", len(report.event))
        + report.event
        + struct.pack(">iiI", round(x * 1000), round(y * 1000), report.timestamp)
    )


def fresh_wire(packet: MarkedPacket, num_marks: int) -> bytes:
    return fresh_report_wire(packet.report) + b"".join(
        m.encode() for m in packet.marks[:num_marks]
    )


def raised(data: bytes, fmt: MarkFormat) -> type | None:
    try:
        decode_packet(data, fmt)
    except (TruncatedError, BadFrameError, OversizedError) as exc:
        return type(exc)
    return None


class TestReceivedBytes:
    @settings(max_examples=200, deadline=None)
    @given(case=packets())
    def test_round_trip_keeps_bytes(self, case):
        packet, fmt = case
        decoded = decode_packet(encode_packet(packet), fmt)
        assert decoded == packet
        assert decoded.report.encode() == fresh_report_wire(packet.report)
        assert decoded.report.encode() == packet.report.encode()
        for i in range(len(packet.marks) + 1):
            assert decoded.prefix_wire(i) == fresh_wire(packet, i)
            assert decoded.prefix_wire(i) == packet.prefix_wire(i)
        assert decoded.wire() == packet.wire()
        assert decoded.wire_len == packet.wire_len

    @settings(max_examples=100, deadline=None)
    @given(case=packets(), extra=st.data())
    def test_copies_encode_afresh(self, case, extra):
        packet, fmt = case
        decoded = decode_packet(encode_packet(packet), fmt)
        decoded.wire()  # the seeded buffer is in place before copying
        new_mark = Mark(id_field=b"\x5a" * (fmt.id_len + 1), mac=b"\xa5")
        grown = decoded.with_mark(new_mark)
        assert grown.wire() == fresh_wire(grown, len(grown.marks))
        assert grown.prefix_wire(len(packet.marks)) == decoded.wire()
        shuffled = extra.draw(st.permutations(decoded.marks))
        for copy in (
            decoded.with_marks(tuple(shuffled)),
            decoded.with_marks(decoded.marks[1:]),
            decoded.with_marks(()),
        ):
            for i in range(len(copy.marks) + 1):
                assert copy.prefix_wire(i) == fresh_wire(copy, i)
            assert copy.wire_len == len(fresh_wire(copy, len(copy.marks)))


class TestDecodedMarks:
    """Decode builds each mark in C; the result is still a ``Mark``."""

    @settings(max_examples=100, deadline=None)
    @given(case=packets())
    def test_decoded_marks_are_marks(self, case):
        packet, fmt = case
        decoded = MarkedPacket.decode(packet.wire(), fmt, len(packet.marks))
        for mark, sent in zip(decoded.marks, packet.marks, strict=True):
            assert type(mark) is Mark
            assert mark.id_field == sent.id_field
            assert mark.mac == sent.mac
            assert mark._asdict() == {"id_field": sent.id_field, "mac": sent.mac}
            assert mark.matches_format(fmt)
            assert mark.encode() == sent.id_field + sent.mac
            rebuilt = Mark(mark.id_field, mark.mac)
            assert mark == rebuilt
            assert hash(mark) == hash(rebuilt)


class TestMalformedBuffers:
    @settings(max_examples=60, deadline=None)
    @given(case=packets())
    def test_truncated(self, case):
        packet, fmt = case
        body = encode_packet(packet)
        count_len = len(write_varint(packet.num_marks))
        for cut in range(len(body)):
            # A cut inside the mark count is truncated; past it, a count
            # larger than the whole buffer is refused before parsing.
            oversized = cut >= count_len and packet.num_marks > cut
            expected = OversizedError if oversized else TruncatedError
            assert raised(body[:cut], fmt) is expected

    @settings(max_examples=100, deadline=None)
    @given(case=packets(), trailing=st.binary(min_size=1, max_size=17))
    def test_trailing_bytes(self, case, trailing):
        packet, fmt = case
        assert raised(encode_packet(packet) + trailing, fmt) is BadFrameError

    @settings(max_examples=100, deadline=None)
    @given(case=packets(), delta=st.integers(1, 5))
    def test_wrong_mark_count(self, case, delta):
        packet, fmt = case
        wire = packet.wire()
        more = write_varint(packet.num_marks + delta) + wire
        expected = (
            OversizedError if packet.num_marks + delta > len(more) else TruncatedError
        )
        assert raised(more, fmt) is expected
        if packet.num_marks >= delta:
            fewer = write_varint(packet.num_marks - delta) + wire
            assert raised(fewer, fmt) is BadFrameError
