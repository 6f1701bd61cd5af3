"""Encode-once packets: cached wire bytes equal a fresh encoding.

``Report.encode`` and ``MarkedPacket.prefix_wire``/``wire``/``wire_len``
read bytes computed once per value, and ``with_mark`` carries a parent's
encoded bytes forward to the copy.  These tests pin them to the uncached
definition -- the report's canonical bytes followed by every earlier
mark's bytes -- for honest packets, mole-built packets whose marks have
the wrong length, chains of ``with_mark`` from built and decoded parents
whose bytes were or were not encoded yet, ``with_marks`` and
``dataclasses.replace`` copies (which encode afresh), and check that the
cache never shows in equality, hashing or ``repr``.
"""

import dataclasses
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report


def fresh_report_wire(report: Report) -> bytes:
    x, y = report.location
    return (
        struct.pack(">H", len(report.event))
        + report.event
        + struct.pack(">iiI", round(x * 1000), round(y * 1000), report.timestamp)
    )


def fresh_prefix(packet: MarkedPacket, num_marks: int) -> bytes:
    return fresh_report_wire(packet.report) + b"".join(
        m.encode() for m in packet.marks[:num_marks]
    )


def assert_wire_matches(packet: MarkedPacket) -> None:
    assert packet.report.encode() == fresh_report_wire(packet.report)
    for i in range(len(packet.marks) + 1):
        assert packet.prefix_wire(i) == fresh_prefix(packet, i)
    full = fresh_prefix(packet, len(packet.marks))
    assert packet.wire() == full
    assert packet.wire_len == len(full)


reports = st.builds(
    Report,
    event=st.binary(max_size=40),
    location=st.tuples(
        st.floats(-1000, 1000, allow_nan=False), st.floats(-1000, 1000, allow_nan=False)
    ),
    timestamp=st.integers(0, 2**32 - 1),
)

# Any field lengths, as a mole may write them: the offsets must not
# assume a fixed mark length.
marks = st.builds(Mark, id_field=st.binary(max_size=7), mac=st.binary(max_size=9))


class TestCachedWire:
    @settings(max_examples=150)
    @given(report=reports, mark_list=st.lists(marks, max_size=8))
    def test_matches_fresh_encoding(self, report, mark_list):
        assert_wire_matches(MarkedPacket(report=report, marks=tuple(mark_list)))

    @settings(max_examples=60)
    @given(report=reports, mark_list=st.lists(marks, min_size=1, max_size=6))
    def test_with_mark_chain(self, report, mark_list):
        packet = MarkedPacket(report=report)
        assert_wire_matches(packet)  # parent's cache is populated first
        for mark in mark_list:
            packet = packet.with_mark(mark)
            assert_wire_matches(packet)

    @settings(max_examples=60)
    @given(
        report=reports,
        before=st.lists(marks, max_size=5),
        after=st.lists(marks, max_size=5),
    )
    def test_with_marks_replaces_layout(self, report, before, after):
        packet = MarkedPacket(report=report, marks=tuple(before))
        assert_wire_matches(packet)
        assert_wire_matches(packet.with_marks(tuple(after)))

    def test_wrong_length_marks(self):
        report = Report(event=b"ev", location=(1.0, 2.0), timestamp=9)
        packet = MarkedPacket(
            report=report,
            marks=(
                Mark(id_field=b"\x00\x01", mac=b"abcd"),
                Mark(id_field=b"\x07", mac=b""),  # short, as a mole may send
                Mark(id_field=b"\x00\x00\x00\x02", mac=b"0123456789"),  # long
                Mark(id_field=b"\x00\x03", mac=b"wxyz"),
            ),
        )
        assert_wire_matches(packet)
        assert packet.prefix_wire(2) == report.encode() + b"\x00\x01abcd\x07"

    def test_replace_copies_start_afresh(self):
        report = Report(event=b"ev", location=(1.0, 2.0), timestamp=9)
        packet = MarkedPacket(report=report, marks=(Mark(b"\x00\x01", b"abcd"),))
        packet.wire()
        other_report = dataclasses.replace(report, timestamp=10)
        assert other_report.encode() == fresh_report_wire(other_report)
        assert other_report.encode() != report.encode()
        copy = dataclasses.replace(packet, report=other_report)
        assert_wire_matches(copy)
        assert copy.wire() != packet.wire()
        assert_wire_matches(dataclasses.replace(packet, marks=()))


FORMAT = MarkFormat(id_len=4, mac_len=4)

# Marks of the deployment's format, as an honest node writes them.
format_marks = st.builds(
    Mark,
    id_field=st.binary(min_size=FORMAT.id_len, max_size=FORMAT.id_len),
    mac=st.binary(min_size=FORMAT.mac_len, max_size=FORMAT.mac_len),
)


def is_cached(packet: MarkedPacket) -> bool:
    return "layout" in packet.__dict__


class TestCarriedLayout:
    """``with_mark`` extends a parent's encoded bytes; nothing else does."""

    @settings(max_examples=120, deadline=None)
    @given(
        report=reports,
        base=st.lists(format_marks, max_size=5),
        chain=st.lists(st.one_of(format_marks, marks), min_size=1, max_size=8),
        decoded=st.booleans(),
        warm=st.booleans(),
        replacement=st.lists(marks, max_size=4),
    )
    def test_with_mark_chain(self, report, base, chain, decoded, warm, replacement):
        packet = MarkedPacket(report=report, marks=tuple(base))
        if decoded:
            packet = MarkedPacket.decode(packet.wire(), FORMAT)
        elif warm:
            packet.wire()
        else:
            assert not is_cached(packet)
        for mark in chain:
            parent_cached = is_cached(packet)
            child = packet.with_mark(mark)
            assert child.marks == packet.marks + (mark,)
            assert is_cached(child) == parent_cached
            assert_wire_matches(child)
            assert child.prefix_wire(len(packet.marks)) == packet.wire()
            packet = child

        for copy in (
            packet.with_marks(tuple(replacement)),
            dataclasses.replace(packet, marks=tuple(replacement)),
            dataclasses.replace(packet),
        ):
            assert not is_cached(copy)
            assert_wire_matches(copy)

        sent = packet.report
        cold = MarkedPacket(
            report=Report(sent.event, sent.location, sent.timestamp),
            marks=packet.marks,
        )
        assert not is_cached(cold)
        assert packet == cold
        assert hash(packet) == hash(cold)
        assert repr(packet) == repr(cold)


class TestCacheIsInvisible:
    def test_equality_hash_repr_ignore_cache(self):
        def build() -> MarkedPacket:
            report = Report(event=b"ev", location=(1.0, 2.0), timestamp=9)
            return MarkedPacket(report=report, marks=(Mark(b"\x00\x01", b"abcd"),))

        warm, cold = build(), build()
        warm_repr = repr(warm)
        warm.wire()
        warm.prefix_wire(0)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert warm.report == cold.report
        assert hash(warm.report) == hash(cold.report)
        assert repr(warm) == repr(cold) == warm_repr
        assert repr(warm.report) == repr(cold.report)
        assert {f.name for f in dataclasses.fields(warm)} == {"report", "marks", "origin"}
        assert {f.name for f in dataclasses.fields(warm.report)} == {
            "event",
            "location",
            "timestamp",
        }
