"""Marked packets: a report plus the marks accumulated along the path.

The nested-marking MAC of hop ``i`` is computed over the *entire message
received from the previous hop*, ``M_{i-1}`` -- i.e. over the exact wire
bytes of the report and all earlier marks.  :meth:`MarkedPacket.prefix_wire`
exposes those byte prefixes so marking schemes and the sink compute MACs over
identical data.

Packets are treated as immutable values; forwarding (and mark manipulation by
moles) produces new packets via :meth:`with_mark` / :meth:`with_marks`.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.packets.marks import Mark, MarkFormat, mark_from_fields
from repro.packets.report import Report

__all__ = ["MarkedPacket"]


@dataclass(frozen=True)
class MarkedPacket:
    """A sensing report plus an ordered list of marks.

    Attributes:
        report: the original report ``M``.
        marks: marks in the order they were appended (upstream first).
        origin: *simulation metadata*, not on the wire: the true injecting
            node, used only for scoring experiment outcomes.
    """

    report: Report
    marks: tuple[Mark, ...] = ()
    origin: int | None = field(default=None, compare=False)

    @property
    def report_wire(self) -> bytes:
        """Wire bytes of the bare report ``M``."""
        return self.report.encode()

    def prefix_wire(self, num_marks: int) -> bytes:
        """Wire bytes of the report plus the first ``num_marks`` marks.

        ``prefix_wire(i)`` is exactly ``M_i`` in the paper's notation when
        every node so far has marked, and more generally the message as it
        stood before mark ``num_marks`` was appended.

        Raises:
            ValueError: if ``num_marks`` exceeds the number of marks present.
        """
        if not 0 <= num_marks <= len(self.marks):
            raise ValueError(
                f"num_marks={num_marks} out of range 0..{len(self.marks)}"
            )
        wire, ends = self.layout
        return wire[: ends[num_marks]]

    def wire(self) -> bytes:
        """Full wire bytes of the packet as currently marked."""
        return self.layout[0]

    @property
    def wire_len(self) -> int:
        """Total transmitted size in bytes (report + all marks)."""
        return len(self.layout[0])

    @cached_property
    def layout(self) -> tuple[bytes, Sequence[int]]:
        """``(wire, ends)``: the wire bytes, encoded once, and where each
        prefix ends.

        ``ends[i]`` is the length of ``prefix_wire(i)``; the sink slices
        MAC inputs with it directly.  The offsets are summed mark by mark,
        not ``i * mark_len``: a mole may put marks of the wrong length on
        the wire.  Not a field, so equality, hashing and repr ignore it.
        :meth:`decode` seeds it with the received buffer; :meth:`with_mark`
        extends a parent's cached layout by the new mark; ``with_marks``
        and ``dataclasses.replace`` copies start afresh.
        """
        report_wire = self.report.encode()
        parts = [report_wire]
        ends = [len(report_wire)]
        for mark in self.marks:
            encoded = mark.encode()
            parts.append(encoded)
            ends.append(ends[-1] + len(encoded))
        return b"".join(parts), tuple(ends)

    @property
    def num_marks(self) -> int:
        return len(self.marks)

    def with_mark(self, mark: Mark) -> "MarkedPacket":
        """Return a copy with ``mark`` appended (what a marking node sends).

        When this packet's :attr:`layout` is already encoded, the copy's
        is seeded by extending it with the mark's bytes, so a path of
        marking hops encodes the report and each mark once.
        """
        copy = MarkedPacket(self.report, self.marks + (mark,), self.origin)
        layout = self.__dict__.get("layout")
        if layout is not None:
            wire, ends = layout
            id_field, mac = mark
            copy.__dict__["layout"] = (
                wire + id_field + mac,
                (*ends, ends[-1] + len(id_field) + len(mac)),
            )
        return copy

    def with_marks(self, marks: tuple[Mark, ...]) -> "MarkedPacket":
        """Return a copy with the mark list replaced (what a mole may send)."""
        return replace(self, marks=tuple(marks))

    @classmethod
    def decode(
        cls, data: bytes, fmt: MarkFormat, num_marks: int | None = None
    ) -> "MarkedPacket":
        """Parse a packet whose marks are laid out per ``fmt``.

        Without ``num_marks`` the whole buffer past the report must divide
        exactly into marks -- any other trailing bytes are rejected, never
        silently ignored.  Mark-aligned garbage is indistinguishable from
        real marks at this layer, so framed transports (:mod:`repro.wire`)
        carry the mark count explicitly and pass it here: with ``num_marks``
        given, the buffer must hold *exactly* that many marks, and even
        mark-aligned trailing bytes raise.

        The decoded packet keeps the received bytes: ``wire()``,
        ``prefix_wire(i)`` and ``report.encode()`` are slices of ``data``,
        not a re-encoding, so every MAC the sink checks covers the bytes
        exactly as received.  A ``with_mark`` copy extends those bytes by
        its mark; ``with_marks`` copies encode afresh.

        Raises:
            ValueError: if the report does not parse, or the trailing
                bytes are not a whole number of marks, or do not match
                ``num_marks`` when it is given.
        """
        buffer = bytes(data)
        report, consumed = Report.decode_prefix(buffer)
        size = len(buffer)
        remainder = size - consumed
        mark_len = fmt.mark_len
        if num_marks is not None:
            if num_marks < 0:
                raise ValueError(f"num_marks must be >= 0, got {num_marks}")
            expected = num_marks * mark_len
            if remainder < expected:
                raise ValueError(
                    f"buffer too short for {num_marks} marks: "
                    f"need {expected} bytes, have {remainder}"
                )
            if remainder > expected:
                raise ValueError(
                    f"{remainder - expected} trailing bytes after "
                    f"{num_marks} marks"
                )
        if remainder % mark_len != 0:
            raise ValueError(
                f"{remainder} trailing bytes is not a multiple of "
                f"mark length {mark_len}"
            )
        # One C pass: each unpacked two-field row becomes a Mark directly.
        unpack = struct.Struct(f"{fmt.id_len}s{fmt.mac_len}s").iter_unpack
        marks = tuple(map(mark_from_fields, unpack(memoryview(buffer)[consumed:])))
        packet = cls(report=report, marks=marks)
        # Report encoding is canonical (decode then encode gives the same
        # bytes), so the received buffer is the packet's wire form: seed
        # both caches with it and verification MACs the bytes as received.
        report.__dict__["_wire"] = buffer[:consumed]
        packet.__dict__["layout"] = (buffer, range(consumed, size + 1, mark_len))
        return packet
