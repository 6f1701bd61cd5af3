"""Sensing reports: ``M = E | L | T``.

A report carries an event description (opaque bytes, e.g. sensor readings),
the location of the event, and a timestamp.  Bogus reports injected by a
source mole conform to this same format -- they must, or legitimate
forwarding nodes would drop them -- but cannot all be identical, or duplicate
suppression would discard them (Section 2.3, footnote 2).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

__all__ = ["Report", "MAX_EVENT_LEN"]

#: Maximum encodable event payload length (u16 length prefix).
MAX_EVENT_LEN = 0xFFFF

# Wire layout: [event_len: u16][event][x: i32][y: i32][timestamp: u32]
_HEADER = struct.Struct(">H")
_TRAILER = struct.Struct(">iiI")

# Location coordinates are encoded in fixed-point millimetres.
_MM_PER_UNIT = 1000


@dataclass(frozen=True)
class Report:
    """An immutable sensing report.

    Attributes:
        event: opaque event description bytes (sensor readings etc.).
        location: ``(x, y)`` position of the reported event, in the
            deployment's coordinate units (metres in the examples).
        timestamp: event time in integer simulation ticks.
    """

    event: bytes
    location: tuple[float, float]
    timestamp: int

    def __post_init__(self) -> None:
        if len(self.event) > MAX_EVENT_LEN:
            raise ValueError(
                f"event payload too long: {len(self.event)} > {MAX_EVENT_LEN}"
            )
        if not 0 <= self.timestamp <= 0xFFFFFFFF:
            raise ValueError(f"timestamp out of u32 range: {self.timestamp}")
        x_mm, y_mm = self._location_mm()
        for coord in (x_mm, y_mm):
            if not -(2**31) <= coord < 2**31:
                raise ValueError(f"location out of encodable range: {self.location}")

    def _location_mm(self) -> tuple[int, int]:
        x, y = self.location
        return round(x * _MM_PER_UNIT), round(y * _MM_PER_UNIT)

    def encode(self) -> bytes:
        """Serialize to canonical wire bytes ``E | L | T``."""
        return self._wire

    @cached_property
    def _wire(self) -> bytes:
        # Encoded once per report: every mark's MAC and every anonymous ID
        # is computed over these bytes.  Not a field, so equality, hashing
        # and repr ignore it, and ``dataclasses.replace`` starts afresh.
        x_mm, y_mm = self._location_mm()
        return (
            _HEADER.pack(len(self.event))
            + self.event
            + _TRAILER.pack(x_mm, y_mm, self.timestamp)
        )

    @cached_property
    def trace_key(self) -> bytes:
        """The report's content identity for tracing (``report_key``).

        Computed once per report object, like :meth:`encode`'s bytes: the
        verifier's and the sink's spans both key on it.
        """
        return hashlib.sha256(b"trace" + self._wire).digest()[:8]

    @property
    def wire_len(self) -> int:
        """Encoded length in bytes."""
        return _HEADER.size + len(self.event) + _TRAILER.size

    @classmethod
    def decode(cls, data: bytes) -> "Report":
        """Parse wire bytes produced by :meth:`encode`.

        Raises:
            ValueError: if the buffer is truncated or has trailing bytes.
        """
        report, consumed = cls.decode_prefix(data)
        if consumed != len(data):
            raise ValueError(
                f"trailing bytes after report: {len(data) - consumed} extra"
            )
        return report

    @classmethod
    def decode_prefix(cls, data: bytes) -> tuple["Report", int]:
        """Parse a report from the front of ``data``.

        Returns:
            The decoded report and the number of bytes consumed.
        """
        if len(data) < _HEADER.size:
            raise ValueError("buffer too short for report header")
        (event_len,) = _HEADER.unpack_from(data, 0)
        total = _HEADER.size + event_len + _TRAILER.size
        if len(data) < total:
            raise ValueError(
                f"buffer too short for report: need {total}, have {len(data)}"
            )
        event = bytes(data[_HEADER.size : _HEADER.size + event_len])
        x_mm, y_mm, timestamp = _TRAILER.unpack_from(data, _HEADER.size + event_len)
        report = cls(
            event=event,
            location=(x_mm / _MM_PER_UNIT, y_mm / _MM_PER_UNIT),
            timestamp=timestamp,
        )
        return report, total
