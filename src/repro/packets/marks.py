"""Marks: the per-hop records appended by marking schemes.

A mark on the wire is ``[id_field][mac]``.  The ID field holds either a
plain-text node ID (basic nested marking, the AMS/PPM baselines) or an
anonymous ID (full PNM).  The MAC field may be empty for unauthenticated
baselines (Savage-style probabilistic packet marking).

Field lengths are fixed per deployment by a :class:`MarkFormat`, so any node
(including a mole) can parse the mark list of a packet it forwards.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, cast

__all__ = ["MarkFormat", "Mark", "mark_from_fields"]

DEFAULT_ID_LEN = 2


@dataclass(frozen=True)
class MarkFormat:
    """Wire layout of a single mark.

    Attributes:
        id_len: bytes in the ID field.  2 bytes suffice for 65k nodes with
            plain IDs; anonymous IDs typically use 4.
        mac_len: bytes in the MAC field (0 for unauthenticated marking).
        anonymous: whether the ID field carries an anonymous ID that the
            sink must resolve, rather than a plain node ID.
        algebraic: whether the ID field carries an algebraic accumulator
            (``count | field element``, see :mod:`repro.algebraic`) that is
            *replaced* per hop instead of appended.  Mutually exclusive
            with ``anonymous``.
    """

    id_len: int = DEFAULT_ID_LEN
    mac_len: int = 4
    anonymous: bool = False
    algebraic: bool = False

    def __post_init__(self) -> None:
        if self.id_len < 1:
            raise ValueError(f"id_len must be >= 1, got {self.id_len}")
        if self.mac_len < 0:
            raise ValueError(f"mac_len must be >= 0, got {self.mac_len}")
        if self.algebraic and self.anonymous:
            raise ValueError("a mark format cannot be both anonymous and algebraic")

    @property
    def mark_len(self) -> int:
        """Total encoded length of one mark."""
        return self.id_len + self.mac_len

    def encode_node_id(self, node_id: int) -> bytes:
        """Encode a plain node ID into an ID field."""
        if node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {node_id}")
        if node_id >= 1 << (8 * self.id_len):
            raise ValueError(
                f"node_id {node_id} does not fit in {self.id_len} byte(s)"
            )
        return node_id.to_bytes(self.id_len, "big")

    def decode_node_id(self, id_field: bytes) -> int:
        """Decode a plain node ID from an ID field."""
        if len(id_field) != self.id_len:
            raise ValueError(
                f"id field has {len(id_field)} bytes, format expects {self.id_len}"
            )
        return int.from_bytes(id_field, "big")


class Mark(NamedTuple):
    """One mark as it appears on the wire.

    The ``id_field`` is raw bytes: a big-endian node ID for plain-ID schemes
    or an anonymous ID for PNM.  Interpretation belongs to the scheme and the
    sink, not to the mark itself -- a forwarding mole sees exactly these
    bytes and nothing more.

    An immutable named tuple: the sink builds one per mark it decodes, and a
    tuple is the cheapest immutable record Python constructs.  Like any
    tuple it also compares equal to (and hashes like) a bare
    ``(id_field, mac)`` tuple.
    """

    id_field: bytes
    mac: bytes

    def encode(self) -> bytes:
        """Concatenate the two fields in wire order."""
        return self.id_field + self.mac

    @property
    def wire_len(self) -> int:
        return len(self.id_field) + len(self.mac)

    def matches_format(self, fmt: MarkFormat) -> bool:
        """Whether this mark's field sizes agree with ``fmt``."""
        return len(self.id_field) == fmt.id_len and len(self.mac) == fmt.mac_len


#: Build a :class:`Mark` from an ``(id_field, mac)`` pair in one C call:
#: ``Mark._make`` without its Python frame and field-count check.  Only
#: for rows that always have two fields, such as a ``"{id}s{mac}s"``
#: struct row; anything else builds a malformed mark.
mark_from_fields = cast(Callable[[Iterable[bytes]], Mark], partial(tuple.__new__, Mark))
