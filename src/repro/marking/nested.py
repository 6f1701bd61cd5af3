"""Nested marking (Section 4.1) and its naive probabilistic extension.

In nested marking, forwarder ``V_i`` appends its ID and
``MAC_i = H_{k_i}(M_{i-1} | i)`` where ``M_{i-1}`` is the **entire message
received from the previous hop** -- report plus all earlier marks.  Every
mark therefore protects all marks before it: tampering with any upstream
ID, MAC, or their order invalidates every downstream legitimate MAC.  The
paper proves this makes the scheme *consecutive traceable* and hence
*one-hop precise* (Theorems 1-2), and that protecting any fewer fields
breaks both properties (Theorem 3).

:class:`NestedMarking` is the deterministic variant (every forwarder marks
every packet; single-packet traceback, but ``n`` marks of overhead).

:class:`NaiveProbabilisticNested` is Section 4.2's "incorrect extension":
the same nested marks left only with probability ``p`` and with **plain
text IDs**.  Because a colluding mole can read which upstream nodes marked
each packet, it can selectively drop exactly the packets whose marks would
implicate it -- leading the sink to an innocent node.  It is implemented
to reproduce that attack in the security-matrix experiment.
"""

from __future__ import annotations

from repro.marking.base import PlainIdMarking
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = ["NestedMarking", "NaiveProbabilisticNested"]


class NestedMarking(PlainIdMarking):
    """Basic nested marking: deterministic, plain IDs, nested MACs."""

    name = "nested"

    def __init__(self, id_len: int = 2, mac_len: int = 4):
        super().__init__(MarkFormat(id_len=id_len, mac_len=mac_len), mark_prob=1.0)

    def _covered(self, packet: MarkedPacket, upto: int, id_field: bytes) -> bytes:
        # H_{k_i}(M_{i-1} | i): the packet exactly as the marker received
        # it -- report plus every earlier mark -- plus the new ID.
        return packet.prefix_wire(upto) + id_field


class NaiveProbabilisticNested(NestedMarking):
    """Section 4.2's incorrect extension: probabilistic nested marks with
    plain-text IDs (vulnerable to selective dropping)."""

    name = "naive-pnm"

    def __init__(self, mark_prob: float, id_len: int = 2, mac_len: int = 4):
        super().__init__(id_len=id_len, mac_len=mac_len)
        if not 0.0 <= mark_prob <= 1.0:
            raise ValueError(f"mark_prob must be in [0, 1], got {mark_prob}")
        self.mark_prob = mark_prob
