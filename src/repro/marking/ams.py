"""Extended Authenticated Marking Scheme (AMS) baseline.

Song & Perrig's AMS (INFOCOM 2001) authenticates each router's mark with a
keyed hash.  Section 3 of the paper extends it to the sensor setting: a
packet carries multiple marks, one per marking node, each of the form
``H_{k_i}(S | i)`` -- in our notation a MAC over the *original report* and
the marker's ID.  (The destination field is dropped because the sink is
well known.)

Crucially, an AMS mark does **not** protect the marks left by previous
nodes.  Each mark verifies or fails independently, so a forwarding mole can
remove, re-order, or selectively preserve upstream marks without
invalidating anything -- the attacks Section 3 uses to defeat it.  This
scheme exists as the strongest Internet-style baseline for the security
matrix experiment.
"""

from __future__ import annotations

from repro.marking.base import PlainIdMarking
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = ["ExtendedAMS"]


class ExtendedAMS(PlainIdMarking):
    """Authenticated marks over the original report only (non-nested)."""

    name = "ams"
    verification_policy = "independent"

    def __init__(
        self, mark_prob: float = 1.0, id_len: int = 2, mac_len: int = 4
    ):
        super().__init__(MarkFormat(id_len=id_len, mac_len=mac_len), mark_prob)

    def _covered(self, packet: MarkedPacket, upto: int, id_field: bytes) -> bytes:
        # H_{k_i}(S | i): only the original report and the marker's ID are
        # covered -- previous marks are deliberately NOT included.
        return packet.report_wire + id_field
