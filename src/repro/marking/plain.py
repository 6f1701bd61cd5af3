"""Unauthenticated baselines: no marking, and Savage-style plain marking.

:class:`PPMMarking` models the probabilistic packet marking of Savage et
al. (SIGCOMM 2000) transplanted to the sensor setting: each forwarder
appends its plain-text ID with probability ``p`` and there is no
cryptographic protection whatsoever.  (We use the append-multiple-marks
variant, like the paper's extended AMS, rather than the single-slot
overwrite of the IP header version -- strictly more information for the
sink, and still trivially defeated by a forwarding mole.)

:class:`NoMarking` is the null scheme: packets carry no provenance at all,
so the sink only ever knows its own delivering neighbor.
"""

from __future__ import annotations

from repro.marking.base import PlainIdMarking
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket

__all__ = ["PPMMarking", "NoMarking"]


class PPMMarking(PlainIdMarking):
    """Plain-text probabilistic marking with no authentication."""

    name = "ppm"
    verification_policy = "independent"

    def __init__(self, mark_prob: float = 1.0, id_len: int = 2):
        super().__init__(MarkFormat(id_len=id_len, mac_len=0), mark_prob)

    def _covered(self, packet: MarkedPacket, upto: int, id_field: bytes) -> None:
        # No MAC: any well-formed mark naming a known node is accepted.
        # This is precisely the weakness of plain marking.
        return None


class NoMarking(PPMMarking):
    """The null scheme: honest nodes never mark."""

    name = "none"

    def __init__(self, id_len: int = 2):
        super().__init__(mark_prob=0.0, id_len=id_len)
