"""A deliberately under-protective scheme for Theorem 3's necessity proof.

Theorem 3: *any* marking scheme whose MACs protect fewer fields than
nested marking is not consecutive traceable.  :class:`PartiallyNestedMarking`
is the canonical counterexample used in the ablation benches: it looks
almost nested -- each MAC covers the original report, **the ID fields of
every previous mark**, and the marker's own ID -- but omits the previous
marks' MAC bytes.

A mole can therefore corrupt an upstream mark's MAC bytes
(:class:`~repro.adversary.attacks.UnprotectedBitAlteringAttack`): every
downstream MAC still verifies (it never covered those bytes), while the
victim's own mark fails, so the backward trace stops at an innocent node
and cannot proceed -- exactly the failure Figure 3 illustrates.

Do not deploy this scheme; it exists to make the necessity argument
empirical.
"""

from __future__ import annotations

from repro.marking.nested import NestedMarking
from repro.packets.packet import MarkedPacket

__all__ = ["PartiallyNestedMarking"]


class PartiallyNestedMarking(NestedMarking):
    """Nested marking minus protection of previous MAC bytes."""

    name = "partial-nested"

    def _covered(self, packet: MarkedPacket, upto: int, id_field: bytes) -> bytes:
        """Report, previous ID fields only, and the new ID."""
        parts = [packet.report_wire]
        parts.extend(mark.id_field for mark in packet.marks[:upto])
        parts.append(id_field)
        return b"".join(parts)
