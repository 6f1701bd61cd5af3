"""Pair-precision traceback (Section 7's neighbor-authentication upgrade).

Plain PNM localizes a mole to a closed one-hop *neighborhood*, because a
mole "can claim different identities in communicating with its neighbors".
With pairwise neighbor authentication (:mod:`repro.crypto.pairwise`) every
node knows cryptographically who handed it each packet, so marks can
additionally carry the marker's **authenticated previous hop**, and the
sink can narrow the suspect set to a *pair*:

    the traceback stopping node ``V`` (whose mark is the last valid one)
    together with the previous hop ``P`` that ``V`` reports.

Why a mole must be in ``{V, P}`` under deterministic marking: if ``V`` is
honest, its reported ``P`` is truthful (neighbor auth) and ``P``'s mark is
missing or invalid even though every honest forwarder marks every packet
-- so ``P`` is a mole or the injecting source.  If ``V`` lied about ``P``,
``V`` is itself compromised.  (With probabilistic marking the same holds
asymptotically for the converged most upstream marker, whose reported
previous hop is the source's delivery edge.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.marking.base import NodeContext
from repro.marking.nested import NestedMarking
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.traceback.verify import PacketVerification

__all__ = ["PairAwareNestedMarking", "SuspectPair", "refine_to_pair"]


class PairAwareNestedMarking(NestedMarking):
    """Nested marking whose marks embed the authenticated previous hop.

    The ID field doubles in width: ``[own ID][prev-hop ID]``, both covered
    by the nested MAC.  Requires node contexts with ``prev_hop`` set (i.e.
    a deployment running pairwise neighbor authentication).
    """

    name = "pair-nested"

    def __init__(self, id_len: int = 2, mac_len: int = 4):
        super().__init__(id_len=id_len, mac_len=mac_len)
        self._half = MarkFormat(id_len=id_len, mac_len=mac_len)
        # The wire format sees one opaque ID field of twice the width.
        self.fmt = MarkFormat(id_len=2 * id_len, mac_len=mac_len)

    def _id_field(self, ctx: NodeContext, written_id: int) -> bytes:
        if ctx.prev_hop is None:
            raise ValueError(
                "pair-aware marking needs ctx.prev_hop (pairwise neighbor "
                "authentication must be deployed)"
            )
        half = self._half
        return half.encode_node_id(written_id) + half.encode_node_id(ctx.prev_hop)

    def _marker(self, id_field: bytes) -> int:
        return self._half.decode_node_id(id_field[: self._half.id_len])

    def reported_prev_hop(self, packet: MarkedPacket, mark_index: int) -> int:
        """The previous hop the marker embedded (verified via the MAC)."""
        id_field = packet.marks[mark_index].id_field
        return self._half.decode_node_id(id_field[self._half.id_len :])


@dataclass(frozen=True)
class SuspectPair:
    """The refined traceback output: two nodes, one of them compromised.

    Attributes:
        stop_node: the most upstream verified marker.
        reported_prev: the previous hop it attests to.
        members: the pair as a set (drop-in for neighborhood scoring).
    """

    stop_node: int
    reported_prev: int
    members: frozenset[int]

    def contains_any(self, nodes: set[int]) -> bool:
        """Whether any of ``nodes`` (e.g. the true moles) is in the pair."""
        return bool(self.members & nodes)

    def __len__(self) -> int:
        return len(self.members)


def refine_to_pair(
    verification: PacketVerification,
    scheme: PairAwareNestedMarking,
) -> SuspectPair | None:
    """Narrow a packet's verification to the stop-node/previous-hop pair.

    Returns ``None`` when no mark verified (the caller falls back to the
    delivering neighbor, as usual).
    """
    if not verification.chain_ids:
        return None
    stop = verification.chain_ids[0]
    prev = scheme.reported_prev_hop(verification.packet, verification.mark_indices[0])
    return SuspectPair(
        stop_node=stop,
        reported_prev=prev,
        members=frozenset({stop, prev}),
    )
