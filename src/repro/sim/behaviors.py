"""Forwarding behaviors: what a node does with a packet in transit.

Every node on a forwarding path -- honest or mole -- is modelled as a
:class:`ForwardingBehavior`: a function from the received packet to the
packet it sends on (or ``None`` to drop).  Honest nodes run the deployed
marking scheme plus optional duplicate suppression; moles
(:mod:`repro.adversary`) substitute arbitrary manipulations.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.marking.base import MarkingScheme, NodeContext
from repro.packets.packet import MarkedPacket

__all__ = ["ForwardingBehavior", "HonestForwarder"]


@runtime_checkable
class ForwardingBehavior(Protocol):
    """A node's packet-handling function.

    Attributes:
        node_id: the node this behavior runs on.
    """

    node_id: int

    def forward(self, packet: MarkedPacket) -> MarkedPacket | None:
        """Process a received packet.

        Returns:
            The packet to transmit to the next hop, or ``None`` to drop it.
        """
        ...


class HonestForwarder:
    """A legitimate node: apply the marking scheme, forward everything.

    A hop's work is the scheme's ``on_forward`` (the marking coin, plus
    the mark's hashes when the coin says mark) and the duplicate
    check when a suppressor is set.  A hop that does not mark returns
    the packet it was given, the same object.
    :class:`~repro.sim.pipeline.PathPipeline` does not call
    :meth:`forward` for consecutive forwarders without a suppressor: it
    hands their contexts to the scheme's ``forward_run`` in one call,
    which draws and marks exactly as :meth:`forward` hop by hop would.

    Args:
        ctx: the node's identity and key material.
        scheme: the deployed marking scheme.
        suppressor: optional duplicate suppressor
            (:class:`repro.filtering.DuplicateSuppressor`); duplicates are
            dropped before marking, which is the paper's first line of
            defense against replay attacks (Section 7).

    Attributes:
        node_id: ``ctx.node_id``, read once at construction.
    """

    def __init__(
        self,
        ctx: NodeContext,
        scheme: MarkingScheme,
        suppressor: object | None = None,
    ):
        self.ctx = ctx
        self.node_id = ctx.node_id
        self.scheme = scheme
        self.suppressor = suppressor

    def forward(self, packet: MarkedPacket) -> MarkedPacket | None:
        """Suppress duplicates, then apply the marking scheme."""
        if self.suppressor is not None and self.suppressor.is_duplicate(
            packet.report
        ):
            return None
        return self.scheme.on_forward(self.ctx, packet)

    def __repr__(self) -> str:
        return f"HonestForwarder(node={self.node_id}, scheme={self.scheme.name})"
