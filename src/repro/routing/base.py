"""Routing table abstraction shared by all routing protocols.

A routing table is a pure next-hop function: when routes are stable, every
node has exactly one next-hop neighbor for the sink and forwards all packets
through it (Section 2.1).  The table also answers path queries, which the
experiment harness uses to enumerate the forwarding nodes ``V_1 ... V_n``
between a source and the sink.
"""

from __future__ import annotations

from collections.abc import Mapping

__all__ = ["RoutingTable", "RoutingError"]


class RoutingError(RuntimeError):
    """Raised when a route to the sink does not exist or loops."""


class RoutingTable:
    """Immutable next-hop table toward a single sink.

    Args:
        next_hop: mapping from node ID to its unique next-hop neighbor.
            The sink must not appear as a key.
        sink: the destination all routes lead to.
    """

    def __init__(self, next_hop: Mapping[int, int], sink: int):
        if sink in next_hop:
            raise ValueError("sink must not have a next hop")
        self._next_hop = dict(next_hop)
        self.sink = sink

    def next_hop(self, node_id: int) -> int:
        """The unique neighbor ``node_id`` forwards through.

        Raises:
            RoutingError: if the node has no route.
        """
        if node_id == self.sink:
            raise RoutingError("the sink does not forward")
        try:
            return self._next_hop[node_id]
        except KeyError:
            raise RoutingError(f"node {node_id} has no route to the sink") from None

    def path_to_sink(self, node_id: int) -> list[int]:
        """The full path ``[node_id, ..., sink]``.

        Raises:
            RoutingError: if the route is missing or contains a loop.
        """
        path = [node_id]
        seen = {node_id}
        current = node_id
        while current != self.sink:
            current = self.next_hop(current)
            if current in seen:
                raise RoutingError(
                    f"routing loop detected at node {current} "
                    f"on path from {node_id}"
                )
            seen.add(current)
            path.append(current)
        return path

    def forwarders_between(self, source: int) -> list[int]:
        """The intermediate nodes ``V_1 ... V_n`` between ``source`` and sink.

        ``V_1`` is the source's next hop (most upstream forwarder); ``V_n``
        delivers to the sink.  Excludes both the source and the sink.
        """
        return self.path_to_sink(source)[1:-1]

    def hop_count(self, node_id: int) -> int:
        """Number of hops from ``node_id`` to the sink."""
        return len(self.path_to_sink(node_id)) - 1

    def routed_nodes(self) -> list[int]:
        """All nodes that currently have a route (excluding the sink)."""
        return sorted(self._next_hop)

    def as_dict(self) -> dict[int, int]:
        """A copy of the raw next-hop mapping."""
        return dict(self._next_hop)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return self.sink == other.sink and self._next_hop == other._next_hop

    def __repr__(self) -> str:
        return f"RoutingTable({len(self._next_hop)} routed nodes, sink={self.sink})"
