"""Anonymous-ID search strategies.

Resolving an anonymous ID means finding which node keys reproduce it.  The
sink can always search exhaustively over all node keys (Section 4.2 argues
this is feasible: millions of hashes per second against tens of packets per
second).  Section 7 notes that if the sink knows the topology it can narrow
the search to the one-hop neighbors of the previously verified node,
reducing complexity from ``O(N)`` to ``O(d)``.

With probabilistic marking not every hop leaves a mark, so consecutive
verified markers may be several hops apart; :class:`TopologyBoundedResolver`
therefore searches a configurable ``radius``-hop ball and the verifier falls
back to the exhaustive search when the bounded one fails.  The sink-cost
ablation bench quantifies the saving.
"""

from __future__ import annotations

from typing import Protocol

from repro.net.topology import Topology
from repro.packets.packet import MarkedPacket

__all__ = [
    "Resolver",
    "ExhaustiveResolver",
    "TopologyBoundedResolver",
    "AdaptiveBoundedResolver",
]


class Resolver(Protocol):
    """Chooses the key-search space for one mark's anonymous ID.

    A resolver may also define two feedback hooks, which
    :class:`~repro.traceback.verify.PacketVerifier` calls when present:
    ``notify_miss()`` after a bounded search missed a mark the exhaustive
    fallback found, and ``notify_packet_done()`` once per packet, after
    its last mark.
    """

    def search_ids(
        self, packet: MarkedPacket, prev_verified: int | None
    ) -> list[int] | None:
        """IDs to search for the next (more upstream) mark.

        Args:
            packet: the packet being verified.
            prev_verified: the real ID of the previously verified (i.e.
                immediately downstream) marker, or ``None`` when verifying
                the most downstream mark.

        Returns:
            Candidate node IDs, or ``None`` to search every known key.
        """
        ...


class ExhaustiveResolver:
    """Always search the sink's entire key table (Section 4.2)."""

    def search_ids(
        self, packet: MarkedPacket, prev_verified: int | None
    ) -> list[int] | None:
        """Return ``None``: search everything."""
        return None


class AdaptiveBoundedResolver:
    """A bounded resolver that widens itself when it misses.

    Starts from ``initial_radius`` and doubles the ball (up to
    ``max_radius``) every time the verifier reports that the bounded
    search missed and the exhaustive fallback was needed.  With
    probabilistic marking the right radius depends on ``1/p`` (the
    expected gap between markers), which the sink does not know a priori;
    this resolver converges onto it after a few packets instead of paying
    either permanent fallbacks (radius too small) or oversized balls.
    """

    def __init__(
        self,
        topology: Topology,
        initial_radius: int = 1,
        max_radius: int = 64,
    ):
        if initial_radius < 1:
            raise ValueError(f"initial_radius must be >= 1, got {initial_radius}")
        if max_radius < initial_radius:
            raise ValueError(
                f"max_radius {max_radius} < initial_radius {initial_radius}"
            )
        self._topology = topology
        self.radius = initial_radius
        self.max_radius = max_radius
        self.misses = 0

    def notify_miss(self) -> None:
        """Verifier feedback: the bounded search failed for a mark."""
        self.misses += 1
        self.radius = min(self.max_radius, self.radius * 2)

    def search_ids(
        self, packet: MarkedPacket, prev_verified: int | None
    ) -> list[int] | None:
        """The current-radius ball around the previously verified marker."""
        return TopologyBoundedResolver(self._topology, self.radius).search_ids(
            packet, prev_verified
        )


class TopologyBoundedResolver:
    """Search only nodes near the previously verified marker (Section 7).

    Args:
        topology: the deployment graph the sink learned (e.g. from nodes
            reporting their neighbors after deployment).
        radius: hop radius of the search ball.  ``1`` matches the paper's
            ``O(d)`` suggestion and suffices for deterministic nested
            marking; probabilistic marking skips hops, so a radius around
            ``ceil(2/p)`` keeps fallbacks rare.
    """

    def __init__(self, topology: Topology, radius: int = 1):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self._topology = topology
        self._radius = radius

    def search_ids(
        self, packet: MarkedPacket, prev_verified: int | None
    ) -> list[int] | None:
        """The fixed-radius ball around the previously verified marker."""
        center = self._topology.sink if prev_verified is None else prev_verified
        ball = {center}
        frontier = [center]
        for _ in range(self._radius):
            next_frontier = []
            for node in frontier:
                for nbr in self._topology.neighbors(node):
                    if nbr not in ball:
                        ball.add(nbr)
                        next_frontier.append(nbr)
            frontier = next_frontier
        return sorted(ball)
