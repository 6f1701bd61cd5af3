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
    "SearchSets",
    "ExhaustiveResolver",
    "TopologyBoundedResolver",
    "AdaptiveBoundedResolver",
]


class SearchSets(Protocol):
    """One packet's search sets, keyed by the previously verified node."""

    def __getitem__(self, prev_verified: int | None) -> list[int] | None:
        """IDs to search for the mark upstream of ``prev_verified``.

        ``prev_verified`` is the real ID of the previously verified (i.e.
        immediately downstream) marker, or ``None`` for the most
        downstream mark.  ``None`` as the answer searches every known key.
        Callers must not mutate the returned list.
        """
        ...


class Resolver(Protocol):
    """Chooses the key-search space for a packet's anonymous IDs.

    :class:`~repro.traceback.verify.PacketVerifier` asks once per packet
    (:meth:`search_sets`) and then subscripts the answer once per mark, so
    whatever a resolver can decide per packet it decides once.

    A resolver may also define two feedback hooks, which the verifier
    calls when present: ``notify_miss()`` after a bounded search missed a
    mark the exhaustive fallback found, and ``notify_packet_done(searches)``
    once per packet, after its last mark, with the number of its marks
    that searched a bounded set.
    """

    def search_sets(self, packet: MarkedPacket) -> SearchSets | None:
        """The search sets for ``packet``'s marks.

        Returns:
            A mapping from the previously verified node to the IDs to
            search (see :class:`SearchSets`), or ``None`` to search every
            known key for every mark.
        """
        ...


class ExhaustiveResolver:
    """Always search the sink's entire key table (Section 4.2)."""

    def search_sets(self, packet: MarkedPacket) -> SearchSets | None:
        """Return ``None``: search everything."""
        return None


class _Balls(dict[int | None, list[int]]):
    """``center -> sorted radius-hop ball`` over a topology, filled on
    first lookup; the key ``None`` stands for the sink.  A
    :class:`Topology` never changes, so a ball never goes stale."""

    def __init__(self, topology: Topology, radius: int):
        super().__init__()
        self._topology = topology
        self._radius = radius

    def __missing__(self, key: int | None) -> list[int]:
        topology = self._topology
        center = topology.sink if key is None else key
        ball = {center}
        frontier = [center]
        for _ in range(self._radius):
            next_frontier = []
            for node in frontier:
                for nbr in topology.neighbors(node):
                    if nbr not in ball:
                        ball.add(nbr)
                        next_frontier.append(nbr)
            frontier = next_frontier
        found = self[key] = sorted(ball)
        return found


class AdaptiveBoundedResolver:
    """A bounded resolver that widens itself when it misses.

    Starts from ``initial_radius`` and doubles the ball (up to
    ``max_radius``) every time the verifier reports that the bounded
    search missed and the exhaustive fallback was needed.  With
    probabilistic marking the right radius depends on ``1/p`` (the
    expected gap between markers), which the sink does not know a priori;
    this resolver converges onto it after a few packets instead of paying
    either permanent fallbacks (radius too small) or oversized balls.

    The resolver is its own per-packet mapping: each lookup reads the
    ball of the current radius, so a miss widens the search for the very
    next mark of the same packet.  Balls are memoized per radius.
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
        self._balls = {initial_radius: _Balls(topology, initial_radius)}

    def notify_miss(self) -> None:
        """Verifier feedback: the bounded search failed for a mark."""
        self.misses += 1
        self.radius = radius = min(self.max_radius, self.radius * 2)
        if radius not in self._balls:
            self._balls[radius] = _Balls(self._topology, radius)

    def search_sets(self, packet: MarkedPacket) -> SearchSets:
        """This resolver: the current-radius ball around each marker."""
        return self

    def __getitem__(self, prev_verified: int | None) -> list[int]:
        """The current-radius ball around ``prev_verified`` (``None``:
        the sink)."""
        return self._balls[self.radius][prev_verified]


class TopologyBoundedResolver:
    """Search only nodes near the previously verified marker (Section 7).

    Args:
        topology: the deployment graph the sink learned (e.g. from nodes
            reporting their neighbors after deployment).
        radius: hop radius of the search ball.  ``1`` matches the paper's
            ``O(d)`` suggestion and suffices for deterministic nested
            marking; probabilistic marking skips hops, so a radius around
            ``ceil(2/p)`` keeps fallbacks rare.

    Each ball is computed once, on first use, and kept.
    """

    def __init__(self, topology: Topology, radius: int = 1):
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self._balls = _Balls(topology, radius)

    def search_sets(self, packet: MarkedPacket) -> SearchSets:
        """The fixed-radius ball around each previously verified marker."""
        return self._balls
