"""Route repair: rebuilding the forwarding tree around dead nodes.

PNM's traceback window assumes routes stay stable for a few seconds
(Section 7), but a deployment that runs for weeks sees nodes crash, drain
their batteries, and come back after maintenance.  Collection-tree
protocols handle this with *local repair*: when a node's parent stops
acknowledging, the node retries a bounded number of times, declares the
parent dead, and re-parents on another live neighbor that still has a
route.  This module provides both halves:

* :class:`RepairPolicy` -- how many retransmissions a sender attempts,
  and with what backoff, before declaring its next hop dead.  The
  simulator (:class:`~repro.sim.network.NetworkSimulation`) drives the
  retries on its virtual clock.
* :class:`RepairingRoutingTable` -- a routing table that accepts
  ``mark_dead``/``mark_alive`` notifications and deterministically
  rebuilds the forwarding tree over the surviving nodes.  The rebuilt
  tree is exactly the BFS tree of the alive subgraph (lowest-ID parent
  tie-break), i.e. the state local repair converges to; nodes that lose
  every path to the sink become unrouted until a recovery reconnects
  them.

Repair deliberately preserves nothing about upstream order: a repaired
route can reorder nodes relative to the original tree, which is exactly
the regime *On Algebraic Traceback in Dynamic Networks* warns about and
what the fault experiments (:mod:`repro.faults`) stress.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.routing.base import RoutingTable

__all__ = ["RepairPolicy", "RepairingRoutingTable"]


@dataclass(frozen=True)
class RepairPolicy:
    """Retry-and-backoff discipline for detecting a dead next hop.

    A sender whose next hop does not acknowledge retries the
    transmission ``max_retries`` times, waiting
    ``backoff_base * backoff_factor ** attempt`` seconds (virtual time)
    before each retry, then declares the hop dead and asks the routing
    layer for a repair.

    Attributes:
        max_retries: retransmissions before declaring the hop dead.
        backoff_base: delay in seconds before the first retry.
        backoff_factor: multiplicative backoff growth per attempt.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base <= 0:
            raise ValueError(f"backoff_base must be > 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return self.backoff_base * self.backoff_factor**attempt


class RepairingRoutingTable(RoutingTable):
    """A routing table that survives node deaths by local tree rebuilds.

    Starts from a BFS shortest-path tree (or any provided base table)
    and mutates its next-hop map as nodes are reported dead or alive.
    Rebuilds are deterministic -- BFS over the alive subgraph with
    lowest-ID parent tie-breaking -- so two runs seeing the same death
    sequence produce identical routes.

    Dead nodes neither forward (they lose their table entry) nor serve
    as parents; nodes cut off from the sink become unrouted and
    :meth:`~repro.routing.base.RoutingTable.next_hop` raises
    :class:`~repro.routing.base.RoutingError` for them until a
    ``mark_alive`` restores connectivity.

    Args:
        topology: the deployment graph (connectivity never changes; only
            liveness does).
        base: initial routes; defaults to the deterministic BFS tree.
        obs: observability provider; ``None`` resolves to the process
            default.  Rebuilds are timed (``route_rebuild_seconds``) and
            counted (``route_repairs_total``).
    """

    def __init__(
        self,
        topology: Topology,
        base: RoutingTable | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.obs = resolve_provider(obs)
        if base is None:
            # Equivalent to build_routing_tree(topology) but shares the
            # rebuild path so initial and repaired routes agree in style.
            base_map = self._tree_over(topology, dead=frozenset())
        else:
            if base.sink != topology.sink:
                raise ValueError(
                    f"base table sink {base.sink} != topology sink {topology.sink}"
                )
            base_map = base.as_dict()
        super().__init__(base_map, sink=topology.sink)
        self.topology = topology
        self._dead: set[int] = set()
        self.repairs = 0
        self.routes_changed = 0

    @staticmethod
    def _tree_over(topology: Topology, dead: frozenset[int]) -> dict[int, int]:
        """Deterministic BFS next-hop map over the alive subgraph."""
        dist: dict[int, int] = {topology.sink: 0}
        frontier = [topology.sink]
        while frontier:
            next_frontier = []
            for node in sorted(frontier):
                for nbr in sorted(topology.neighbors(node)):
                    if nbr in dist or nbr in dead:
                        continue
                    dist[nbr] = dist[node] + 1
                    next_frontier.append(nbr)
            frontier = next_frontier
        next_hop: dict[int, int] = {}
        for node, depth in dist.items():
            if node == topology.sink:
                continue
            parents = sorted(
                nbr
                for nbr in topology.neighbors(node)
                if dist.get(nbr) == depth - 1
            )
            next_hop[node] = parents[0]
        return next_hop

    # Liveness notifications ---------------------------------------------------

    def mark_dead(self, node_id: int) -> int:
        """Record that ``node_id`` stopped forwarding; rebuild around it.

        Returns:
            How many nodes' next hops changed (0 if the node was already
            known dead).

        Raises:
            ValueError: if the sink is declared dead -- it is the trusted
                root and its failure is out of scope.
        """
        if node_id == self.sink:
            raise ValueError("the sink cannot be declared dead")
        if node_id in self._dead:
            return 0
        self._dead.add(node_id)
        return self._rebuild()

    def mark_alive(self, node_id: int) -> int:
        """Record that ``node_id`` recovered; re-admit it to the tree.

        Returns:
            How many nodes' next hops changed (0 if it was not dead).
        """
        if node_id not in self._dead:
            return 0
        self._dead.discard(node_id)
        return self._rebuild()

    def _rebuild(self) -> int:
        with self.obs.timer("route_rebuild_seconds"):
            old = dict(self._next_hop)
            new = self._tree_over(self.topology, dead=frozenset(self._dead))
            self._next_hop.clear()
            self._next_hop.update(new)
            changed = sum(
                1
                for node in sorted(set(old) | set(new))
                if old.get(node) != new.get(node)
            )
        self.repairs += 1
        self.routes_changed += changed
        self.obs.inc("route_repairs_total")
        return changed

    def __repr__(self) -> str:
        return (
            f"RepairingRoutingTable({len(self._next_hop)} routed nodes, "
            f"sink={self.sink}, dead={sorted(self._dead)}, "
            f"repairs={self.repairs})"
        )
