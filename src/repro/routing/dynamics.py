"""Controlled route churn for the Section 7 routing-dynamics ablation.

PNM assumes routes are stable during the traceback window (about 10 seconds
for a 40-hop trace, Section 7).  The paper argues that even if routes do
change, traceback still succeeds *as long as the relative upstream relation
among nodes is preserved*.  :class:`RouteDynamics` generates sequences of
routing tables in two regimes so the ablation bench can test both halves of
that claim:

* ``order_preserving=True`` -- re-break BFS parent ties, which yields a
  different shortest-path tree but never inverts who is upstream of whom on
  the source's path (all trees are depth-consistent).
* ``order_preserving=False`` -- additionally allow "detour" parents one
  depth *equal* (sideways), which can reorder nodes on the path.
"""

from __future__ import annotations

import random

from repro.net.topology import Topology
from repro.routing.base import RoutingTable
from repro.routing.tree import build_routing_tree

__all__ = ["RouteDynamics"]


class RouteDynamics:
    """A deterministic generator of successive routing tables.

    Args:
        topology: the deployment.
        seed: RNG seed controlling the whole table sequence.
        order_preserving: see module docstring.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        order_preserving: bool = True,
    ):
        self._topology = topology
        self._rng = random.Random(f"route-dynamics:{seed}")
        self._order_preserving = order_preserving

    def next_table(self) -> RoutingTable:
        """Produce the next routing table in the churn sequence."""
        if self._order_preserving:
            return build_routing_tree(
                self._topology, tie_break_seed=self._rng.randrange(2**31)
            )
        return self._sideways_table()

    def _sideways_table(self) -> RoutingTable:
        """A tree where some nodes parent on an equal-depth neighbor.

        A node may forward "sideways" to a same-depth neighbor whose own
        parent is at the previous depth.  Paths remain loop-free (the
        sideways hop is taken at most once per node because the sideways
        parent immediately descends), but two nodes at the same depth can
        now appear in either relative order on a path, breaking the
        upstream-order invariant.
        """
        depths = self._topology.hop_distances()
        base = build_routing_tree(
            self._topology, tie_break_seed=self._rng.randrange(2**31)
        )
        next_hop = base.as_dict()
        for node in list(next_hop):
            same_depth = [
                nbr
                for nbr in self._topology.neighbors(node)
                if depths.get(nbr) == depths[node] and nbr in next_hop
                # Only detour via a neighbor that itself descends, so the
                # sideways step cannot chain into a loop.
                and depths.get(next_hop[nbr]) == depths[node] - 1
            ]
            if same_depth and self._rng.random() < 0.3:
                next_hop[node] = self._rng.choice(same_depth)
        table = RoutingTable(next_hop, sink=self._topology.sink)
        # Guard: the construction above cannot loop, but verify cheaply.
        for node in table.routed_nodes():
            table.path_to_sink(node)
        return table
