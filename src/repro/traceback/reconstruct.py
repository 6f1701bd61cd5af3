"""Route reconstruction from verified mark chains (Section 4.2).

The sink maintains a *precedence graph* over verified markers: whenever two
consecutive MACs within one packet verify, the earlier marker is upstream
of the later one (the matrix ``M`` of the paper).  As packets accumulate,
the graph converges to the forwarding order.

Two route shapes can emerge:

* **loop-free** -- all attacks except identity swapping.  The source mole
  (or a mark-removing forwarding mole) appears in the one-hop neighborhood
  of the *most upstream* node: the unique node with no upstream edge.
* **loops** -- identity swapping (Section 4.2, Figure 2): two moles leave
  valid marks with each other's keys, so each appears both upstream and
  downstream of the other, forming a strongly connected component.  The
  remaining nodes still form a line to the sink, and a mole is within one
  hop of the line node where the loop attaches (Theorem 4's proof).

The graph is maintained incrementally, so the sink keeps up with the
packet rate (Section 4.2's feasibility argument).  Besides the edges it
keeps the reflexive transitive closure of the upstream relation: for
every node, the set it reaches and the set that reaches it.  A new edge
updates both only when it orders two nodes that were not ordered yet,
so every reachability question -- loop membership, source components,
the loop's attachment point, the most upstream tamper stop -- is a set
lookup, and no strongly-connected-component pass remains.  The closure
holds O(sum over nodes of their reach) entries: at most n^2 for n
observed markers, about n^2/2 on a line.  A finished edge set, such as
the merged evidence of a sharded sink, is built in bulk instead
(:meth:`PrecedenceGraph.from_edges`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Set
from dataclasses import dataclass
from itertools import chain

__all__ = ["PrecedenceGraph", "RouteAnalysis"]


@dataclass(frozen=True)
class RouteAnalysis:
    """A snapshot interpretation of the precedence graph.

    Attributes:
        observed: every node with at least one verified mark so far.
        source_candidates: nodes that could still be the most upstream:
            members of source components (in-degree-0 components of the
            SCC condensation).
        unequivocal: True when exactly one source component exists and it
            is a single node -- the sink has pinned down the most upstream
            marker (Figures 6/7's success criterion).
        most_upstream: that node when ``unequivocal``, else ``None``.
        loops: node sets of all non-trivial strongly connected components
            (identity-swapping signatures), ordered by smallest member.
        loop_attachment: when a loop is the unique source component, the
            most upstream *line* node it feeds into -- the paper's
            "intersection of the loop and the line"; ``None`` if the loop
            connects straight to the sink (no line nodes observed) or no
            loop exists.
    """

    observed: frozenset[int]
    source_candidates: frozenset[int]
    unequivocal: bool
    most_upstream: int | None
    loops: tuple[frozenset[int], ...]
    loop_attachment: int | None

    @property
    def has_loop(self) -> bool:
        return bool(self.loops)


class PrecedenceGraph:
    """Accumulates upstream/downstream evidence across packets.

    Edges mean "verified directly before within some packet", i.e. the
    upstream relation of Section 4.2's matrix ``M``.  Successor and
    predecessor sets are kept per node (in first-seen order) together
    with the in-degree-zero nodes, a sticky "has a cycle" flag and the
    reflexive transitive closure (``_desc``: the nodes a node reaches;
    ``_anc``: the nodes that reach it).  :meth:`analyze` costs O(1) per
    new evidence while the graph is loop-free; once it is not, a node's
    strongly connected component is ``_desc[x] & _anc[x]``, read off
    the closure rather than found by a graph walk.
    """

    def __init__(self) -> None:
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        self._roots: set[int] = set()
        self._desc: dict[int, set[int]] = {}
        self._anc: dict[int, set[int]] = {}
        self._cyclic = False
        # Bumped on every new node or edge; keys the memoized analysis.
        self._version = 0
        self._analysis: RouteAnalysis | None = None
        self._analysis_version = -1

    @classmethod
    def from_edges(
        cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]]
    ) -> PrecedenceGraph:
        """The graph ``add_chain([node])`` per node, then ``add_chain([u,
        v])`` per edge, would build -- in bulk when the edges are acyclic.

        An acyclic graph's closure comes from one pass of unions in
        reverse topological order (and its ancestor sets from one in
        topological order) instead of the per-edge upkeep; a cycle falls
        back to replaying the edges through :meth:`add_chain`.
        """
        nodes, edges = list(nodes), list(edges)
        graph = cls()
        succ, pred = graph._succ, graph._pred
        for node in [*nodes, *chain.from_iterable(edges)]:
            if node not in succ:
                succ[node], pred[node] = set(), set()
        for upstream, downstream in edges:
            if upstream != downstream:
                succ[upstream].add(downstream)
                pred[downstream].add(upstream)
        # Kahn's order: a node follows all of its predecessors.
        waiting = {node: len(above) for node, above in pred.items()}
        order = [node for node, count in waiting.items() if not count]
        for node in order:
            for below in succ[node]:
                waiting[below] -= 1
                if not waiting[below]:
                    order.append(below)
        if len(order) < len(succ):
            graph = cls()
            for node in nodes:
                graph.add_chain([node])
            for edge in edges:
                graph.add_chain(list(edge))
            return graph
        desc, anc = graph._desc, graph._anc
        for node in reversed(order):
            reach = {node}
            for below in succ[node]:
                reach |= desc[below]
            desc[node] = reach
        for node in order:
            reach = {node}
            for above in pred[node]:
                reach |= anc[above]
            anc[node] = reach
        graph._roots = {node for node in succ if not pred[node]}
        graph._version = len(succ) + sum(map(len, succ.values()))
        return graph

    def add_chain(self, chain_ids: list[int]) -> None:
        """Record one packet's verified marker chain (upstream first).

        A single-element chain only records the node's existence; longer
        chains add a precedence edge per consecutive pair.
        """
        succ, pred, desc, anc = self._succ, self._pred, self._desc, self._anc
        for node in chain_ids:
            if node not in succ:
                succ[node] = set()
                pred[node] = set()
                desc[node] = {node}
                anc[node] = {node}
                self._roots.add(node)
                self._version += 1
        for upstream, downstream in zip(chain_ids, chain_ids[1:], strict=False):
            if upstream == downstream or downstream in succ[upstream]:
                continue
            succ[upstream].add(downstream)
            pred[downstream].add(upstream)
            self._roots.discard(downstream)
            self._version += 1
            if downstream in desc[upstream]:
                continue  # already ordered: the closure stands
            # Everything at or above ``upstream`` now reaches everything
            # at or below ``downstream``.  Neither operand changes while
            # it is read: when the edge closes a loop, ``below`` is only
            # unioned with itself, and so is ``above``.
            below, above = desc[downstream], anc[upstream]
            self._cyclic = self._cyclic or upstream in below
            for node in above:
                desc[node] |= below
            for node in below:
                anc[node] |= above

    @property
    def observed(self) -> set[int]:
        """All nodes seen in at least one verified chain."""
        return set(self._succ)

    def observed_count(self) -> int:
        """Number of distinct verified markers seen so far."""
        return len(self._succ)

    def has_edge(self, upstream: int, downstream: int) -> bool:
        """Whether a direct upstream->downstream observation exists."""
        return downstream in self._succ.get(upstream, ())

    @property
    def version(self) -> int:
        """A counter bumped on every new node or edge."""
        return self._version

    def predecessors(self, node: int) -> Set[int]:
        """Direct upstream neighbors recorded for ``node`` (empty when
        unobserved): a live view, not a copy; callers must not mutate it."""
        return self._pred.get(node, frozenset())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every ``(upstream, downstream)`` observation."""
        for upstream, downstream_set in self._succ.items():
            for downstream in downstream_set:
                yield upstream, downstream

    def reaches(self, source: int, target: int) -> bool:
        """Whether the evidence orders ``source`` at or above ``target``.

        True when a directed path leads from ``source`` to ``target``
        (a node reaches itself); False when either node is unobserved.
        """
        return target in self._desc.get(source, ())

    def descendants(self, source: int) -> Set[int]:
        """Every node ``source`` reaches, itself included (empty when
        ``source`` is unobserved): a live view, not a copy; callers must
        not mutate it."""
        return self._desc.get(source, frozenset())

    def ancestors(self, target: int) -> Set[int]:
        """Every node that reaches ``target``, itself included (empty when
        ``target`` is unobserved): a live view, not a copy; callers must
        not mutate it."""
        return self._anc.get(target, frozenset())

    def analyze(self) -> RouteAnalysis:
        """Interpret the current evidence (see :class:`RouteAnalysis`).

        The result is memoized until the next new node or edge.
        """
        if self._analysis_version != self._version:
            self._analysis = self._analyze()
            self._analysis_version = self._version
        assert self._analysis is not None
        return self._analysis

    def _analyze(self) -> RouteAnalysis:
        if not self._cyclic:
            # A DAG's source components are its in-degree-zero nodes.
            roots = self._roots
            most_upstream = next(iter(roots)) if len(roots) == 1 else None
            return RouteAnalysis(
                observed=frozenset(self._succ),
                source_candidates=frozenset(roots),
                unequivocal=most_upstream is not None,
                most_upstream=most_upstream,
                loops=(),
                loop_attachment=None,
            )

        # A node's strongly connected component is what it both reaches
        # and is reached by; the component is a source component when
        # nothing outside it reaches the node.
        desc, anc = self._desc, self._anc
        sources: list[set[int]] = []
        loops: list[frozenset[int]] = []
        placed: set[int] = set()
        for node in self._succ:
            if node in placed:
                continue
            component = desc[node] & anc[node]
            placed |= component
            if len(component) > 1:
                loops.append(frozenset(component))
            if len(anc[node]) == len(component):
                sources.append(component)
        most_upstream: int | None = None
        loop_attachment: int | None = None
        if len(sources) == 1:
            (members,) = sources
            if len(members) == 1:
                most_upstream = next(iter(members))
            else:
                # The unique source component is a loop: find the most
                # upstream line node, i.e. the loop's attachment point.
                loop_attachment = self._attachment_point(members)
        return RouteAnalysis(
            observed=frozenset(self._succ),
            source_candidates=frozenset().union(*sources),
            unequivocal=most_upstream is not None,
            most_upstream=most_upstream,
            loops=tuple(sorted(loops, key=min)),
            loop_attachment=loop_attachment,
        )

    def _attachment_point(self, loop: Set[int]) -> int | None:
        """The line node the loop feeds into (Figure 2's intersection).

        Line nodes reachable from the loop whose *only* upstream evidence
        comes from the loop are directly downstream of it; among those the
        most upstream one is the attachment.  If the loop has no outgoing
        edges (it delivered straight to the sink) there is no line node.
        """
        direct = {
            succ
            for member in sorted(loop)
            for succ in self._succ[member]
            if succ not in loop
        }
        if not direct:
            return None
        # Among nodes directly downstream of the loop, the attachment is
        # the one not downstream of any other direct successor (i.e. the
        # most upstream of them on the line).
        for node in sorted(direct):
            if not any(
                self.reaches(other, node) for other in sorted(direct) if other != node
            ):
                return node
        return min(direct)

    def __repr__(self) -> str:
        edges = sum(1 for _ in self.edges())
        return f"PrecedenceGraph({len(self._succ)} nodes, {edges} edges)"
