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
packet rate (Section 4.2's feasibility argument): while it is loop-free
the source candidates are exactly the in-degree-zero nodes, kept up to
date as chains arrive; SCC work starts only once a new edge closes a loop.
"""

from __future__ import annotations

from collections.abc import Iterator, Set
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

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
    with the in-degree-zero nodes and a sticky "has a cycle" flag, so
    :meth:`analyze` costs O(1) per new evidence while the graph is
    loop-free and one SCC pass per new evidence once it is not.
    """

    def __init__(self) -> None:
        self._succ: dict[int, set[int]] = {}
        self._pred: dict[int, set[int]] = {}
        self._roots: set[int] = set()
        self._cyclic = False
        # Bumped on every new node or edge; keys the memoized analysis.
        self._version = 0
        self._analysis: RouteAnalysis | None = None
        self._analysis_version = -1

    def add_chain(self, chain_ids: list[int]) -> None:
        """Record one packet's verified marker chain (upstream first).

        A single-element chain only records the node's existence; longer
        chains add a precedence edge per consecutive pair.
        """
        succ, pred = self._succ, self._pred
        for node in chain_ids:
            if node not in succ:
                succ[node] = set()
                pred[node] = set()
                self._roots.add(node)
                self._version += 1
        for upstream, downstream in zip(chain_ids, chain_ids[1:], strict=False):
            if upstream == downstream or downstream in succ[upstream]:
                continue
            # Nothing reaches a node without upstream edges, so only then
            # can the new edge close a cycle.
            if not self._cyclic and pred[upstream]:
                self._cyclic = self.reaches(downstream, upstream)
            succ[upstream].add(downstream)
            pred[downstream].add(upstream)
            self._roots.discard(downstream)
            self._version += 1

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
        return target in self.descendants(source)

    def descendants(self, source: int) -> set[int]:
        """Every node ``source`` reaches, itself included (empty when
        ``source`` is unobserved)."""
        succ = self._succ
        if source not in succ:
            return set()
        seen = {source}
        frontier = [source]
        while frontier:
            for nxt in succ[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

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

        pred = self._pred
        components = self._strong_components()
        sources = [
            comp
            for comp in components
            if all(up in comp for member in comp for up in pred[member])
        ]
        loops = tuple(
            sorted((frozenset(comp) for comp in components if len(comp) > 1), key=min)
        )
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
            loops=loops,
            loop_attachment=loop_attachment,
        )

    def _strong_components(self) -> list[set[int]]:
        """Tarjan's strongly connected components, iteratively."""
        succ = self._succ
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []
        on_stack: set[int] = set()
        components: list[set[int]] = []
        for root in succ:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work: list[tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
            while work:
                node, children = work[-1]
                for child in children:
                    if child not in index:
                        index[child] = low[child] = len(index)
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(succ[child])))
                        break
                    if child in on_stack and index[child] < low[node]:
                        low[node] = index[child]
                else:
                    work.pop()
                    if work and low[node] < low[work[-1][0]]:
                        low[work[-1][0]] = low[node]
                    if low[node] == index[node]:
                        component = set()
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.add(member)
                            if member == node:
                                break
                        components.append(component)
        return components

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

    def to_networkx(self) -> nx.DiGraph:
        """A networkx copy of the precedence digraph (an export only)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._succ)
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:
        edges = sum(1 for _ in self.edges())
        return f"PrecedenceGraph({len(self._succ)} nodes, {edges} edges)"
