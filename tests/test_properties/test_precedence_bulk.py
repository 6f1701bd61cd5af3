"""The bulk precedence-graph build against the incremental one.

:meth:`PrecedenceGraph.from_edges` must build exactly the graph that
replaying its nodes and edges through ``add_chain`` builds: the same
closure (``reaches``, ``descendants``, ``ancestors``), the same edges,
roots and version, and the same :class:`RouteAnalysis`.  Random DAGs take
the reverse-topological path; graphs with loops, self-pairs and repeated
edges take the fallback.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traceback.reconstruct import PrecedenceGraph


def incremental(nodes, edges) -> PrecedenceGraph:
    graph = PrecedenceGraph()
    for node in nodes:
        graph.add_chain([node])
    for upstream, downstream in edges:
        graph.add_chain([upstream, downstream])
    return graph


def assert_same_graph(bulk: PrecedenceGraph, reference: PrecedenceGraph) -> None:
    observed = reference.observed
    assert bulk.observed == observed
    assert sorted(bulk.edges()) == sorted(reference.edges())
    assert bulk.version == reference.version
    probes = sorted(observed) + [max(observed, default=0) + 1]  # one unobserved
    for source in probes:
        assert bulk.descendants(source) == reference.descendants(source)
        assert bulk.ancestors(source) == reference.ancestors(source)
        assert bulk.predecessors(source) == reference.predecessors(source)
        for target in probes:
            assert bulk.reaches(source, target) == reference.reaches(source, target)
    assert bulk.analyze() == reference.analyze()


@st.composite
def dags(draw):
    """Edges that only point down one random order of the nodes."""
    size = draw(st.integers(0, 14))
    labels = draw(st.permutations(range(1, 40)))[:size]
    pairs = st.tuples(st.integers(0, max(size - 1, 0)), st.integers(0, max(size - 1, 0)))
    edges = [
        (labels[min(a, b)], labels[max(a, b)])
        for a, b in draw(st.lists(pairs, max_size=40))
        if size and a != b
    ]
    lone = draw(st.lists(st.sampled_from(labels), max_size=5)) if size else []
    return lone + labels[: draw(st.integers(0, size))], edges


@st.composite
def any_graphs(draw):
    """Arbitrary edges: loops, self-pairs and repeats allowed."""
    node = st.integers(1, 12)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    return draw(st.lists(node, max_size=6)), edges


class TestBulkBuild:
    @settings(max_examples=200, deadline=None)
    @given(graph=dags())
    def test_dag_matches_incremental(self, graph):
        nodes, edges = graph
        bulk = PrecedenceGraph.from_edges(nodes, edges)
        assert_same_graph(bulk, incremental(nodes, edges))
        assert not bulk.analyze().has_loop

    @settings(max_examples=200, deadline=None)
    @given(graph=any_graphs())
    def test_any_graph_matches_incremental(self, graph):
        nodes, edges = graph
        assert_same_graph(
            PrecedenceGraph.from_edges(nodes, edges), incremental(nodes, edges)
        )

    @settings(max_examples=50, deadline=None)
    @given(graph=any_graphs(), more=st.lists(st.lists(st.integers(1, 14), max_size=5)))
    def test_bulk_graph_keeps_growing_like_incremental(self, graph, more):
        # A bulk-built graph is a live graph: later chains update its
        # closure exactly as they would the incremental one's.
        nodes, edges = graph
        bulk, reference = PrecedenceGraph.from_edges(nodes, edges), incremental(nodes, edges)
        for chain_ids in more:
            bulk.add_chain(chain_ids)
            reference.add_chain(chain_ids)
            assert_same_graph(bulk, reference)

    def test_line_closure(self):
        graph = PrecedenceGraph.from_edges([], [(1, 2), (2, 3), (3, 4)])
        assert graph.descendants(1) == {1, 2, 3, 4}
        assert graph.ancestors(4) == {1, 2, 3, 4}
        assert graph.analyze().most_upstream == 1

    def test_loop_falls_back(self):
        graph = PrecedenceGraph.from_edges([], [(1, 2), (2, 1), (2, 3)])
        analysis = graph.analyze()
        assert analysis.loops == (frozenset({1, 2}),)
        assert analysis.loop_attachment == 3
