"""Precedence graph and route analysis."""

import subprocess
import sys
import textwrap

from repro.traceback.reconstruct import PrecedenceGraph


class TestChains:
    def test_single_node_chain_observes(self):
        g = PrecedenceGraph()
        g.add_chain([5])
        assert g.observed == {5}
        assert g.predecessors(5) == set()
        assert g.predecessors(6) == set()  # unobserved

    def test_pair_adds_edge(self):
        g = PrecedenceGraph()
        g.add_chain([1, 2])
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_chain_adds_consecutive_edges_only(self):
        g = PrecedenceGraph()
        g.add_chain([1, 3, 7])
        assert g.has_edge(1, 3) and g.has_edge(3, 7)
        assert not g.has_edge(1, 7)

    def test_duplicate_ids_do_not_self_loop(self):
        g = PrecedenceGraph()
        g.add_chain([4, 4])
        assert not g.has_edge(4, 4)

    def test_empty_chain_noop(self):
        g = PrecedenceGraph()
        g.add_chain([])
        assert g.observed_count() == 0


class TestAnalysisLoopFree:
    def test_empty_graph(self):
        a = PrecedenceGraph().analyze()
        assert not a.unequivocal
        assert a.source_candidates == frozenset()
        assert not a.has_loop

    def test_single_chain_unequivocal(self):
        g = PrecedenceGraph()
        g.add_chain([1, 2, 3])
        a = g.analyze()
        assert a.unequivocal
        assert a.most_upstream == 1

    def test_two_isolated_nodes_equivocal(self):
        g = PrecedenceGraph()
        g.add_chain([1])
        g.add_chain([2])
        a = g.analyze()
        assert not a.unequivocal
        assert a.source_candidates == {1, 2}

    def test_transitive_merge_of_chains(self):
        g = PrecedenceGraph()
        g.add_chain([1, 3])
        g.add_chain([2, 3])
        a = g.analyze()
        # Order between 1 and 2 unknown: both are candidates.
        assert not a.unequivocal
        assert a.source_candidates == {1, 2}
        g.add_chain([1, 2])
        a = g.analyze()
        assert a.unequivocal and a.most_upstream == 1

    def test_interleaved_chains_resolve(self):
        g = PrecedenceGraph()
        g.add_chain([1, 4, 7])
        g.add_chain([2, 4])
        g.add_chain([1, 2])
        g.add_chain([4, 5, 6])
        a = g.analyze()
        assert a.unequivocal
        assert a.most_upstream == 1
        assert a.observed == {1, 2, 4, 5, 6, 7}


class TestAnalysisLoops:
    def test_identity_swap_loop_detected(self):
        g = PrecedenceGraph()
        # S(=10) before X(=3) in some packets, X before S in others; line
        # nodes 4, 5 downstream.
        g.add_chain([10, 1, 2, 3, 4, 5])
        g.add_chain([3, 1, 2, 10, 4, 5])
        a = g.analyze()
        assert a.has_loop
        assert any({10, 3} <= loop for loop in a.loops)
        assert not a.unequivocal

    def test_loop_attachment_is_most_upstream_line_node(self):
        g = PrecedenceGraph()
        g.add_chain([10, 1, 3, 4, 5])
        g.add_chain([3, 1, 10, 4, 5])
        a = g.analyze()
        assert a.loop_attachment == 4

    def test_loop_with_no_line(self):
        g = PrecedenceGraph()
        g.add_chain([1, 2])
        g.add_chain([2, 1])
        a = g.analyze()
        assert a.has_loop
        assert a.loop_attachment is None

    def test_loop_plus_separate_source_is_equivocal(self):
        g = PrecedenceGraph()
        g.add_chain([1, 2])
        g.add_chain([2, 1])
        g.add_chain([7, 8])
        a = g.analyze()
        assert a.has_loop
        assert a.loop_attachment is None  # two source components
        assert not a.unequivocal


class TestIncrementalState:
    def test_analysis_is_memoized_until_new_evidence(self):
        g = PrecedenceGraph()
        g.add_chain([1, 2, 3])
        first = g.analyze()
        assert g.analyze() is first
        g.add_chain([2, 3])  # nothing new: same snapshot
        assert g.analyze() is first
        g.add_chain([0, 1])
        assert g.analyze() is not first
        assert g.analyze().most_upstream == 0


def test_verdict_path_does_not_import_networkx():
    """Verdicts, evidence export and the coordinator verdict run on the
    incremental graph alone: networkx is never imported."""
    script = textwrap.dedent(
        """
        import sys
        from repro.cluster.coordinator import ClusterCoordinator, verdict_json
        from repro.core.build import build_scenario
        from repro.core.scenario import Scenario

        for attack in ("identity-swap", "alter", "no-mark"):
            built = build_scenario(
                Scenario(n_forwarders=8, scheme="pnm", attack=attack, seed=3)
            )
            built.pipeline.push_many(40)
            live = built.sink.verdict()
            merged = ClusterCoordinator(built.topology).verdict(
                built.sink.evidence()
            )
            assert verdict_json(live) == verdict_json(merged)
        assert "networkx" not in sys.modules, "networkx imported"
        """
    )
    result = subprocess.run(  # noqa: S603
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
