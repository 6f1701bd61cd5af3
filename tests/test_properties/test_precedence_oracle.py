"""The incremental precedence graph against a networkx oracle.

The reference below is the straightforward networkx formulation of the
reachability closure (``nx.descendants``/``nx.ancestors`` per node), of
the route analysis (SCC condensation per call) and of the tamper-stop
localizer (pairwise ``has_path``).  Random chain streams -- with repeated
chains, self-pairs and identity-swap loops -- must give the same closure
after every chain, the same :class:`RouteAnalysis` and byte-identical
verdicts from the incremental graph, however ``analyze`` calls
interleave with new evidence.
"""

from collections.abc import Mapping

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import verdict_json
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.topology import Topology, linear_path_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.traceback.localize import SuspectNeighborhood, localize
from repro.traceback.reconstruct import PrecedenceGraph, RouteAnalysis
from repro.traceback.sink import (
    TracebackSink,
    TracebackVerdict,
    _tamper_suspect,
    compute_verdict,
    evidence_precedence,
)
from repro.traceback.verify import PacketVerification, VerifiedMark

N_FORWARDERS = 6
TOPOLOGY, _SOURCE = linear_path_topology(N_FORWARDERS)
MARKERS = sorted(TOPOLOGY.sensor_nodes())
KEYSTORE = KeyStore.from_master_secret(b"oracle", MARKERS)
PROVIDER = KeyedHashProvider(mac_len=4, anon_id_len=4)
SCHEME = PNMMarking(mark_prob=0.5)


# The reference ---------------------------------------------------------------


def reference_graph(chains: list[list[int]]) -> nx.DiGraph:
    graph = nx.DiGraph()
    for chain in chains:
        graph.add_nodes_from(chain)
        graph.add_edges_from(
            (u, v) for u, v in zip(chain, chain[1:], strict=False) if u != v
        )
    return graph


def reference_attachment(graph: nx.DiGraph, loop: set[int]) -> int | None:
    direct = {
        succ
        for member in sorted(loop)
        for succ in graph.successors(member)
        if succ not in loop
    }
    if not direct:
        return None
    for node in sorted(direct):
        others = direct - {node}
        if not others:
            return node
        if not any(nx.has_path(graph, other, node) for other in sorted(others)):
            return node
    return min(direct)


def reference_analysis(graph: nx.DiGraph) -> RouteAnalysis:
    if graph.number_of_nodes() == 0:
        return RouteAnalysis(frozenset(), frozenset(), False, None, (), None)
    components = list(nx.strongly_connected_components(graph))
    condensation = nx.condensation(graph, scc=components)
    source_comps = [c for c in condensation.nodes if condensation.in_degree(c) == 0]
    # networkx yields components in traversal order; the analysis
    # promises loops ordered by smallest member.
    loops = tuple(
        sorted((frozenset(m) for m in components if len(m) > 1), key=min)
    )
    candidates: set[int] = set()
    for comp in source_comps:
        candidates.update(condensation.nodes[comp]["members"])
    unequivocal = False
    most_upstream = None
    loop_attachment = None
    if len(source_comps) == 1:
        members = condensation.nodes[source_comps[0]]["members"]
        if len(members) == 1:
            unequivocal = True
            most_upstream = next(iter(members))
        else:
            loop_attachment = reference_attachment(graph, set(members))
    return RouteAnalysis(
        observed=frozenset(graph.nodes),
        source_candidates=frozenset(candidates),
        unequivocal=unequivocal,
        most_upstream=most_upstream,
        loops=loops,
        loop_attachment=loop_attachment,
    )


def reference_tamper_suspect(
    graph: nx.DiGraph, tamper_stops: Mapping[int, int], topology: Topology
) -> SuspectNeighborhood | None:
    if not tamper_stops:
        return None
    stops = sorted(tamper_stops)

    def reached_by(node: int, others: list[int]) -> bool:
        return any(
            other != node
            and other in graph
            and node in graph
            and nx.has_path(graph, other, node)
            for other in others
        )

    most_upstream = [s for s in stops if not reached_by(s, stops)]
    if not most_upstream:
        # Every stop is reached from another: rank by SCC, keeping the
        # stops no stop from a different component reaches.
        component = {
            node: i
            for i, members in enumerate(nx.strongly_connected_components(graph))
            for node in members
        }
        most_upstream = [
            s
            for s in stops
            if not reached_by(
                s, [t for t in stops if component.get(t) != component.get(s)]
            )
        ]
    center = min(most_upstream, key=lambda s: (-tamper_stops[s], s))
    if center == topology.sink:
        return None
    return SuspectNeighborhood(
        center=center, members=frozenset(topology.closed_neighborhood(center))
    )


def reference_verdict(
    graph: nx.DiGraph,
    tamper_stops: Mapping[int, int],
    tampered_packets: int,
    chains_with_marks: int,
    packets_received: int,
    topology: Topology,
    delivering_node: int | None,
) -> TracebackVerdict:
    analysis = reference_analysis(graph)
    suspect = localize(analysis, topology, delivering_node)
    if (
        suspect is not None
        and not suspect.via_loop
        and tampered_packets > chains_with_marks
    ):
        dominant = reference_tamper_suspect(graph, tamper_stops, topology)
        if dominant is not None:
            suspect = dominant
    if suspect is None:
        suspect = reference_tamper_suspect(graph, tamper_stops, topology)
    return TracebackVerdict(
        identified=suspect is not None,
        suspect=suspect,
        packets_used=packets_received,
        loop_detected=analysis.has_loop,
        analysis=analysis,
    )


def assert_closure_matches(graph: PrecedenceGraph, reference: nx.DiGraph) -> None:
    """``reaches``/``descendants``/``ancestors`` equal networkx's
    reachability plus the node itself, and are empty (``False``) for
    nodes the evidence never observed -- the sink among them."""
    nodes = [TOPOLOGY.sink, *MARKERS]
    for node in nodes:
        if node in reference:
            below = nx.descendants(reference, node) | {node}
            above = nx.ancestors(reference, node) | {node}
        else:
            below = above = set()
        assert graph.descendants(node) == below
        assert graph.ancestors(node) == above
        for other in nodes:
            assert graph.reaches(node, other) == (other in below)


# Strategies ------------------------------------------------------------------

node_ids = st.sampled_from(MARKERS)
#: Short chains over few nodes: repeats, self-pairs (``[4, 4]``) and
#: contradictory orders (loops) all come up often.
chains = st.lists(node_ids, max_size=6)
chain_streams = st.lists(chains, max_size=14)
#: Stops may include the sink (0): the localizer must then decline.
tamper_stops = st.dictionaries(
    st.sampled_from([TOPOLOGY.sink, *MARKERS]), st.integers(1, 5), max_size=4
)
delivering = st.one_of(st.none(), node_ids)


class TestAnalysisOracle:
    @given(data=st.data(), stream=chain_streams)
    @settings(max_examples=300, deadline=None)
    def test_analysis_matches_networkx(self, data, stream):
        graph = PrecedenceGraph()
        for i, chain in enumerate(stream):
            graph.add_chain(chain)
            prefix = reference_graph(stream[: i + 1])
            assert_closure_matches(graph, prefix)
            # Interleaved calls exercise the memo across new evidence.
            if data.draw(st.booleans(), label=f"analyze{i}"):
                assert graph.analyze() == reference_analysis(prefix)
        reference = reference_graph(stream)
        assert graph.analyze() == reference_analysis(reference)
        assert graph.analyze() is graph.analyze()
        assert set(graph.edges()) == set(reference.edges)


class TestVerdictOracle:
    @given(
        stream=chain_streams,
        stops=tamper_stops,
        tampered=st.integers(0, 10),
        clean=st.integers(0, 10),
        deliverer=delivering,
    )
    @settings(max_examples=400, deadline=None)
    def test_verdict_matches_networkx(
        self, stream, stops, tampered, clean, deliverer
    ):
        graph = PrecedenceGraph()
        for chain in stream:
            graph.add_chain(chain)
        received = tampered + clean
        got = compute_verdict(
            graph, stops, tampered, clean, received, TOPOLOGY, deliverer
        )
        want = reference_verdict(
            reference_graph(stream),
            stops,
            tampered,
            clean,
            received,
            TOPOLOGY,
            deliverer,
        )
        assert got.analysis == want.analysis
        assert verdict_json(got) == verdict_json(want)
        # The verdict consults the tamper localizer only on some branches;
        # compare it on its own too.
        assert _tamper_suspect(graph, stops, TOPOLOGY) == (
            reference_tamper_suspect(reference_graph(stream), stops, TOPOLOGY)
        )

    @given(
        data=st.data(),
        packets=st.lists(
            st.tuples(chains, st.booleans(), node_ids), min_size=1, max_size=14
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_sink_evidence_round_trips(self, data, packets):
        """A live sink's verdict equals the oracle's, and its exported
        evidence rebuilds the same verdict through the shared path."""
        sink = TracebackSink(SCHEME, KEYSTORE, PROVIDER, TOPOLOGY)
        stops: dict[int, int] = {}
        for i, (chain, tampered, deliverer) in enumerate(packets):
            report = Report(event=bytes([i]), location=(0.0, 0.0), timestamp=i)
            verification = PacketVerification(
                packet=MarkedPacket(report=report),
                verified=[VerifiedMark(index=j, real_id=n) for j, n in enumerate(chain)],
                invalid_indices=[0] if tampered else [],
            )
            sink.ingest(verification, deliverer)
            if tampered:
                stop = verification.stop_node(deliverer)
                stops[stop] = stops.get(stop, 0) + 1
            if data.draw(st.booleans(), label=f"verdict{i}"):
                sink.verdict()
        live = sink.verdict()
        want = reference_verdict(
            reference_graph([chain for chain, _, _ in packets]),
            stops,
            sink.tampered_packets,
            sink.chains_with_marks,
            sink.packets_received,
            TOPOLOGY,
            packets[-1][2],
        )
        assert live.analysis == want.analysis
        assert verdict_json(live) == verdict_json(want)

        evidence = sink.evidence()
        reference = reference_graph([chain for chain, _, _ in packets])
        assert evidence.nodes == tuple(sorted(reference.nodes))
        assert evidence.edges == tuple(sorted(reference.edges))
        rebuilt = compute_verdict(
            evidence_precedence(evidence),
            dict(evidence.tamper_stops),
            evidence.tampered_packets,
            evidence.chains_with_marks,
            evidence.packets_received,
            TOPOLOGY,
            evidence.delivering_node,
        )
        assert rebuilt.analysis == live.analysis
        assert verdict_json(rebuilt) == verdict_json(live)


class TestTamperStops:
    def test_unobserved_delivering_stop_stays_most_upstream(self):
        """A tampered packet with no verified mark stops at its delivering
        node, which the graph never observed: nothing reaches it, so it
        stays a most-upstream candidate and, being the most frequent
        stop, the center."""
        sink = TracebackSink(SCHEME, KEYSTORE, PROVIDER, TOPOLOGY)
        packets = [([1, 2, 3], False, 3), ([2, 3], True, 3), ([], True, 6), ([], True, 6)]
        for i, (chain, tampered, deliverer) in enumerate(packets):
            report = Report(event=bytes([i]), location=(0.0, 0.0), timestamp=i)
            sink.ingest(
                PacketVerification(
                    packet=MarkedPacket(report=report),
                    verified=[
                        VerifiedMark(index=j, real_id=n) for j, n in enumerate(chain)
                    ],
                    invalid_indices=[0] if tampered else [],
                ),
                deliverer,
            )
        assert 6 not in sink.precedence.observed
        stops = {2: 1, 6: 2}
        assert sink._tamper_stop_nodes == stops
        suspect = _tamper_suspect(sink.precedence, stops, TOPOLOGY)
        assert suspect is not None and suspect.center == 6
        # Three tampered packets outweigh one clean chain, so the tamper
        # stops decide over the unequivocal most upstream node 1.
        verdict = sink.verdict()
        assert verdict.analysis.most_upstream == 1
        assert verdict.suspect == suspect
        assert reference_tamper_suspect(
            reference_graph([chain for chain, _, _ in packets]), stops, TOPOLOGY
        ) == suspect
