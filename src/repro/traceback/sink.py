"""The stateful traceback sink.

Feeds every received suspicious packet through the verifier, accumulates
verified chains in the precedence graph, and answers "where is the mole?"
both per packet (single-packet traceback, exact for deterministic nested
marking) and in aggregate (probabilistic marking, Figures 5-7).

Which packets count as suspicious is outside PNM proper (Section 7
"Background Traffic"): the caller decides what to feed in, e.g. everything
from an event region known to be quiet, or reports flagged by en-route
filtering (:mod:`repro.filtering`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Literal

from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider
from repro.marking.base import MarkingScheme
from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import report_key
from repro.packets.packet import MarkedPacket
from repro.traceback.localize import SuspectNeighborhood, localize
from repro.traceback.reconstruct import PrecedenceGraph, RouteAnalysis
from repro.traceback.resolver import Resolver
from repro.traceback.verify import PacketVerification, PacketVerifier

__all__ = [
    "TracebackSink",
    "TracebackVerdict",
    "SinkEvidence",
    "EvidenceField",
    "EVIDENCE_FIELDS",
    "EVIDENCE_COUNTERS",
    "compute_verdict",
    "evidence_precedence",
]


@dataclass(frozen=True)
class TracebackVerdict:
    """The sink's current answer.

    Attributes:
        identified: whether the evidence singles out a suspect neighborhood.
        suspect: that neighborhood when ``identified``.
        packets_used: packets processed so far.
        loop_detected: whether identity-swapping loops were observed.
        analysis: the underlying route analysis (for diagnostics).
    """

    identified: bool
    suspect: SuspectNeighborhood | None
    packets_used: int
    loop_detected: bool
    analysis: RouteAnalysis


@dataclass(frozen=True)
class SinkEvidence:
    """The order-insensitive evidence a sink has accumulated.

    Everything the verdict and the accusation report need, in a canonical
    (sorted) transportable form.  Two key properties make sharded
    deployments possible (:mod:`repro.cluster`):

    * **Verdict-sufficiency**: the verdict is a pure function of this
      record plus the topology -- :meth:`TracebackSink.verdict` and a
      coordinator merging shard evidence run the *same* code path, so a
      merged verdict cannot drift from the single-sink one.
    * **Additivity**: evidence from disjoint packet subsets combines
      field by field under the rules of :data:`EVIDENCE_FIELDS` (union,
      count-sum or sorted multiset) and by sum (counters).  Precedence
      edges are idempotent, so the union over any partition of a packet
      stream equals the single sink's graph.

    Attributes:
        nodes: every verified marker node, ascending.
        edges: verified precedence edges ``(upstream, downstream)``,
            sorted ascending.
        tamper_stops: ``(stop_node, count)`` pairs from tampered packets,
            sorted by node.
        packets_received / tampered_packets / chains_with_marks /
        fallback_searches: the sink's additive counters
        (``chains_with_marks`` counts packets that arrived *clean* --
        verified chain, no invalid MAC -- so the verdict's mass
        comparison weighs route evidence against tamper evidence).
        delivering_node: the localization fallback neighbor (the last
            delivering node for a live sink; a deterministic choice when
            merged -- see :func:`repro.cluster.merge_evidence`).
        algebraic: canonical (sorted) algebraic observation tuples
            (:meth:`repro.algebraic.solver.AlgebraicObservation.as_tuple`)
            when the deployed scheme is algebraic; empty otherwise.  Raw
            observations, not solver state, travel between shards, so the
            verdict stays a pure function of merged evidence.
        watchdog_claims: ``(accused, count)`` pairs, one per node that
            delivered watchdog accusations named, sorted by node.  Claims
            are not proof: the accusation report confirms one only where
            PNM evidence independently suspects the node.
    """

    nodes: tuple[int, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    tamper_stops: tuple[tuple[int, int], ...] = ()
    packets_received: int = 0
    tampered_packets: int = 0
    chains_with_marks: int = 0
    fallback_searches: int = 0
    delivering_node: int | None = None
    algebraic: tuple[tuple[int, int, int, int, int, int], ...] = ()
    watchdog_claims: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class EvidenceField:
    """How one tuple field of :class:`SinkEvidence` travels and merges.

    Attributes:
        name: the :class:`SinkEvidence` attribute.
        arity: integers per entry (1: each entry is a bare ``int``).
        merge: ``"union"`` (sorted, no repeats), ``"count-sum"``
            (``(key, count)`` pairs, keys sorted and unique, counts
            positive and summed on merge) or ``"multiset"`` (sorted,
            repeats kept).
        flag: the SUMMARY flag bit of an optional section, present only
            when the field is non-empty; 0 for a section always present.
    """

    name: str
    arity: int
    merge: Literal["union", "count-sum", "multiset"]
    flag: int = 0

    def canonical(self, entries: Sequence) -> bool:
        """Whether ``entries`` is in the order this field's rule keeps."""
        pairs = zip(entries, entries[1:])
        if self.merge == "multiset":
            return all(a <= b for a, b in pairs)
        if self.merge == "count-sum":
            return all(a[0] < b[0] for a, b in pairs) and all(
                count > 0 for _key, count in entries
            )
        return all(a < b for a, b in pairs)

    def combine(self, parts: Iterable[Sequence]) -> tuple:
        """Merge this field's entries from several records, canonically."""
        entries = [entry for part in parts for entry in part]
        if self.merge == "multiset":
            return tuple(sorted(entries))
        if self.merge == "count-sum":
            counts: dict[int, int] = {}
            for key, count in entries:
                counts[key] = counts.get(key, 0) + count
            return tuple(sorted(counts.items()))
        return tuple(sorted(set(entries)))


#: Every tuple field of :class:`SinkEvidence`, in SUMMARY section order.
#: The SUMMARY codec (:mod:`repro.wire.messages`) and the shard merge
#: (:func:`repro.cluster.merge_evidence`) both walk this table.
EVIDENCE_FIELDS = (
    EvidenceField("nodes", 1, "union"),
    EvidenceField("edges", 2, "union"),
    EvidenceField("tamper_stops", 2, "count-sum"),
    EvidenceField("algebraic", 6, "multiset", flag=0x02),
    EvidenceField("watchdog_claims", 2, "count-sum", flag=0x04),
)

#: The additive counters of :class:`SinkEvidence`, in SUMMARY order.
EVIDENCE_COUNTERS = (
    "packets_received",
    "tampered_packets",
    "chains_with_marks",
    "fallback_searches",
)


def evidence_precedence(evidence: SinkEvidence) -> PrecedenceGraph:
    """Rebuild the precedence graph a :class:`SinkEvidence` describes."""
    return PrecedenceGraph.from_edges(evidence.nodes, evidence.edges)


def compute_verdict(
    precedence: PrecedenceGraph,
    tamper_stops: Mapping[int, int],
    tampered_packets: int,
    chains_with_marks: int,
    packets_received: int,
    topology: Topology,
    delivering_node: int | None,
    obs: ObsProvider | NoopObsProvider | None = None,
) -> TracebackVerdict:
    """The paper's verdict logic as a pure function of accumulated evidence.

    Shared by :meth:`TracebackSink.verdict` (live, per-sink state) and
    the cluster coordinator (merged multi-shard state), which is what
    guarantees a merged verdict is byte-identical to the single-sink one
    on the same evidence.

    Evidence is combined in the paper's order: the reconstructed route
    (most upstream node, or the loop attachment under identity swapping)
    when it is unequivocal, otherwise the tamper evidence accumulated
    from packets whose MACs failed verification.

    The two evidence streams are weighed by mass: when more packets
    arrived *tampered* than arrived clean with a verified chain
    (``chains_with_marks`` counts only untampered packets), the route
    picture is too sparse to trust (a mole invalidating nearly every
    mark can leave one lucky lone marker looking like a unique most
    upstream node), so the tamper stopping nodes -- each guaranteed
    downstream of the manipulating mole by consecutive traceability --
    decide instead.
    """
    provider = resolve_provider(obs)
    with provider.timer("route_analysis_seconds"):
        analysis = precedence.analyze()
    suspect = localize(analysis, topology, delivering_node)
    if (
        suspect is not None
        and not suspect.via_loop
        and tampered_packets > chains_with_marks
    ):
        dominant = _tamper_suspect(precedence, tamper_stops, topology)
        if dominant is not None:
            suspect = dominant
    if suspect is None:
        suspect = _tamper_suspect(precedence, tamper_stops, topology)
    return TracebackVerdict(
        identified=suspect is not None,
        suspect=suspect,
        packets_used=packets_received,
        loop_detected=analysis.has_loop,
        analysis=analysis,
    )


def _tamper_suspect(
    precedence: PrecedenceGraph,
    tamper_stops: Mapping[int, int],
    topology: Topology,
) -> SuspectNeighborhood | None:
    """Localize from tampered packets' stopping nodes.

    Each tampered packet's stopping node lies downstream of the
    manipulating mole; the most upstream stopping node observed (per
    the precedence evidence) converges to the mole's next marking
    neighbor.  Centers the suspect there.
    """
    if not tamper_stops:
        return None
    stops = sorted(tamper_stops)
    stop_set = frozenset(stops)
    # The stops reaching ``s``, read off the closure.  A stop the graph
    # never observed (a delivering node of a packet without a verified
    # mark) has no ancestors, not even itself, so it counts as upstream.
    above = {s: precedence.ancestors(s) & stop_set for s in stops}
    most_upstream = [s for s in stops if above[s] <= {s}]
    if not most_upstream:
        # Every stop is reached from another one, which only loops allow:
        # keep the stops that no stop outside their own loop reaches.
        most_upstream = [
            s for s in stops if above[s] <= precedence.descendants(s)
        ]
    # Deterministic choice among incomparable stops: the most frequent,
    # then the smallest ID.
    center = min(
        most_upstream,
        key=lambda s: (-tamper_stops[s], s),
    )
    if center == topology.sink:
        return None
    return SuspectNeighborhood(
        center=center,
        members=frozenset(topology.closed_neighborhood(center)),
    )


class TracebackSink:
    """Aggregates per-packet verification into a traceback verdict.

    Args:
        scheme: the deployed marking scheme.
        keystore: the sink's key table.
        provider: MAC provider matching the deployment.
        topology: deployment graph, used for suspect neighborhoods (and by
            topology-bounded resolvers).
        resolver: anonymous-ID search strategy (default exhaustive).
        obs: observability provider, shared with the verifier; ``None``
            resolves to the process default.  Counts ingested and tampered
            packets and closes each packet's trace with a ``verdict`` span.
    """

    def __init__(
        self,
        scheme: MarkingScheme,
        keystore: KeyStore,
        provider: MacProvider,
        topology: Topology,
        resolver: Resolver | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.topology = topology
        self.obs = resolve_provider(obs)
        self.verifier = PacketVerifier(
            scheme, keystore, provider, resolver, obs=self.obs
        )
        self.precedence = PrecedenceGraph()
        self.packets_received = 0
        self.fallback_searches = 0
        self.tampered_packets = 0
        self.chains_with_marks = 0
        self._tamper_stop_nodes: dict[int, int] = {}
        #: accused node -> delivered watchdog accusations naming it.
        self.watchdog_claims: dict[int, int] = {}
        self._last_verification: PacketVerification | None = None
        self._last_delivering_node: int | None = None

    def receive(
        self, packet: MarkedPacket, delivering_node: int
    ) -> PacketVerification:
        """Process one suspicious packet.

        Args:
            packet: the packet as received.
            delivering_node: the sink's radio neighbor that handed it over
                (physically known to the sink).

        Returns:
            The per-packet verification outcome.
        """
        return self.ingest(self.verifier.verify(packet), delivering_node)

    def ingest(
        self, verification: PacketVerification, delivering_node: int
    ) -> PacketVerification:
        """Fold an already-computed verification into the sink's state.

        The batch-safe half of :meth:`receive`: the ingest service
        (:mod:`repro.service`) verifies packets out of line -- cached
        and possibly in parallel -- and merges the results here in
        arrival order.  Calling this with ``verifier.verify(packet)`` is
        exactly :meth:`receive`.

        Args:
            verification: the outcome of verifying one packet.
            delivering_node: the sink's radio neighbor that handed the
                packet over.
        """
        self.packets_received += 1
        self.fallback_searches += verification.fallback_searches
        self.precedence.add_chain(verification.chain_ids)
        self.obs.inc("sink_packets_ingested_total")
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.event(
                report_key(verification.packet.report),
                "verdict",
                delivering_node=delivering_node,
                tampered=bool(verification.invalid_indices),
            )
        if verification.chain_ids and not verification.invalid_indices:
            # Count only *clean* chains toward the route-evidence mass.  A
            # tampered packet usually still carries a verified downstream
            # suffix; counting it here would let ``chains_with_marks``
            # saturate together with ``tampered_packets`` and the verdict's
            # mass comparison would never prefer the tamper stops -- the
            # exact failure mode of the reorder attack at high mark rates,
            # where the only clean chains are lucky lone markers far from
            # the mole (pinned in tests/test_traceback/test_sink_localize.py).
            self.chains_with_marks += 1
        if verification.invalid_indices:
            self.obs.inc("sink_tampered_packets_total")
            # Tamper evidence: an invalid MAC never occurs in honest
            # operation, so a mole touched this packet.  By consecutive
            # traceability the most upstream *verified* marker of the
            # packet (Section 4.1's stopping node) is downstream of -- and
            # converges to one hop from -- that mole.
            self.tampered_packets += 1
            stop = verification.stop_node(delivering_node)
            self._tamper_stop_nodes[stop] = (
                self._tamper_stop_nodes.get(stop, 0) + 1
            )
        self._last_verification = verification
        self._last_delivering_node = delivering_node
        return verification

    def receive_accusation(self, accused: int) -> None:
        """Count one watchdog accusation the relay delivered.

        The watchdog layer (:mod:`repro.watchdog`) hands over every
        accusation that reached the sink.  It becomes evidence, not a
        verdict: :func:`repro.faults.attribution.accusation_report`
        confirms a claim only against PNM's own suspicion.
        """
        self.watchdog_claims[accused] = self.watchdog_claims.get(accused, 0) + 1

    def last_packet_suspect(self) -> SuspectNeighborhood | None:
        """Single-packet traceback from the most recent packet.

        For deterministic nested marking this alone is one-hop precise
        (Theorem 2): the suspect centers on the most upstream verified
        marker, or on the delivering neighbor when nothing verified.
        """
        if self._last_verification is None:
            return None
        assert self._last_delivering_node is not None
        center = self._last_verification.stop_node(self._last_delivering_node)
        if center == self.topology.sink:
            return None
        return SuspectNeighborhood(
            center=center,
            members=frozenset(self.topology.closed_neighborhood(center)),
        )

    def route_analysis(self) -> RouteAnalysis:
        """Interpret all evidence accumulated so far."""
        with self.obs.timer("route_analysis_seconds"):
            return self.precedence.analyze()

    def verdict(self) -> TracebackVerdict:
        """The sink's aggregate answer over every packet seen so far.

        Delegates to :func:`compute_verdict` over this sink's live state;
        see there for how the route and tamper evidence streams combine.
        """
        return compute_verdict(
            self.precedence,
            self._tamper_stop_nodes,
            self.tampered_packets,
            self.chains_with_marks,
            self.packets_received,
            self.topology,
            self._last_delivering_node,
            obs=self.obs,
        )

    def evidence(self) -> SinkEvidence:
        """Snapshot this sink's accumulated evidence in canonical form.

        The returned record is verdict-sufficient: feeding it (rebuilt via
        :func:`evidence_precedence`) back through :func:`compute_verdict`
        with the same topology reproduces :meth:`verdict` exactly.  Shards
        export this over the wire (SUMMARY frames) for the cluster
        coordinator to merge.
        """
        return SinkEvidence(
            nodes=tuple(sorted(self.precedence.observed)),
            edges=tuple(sorted(self.precedence.edges())),
            tamper_stops=tuple(sorted(self._tamper_stop_nodes.items())),
            packets_received=self.packets_received,
            tampered_packets=self.tampered_packets,
            chains_with_marks=self.chains_with_marks,
            fallback_searches=self.fallback_searches,
            delivering_node=self._last_delivering_node,
            watchdog_claims=tuple(sorted(self.watchdog_claims.items())),
        )

    def __repr__(self) -> str:
        return (
            f"TracebackSink(packets={self.packets_received}, "
            f"observed={self.precedence.observed_count()})"
        )
