"""The cluster coordinator: N shard summaries -> one global verdict.

Why a merge can be exact: the sink's verdict
(:func:`repro.traceback.sink.compute_verdict`) is a pure function of
order-insensitive evidence -- the *union* of precedence edges, the
*multiset* of tamper-stop nodes, and additive counters.  Shards
therefore never exchange partial verdicts; they export raw evidence
(:class:`~repro.traceback.sink.SinkEvidence`, over SUMMARY frames) and
the coordinator unions/sums it, then runs the *same* verdict function a
single sink would.  Equality with the single-sink answer is structural,
not statistical -- the equivalence tests in ``tests/test_cluster``
compare canonical bytes.

Determinism contract (lint RL004): every merge iterates shard IDs,
nodes, edges and stop nodes in explicitly sorted order, so the merged
evidence -- and the JSON forms below -- are byte-stable across runs,
shard counts, and routing histories.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from repro.algebraic.sink import algebraic_verdict
from repro.faults.attribution import (
    AccusationReport,
    DropAttribution,
    build_accusation_report,
)
from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import SpanContext
from repro.traceback.sink import SinkEvidence, TracebackVerdict

__all__ = [
    "ClusterCoordinator",
    "merge_evidence",
    "verdict_json",
    "report_json",
]


def merge_evidence(per_shard: Mapping[int, SinkEvidence]) -> SinkEvidence:
    """Union/sum shard evidence into one global :class:`SinkEvidence`.

    Nodes and edges union (the precedence graph is idempotent under
    re-adding a chain); tamper-stop counts and the additive counters sum.
    Algebraic observations merge as a sorted multiset (concatenate, then
    sort) so the coordinator replays exactly what one big sink saw.
    The merged ``delivering_node`` -- a tie-breaker the verdict only
    consults when route evidence is absent or loops into the sink -- is
    taken from the shard that saw the most packets (smallest shard ID on
    ties), which is deterministic regardless of arrival interleaving.
    """
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    stops: dict[int, int] = {}
    observations: list[tuple[int, int, int, int, int, int]] = []
    packets_received = 0
    tampered_packets = 0
    chains_with_marks = 0
    fallback_searches = 0
    delivering_node: int | None = None
    best_rank: tuple[int, int] | None = None
    for shard_id in sorted(per_shard):
        evidence = per_shard[shard_id]
        nodes.update(evidence.nodes)
        edges.update(evidence.edges)
        observations.extend(evidence.algebraic)
        for node, count in evidence.tamper_stops:
            stops[node] = stops.get(node, 0) + count
        packets_received += evidence.packets_received
        tampered_packets += evidence.tampered_packets
        chains_with_marks += evidence.chains_with_marks
        fallback_searches += evidence.fallback_searches
        if evidence.delivering_node is not None:
            rank = (-evidence.packets_received, shard_id)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                delivering_node = evidence.delivering_node
    return SinkEvidence(
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges)),
        tamper_stops=tuple((node, stops[node]) for node in sorted(stops)),
        packets_received=packets_received,
        tampered_packets=tampered_packets,
        chains_with_marks=chains_with_marks,
        fallback_searches=fallback_searches,
        delivering_node=delivering_node,
        algebraic=tuple(sorted(observations)),
    )


class ClusterCoordinator:
    """Merge shard evidence and answer like one big sink.

    Args:
        topology: the deployment (suspect neighborhoods need it).
        obs: observability provider (``cluster_merge_seconds`` timer,
            ``cluster_merged_*`` gauges).
    """

    def __init__(
        self,
        topology: Topology,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.topology = topology
        self.obs = resolve_provider(obs)

    def _trace_event(
        self, trace: SpanContext | None, name: str, **attrs: Any
    ) -> None:
        """Record a coordinator stage as a child span of ``trace``."""
        tracer = self.obs.tracer
        if tracer is None or trace is None:
            return
        tracer.finish(tracer.start(name, parent=trace, **attrs))

    def merge(
        self,
        per_shard: Mapping[int, SinkEvidence],
        trace: SpanContext | None = None,
    ) -> SinkEvidence:
        """The merged global evidence (see :func:`merge_evidence`).

        With ``trace``, the merge is recorded as a ``cluster_merge``
        child span of it -- the join point where per-shard traces meet.
        """
        with self.obs.timer("cluster_merge_seconds"):
            merged = merge_evidence(per_shard)
        self.obs.set_gauge("cluster_merged_shards", len(per_shard))
        self.obs.set_gauge(
            "cluster_merged_packets", merged.packets_received
        )
        self.obs.set_gauge("cluster_merged_edges", len(merged.edges))
        self._trace_event(
            trace,
            "cluster_merge",
            shards=len(per_shard),
            packets=merged.packets_received,
        )
        return merged

    def verdict(
        self,
        evidence: SinkEvidence,
        trace: SpanContext | None = None,
    ) -> TracebackVerdict:
        """Run the single-sink verdict function over merged evidence."""
        result = algebraic_verdict(evidence, self.topology, obs=self.obs)
        self._trace_event(
            trace,
            "cluster_verdict",
            identified=result.identified,
            packets_used=result.packets_used,
        )
        return result

    def accusation(
        self,
        evidence: SinkEvidence,
        attribution: DropAttribution,
        moles: frozenset[int] | set[int] = frozenset(),
    ) -> AccusationReport:
        """The global accusation report over merged evidence.

        Same semantics as :func:`repro.faults.accusation_report`: the
        traceback verdict accuses only when backed by tamper evidence,
        suspicious drop sites accuse directly, and the honest
        false-accusation rate quantifies collateral damage.
        """
        tamper = evidence.tampered_packets > 0
        return build_accusation_report(
            verdict=self.verdict(evidence) if tamper else None,
            tampered_packets=evidence.tampered_packets,
            topology=self.topology,
            attribution=attribution,
            moles=moles,
        )

    def __repr__(self) -> str:
        return f"ClusterCoordinator(topology={self.topology!r})"


# Canonical JSON ------------------------------------------------------------
#
# The byte-identical equivalence contract needs a serialization where
# equal values always produce equal bytes: keys sorted, no whitespace
# variance, sets rendered as sorted lists.


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def verdict_json(verdict: TracebackVerdict) -> str:
    """Canonical JSON for a verdict (diagnostic analysis excluded)."""
    suspect = verdict.suspect
    return _canonical(
        {
            "identified": verdict.identified,
            "loop_detected": verdict.loop_detected,
            "packets_used": verdict.packets_used,
            "suspect": (
                None
                if suspect is None
                else {
                    "center": suspect.center,
                    "members": sorted(suspect.members),
                    "via_loop": suspect.via_loop,
                }
            ),
        }
    )


def report_json(report: AccusationReport) -> str:
    """Canonical JSON for an accusation report."""
    return _canonical(
        {
            "accused": list(report.accused),
            "honest": list(report.honest),
            "false_accusations": list(report.false_accusations),
            "false_accusation_rate": report.false_accusation_rate,
            "tamper_evidence": report.tamper_evidence,
        }
    )
