"""The cluster coordinator: N shard summaries -> one global verdict.

Why a merge can be exact: the sink's verdict
(:func:`repro.algebraic.sink.algebraic_verdict`) and its accusation
report (:func:`repro.faults.attribution.accusation_report`) are pure
functions of order-insensitive evidence -- the *union* of precedence
edges, the *multisets* of tamper stops, watchdog claims and algebraic
observations, and additive counters.  Shards therefore never exchange
partial verdicts; they export raw evidence
(:class:`~repro.traceback.sink.SinkEvidence`, over SUMMARY frames) and
the coordinator merges it, then runs the *same* verdict function a
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
from repro.faults.attribution import AccusationReport
from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import SpanContext
from repro.traceback.sink import (
    EVIDENCE_COUNTERS,
    EVIDENCE_FIELDS,
    SinkEvidence,
    TracebackVerdict,
)

__all__ = [
    "ClusterCoordinator",
    "merge_evidence",
    "verdict_json",
    "report_json",
]


def merge_evidence(per_shard: Mapping[int, SinkEvidence]) -> SinkEvidence:
    """Union/sum shard evidence into one global :class:`SinkEvidence`.

    Each tuple field merges under its rule in
    :data:`~repro.traceback.sink.EVIDENCE_FIELDS`: nodes and edges union
    (the precedence graph is idempotent under re-adding a chain), tamper
    stops and watchdog claims sum their counts, and algebraic
    observations merge as a sorted multiset, so the coordinator replays
    exactly what one big sink saw.  The additive counters sum.  The
    merged ``delivering_node`` -- a tie-breaker the verdict only consults
    when route evidence is absent or loops into the sink -- is taken from
    the shard that saw the most packets (smallest shard ID on ties),
    which is deterministic regardless of arrival interleaving.
    """
    shards = [(shard_id, per_shard[shard_id]) for shard_id in sorted(per_shard)]
    merged: dict[str, Any] = {
        field.name: field.combine(
            getattr(evidence, field.name) for _shard_id, evidence in shards
        )
        for field in EVIDENCE_FIELDS
    }
    for name in EVIDENCE_COUNTERS:
        merged[name] = sum(getattr(evidence, name) for _shard_id, evidence in shards)
    speakers = [
        (-evidence.packets_received, shard_id, evidence.delivering_node)
        for shard_id, evidence in shards
        if evidence.delivering_node is not None
    ]
    return SinkEvidence(
        **merged, delivering_node=min(speakers)[2] if speakers else None
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
            "watchdog_claimed": list(report.watchdog_claimed),
            "watchdog_confirmed": list(report.watchdog_confirmed),
            "watchdog_rejected": list(report.watchdog_rejected),
        }
    )
