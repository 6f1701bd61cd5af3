"""The algebraic traceback sink: evidence, verdicts, cluster merge hooks.

:class:`AlgebraicTracebackSink` extends the scheme-agnostic
:class:`~repro.traceback.sink.TracebackSink` with the algebraic evidence
stream: every ingested packet also yields an
:class:`~repro.algebraic.solver.AlgebraicObservation`, fed both to a live
incremental solver (cheap per-packet state for convergence probes) and
into the evidence snapshot (``SinkEvidence.algebraic``) that rides SUMMARY
frames to the cluster coordinator.

The verdict contract mirrors the base sink's exactly: the verdict is a
pure function of the canonical evidence record plus the topology
(:func:`algebraic_verdict`), so a single sink and a coordinator merging
N shards' evidence run the *same* code over the same observation multiset
and produce byte-identical answers -- including after a mid-run shard
kill-and-replace, because observations merge as a sorted multiset union
the way counters merge as sums.

False-accusation safety: solver-confirmed paths feed the *precedence*
(route) side of the verdict only.  Accusations still require tamper
evidence -- an invalid final MAC -- which benign churn cannot forge
(crashing a node never breaks a key), so the honest false-accusation rate
through :func:`repro.faults.attribution.accusation_report` stays exactly
0.0, the invariant the property suite pins for this sink as it does for
PNM's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.algebraic.marking import AlgebraicMarking, unpack_accumulator
from repro.algebraic.errors import MalformedAccumulatorError
from repro.algebraic.field import evaluation_point
from repro.algebraic.solver import (
    AlgebraicObservation,
    AlgebraicSolver,
    solve_observations,
)
from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider
from repro.traceback.reconstruct import PrecedenceGraph
from repro.traceback.sink import (
    SinkEvidence,
    TracebackSink,
    TracebackVerdict,
    compute_verdict,
    evidence_precedence,
)
from repro.traceback.verify import PacketVerification

__all__ = [
    "AlgebraicTracebackSink",
    "observation_from",
    "algebraic_precedence",
    "algebraic_verdict",
]


def observation_from(
    verification: PacketVerification, delivering_node: int
) -> AlgebraicObservation | None:
    """Extract one packet's algebraic observation, or ``None``.

    ``None`` means the packet carries no parseable accumulator (wrong
    mark count, malformed field) -- it still contributed tamper/counter
    evidence through the base sink, it just cannot feed interpolation.
    The MAC-attributed last updater comes from the packet verification:
    a verified final mark pins ``last_hop``; an invalid one leaves the
    observation unanchored (and the base sink records the tamper stop).
    """
    packet = verification.packet
    if len(packet.marks) != 1:
        return None
    try:
        count, value = unpack_accumulator(packet.marks[0].id_field)
    except MalformedAccumulatorError:
        return None
    last_hop = None
    if verification.chain_ids and not verification.invalid_indices:
        last_hop = verification.chain_ids[-1]
    return AlgebraicObservation(
        timestamp=packet.report.timestamp,
        point=evaluation_point(packet.report_wire),
        count=count,
        value=value,
        delivering_node=delivering_node,
        last_hop=last_hop,
    )


def algebraic_precedence(
    evidence: SinkEvidence, topology: Topology
) -> PrecedenceGraph:
    """The precedence graph an evidence record implies, algebraic included.

    Rebuilds the base per-packet precedence
    (:func:`~repro.traceback.sink.evidence_precedence`) and overlays every
    solver-confirmed path as a chain.  Confirmed paths come from the pure
    :func:`~repro.algebraic.solver.solve_observations` over the canonical
    observation multiset, so identical evidence implies identical graphs
    wherever this runs (single sink or coordinator).
    """
    precedence = evidence_precedence(evidence)
    if evidence.algebraic:
        solution = solve_observations(
            (AlgebraicObservation.from_tuple(raw) for raw in evidence.algebraic),
            topology,
        )
        for path in solution.confirmed_paths:
            precedence.add_chain(list(path))
    return precedence


def algebraic_verdict(
    evidence: SinkEvidence,
    topology: Topology,
    obs: ObsProvider | NoopObsProvider | None = None,
) -> TracebackVerdict:
    """The verdict over an evidence record, as a pure function.

    Exactly :func:`~repro.traceback.sink.compute_verdict` with the
    algebraic-augmented precedence graph (the plain one when the record
    holds no algebraic evidence); shared by
    :meth:`AlgebraicTracebackSink.verdict`, the cluster coordinator and
    :func:`repro.faults.attribution.accusation_report`.
    """
    return compute_verdict(
        algebraic_precedence(evidence, topology),
        dict(evidence.tamper_stops),
        evidence.tampered_packets,
        evidence.chains_with_marks,
        evidence.packets_received,
        topology,
        evidence.delivering_node,
        obs=obs,
    )


class AlgebraicTracebackSink(TracebackSink):
    """A traceback sink whose state survives topology changes.

    Drop-in replacement for :class:`~repro.traceback.sink.TracebackSink`
    wherever the deployed scheme is :class:`AlgebraicMarking` -- the
    simulator, the ingest service, and the cluster harness all accept it
    unchanged (same ``receive``/``ingest``/``verdict``/``evidence``
    surface).

    Args:
        scheme: must be an :class:`AlgebraicMarking` instance.
        (remaining arguments as for the base sink.)
    """

    def __init__(self, scheme, keystore, provider, topology, resolver=None, obs=None):
        if not isinstance(scheme, AlgebraicMarking):
            raise TypeError(
                "AlgebraicTracebackSink requires an AlgebraicMarking scheme, "
                f"got {type(scheme).__name__}"
            )
        super().__init__(scheme, keystore, provider, topology, resolver, obs)
        self.solver = AlgebraicSolver(topology)
        self._observations: list[AlgebraicObservation] = []

    def ingest(
        self, verification: PacketVerification, delivering_node: int
    ) -> PacketVerification:
        result = super().ingest(verification, delivering_node)
        observation = observation_from(verification, delivering_node)
        if observation is not None:
            self._observations.append(observation)
            confirmed = self.solver.observe(observation)
            self.obs.inc("algebraic_observations_total")
            if confirmed is not None:
                self.obs.inc("algebraic_paths_confirmed_total")
        return result

    def evidence(self) -> SinkEvidence:
        base = super().evidence()
        return replace(
            base,
            algebraic=tuple(
                sorted(obs.as_tuple() for obs in self._observations)
            ),
        )

    def verdict(self) -> TracebackVerdict:
        """Verdict via the shared pure function over this sink's evidence.

        Deliberately *not* the live solver: re-solving the canonical
        multiset is what guarantees byte-identity with a coordinator that
        merged this sink's evidence (the live solver saw arrival order,
        which ties to canonical order only up to timestamp ties).
        """
        return algebraic_verdict(self.evidence(), self.topology, obs=self.obs)

    def confirmed_paths(self) -> tuple[tuple[int, ...], ...]:
        """Live solver's confirmed paths (cheap, per-packet-incremental)."""
        return self.solver.confirmed_paths()

    def __repr__(self) -> str:
        return (
            f"AlgebraicTracebackSink(packets={self.packets_received}, "
            f"confirmed={len(self.solver.confirmed_paths())})"
        )
