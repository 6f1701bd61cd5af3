"""Sink-side drop-site attribution: benign faults vs. mole suspicion.

The paper's traceback (Section 4) assumes a static network, where any
systematic packet disappearance points at a mole.  Under churn that
inference breaks: crashed nodes, drained batteries, and degraded links
all kill packets without any adversary.  This module separates the two.

:func:`attribute_drops` classifies every drop site the run's
:class:`~repro.sim.metrics.MetricsCollector` recorded:

* ``fault`` drops -- packets the simulator explicitly killed at a failed
  node or severed route (``fault_sites``); benign by construction.
* ``benign`` drops -- intentional drops at a node that a known fault
  interval explains (the node was down or an incident link was degraded
  around the event time), or that a fault-free **baseline** run of the
  same workload also produced (honest en-route filtering).
* ``suspicious`` drops -- the unexplained excess.  These are the only
  drop sites that feed accusations.

:func:`accusation_report` then combines the evidence streams the way a
deployed sink would: *tamper evidence* (invalid MACs, which benign
faults cannot forge -- crashing a node never breaks a key) activates the
traceback verdict, suspicious drop sites add their nodes, and watchdog
claims join only where that evidence corroborates them.  Honest
nodes accused by either route are **false accusations**; the report
quantifies their rate.  With every node honest both streams are
structurally empty -- no fault schedule forges a MAC and every drop is
fault-explained -- so the false-accusation rate is exactly zero, the
invariant the property suite (``tests/test_properties``) pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebraic.sink import algebraic_verdict
from repro.faults.injector import FaultInjector
from repro.net.topology import Topology
from repro.sim.metrics import MetricsCollector
from repro.traceback.sink import SinkEvidence
from repro.watchdog.fusion import tamper_corroboration_zone

__all__ = [
    "DropAttribution",
    "AccusationReport",
    "attribute_drops",
    "accusation_report",
]

#: Default half-width (virtual seconds) of the window around a fault
#: interval inside which a drop still counts as fault-explained; absorbs
#: packets caught mid-flight at crash/recovery boundaries.
DEFAULT_SLACK = 0.5


@dataclass(frozen=True)
class DropAttribution:
    """Per-node classification of every observed drop site.

    All mappings are keyed by node in ascending order (deterministic
    merge contract, RL004).

    Attributes:
        fault_drops: node -> packets the simulator killed there due to an
            injected fault (dead node, severed route).
        benign_drops: node -> intentional drops explained by a fault
            interval or by the fault-free baseline.
        suspicious_drops: node -> unexplained drops; accusation input.
        repairs: route repairs observed during the run.
    """

    fault_drops: dict[int, int] = field(default_factory=dict)
    benign_drops: dict[int, int] = field(default_factory=dict)
    suspicious_drops: dict[int, int] = field(default_factory=dict)
    repairs: int = 0

    @property
    def total_fault(self) -> int:
        """Packets killed by injected faults."""
        return sum(self.fault_drops.values())

    @property
    def total_benign(self) -> int:
        """Intentional drops explained away as benign."""
        return sum(self.benign_drops.values())

    @property
    def total_suspicious(self) -> int:
        """Drops left unexplained."""
        return sum(self.suspicious_drops.values())

    def summary(self) -> dict[str, int]:
        """Headline totals for printing/logging."""
        return {
            "fault_drops": self.total_fault,
            "benign_drops": self.total_benign,
            "suspicious_drops": self.total_suspicious,
            "repairs": self.repairs,
        }


@dataclass(frozen=True)
class AccusationReport:
    """Who got accused, and how many accusations hit honest nodes.

    Watchdog claims are not proof (a lying watchdog fabricates them
    freely), so a claim is **confirmed** only against a node PNM
    evidence independently suspects -- inside the tamper corroboration
    zone (:func:`repro.watchdog.fusion.tamper_corroboration_zone`) or at
    an unexplained drop site.  Everything else is **rejected**.  In any
    honest deployment both corroboration sources are structurally empty
    (benign faults forge no MACs and every drop is fault-explained), so
    no fabrication can raise the false-accusation rate -- the invariant
    ``tests/test_properties/test_watchdog_fusion.py`` pins.

    Attributes:
        accused: accused node IDs (PNM accusations plus confirmed
            watchdog claims), sorted ascending.
        honest: honest (non-mole) sensor IDs, sorted ascending.
        false_accusations: accused honest nodes, sorted ascending.
        false_accusation_rate: ``|false| / |honest|`` (0.0 when there are
            no honest nodes to accuse).
        tamper_evidence: whether any accusation came from invalid MACs.
        watchdog_claimed: every distinct node a delivered watchdog
            accusation named, sorted ascending (empty without claims).
        watchdog_confirmed: the corroborated subset that joined
            :attr:`accused`.
        watchdog_rejected: the discarded remainder.
    """

    accused: tuple[int, ...]
    honest: tuple[int, ...]
    false_accusations: tuple[int, ...]
    false_accusation_rate: float
    tamper_evidence: bool
    watchdog_claimed: tuple[int, ...]
    watchdog_confirmed: tuple[int, ...]
    watchdog_rejected: tuple[int, ...]


def attribute_drops(
    metrics: MetricsCollector,
    injector: FaultInjector | None = None,
    baseline: dict[int, int] | None = None,
    slack: float = DEFAULT_SLACK,
) -> DropAttribution:
    """Classify every drop site in ``metrics`` as fault, benign, or suspect.

    Args:
        metrics: the faulted run's metrics; supplies its drop sites,
            fault sites and route repairs.
        injector: the injector that drove the run; supplies the fault
            intervals.  ``None`` means no faults were injected.
        baseline: drop counts per node from a fault-free run of the same
            workload (its ``drop_sites`` counted per node); drops up to
            the baseline count at a node are honest filtering, not
            mole activity.
        slack: tolerance (virtual seconds) around fault intervals.
    """
    faults = metrics.fault_sites
    benign: dict[int, int] = {}
    unexplained: dict[int, int] = {}
    for time, node in metrics.drop_sites:
        fault_explained = injector is not None and (
            injector.node_was_down(node, time, slack)
            or injector.node_had_degraded_link(node, time, slack)
        )
        bucket = benign if fault_explained else unexplained
        bucket[node] = bucket.get(node, 0) + 1

    suspicious: dict[int, int] = {}
    allowance = baseline if baseline is not None else {}
    for node in sorted(unexplained):
        count = unexplained[node]
        allowed = min(count, allowance.get(node, 0))
        if allowed:
            benign[node] = benign.get(node, 0) + allowed
        if count > allowed:
            suspicious[node] = count - allowed

    return DropAttribution(
        fault_drops={node: faults[node] for node in sorted(faults)},
        benign_drops={node: benign[node] for node in sorted(benign)},
        suspicious_drops={node: suspicious[node] for node in sorted(suspicious)},
        repairs=metrics.route_repairs,
    )


def accusation_report(
    evidence: SinkEvidence,
    topology: Topology,
    attribution: DropAttribution,
    moles: frozenset[int] | set[int] = frozenset(),
) -> AccusationReport:
    """Combine tamper, drop-site and watchdog evidence into accusations.

    A pure function of the evidence record, so a single sink
    (``sink.evidence()``) and a coordinator holding merged shard evidence
    build byte-identical reports.  The traceback verdict
    (:func:`~repro.algebraic.sink.algebraic_verdict`) only becomes an
    accusation when backed by *tamper evidence* (at least one invalid
    MAC): benign faults never forge MACs, so an honest-but-churning
    network produces none, and a bare route reconstruction -- which
    always has *some* most upstream node, typically the source -- must
    not convict anyone on its own.  Suspicious (unexplained-excess) drop
    sites accuse their nodes directly.  Watchdog claims only accelerate
    conviction of nodes PNM independently suspects: a claim is confirmed
    inside the tamper corroboration zone or at a suspicious drop site,
    and rejected otherwise.

    Args:
        evidence: the sink's (or the merged shards') evidence.
        topology: the deployment.
        attribution: the drop classification from :func:`attribute_drops`.
        moles: ground-truth mole IDs; every other sensor is honest.

    Returns:
        The accusations and the honest-node false-accusation rate.
    """
    accused: set[int] = set(attribution.suspicious_drops)
    tamper = evidence.tampered_packets > 0
    if tamper:
        verdict = algebraic_verdict(evidence, topology)
        if verdict.identified and verdict.suspect is not None:
            accused.add(verdict.suspect.center)
    claimed = tuple(node for node, _count in evidence.watchdog_claims)
    zone = tamper_corroboration_zone(evidence, topology) if claimed else set()
    zone.update(attribution.suspicious_drops)
    confirmed = tuple(node for node in claimed if node in zone)
    accused.update(confirmed)
    honest = tuple(
        node for node in sorted(topology.sensor_nodes()) if node not in moles
    )
    honest_set = set(honest)
    false = tuple(node for node in sorted(accused) if node in honest_set)
    return AccusationReport(
        accused=tuple(sorted(accused)),
        honest=honest,
        false_accusations=false,
        false_accusation_rate=len(false) / len(honest) if honest else 0.0,
        tamper_evidence=tamper,
        watchdog_claimed=claimed,
        watchdog_confirmed=confirmed,
        watchdog_rejected=tuple(node for node in claimed if node not in zone),
    )
