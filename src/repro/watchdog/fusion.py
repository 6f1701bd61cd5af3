"""Sink-side watchdog evidence: the corroboration zone and detection tracking.

Delivered accusations live in the sink's evidence
(:attr:`~repro.traceback.sink.SinkEvidence.watchdog_claims`, counted by
:meth:`~repro.traceback.sink.TracebackSink.receive_accusation`).  They
are deliberately *not* trusted on their own: accusations are
unauthenticated radio messages an adversary can fabricate (lying
watchdog) or suppress (colluding relay).  Conviction requires
corroboration.  Two pieces live here:

* :func:`tamper_corroboration_zone` -- the set of nodes PNM evidence
  *independently* suspects: every observed tamper stop is, by consecutive
  traceability (Theorem 2), within one hop downstream of a manipulating
  mole, so the union of the stops' closed neighborhoods bounds where a
  tampering mole can be.  A watchdog claim is confirmed only inside
  this zone (plus unexplained drop sites, added by
  :func:`repro.faults.attribution.accusation_report`) -- watchdog
  evidence accelerates PNM conviction but never convicts on its own,
  which keeps the honest false-accusation rate exactly 0.0 even under
  framing.
* :class:`DetectionProbe` -- wraps a sink to measure detection latency in
  delivered packets, comparing PNM-only *stable* conviction against the
  fused path.  "Stable" means the verdict holds from that packet through
  the end of the run: a momentary verdict the sink later recants is not a
  detection.  The fused conviction is monotone by construction (stops and
  claims only accumulate), so its first hit is already stable.
"""

from __future__ import annotations

from repro.net.topology import Topology
from repro.packets.packet import MarkedPacket
from repro.traceback.sink import SinkEvidence, TracebackSink

__all__ = ["DetectionProbe", "tamper_corroboration_zone"]


def tamper_corroboration_zone(
    evidence: SinkEvidence, topology: Topology
) -> set[int]:
    """Nodes PNM's tamper evidence independently suspects.

    The union of the closed neighborhoods of every observed tamper stop
    (excluding the sink).  Empty exactly when no packet ever failed MAC
    verification -- so in any honest deployment, under any benign churn,
    no watchdog accusation can be corroborated through this zone.
    """
    zone: set[int] = set()
    for stop, _count in evidence.tamper_stops:
        if stop == topology.sink:
            continue
        zone |= topology.closed_neighborhood(stop)
    zone.discard(topology.sink)
    return zone


class DetectionProbe:
    """Sink wrapper measuring detection latency in delivered packets.

    Drop-in for the ``sink`` argument of
    :class:`~repro.sim.network.NetworkSimulation` (it only needs
    ``receive`` and ``receive_accusation``): delegates every packet and
    every delivered accusation to the wrapped sink, then, per packet,
    checks both detection conditions against the ground-truth ``moles``:

    * **PNM-only**: the sink's verdict is tamper-backed, identified, and
      its suspect neighborhood contains a true mole.
    * **Fused**: a watchdog claim in the sink's evidence names a true
      mole inside the current :func:`tamper_corroboration_zone`.

    Args:
        sink: the real traceback sink.
        moles: ground-truth mole IDs.
    """

    def __init__(
        self,
        sink: TracebackSink,
        moles: frozenset[int] | set[int],
    ):
        self.sink = sink
        self.moles = frozenset(moles)
        self.delivered_count = 0
        #: Per delivered packet: did the PNM-only condition hold?
        self.pnm_hits: list[bool] = []
        #: First delivered-packet index (1-based) with a corroborated
        #: watchdog conviction, or ``None``.
        self.corroborated_first: int | None = None
        #: First delivered-packet index (1-based) at which *any*
        #: watchdog accusation (corroborated or not) had reached the
        #: sink, or ``None``.  The accusation->fusion latency SLO is
        #: ``fused_detection() - first_accusation``.
        self.first_accusation: int | None = None

    def receive(self, packet: MarkedPacket, delivering_node: int):
        """Feed one delivered packet through the sink, then re-check."""
        verification = self.sink.receive(packet, delivering_node)
        self.delivered_count += 1
        self._check()
        return verification

    def receive_accusation(self, accused: int) -> None:
        """Hand one delivered watchdog accusation to the sink."""
        self.sink.receive_accusation(accused)

    def _check(self) -> None:
        verdict = self.sink.verdict()
        pnm_hit = (
            self.sink.tampered_packets > 0
            and verdict.identified
            and verdict.suspect is not None
            and bool(verdict.suspect.members & self.moles)
        )
        self.pnm_hits.append(pnm_hit)
        if not self.sink.watchdog_claims:
            return
        if self.first_accusation is None:
            self.first_accusation = self.delivered_count
        if self.corroborated_first is None:
            evidence = self.sink.evidence()
            zone = tamper_corroboration_zone(evidence, self.sink.topology)
            if any(
                node in zone and node in self.moles
                for node, _count in evidence.watchdog_claims
            ):
                self.corroborated_first = self.delivered_count

    def pnm_stable_detection(self) -> int | None:
        """First packet index from which PNM-only stays correct to the end.

        ``None`` when the last verdict is wrong (no stable detection).
        A verdict that flickers onto the mole and off again does not
        count until its final onset.
        """
        if not self.pnm_hits or not self.pnm_hits[-1]:
            return None
        index = len(self.pnm_hits)
        while index > 1 and self.pnm_hits[index - 2]:
            index -= 1
        return index

    def fused_detection(self) -> int | None:
        """First packet index at which the fused report convicts a mole.

        The earlier of the corroborated-accusation hit and the PNM stable
        detection (the fused report contains the PNM accusation too).
        """
        candidates = [
            c
            for c in (self.corroborated_first, self.pnm_stable_detection())
            if c is not None
        ]
        return min(candidates) if candidates else None

    def accusation_fusion_latency(self) -> int | None:
        """Delivered packets between first accusation and fused conviction.

        The paper-metric SLO behind ``accusation_fusion_latency`` in
        :func:`repro.obs.telemetry.compute_cluster_slo`: how long
        watchdog evidence sat at the sink before fusion convicted.
        ``None`` unless both events happened; clamped at 0 when PNM
        alone convicted before the first accusation arrived.
        """
        fused = self.fused_detection()
        if fused is None or self.first_accusation is None:
            return None
        return max(0, fused - self.first_accusation)

    def __repr__(self) -> str:
        return (
            f"DetectionProbe(delivered={self.delivered_count}, "
            f"pnm={self.pnm_stable_detection()}, fused={self.fused_detection()})"
        )
