"""Synchronous path pipeline: the paper's evaluation harness.

The paper's experiments are parameterized purely by the forwarding path --
``n`` intermediate nodes between a source and the sink -- so most runs do
not need a full event-driven network.  :class:`PathPipeline` pushes each
packet through an ordered list of forwarding behaviors and hands survivors
to the sink, recording bytes/transmission metrics along the way.

Behaviors are the same objects the discrete-event simulator uses, so moles
and marking schemes behave identically in both execution models.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby

from repro.marking.base import MarkingScheme, NodeContext
from repro.sim.behaviors import ForwardingBehavior, HonestForwarder
from repro.sim.metrics import MetricsCollector
from repro.sim.sources import ReportSource
from repro.traceback.sink import TracebackSink
from repro.traceback.verify import PacketVerification

__all__ = ["PathPipeline"]

#: ``(behavior, None, (), ())`` for a hop of its own; ``(None, scheme,
#: contexts, node IDs)`` for a run of honest hops.
_Stage = tuple[
    ForwardingBehavior | None,
    MarkingScheme | None,
    tuple[NodeContext, ...],
    tuple[int, ...],
]


def _run_scheme(behavior: ForwardingBehavior) -> MarkingScheme | None:
    """The scheme ``behavior`` marks with if it can join a run of honest
    hops (a plain :class:`HonestForwarder` without a suppressor), else
    ``None``."""
    if type(behavior) is HonestForwarder and behavior.suppressor is None:
        return behavior.scheme
    return None


class PathPipeline:
    """Pushes packets along a fixed forwarding path into a traceback sink.

    Consecutive :class:`~repro.sim.behaviors.HonestForwarder` hops with
    no duplicate suppressor and one shared scheme form a *run*, grouped
    once here.  A run costs its scheme's
    :meth:`~repro.marking.base.MarkingScheme.forward_run` (one marking
    coin per hop, plus each mark's hashes) and one
    :meth:`~repro.sim.metrics.MetricsCollector.record_run`.  Every other
    hop -- moles, suppressing forwarders, other behaviors -- costs its
    ``forward`` call and one transmission record.  The packet's size is
    re-read only when a hop returns a different packet object;
    ``MarkedPacket.with_mark`` carries the encoded wire forward, so even
    that read encodes nothing.  Event-level packet tracing belongs to
    :class:`~repro.sim.network.NetworkSimulation`.

    Args:
        source: the injecting node (mole or honest).
        forwarders: behaviors in path order -- ``V_1`` (the source's next
            hop) first, the sink's neighbor ``V_n`` last.  The runs are
            fixed at construction: a forwarder's context, scheme or
            suppressor changed later is not seen.
        sink: the traceback sink receiving surviving packets.
        metrics: optional traffic/energy accounting.
    """

    def __init__(
        self,
        source: ReportSource,
        forwarders: Sequence[ForwardingBehavior],
        sink: TracebackSink,
        metrics: MetricsCollector | None = None,
    ):
        if not forwarders:
            raise ValueError("a forwarding path needs at least one forwarder")
        self.source = source
        self.forwarders = list(forwarders)
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self._clock = 0
        self._stages: list[_Stage] = []
        for scheme, group in groupby(self.forwarders, key=_run_scheme):
            if scheme is None:
                self._stages.extend((b, None, (), ()) for b in group)
                continue
            hops = list(group)
            ctxs = tuple(b.ctx for b in hops)
            self._stages.append((None, scheme, ctxs, tuple(b.node_id for b in hops)))

    def push(self) -> PacketVerification | None:
        """Inject one packet and run it down the path.

        Returns:
            The sink's verification of the packet, or ``None`` if some
            behavior dropped it en route.
        """
        self._clock += 1
        metrics = self.metrics
        record = metrics.record_transmission
        packet = self.source.next_packet(timestamp=self._clock)
        metrics.record_injection()
        size = packet.wire_len
        record(self.source.node_id, size)

        for behavior, scheme, ctxs, node_ids in self._stages:
            if scheme is not None:
                packet, changes = scheme.forward_run(ctxs, packet)
                metrics.record_run(node_ids, size, changes)
                if changes:
                    size = changes[-1][1]
                continue
            forwarded = behavior.forward(packet)
            if forwarded is None:
                metrics.record_drop()
                return None
            if forwarded is not packet:
                packet = forwarded
                size = packet.wire_len
            record(behavior.node_id, size)

        verification = self.sink.receive(packet, self.forwarders[-1].node_id)
        metrics.record_delivery(delay=0.0)
        return verification

    def push_many(self, count: int) -> list[PacketVerification]:
        """Inject ``count`` packets; returns verifications of survivors."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        results = []
        for _ in range(count):
            verification = self.push()
            if verification is not None:
                results.append(verification)
        return results

    def run_until_identified(
        self, max_packets: int, stable_window: int = 30
    ) -> tuple[int | None, int | None]:
        """Inject until the sink's verdict identifies a *stable* suspect.

        Early evidence can transiently single out the wrong node (the first
        few marks always have a unique most-upstream marker), so the online
        stopping rule demands the same suspect center for ``stable_window``
        consecutive packets before declaring identification -- the sink's
        practical analogue of the paper's offline "unequivocally
        identified" criterion.

        Returns:
            ``(packets_injected, suspect_center)``; the count is ``None``
            when the budget ran out before a stable identification.
        """
        if stable_window < 1:
            raise ValueError(f"stable_window must be >= 1, got {stable_window}")
        stable_center: int | None = None
        stable_since: int | None = None
        for injected in range(1, max_packets + 1):
            self.push()
            verdict = self.sink.verdict()
            center = verdict.suspect.center if verdict.identified else None
            if center is None or center != stable_center:
                stable_center = center
                stable_since = injected if center is not None else None
            if (
                stable_center is not None
                and stable_since is not None
                and injected - stable_since + 1 >= stable_window
            ):
                return injected, stable_center
        return None, stable_center
