"""Discrete-event simulation of a full sensor deployment.

Wires together a topology, a routing table, per-node forwarding behaviors,
a link model and one or more report sources, delivering surviving packets
to a :class:`~repro.traceback.sink.TracebackSink`.  Used by the examples
and integration tests; the paper's figure experiments use the faster
:class:`~repro.sim.pipeline.PathPipeline` since they only vary path length.

Beyond the paper's static-network assumption, the simulation supports
*benign dynamics* for the fault subsystem (:mod:`repro.faults`): nodes can
be failed and restored mid-run (:meth:`NetworkSimulation.fail_node`),
individual links can carry degraded models
(:class:`~repro.net.links.LinkTable` overrides), and a sender whose next
hop stopped responding retries with bounded backoff before declaring the
hop dead and asking the routing layer for a repair
(:class:`~repro.routing.repair.RepairingRoutingTable`).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping

from repro.net.links import LinkModel, LinkTable
from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.packets.packet import MarkedPacket
from repro.routing.base import RoutingError, RoutingTable
from repro.routing.repair import RepairPolicy
from repro.sim.behaviors import ForwardingBehavior
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.sources import ReportSource
from repro.traceback.sink import TracebackSink

__all__ = ["NetworkSimulation"]


class NetworkSimulation:
    """Event-driven packet forwarding over a deployment.

    Args:
        topology: the deployment graph.
        routing: next-hop table toward the sink.  A
            :class:`~repro.routing.repair.RepairingRoutingTable` enables
            route repair when a next hop is declared dead.
        behaviors: forwarding behavior for every non-sink node that may
            carry traffic (honest forwarders and moles alike).
        sink: the traceback sink.
        link: per-hop delay/loss model -- either one
            :class:`~repro.net.links.LinkModel` for every hop (the
            backward-compatible path) or a
            :class:`~repro.net.links.LinkTable` with per-edge overrides.
        rng: drives link losses and source jitter.
        metrics: optional shared metrics collector.
        suspicious: predicate choosing which delivered packets are fed to
            traceback (Section 7, "Background Traffic"); default: all.
        ingest: optional ingest pipeline (anything with
            ``submit(packet, delivering_node)``, e.g.
            :class:`repro.service.SinkIngestService`).  When set,
            suspicious deliveries are submitted there instead of calling
            ``sink.receive`` inline, and :meth:`run` flushes the pipeline
            after the event queue drains so the sink's verdict reflects
            every delivered packet.
        repair: retry/backoff policy for dead-next-hop detection; the
            default :class:`~repro.routing.repair.RepairPolicy` applies.
        obs: observability provider; ``None`` resolves to the process
            default; the metrics collector's summary registers as
            ``sim_*``.  When the provider
            carries a span tracer, every packet lifecycle event
            (``inject``, ``forward``, ``drop``, ``loss``, ``deliver``,
            ``fault``, ``repair``) becomes a zero-duration span at its
            virtual time, chained on the packet's report key, so a
            journey is ``obs.tracer.trace_of(report_key(report))``.
        watchdog: optional overhearing layer
            (:class:`repro.watchdog.WatchdogLayer`).  When set, every
            radio transmission is offered to it for overhearing, and
            :meth:`run` finalizes it (expiring pending observations and
            draining accusation relays) after the data traffic drains.
            The layer draws from its own RNG, so enabling it never
            perturbs the data-plane trajectory.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingTable,
        behaviors: Mapping[int, ForwardingBehavior],
        sink: TracebackSink,
        link: LinkModel | LinkTable | None = None,
        rng: random.Random | None = None,
        metrics: MetricsCollector | None = None,
        suspicious: Callable[[MarkedPacket], bool] | None = None,
        ingest: object | None = None,
        repair: RepairPolicy | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
        watchdog: object | None = None,
    ):
        self.topology = topology
        self.routing = routing
        self.behaviors = dict(behaviors)
        self.sink = sink
        if isinstance(link, LinkTable):
            self.links = link
        else:
            self.links = LinkTable(default=link)
        self.rng = rng if rng is not None else random.Random(0)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.suspicious = suspicious if suspicious is not None else (lambda _: True)
        self.ingest = ingest
        self.obs = resolve_provider(obs)
        self.obs.register_stats("sim", self.metrics.summary)
        self.repair_policy = repair if repair is not None else RepairPolicy()
        self.sim = Simulator()
        self.delivered: list[MarkedPacket] = []
        self._quarantined: set[int] = set()
        self._down: set[int] = set()
        #: Callbacks fired after every radio transmission with
        #: ``(node_id, packet_len)`` -- the fault injector's energy
        #: bookkeeping hook.
        self.transmission_listeners: list[Callable[[int, int], None]] = []
        # Attach last: the layer binds live simulation state (the
        # down-node set among it) into its tap.
        self.watchdog = watchdog
        if watchdog is not None:
            watchdog.attach(self)
        # Direct reference to the layer's (attach-specialized) tap: the
        # transmit path calls it once per radio frame, so skip the
        # two-step attribute chain there.
        self._watchdog_tap = (
            watchdog.on_transmission if watchdog is not None else None
        )

    # Isolation ---------------------------------------------------------------

    def quarantine(self, node_ids: set[int]) -> None:
        """Stop accepting transmissions from ``node_ids``.

        Models the paper's fight-back step: neighbors are notified not to
        forward traffic from identified moles (Section 2.2).  Quarantined
        nodes' transmissions are dropped by their neighbors, cutting the
        attack traffic off at its first hop.
        """
        self._quarantined |= set(node_ids)

    @property
    def quarantined(self) -> frozenset[int]:
        return frozenset(self._quarantined)

    # Liveness ----------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Take ``node_id`` down (crash or energy depletion).

        A down node neither injects, forwards, nor receives; packets in
        flight toward it die on arrival, and senders detect the silence
        through the retry/backoff policy.

        Raises:
            ValueError: if the sink is targeted -- the sink is trusted
                and assumed always up (Section 2.2).
        """
        if node_id == self.topology.sink:
            raise ValueError("the sink cannot fail")
        self._down.add(node_id)

    def restore_node(self, node_id: int) -> None:
        """Bring a previously failed node back up."""
        self._down.discard(node_id)

    def node_is_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently failed."""
        return node_id in self._down

    @property
    def down_nodes(self) -> frozenset[int]:
        """All currently failed nodes."""
        return frozenset(self._down)

    # Traffic scheduling ------------------------------------------------------

    def add_periodic_source(
        self,
        source: ReportSource,
        interval: float,
        count: int,
        start: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Schedule ``count`` injections from ``source`` every ``interval``.

        Args:
            source: the injecting node's report generator.
            interval: seconds between consecutive reports.
            count: total reports to inject.
            start: virtual time of the first injection.
            jitter: uniform +/- jitter applied to each interval.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")

        def inject(remaining: int) -> None:
            self._inject(source)
            if remaining > 1:
                delay = interval
                if jitter:
                    delay = max(1e-9, interval + self.rng.uniform(-jitter, jitter))
                self.sim.schedule(delay, lambda: inject(remaining - 1))

        if count > 0:
            self.sim.schedule_at(start, lambda: inject(count))

    def _inject(self, source: ReportSource) -> None:
        if source.node_id in self._down:
            # A crashed sensor generates nothing; the injection slot is
            # simply skipped (no energy spent, no trace event).
            return
        packet = source.next_packet(timestamp=int(self.sim.now * 1000))
        self.metrics.record_injection()
        self._trace("inject", source.node_id, packet)
        self._transmit(source.node_id, packet, injected_at=self.sim.now)

    def _trace(self, kind: str, node: int, packet: MarkedPacket) -> None:
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.event(packet.report.trace_key, kind, time=self.sim.now, node=node)

    # Forwarding --------------------------------------------------------------

    def _transmit(
        self,
        from_node: int,
        packet: MarkedPacket,
        injected_at: float,
        attempt: int = 0,
    ) -> None:
        """Send ``packet`` from ``from_node`` toward its next hop.

        ``attempt`` counts retransmissions toward the *current* next hop;
        it resets to zero after a successful route repair.
        """
        if from_node in self._quarantined:
            # Neighbors ignore transmissions from quarantined nodes; the
            # packet dies at this hop without consuming downstream energy.
            self.metrics.record_drop()
            return
        if from_node in self._down:
            # The node crashed while this packet sat in its send queue.
            self.metrics.record_fault(from_node)
            self._trace("fault", from_node, packet)
            return
        try:
            next_hop = self.routing.next_hop(from_node)
        except RoutingError:
            # Churn cut this node off from the sink entirely.
            self.metrics.record_fault(from_node)
            self._trace("fault", from_node, packet)
            return
        if next_hop != self.topology.sink and next_hop in self._down:
            self._retry_or_repair(from_node, next_hop, packet, injected_at, attempt)
            return
        self.metrics.record_transmission(from_node, packet.wire_len)
        self._notify_transmission(from_node, packet.wire_len)
        tap = self._watchdog_tap
        if tap is not None:
            # The frame is on the air: neighbors may overhear it whether
            # or not the directed link delivers it.
            tap(self.sim.now, from_node, next_hop, packet)
        model = self.links.model_for(from_node, next_hop)
        if not model.is_delivered(self.rng):
            self.metrics.record_loss()
            self._trace("loss", from_node, packet)
            return
        delay = model.transmission_delay(packet.wire_len)
        self.sim.schedule(
            delay,
            lambda: self._arrive(next_hop, from_node, packet, injected_at),
        )

    def _retry_or_repair(
        self,
        from_node: int,
        next_hop: int,
        packet: MarkedPacket,
        injected_at: float,
        attempt: int,
    ) -> None:
        """Handle an unresponsive next hop: backoff retries, then repair."""
        if attempt < self.repair_policy.max_retries:
            # The failed attempt still cost a transmission (no ack came
            # back); retry after backoff in case the hop recovers.
            self.metrics.record_transmission(from_node, packet.wire_len)
            self._notify_transmission(from_node, packet.wire_len)
            tap = self._watchdog_tap
            if tap is not None:
                tap(self.sim.now, from_node, next_hop, packet)
            self.sim.schedule(
                self.repair_policy.backoff_delay(attempt),
                lambda: self._transmit(
                    from_node, packet, injected_at, attempt=attempt + 1
                ),
            )
            return
        mark_dead = getattr(self.routing, "mark_dead", None)
        if mark_dead is not None:
            mark_dead(next_hop)
            self.metrics.record_repair()
            self._trace("repair", from_node, packet)
            # Re-enter with a fresh attempt budget; if the repaired route
            # starts with another dead hop the cycle repeats, and it
            # terminates because every repair removes one distinct node.
            self._transmit(from_node, packet, injected_at, attempt=0)
            return
        # Static routing cannot recover: the packet dies to the fault.
        self.metrics.record_fault(from_node)
        self._trace("fault", from_node, packet)

    def _notify_transmission(self, node_id: int, packet_len: int) -> None:
        for listener in self.transmission_listeners:
            listener(node_id, packet_len)

    def _arrive(
        self,
        node: int,
        from_node: int,
        packet: MarkedPacket,
        injected_at: float,
    ) -> None:
        if node == self.topology.sink:
            self._deliver(packet, delivering_node=from_node, injected_at=injected_at)
            return
        if node in self._down:
            # The receiver crashed while the packet was in flight.
            self.metrics.record_fault(node)
            self._trace("fault", node, packet)
            return
        behavior = self.behaviors.get(node)
        if behavior is None:
            raise KeyError(
                f"node {node} is on a forwarding path but has no behavior"
            )
        forwarded = behavior.forward(packet)
        if forwarded is None:
            self.metrics.record_drop((self.sim.now, node))
            self._trace("drop", node, packet)
            return
        self._trace("forward", node, forwarded)
        self._transmit(node, forwarded, injected_at)

    def _deliver(
        self, packet: MarkedPacket, delivering_node: int, injected_at: float
    ) -> None:
        self.metrics.record_delivery(delay=self.sim.now - injected_at)
        self._trace("deliver", delivering_node, packet)
        self.delivered.append(packet)
        if self.suspicious(packet):
            if self.ingest is not None:
                self.ingest.submit(packet, delivering_node)
            else:
                self.sink.receive(packet, delivering_node)

    # Execution ---------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain scheduled traffic (see :meth:`Simulator.run`).

        When an ingest pipeline is attached, it is flushed afterwards so
        every delivered packet has reached the sink.
        """
        self.sim.run(until=until, max_events=max_events)
        if self.watchdog is not None:
            # Expiring pending observations may emit final accusations
            # whose relays need one more drain of the event queue.
            self.watchdog.finalize(self.sim.now)
            self.sim.run(max_events=max_events)
        if self.ingest is not None:
            flush = getattr(self.ingest, "flush", None)
            if flush is not None:
                flush()

    def __repr__(self) -> str:
        return (
            f"NetworkSimulation({self.topology!r}, now={self.sim.now:.3f}, "
            f"delivered={len(self.delivered)})"
        )
