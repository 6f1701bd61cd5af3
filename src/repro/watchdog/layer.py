"""The overhearing layer: radio taps, scoring, and accusation relay.

A :class:`WatchdogLayer` attaches to a
:class:`~repro.sim.network.NetworkSimulation` (its ``watchdog``
argument) and is notified of every radio transmission.  For each one it
resolves, per the :class:`~repro.net.overhear.OverhearModel`, which
neighbors overheard the frame; overhearing watchers run their
:class:`~repro.watchdog.monitor.WatchdogMonitor` checks, and a score
crossing the accusation threshold emits a
:class:`~repro.watchdog.accusation.LocalAccusation` relayed hop-by-hop
toward the sink through the routing tree -- with real per-hop
transmission delays, link-loss draws, dead-node checks, and energy
accounting (the simulation's transmission listeners fire for every relay
hop).  A delivered accusation goes to the simulation's sink
(``receive_accusation``), which counts it as evidence.  Relays are
best-effort: a lost or suppressed accusation is simply gone, and
detection falls back to PNM traceback.

The layer draws all its randomness from its **own** RNG, never the
simulation's: enabling the watchdog consumes no draw the packet path
would have made, so the data-plane trajectory -- deliveries, losses,
marks, verdicts -- is bit-for-bit identical with the watchdog on or off.
That isolation is what makes detection-latency comparisons apples-to-
apples and keeps the PNM-only output byte-identical when the layer is
disabled (pinned by ``tests/test_properties/test_watchdog_fusion.py``).
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.adversary.watchdog import AccusationSuppressor, LyingWatchdog
from repro.net.overhear import OverhearModel
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import report_key as _report_key
from repro.packets.packet import MarkedPacket
from repro.routing.base import RoutingError
from repro.watchdog.accusation import (
    ACCUSATION_WIRE_LEN,
    DeliveredAccusation,
    LocalAccusation,
)
from repro.watchdog.monitor import NeighborScore, WatchdogConfig, WatchdogMonitor

__all__ = ["WatchdogLayer"]


class WatchdogLayer:
    """Deployment-wide overhearing, scoring, and accusation transport.

    Args:
        model: who can overhear whom, and how reliably.
        config: accumulator semantics shared by every monitor.
        rng: drives overhear and relay-loss draws; independent of the
            simulation RNG by design (see module docstring).  Defaults to
            a deterministically seeded generator.
        liars: compromised watchers that frame honest neighbors instead
            of monitoring (:class:`~repro.adversary.watchdog.LyingWatchdog`).
        suppressors: colluding relays that drop accusations protecting
            their partners
            (:class:`~repro.adversary.watchdog.AccusationSuppressor`).
        obs: observability provider; ``None`` resolves to the process
            default.  When it carries a span tracer, every ``flag``
            becomes a span chained on the packet's report key; overhears
            are counted (``watchdog_overhears_total``), not traced.
    """

    def __init__(
        self,
        model: OverhearModel,
        config: WatchdogConfig | None = None,
        rng: random.Random | None = None,
        liars: Iterable[LyingWatchdog] = (),
        suppressors: Iterable[AccusationSuppressor] = (),
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.model = model
        self.config = config if config is not None else WatchdogConfig()
        self.rng = rng if rng is not None else random.Random("watchdog")
        self.obs = resolve_provider(obs)
        self.monitors: dict[int, WatchdogMonitor] = {}
        self.delivered: list[DeliveredAccusation] = []
        self.emitted: list[LocalAccusation] = []
        self.suppressed: list[LocalAccusation] = []
        self.lost: list[LocalAccusation] = []
        self._liars = {liar.watcher: liar for liar in liars}
        self._liar_overhears: dict[int, int] = dict.fromkeys(self._liars, 0)
        self._liar_fired: set[int] = set()
        self._suppressors = {s.node: s.protects for s in suppressors}
        self._sim = None
        self._sink = model.topology.sink
        # Overhears are counted locally on the hot path and flushed to
        # the provider once per run in :meth:`finalize`.  The bound hot
        # path keeps its own closure-local count; ``_flush_overhears``
        # folds it in here before the provider sees it.
        self._overhears = 0
        self._flush_overhears = None

    def attach(self, sim) -> None:
        """Bind to the simulation that will feed transmissions in.

        Binding also specializes the per-transmission hot path: a
        closure with the simulation, caches, and config scalars
        pre-resolved shadows :meth:`on_transmission` on the instance.
        The plain method remains the readable reference implementation
        (and the pre-attach behavior); the two are pinned equivalent by
        ``tests/test_watchdog/test_layer.py``.  Swap ``rng``, ``obs`` or
        the adversary sets only *before* attaching -- the closure binds
        them once.
        """
        self._sim = sim
        self._bind_hot_path()

    def _bind_hot_path(self) -> None:
        sim = self._sim
        model = self.model
        sink = self._sink
        monitors = self.monitors
        liars = self._liars
        config = self.config
        timeout = config.pending_timeout
        max_pending = config.max_pending
        flag_llr = config.flag_llr
        consistent_llr = config.consistent_llr
        score_floor = config.score_floor
        threshold = config.threshold
        links = model.links
        tracer = self.obs.tracer
        node_is_down = sim.node_is_down
        # NetworkSimulation mutates its down-node set in place, so the
        # bound set stays live; membership beats a method call per
        # watcher.  Fall back to the method for simulation doubles.
        down_nodes = getattr(sim, "_down", None)
        if not isinstance(down_nodes, set):
            down_nodes = None
        rng_random = self.rng.random
        obs_inc = self.obs.inc
        monitor_for = self.monitor_for
        emit = self._emit
        liar_overheard = self._liar_overheard
        has_liars = bool(liars)
        # Every (watcher, watched) pending queue gets a shared one-slot
        # *lower bound* on its oldest entry's timestamp.  The hot path
        # probes ``box[0] <= now - timeout`` instead of materializing an
        # iterator over the queue; only when the bound ages past the
        # timeout does it pay for a real head lookup (and re-tightens the
        # bound).  Soundness: the box only ever holds a past head time or
        # a past ``now``, and virtual time is monotone, so the bound never
        # exceeds the true head timestamp -- a stale bound can cost a
        # spurious probe, never a missed expiry.
        boxes: dict[tuple[int, int], list[float]] = {}
        # packed (sender, receiver) -> (cert_monitor, cert_queue,
        # cert_box, steps): the static part of the per-transmission
        # resolution with every dict lookup already paid.  The cert
        # triple drives the sender's certain-path insert (cert_monitor
        # is None when the receiver is the sink or the sender is a lying
        # watcher); each step is ``(watcher, monitor, out_queue,
        # out_box, in_queue, in_box, can_track_inbound, prob, is_liar)``
        # -- for liar steps the monitor slot carries the LyingWatchdog
        # itself.  Watchers that can neither track the receiver's
        # inbound nor ever hold a pending for the sender (their queue
        # was never created) are dropped at build time; that is sound
        # because *every* queue creation goes through a plan build,
        # which invalidates the plans of the watched sender below.
        # Rebuilt wholesale whenever the link table's version moves
        # (fault-injected overrides); monitors, queues, and boxes are
        # stable objects, so a rebuild re-resolves the same state.
        plans: dict[int, tuple] = {}
        plans_version = links.version
        overhears = 0

        def queue_for(monitor: WatchdogMonitor, watched: int) -> dict:
            """Get-or-create ``monitor``'s pending queue for ``watched``.

            Creation means ``watched``'s transmissions now have a watcher
            holding checkable evidence, so any plan built while the queue
            did not exist (and which therefore dropped the step) is stale:
            invalidate every plan whose sender is ``watched``.
            """
            queue = monitor._pending.get(watched)
            if queue is None:
                queue = monitor._pending[watched] = {}
                for edge in [e for e in plans if e >> 20 == watched]:
                    del plans[edge]
            return queue

        def build_plan(sender: int, receiver: int) -> tuple:
            watchable = receiver != sink
            cmon = cq = cbox = None
            if watchable and (not has_liars or sender not in liars):
                cmon = monitor_for(sender)
                cq = queue_for(cmon, receiver)
                cbox = boxes.setdefault((sender, receiver), [0.0])
            neighbors = model.neighbor_set(receiver) if watchable else ()
            steps = []
            for watcher in model.watchers_of(sender):
                if watcher == sender:
                    continue
                prob = model.overhear_prob(sender, watcher)
                if has_liars and watcher in liars:
                    steps.append(
                        (
                            watcher,
                            liars[watcher],
                            None,
                            None,
                            None,
                            None,
                            False,
                            prob,
                            True,
                        )
                    )
                    continue
                can_track = (
                    watchable and watcher != receiver and watcher in neighbors
                )
                monitor = monitors.get(watcher)
                out_q = (
                    None if monitor is None else monitor._pending.get(sender)
                )
                if out_q is None and not can_track:
                    # Dead step: nothing to check now, and queue creation
                    # invalidates this plan if that ever changes.
                    continue
                if monitor is None:
                    monitor = monitor_for(watcher)
                out_box = (
                    boxes.setdefault((watcher, sender), [0.0])
                    if out_q is not None
                    else None
                )
                in_q = in_box = None
                if can_track:
                    in_q = queue_for(monitor, receiver)
                    in_box = boxes.setdefault((watcher, receiver), [0.0])
                steps.append(
                    (
                        watcher,
                        monitor,
                        out_q,
                        out_box,
                        in_q,
                        in_box,
                        can_track,
                        prob,
                        False,
                    )
                )
            return (cmon, cq, cbox, tuple(steps))

        def flush_overhears() -> None:
            nonlocal overhears
            self._overhears += overhears
            overhears = 0

        self._flush_overhears = flush_overhears

        def hot(
            now: float,
            sender: int,
            receiver: int,
            packet: MarkedPacket,
            _score=NeighborScore,
        ) -> None:
            nonlocal overhears, plans_version
            report = packet.report
            marks = packet.marks
            # Frame identity: the pinned object id, not the report
            # digest.  Every pending entry holds the report itself, so a
            # live entry's id cannot be recycled; reports are frozen and
            # ride the whole path as one object, making object identity
            # and content identity coincide -- without hashing bytes (or
            # SipHash per-process randomization) on the hot path.
            key = id(report)
            if links.version != plans_version:
                plans.clear()
                plans_version = links.version
            # Node ids are small non-negative ints, so one packed int
            # hashes cheaper than a tuple key.
            edge = (sender << 20) | receiver
            plan = plans.get(edge)
            if plan is None:
                plan = plans[edge] = build_plan(sender, receiver)
            cmon, cq, cbox, steps = plan
            cutoff = now - timeout
            if cmon is not None:
                # Inlined WatchdogMonitor.record_inbound (certain path).
                if cq:
                    if cbox[0] <= cutoff:
                        cmon._expire_queue(now, receiver, cq)
                        cbox[0] = cq[next(iter(cq))][1] if cq else now
                    if len(cq) >= max_pending:
                        del cq[next(iter(cq))]
                        cmon._score_missing(receiver)
                else:
                    cbox[0] = now
                cq[key] = (marks, now, report)
                if cmon.maybe_due:
                    for accusation in cmon.accusations_due(now):
                        emit(accusation)
            for (
                watcher,
                monitor,
                out_q,
                out_box,
                in_q,
                in_box,
                can_track,
                prob,
                is_liar,
            ) in steps:
                if is_liar:
                    if (
                        watcher in down_nodes
                        if down_nodes is not None
                        else node_is_down(watcher)
                    ):
                        continue
                    if prob < 1.0 and (prob <= 0.0 or rng_random() >= prob):
                        continue
                    overhears += 1
                    liar_overheard(now, monitor)
                    continue
                if not can_track and not out_q:
                    continue
                if (
                    watcher in down_nodes
                    if down_nodes is not None
                    else node_is_down(watcher)
                ):
                    continue
                if prob < 1.0 and (prob <= 0.0 or rng_random() >= prob):
                    continue
                overhears += 1
                if out_q:
                    # Inlined WatchdogMonitor.record_outbound.
                    if out_box[0] <= cutoff:
                        monitor._expire_queue(now, sender, out_q)
                        out_box[0] = (
                            out_q[next(iter(out_q))][1] if out_q else now
                        )
                    hit = out_q.pop(key, None)
                    if hit is not None:
                        scores = monitor.scores
                        entry = scores.get(sender)
                        if entry is None:
                            entry = scores[sender] = _score()
                        entry.observations += 1
                        inbound_marks = hit[0]
                        inbound_len = len(inbound_marks)
                        appended = len(marks) - inbound_len
                        # ``marks is inbound_marks`` is the no-mark honest
                        # forwarding (the tuple rides through unchanged):
                        # an identity hit needs no slice allocation.
                        if marks is inbound_marks or (
                            (appended == 0 or appended == 1)
                            and marks[:inbound_len] == inbound_marks
                        ):
                            slid = entry.score + consistent_llr
                            entry.score = (
                                slid if slid > score_floor else score_floor
                            )
                        else:
                            entry.flagged += 1
                            entry.score += flag_llr
                            if (
                                entry.score >= threshold
                                and not entry.accused
                            ):
                                monitor.maybe_due = True
                            obs_inc("watchdog_flags_total")
                            if tracer is not None:
                                tracer.event(
                                    report.trace_key, "flag", time=now, node=watcher
                                )
                if can_track:
                    # Inlined WatchdogMonitor.record_inbound (overheard
                    # inbound for the receiver).
                    if in_q:
                        if in_box[0] <= cutoff:
                            monitor._expire_queue(now, receiver, in_q)
                            in_box[0] = (
                                in_q[next(iter(in_q))][1] if in_q else now
                            )
                        if len(in_q) >= max_pending:
                            del in_q[next(iter(in_q))]
                            monitor._score_missing(receiver)
                    else:
                        in_box[0] = now
                    in_q[key] = (marks, now, report)
                if monitor.maybe_due:
                    for accusation in monitor.accusations_due(now):
                        emit(accusation)

        self.on_transmission = hot  # type: ignore[method-assign]

    def monitor_for(self, watcher: int) -> WatchdogMonitor:
        """The (lazily created) monitor running on ``watcher``."""
        monitor = self.monitors.get(watcher)
        if monitor is None:
            monitor = WatchdogMonitor(watcher_id=watcher, config=self.config)
            self.monitors[watcher] = monitor
        return monitor

    # Radio taps --------------------------------------------------------------

    def on_transmission(
        self, now: float, sender: int, receiver: int, packet: MarkedPacket
    ) -> None:
        """Process one data-plane transmission (called by the simulator).

        The sender itself always knows what it handed to ``receiver``
        (it transmitted the frame); every other radio neighbor overhears
        it probabilistically.  Watchers check the frame as ``sender``'s
        *outbound* against their pending record of what ``sender``
        received, and record it as ``receiver``'s *inbound* -- unless the
        receiver is the sink, whose deliveries are terminal.

        A watcher the frame carries no actionable information for is
        skipped before the overhear draw: it must either hold a pending
        inbound for ``sender`` (so the frame is checkable outbound
        evidence) or be able to track the receiver's inbound.  Modeling
        any other reception would only burn simulation time.
        """
        sim = self._sim
        model = self.model
        liars = self._liars
        key = _report_key(packet.report)
        receiver_watchable = receiver != self._sink
        if receiver_watchable and sender not in liars:
            monitor = self.monitor_for(sender)
            monitor.record_inbound(now, receiver, packet, key)
            self._emit_due(monitor, now)
        receiver_neighbors = (
            model.neighbor_set(receiver) if receiver_watchable else ()
        )
        for watcher in model.watchers_of(sender):
            if watcher == sender:
                continue
            monitor = self.monitors.get(watcher)
            pending = monitor is not None and monitor.pending_count(sender) > 0
            # Only track the receiver's inbound if this watcher can also
            # overhear the receiver's *outbound* -- i.e. they are radio
            # neighbors.  Without the gate, a watcher two hops upstream
            # would bank pendings it can never match, and their expiry
            # would read as "missing" evidence against an honest node.
            can_track_inbound = (
                receiver_watchable
                and watcher != receiver
                and watcher in receiver_neighbors
            )
            if not can_track_inbound and not pending and watcher not in liars:
                continue
            if sim is not None and sim.node_is_down(watcher):
                continue
            prob = model.overhear_prob(sender, watcher)
            if prob < 1.0 and (prob <= 0.0 or self.rng.random() >= prob):
                continue
            self._overhears += 1
            if watcher in liars:
                self._liar_overheard(now, liars[watcher])
                continue
            monitor = self.monitor_for(watcher)
            if pending and monitor.record_outbound(now, sender, packet, key) is False:
                self.obs.inc("watchdog_flags_total")
                self._trace(now, "flag", watcher, packet)
            if can_track_inbound:
                monitor.record_inbound(now, receiver, packet, key)
            self._emit_due(monitor, now)

    def _emit_due(self, monitor: WatchdogMonitor, now: float) -> None:
        """Emit every accusation ``monitor`` has newly crossed into."""
        if monitor.maybe_due:
            for accusation in monitor.accusations_due(now):
                self._emit(accusation)

    def finalize(self, now: float) -> None:
        """End-of-run flush: expire pendings, emit overdue accusations.

        Called by :meth:`NetworkSimulation.run` after the event queue
        drains; any accusations emitted here schedule relay events the
        simulation drains with one more pass.
        """
        if self._flush_overhears is not None:
            self._flush_overhears()
        if self._overhears:
            self.obs.inc("watchdog_overhears_total", float(self._overhears))
            self._overhears = 0
        for watcher in sorted(self.monitors):
            monitor = self.monitors[watcher]
            monitor.expire_all(now)
            for accusation in monitor.accusations_due(now):
                self._emit(accusation)

    # Accusation transport ----------------------------------------------------

    def _liar_overheard(self, now: float, liar: LyingWatchdog) -> None:
        self._liar_overhears[liar.watcher] += 1
        if liar.watcher in self._liar_fired:
            return
        if self._liar_overhears[liar.watcher] < liar.after_overhears:
            return
        self._liar_fired.add(liar.watcher)
        # A plausible-looking fabrication: threshold-crossing score,
        # observation counts a real detection could have produced.
        self._emit(
            LocalAccusation(
                watcher=liar.watcher,
                accused=liar.victim,
                score=self.config.threshold + self.config.flag_llr,
                observations=liar.after_overhears,
                flagged=2,
                missing=0,
                emitted_at=now,
            )
        )

    def _emit(self, accusation: LocalAccusation) -> None:
        self.emitted.append(accusation)
        self.obs.inc("watchdog_accusations_emitted_total")
        self._relay(accusation, accusation.watcher, hops=0)

    def _relay(self, accusation: LocalAccusation, node: int, hops: int) -> None:
        """Forward ``accusation`` one hop toward the sink, best-effort."""
        sim = self._sim
        if sim is None:
            raise RuntimeError("WatchdogLayer.attach was never called")
        if node == self.model.topology.sink:
            self._deliver(accusation, hops)
            return
        if sim.node_is_down(node):
            self._lose(accusation)
            return
        protected = self._suppressors.get(node)
        if protected is not None and accusation.accused in protected:
            self.suppressed.append(accusation)
            self.obs.inc("watchdog_accusations_suppressed_total")
            return
        try:
            next_hop = sim.routing.next_hop(node)
        except RoutingError:
            self._lose(accusation)
            return
        # The relay hop costs real radio energy and rides the real link:
        # loss kills the accusation (no acks or retries for control
        # traffic), and serialization delays its arrival.
        for listener in sim.transmission_listeners:
            listener(node, ACCUSATION_WIRE_LEN)
        link = sim.links.model_for(node, next_hop)
        if not link.is_delivered(self.rng):
            self._lose(accusation)
            return
        delay = link.transmission_delay(ACCUSATION_WIRE_LEN)
        sim.sim.schedule(
            delay, lambda: self._relay(accusation, next_hop, hops + 1)
        )

    def _deliver(self, accusation: LocalAccusation, hops: int) -> None:
        sim = self._sim
        delivered = DeliveredAccusation(
            accusation=accusation, delivered_at=sim.sim.now, hops=hops
        )
        self.delivered.append(delivered)
        sim.sink.receive_accusation(accusation.accused)
        self.obs.inc("watchdog_accusations_delivered_total")
        self.obs.observe("watchdog_accusation_delay_seconds", delivered.latency)
        self.obs.observe("watchdog_accusation_hops", float(hops))

    def _lose(self, accusation: LocalAccusation) -> None:
        self.lost.append(accusation)
        self.obs.inc("watchdog_accusations_lost_total")

    def _trace(self, now: float, kind: str, node: int, packet: MarkedPacket) -> None:
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.event(packet.report.trace_key, kind, time=now, node=node)

    def __repr__(self) -> str:
        return (
            f"WatchdogLayer(monitors={len(self.monitors)}, "
            f"emitted={len(self.emitted)}, delivered={len(self.delivered)})"
        )
