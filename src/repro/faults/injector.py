"""The fault injector: arming a schedule on a live simulation.

A :class:`FaultInjector` binds a :class:`~repro.faults.schedule.FaultSchedule`
to a :class:`~repro.sim.network.NetworkSimulation`.  :meth:`FaultInjector.arm`
registers every event on the engine's virtual clock; as the run replays,
the injector applies each fault (failing nodes, installing per-link
model overrides) and reverts it on recovery, keeping its own applied-fault
log and the per-node / per-link *fault intervals* that the attribution
layer (:mod:`repro.faults.attribution`) later consults.

Energy depletion rides the simulation's transmission-listener hook: once
armed, every radio transmission is checked against the node's budget via
the metrics collector's energy model, and the node crashes (virtual-time
stamped) the moment the budget is exhausted -- no wall clock, no polling.

The injector also keeps the routing and service layers honest:

* on recovery it tells a repairing routing table
  (:class:`~repro.routing.repair.RepairingRoutingTable`) to re-admit the
  node, restoring pre-fault routes;
* on any node fault it invalidates ingest-service cache state derived
  from that node's key (:meth:`repro.service.SinkIngestService.invalidate_node`),
  so a crashed node's memoized resolution entries cannot linger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.sim.network import NetworkSimulation

__all__ = ["AppliedFault", "FaultInjector"]


@dataclass(frozen=True)
class AppliedFault:
    """One fault (or recovery) the injector actually applied.

    Attributes:
        time: virtual time of application.
        kind: the schedule kind, or ``"deplete-crash"`` for a crash
            triggered by an exhausted energy budget.
        node: affected node, when node-scoped.
        edge: affected directed edge, when link-scoped.
    """

    time: float
    kind: str
    node: int | None = None
    edge: tuple[int, int] | None = None


class FaultInjector:
    """Applies and reverts scheduled faults on a network simulation.

    Args:
        sim: the simulation to inject into.  Its routing table may be a
            :class:`~repro.routing.repair.RepairingRoutingTable` (enables
            repair); its ``ingest`` may expose ``invalidate_node`` (cache
            hygiene on crashes).
        schedule: the faults to arm; validated against the simulation's
            topology.
    """

    def __init__(self, sim: NetworkSimulation, schedule: FaultSchedule):
        schedule.validate(sim.topology)
        self.sim = sim
        self.schedule = schedule
        self.applied: list[AppliedFault] = []
        self._armed = False
        self._budgets: dict[int, float] = {}
        # node -> [start, end] down intervals; end is +inf while down.
        self._node_intervals: dict[int, list[list[float]]] = {}
        # directed edge -> [start, end] degraded intervals.
        self._link_intervals: dict[tuple[int, int], list[list[float]]] = {}

    # Arming ------------------------------------------------------------------

    def arm(self) -> int:
        """Register every scheduled event on the simulation clock.

        Call once, before :meth:`NetworkSimulation.run`.

        Returns:
            The number of events armed.

        Raises:
            RuntimeError: if armed twice.
            ValueError: if an event lies in the simulation's past.
        """
        if self._armed:
            raise RuntimeError("injector is already armed")
        self._armed = True
        for event in self.schedule:
            self.sim.sim.schedule_at(
                event.time, lambda e=event: self._apply(e)
            )
        if any(e.kind == "deplete" for e in self.schedule):
            self.sim.transmission_listeners.append(self._on_transmission)
        return len(self.schedule)

    # Application -------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == "crash":
            self._fail_node(event.node, "crash")
        elif event.kind == "recover":
            self._recover_node(event.node)
        elif event.kind == "deplete":
            assert event.node is not None and event.budget_joules is not None
            self._budgets[event.node] = event.budget_joules
            self._log(event.kind, node=event.node)
        elif event.kind == "degrade-link":
            assert event.edge is not None and event.link is not None
            u, v = event.edge
            self.sim.links.set_override(u, v, event.link)
            self._open_interval(self._link_intervals, (u, v))
            self._log(event.kind, edge=(u, v))
        elif event.kind == "restore-link":
            assert event.edge is not None
            u, v = event.edge
            if self.sim.links.clear_override(u, v):
                self._close_interval(self._link_intervals, (u, v))
                self._log(event.kind, edge=(u, v))
        elif event.kind == "region-outage":
            assert event.center is not None and event.radius is not None
            cx, cy = event.center
            affected = sorted(
                node
                for node in self.sim.topology.sensor_nodes()
                if math.hypot(
                    self.sim.topology.position(node)[0] - cx,
                    self.sim.topology.position(node)[1] - cy,
                )
                <= event.radius
            )
            for node in affected:
                self._fail_node(node, "region-outage")
                if event.duration is not None:
                    self.sim.sim.schedule_at(
                        event.time + event.duration,
                        lambda n=node: self._recover_node(n),
                    )

    def _fail_node(self, node: int | None, kind: str) -> None:
        assert node is not None
        if self.sim.node_is_down(node):
            return
        self.sim.fail_node(node)
        self._open_interval(self._node_intervals, node)
        self._log(kind, node=node)
        # A dead node's cached resolver state must not linger in the
        # ingest service; its key is not revoked (the node is honest),
        # but its marks stop arriving and hot-set slots are precious.
        invalidate = getattr(self.sim.ingest, "invalidate_node", None)
        if invalidate is not None:
            invalidate(node)

    def _recover_node(self, node: int | None) -> None:
        assert node is not None
        if not self.sim.node_is_down(node):
            return
        self.sim.restore_node(node)
        self._close_interval(self._node_intervals, node)
        self._log("recover", node=node)
        mark_alive = getattr(self.sim.routing, "mark_alive", None)
        if mark_alive is not None:
            mark_alive(node)

    def _on_transmission(self, node: int, packet_len: int) -> None:
        budget = self._budgets.get(node)
        if budget is None:
            return
        if self.sim.metrics.energy_spent(node) >= budget:
            del self._budgets[node]
            self._fail_node(node, "deplete-crash")

    # Bookkeeping -------------------------------------------------------------

    def _log(
        self,
        kind: str,
        node: int | None = None,
        edge: tuple[int, int] | None = None,
    ) -> None:
        self.applied.append(
            AppliedFault(time=self.sim.sim.now, kind=kind, node=node, edge=edge)
        )
        self.sim.obs.inc("faults_applied_total", kind=kind)

    def _open_interval(self, intervals: dict, key: object) -> None:
        intervals.setdefault(key, []).append([self.sim.sim.now, math.inf])

    def _close_interval(self, intervals: dict, key: object) -> None:
        spans = intervals.get(key)
        if spans and spans[-1][1] == math.inf:
            spans[-1][1] = self.sim.sim.now

    # Queries (the attribution layer's view) ----------------------------------

    def node_was_down(self, node: int, time: float, slack: float = 0.0) -> bool:
        """Whether ``node`` was failed at virtual ``time`` (+/- ``slack``).

        The slack absorbs boundary effects: a packet that reached a node
        an instant before its crash died *to* the crash.
        """
        return any(
            start - slack <= time <= end + slack
            for start, end in self._node_intervals.get(node, ())
        )

    def link_was_degraded(
        self, from_node: int, to_node: int, time: float, slack: float = 0.0
    ) -> bool:
        """Whether the directed link carried an override at ``time``."""
        return any(
            start - slack <= time <= end + slack
            for start, end in self._link_intervals.get((from_node, to_node), ())
        )

    def node_had_degraded_link(
        self, node: int, time: float, slack: float = 0.0
    ) -> bool:
        """Whether any link into or out of ``node`` was degraded at ``time``."""
        return any(
            node in edge and self.link_was_degraded(*edge, time, slack)
            for edge in sorted(self._link_intervals)
        )

    def counts(self) -> dict[str, int]:
        """Applied faults per kind, deterministically ordered."""
        out: dict[str, int] = {}
        for fault in self.applied:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return {kind: out[kind] for kind in sorted(out)}

    def __repr__(self) -> str:
        return (
            f"FaultInjector({len(self.schedule)} scheduled, "
            f"{len(self.applied)} applied, armed={self._armed})"
        )
