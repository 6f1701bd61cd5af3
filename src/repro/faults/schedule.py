"""Declarative fault schedules: what breaks, where, and when.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records, each pinned to a virtual timestamp on the simulation clock.
Schedules are plain data -- building one performs no side effects; the
:class:`~repro.faults.injector.FaultInjector` arms it on a simulation.

Five fault kinds cover the benign-failure taxonomy the dynamic-network
literature exercises:

``crash`` / ``recover``
    A node dies (stops injecting, forwarding, and receiving) and later
    comes back.
``deplete``
    Energy depletion: from the event time on, the node carries a radio
    energy budget; it crashes the moment its cumulative transmission
    energy (per the metrics collector's
    :class:`~repro.sim.metrics.EnergyModel`) exceeds the budget.
``degrade-link`` / ``restore-link``
    One *directed* link swaps in a replacement
    :class:`~repro.net.links.LinkModel` (delay or loss ramp) and later
    reverts to the deployment default.
``region-outage``
    Every sensor within ``radius`` of ``center`` crashes (a storm, a
    fire, a bulldozer); with a ``duration`` the region recovers
    wholesale afterwards.

Randomized churn comes from :meth:`FaultSchedule.random_churn`, which is
fully determined by the injected ``random.Random`` -- the simulation
reproducibility contract (RL002).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.net.links import LinkModel
from repro.net.topology import Topology

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultSchedule"]

#: Recognised fault kinds, in tie-break precedence order (recoveries
#: apply before same-instant failures so a flapping node ends down).
FAULT_KINDS = (
    "recover",
    "restore-link",
    "crash",
    "deplete",
    "degrade-link",
    "region-outage",
)

_NODE_KINDS = ("crash", "recover", "deplete")
_LINK_KINDS = ("degrade-link", "restore-link")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure or recovery.

    Exactly the fields relevant to ``kind`` are set; construction
    validates the combination.

    Attributes:
        time: virtual timestamp at which the event applies.
        kind: one of :data:`FAULT_KINDS`.
        node: target node for node-kind events.
        edge: directed ``(from_node, to_node)`` for link-kind events.
        link: replacement model for ``degrade-link``.
        center: outage epicenter for ``region-outage``.
        radius: outage radius for ``region-outage``.
        duration: optional outage length for ``region-outage``; the
            affected nodes recover at ``time + duration``.
        budget_joules: radio energy budget for ``deplete``.
    """

    time: float
    kind: str
    node: int | None = None
    edge: tuple[int, int] | None = None
    link: LinkModel | None = None
    center: tuple[float, float] | None = None
    radius: float | None = None
    duration: float | None = None
    budget_joules: float | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind in _NODE_KINDS and self.node is None:
            raise ValueError(f"{self.kind} event needs a node")
        if self.kind in _LINK_KINDS:
            if self.edge is None:
                raise ValueError(f"{self.kind} event needs an edge")
            if self.edge[0] == self.edge[1]:
                raise ValueError(f"self-loop edge {self.edge}")
        if self.kind == "degrade-link" and self.link is None:
            raise ValueError("degrade-link event needs a replacement LinkModel")
        if self.kind == "deplete":
            if self.budget_joules is None or self.budget_joules <= 0:
                raise ValueError(
                    f"deplete event needs a positive budget_joules, "
                    f"got {self.budget_joules}"
                )
        if self.kind == "region-outage":
            if self.center is None or self.radius is None:
                raise ValueError("region-outage event needs center and radius")
            if self.radius <= 0:
                raise ValueError(f"radius must be > 0, got {self.radius}")
            if self.duration is not None and self.duration <= 0:
                raise ValueError(f"duration must be > 0, got {self.duration}")

    def sort_key(self) -> tuple[float, int, int, tuple[int, int]]:
        """Deterministic total order: time, kind precedence, then target."""
        return (
            self.time,
            FAULT_KINDS.index(self.kind),
            self.node if self.node is not None else -1,
            self.edge if self.edge is not None else (-1, -1),
        )


class FaultSchedule:
    """An immutable-by-convention, time-ordered list of fault events.

    Builder methods return ``self`` so schedules compose fluently::

        schedule = (
            FaultSchedule()
            .crash(5.0, node=7)
            .recover(12.0, node=7)
            .degrade_link(3.0, 4, 3, LinkModel(loss_prob=0.6))
        )

    Args:
        events: initial events in any order; kept sorted by
            :meth:`FaultEvent.sort_key`.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events: list[FaultEvent] = sorted(
            events, key=FaultEvent.sort_key
        )

    # Builders ----------------------------------------------------------------

    def add(self, event: FaultEvent) -> FaultSchedule:
        """Insert one event, keeping time order."""
        self._events.append(event)
        self._events.sort(key=FaultEvent.sort_key)
        return self

    def crash(self, time: float, node: int) -> FaultSchedule:
        """Crash ``node`` at ``time``."""
        return self.add(FaultEvent(time=time, kind="crash", node=node))

    def recover(self, time: float, node: int) -> FaultSchedule:
        """Bring ``node`` back up at ``time``."""
        return self.add(FaultEvent(time=time, kind="recover", node=node))

    def deplete(
        self, time: float, node: int, budget_joules: float
    ) -> FaultSchedule:
        """Arm an energy budget on ``node`` at ``time`` (crash on exhaustion)."""
        return self.add(
            FaultEvent(
                time=time, kind="deplete", node=node, budget_joules=budget_joules
            )
        )

    def degrade_link(
        self,
        time: float,
        from_node: int,
        to_node: int,
        link: LinkModel,
        symmetric: bool = False,
    ) -> FaultSchedule:
        """Swap the ``from_node -> to_node`` link model at ``time``.

        With ``symmetric`` the reverse direction degrades identically.
        """
        self.add(
            FaultEvent(
                time=time, kind="degrade-link", edge=(from_node, to_node), link=link
            )
        )
        if symmetric:
            self.add(
                FaultEvent(
                    time=time,
                    kind="degrade-link",
                    edge=(to_node, from_node),
                    link=link,
                )
            )
        return self

    # Generators --------------------------------------------------------------

    @classmethod
    def random_churn(
        cls,
        topology: Topology,
        rate: float,
        duration: float,
        rng: random.Random,
        mean_downtime: float = 2.0,
        protect: Iterable[int] = (),
    ) -> FaultSchedule:
        """A seeded crash/recover churn schedule over a deployment.

        Draws roughly ``rate * duration * num_sensors`` crash events
        uniformly over ``[0, duration)``; each crashed node recovers
        after an exponentially distributed downtime with the given mean
        (capped inside the run so every crash gets a matching recovery
        event, possibly after ``duration``).

        Args:
            topology: the deployment; victims are its sensor nodes.
            rate: expected crashes per node per unit virtual time.
            duration: horizon over which crashes are drawn.
            rng: injected randomness -- the schedule is a pure function
                of this generator's state (RL002).
            mean_downtime: mean seconds a crashed node stays down.
            protect: nodes never crashed (e.g. the traffic sources whose
                delivery ratio the experiment measures).

        Raises:
            ValueError: on a negative rate or non-positive duration.
        """
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if mean_downtime <= 0:
            raise ValueError(f"mean_downtime must be > 0, got {mean_downtime}")
        protected = set(protect)
        victims = [n for n in topology.sensor_nodes() if n not in protected]
        schedule = cls()
        if not victims or rate == 0:
            return schedule
        expected = rate * duration * len(victims)
        # Deterministic event count: the integer part plus one Bernoulli
        # draw for the fraction, so tiny rates still sometimes churn.
        count = int(expected) + (1 if rng.random() < expected % 1 else 0)
        for _ in range(count):
            node = rng.choice(victims)
            start = rng.uniform(0, duration)
            downtime = rng.expovariate(1.0 / mean_downtime)
            schedule.crash(start, node)
            schedule.recover(start + downtime, node)
        return schedule

    # Introspection -----------------------------------------------------------

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """All events in time order."""
        return tuple(self._events)

    def merge(self, other: FaultSchedule) -> FaultSchedule:
        """A new schedule combining this one's events with ``other``'s."""
        return FaultSchedule([*self._events, *other._events])

    def validate(self, topology: Topology) -> None:
        """Check every target exists in ``topology`` and spares the sink.

        Raises:
            ValueError: on an unknown node/edge or a sink-targeting event.
        """
        nodes = set(topology.nodes())
        for event in self._events:
            if event.node is not None:
                if event.node == topology.sink:
                    raise ValueError(
                        f"fault at t={event.time} targets the sink; the sink "
                        "is trusted and assumed always up"
                    )
                if event.node not in nodes:
                    raise ValueError(
                        f"fault at t={event.time} targets unknown node {event.node}"
                    )
            if event.edge is not None:
                u, v = event.edge
                if not topology.has_edge(u, v):
                    raise ValueError(
                        f"fault at t={event.time} targets non-edge ({u}, {v})"
                    )

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        kinds = [e.kind for e in self._events]
        return (
            f"FaultSchedule({len(self._events)} events: "
            + ", ".join(
                f"{kind}={kinds.count(kind)}"
                for kind in FAULT_KINDS
                if kind in kinds
            )
            + ")"
        )
