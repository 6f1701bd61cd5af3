"""Structured simulation tracing: per-packet journey logs.

Debugging a traceback failure usually means asking "what happened to
packet 37 between V4 and the sink?"  A :class:`PacketTracer` attached to a
:class:`~repro.sim.network.NetworkSimulation` records every lifecycle
event with its virtual timestamp, and can reconstruct any packet's journey
or summarize drop locations.

Packets are tracked by the digest of their report (the content identity
that survives marking).  When given a span :class:`~repro.obs.Tracer`,
the tracer doubles as the simulation side of cross-layer tracing: every
lifecycle event also becomes a chained span keyed by the same digest, so
the ingest service and sink can continue the packet's trace without ever
touching simulator state.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from repro.obs.spans import Tracer, report_key as _packet_key
from repro.packets.report import Report

__all__ = ["TraceEvent", "PacketTracer"]

#: Event kinds emitted by the simulator.  ``fault`` marks a packet that
#: died to an injected failure (dead node, no surviving route) rather
#: than to filtering or mole activity; ``repair`` marks the packet whose
#: retries triggered a route repair at that node.  ``overhear`` and
#: ``flag`` come from the watchdog layer (:mod:`repro.watchdog`): a
#: watcher heard a neighbor's transmission, and a watcher caught an
#: inconsistent forwarding, respectively.
EVENT_KINDS = (
    "inject",
    "forward",
    "drop",
    "loss",
    "deliver",
    "fault",
    "repair",
    "overhear",
    "flag",
)


@dataclass(frozen=True)
class TraceEvent:
    """One step of a packet's journey.

    Attributes:
        time: virtual time of the event.
        kind: one of ``inject``, ``forward``, ``drop``, ``loss``,
            ``deliver``.
        node: where it happened (the acting node; for ``deliver`` the
            delivering neighbor).
        packet_key: content identity of the packet.
    """

    time: float
    kind: str
    node: int
    packet_key: bytes

    def as_dict(self) -> dict[str, object]:
        """The event as a JSON-ready dict (packet key hex-encoded)."""
        return {
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "packet": self.packet_key.hex(),
        }


class PacketTracer:
    """Collects :class:`TraceEvent` records during a simulation run.

    Args:
        max_events: hard cap to bound memory in very long runs; the
            oldest events are NOT evicted -- recording simply stops, and
            :attr:`truncated` is set, because partial journeys are worse
            than a loud flag.
        spans: optional span tracer; when set, every recorded event is
            also emitted as a zero-duration chained span at the packet's
            virtual timestamp, keyed by the packet's report digest.  The
            journey log itself (:meth:`journey`, :meth:`to_json`) is
            unchanged by the bridge.
    """

    def __init__(self, max_events: int = 100_000, spans: Tracer | None = None):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.spans = spans
        self.events: list[TraceEvent] = []
        self.truncated = False

    def record(self, time: float, kind: str, node: int, report: Report) -> None:
        """Append one event (called by the simulator)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        key = _packet_key(report)
        if self.spans is not None:
            self.spans.event(key, kind, time=time, node=node)
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(
            TraceEvent(time=time, kind=kind, node=node, packet_key=key)
        )

    # Queries -----------------------------------------------------------------

    def journey(self, report: Report) -> list[TraceEvent]:
        """Every event for one packet, in time order."""
        key = _packet_key(report)
        return [e for e in self.events if e.packet_key == key]

    def _locations(self, kind: str) -> dict[int, int]:
        """Node -> events of ``kind`` there, ascending node order.

        Deterministic sorted order on purpose: these summaries feed merge
        and attribution logic, which must not depend on event insertion
        order (the RL004 determinism contract).
        """
        counter = Counter(e.node for e in self.events if e.kind == kind)
        return {node: counter[node] for node in sorted(counter)}

    def drop_locations(self) -> dict[int, int]:
        """Node -> intentional drops there (filtering or mole activity)."""
        return self._locations("drop")

    def loss_locations(self) -> dict[int, int]:
        """Node -> radio losses on that node's transmissions."""
        return self._locations("loss")

    def fault_locations(self) -> dict[int, int]:
        """Node -> packets that died there to an injected failure."""
        return self._locations("fault")

    def repair_locations(self) -> dict[int, int]:
        """Node -> route repairs triggered by that node's retries."""
        return self._locations("repair")

    def counts(self) -> dict[str, int]:
        """Events per kind."""
        counter = Counter(e.kind for e in self.events)
        return {kind: counter.get(kind, 0) for kind in EVENT_KINDS}

    def to_json(self, indent: int | None = None) -> str:
        """The full trace as JSON: events, per-kind counts, summaries.

        Locations are keyed by node in ascending order and events appear
        in recording (time) order, so equal runs serialize byte-identically.
        """
        payload = {
            "max_events": self.max_events,
            "truncated": self.truncated,
            "counts": self.counts(),
            "drop_locations": self.drop_locations(),
            "loss_locations": self.loss_locations(),
            "fault_locations": self.fault_locations(),
            "repair_locations": self.repair_locations(),
            "events": [e.as_dict() for e in self.events],
        }
        return json.dumps(payload, indent=indent)

    def __len__(self) -> int:
        return len(self.events)
