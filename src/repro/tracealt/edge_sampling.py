"""Edge-sampling probabilistic packet marking (Savage et al., ref. [8]).

The original IP-traceback PPM, faithfully single-slot: every packet carries
exactly one ``(start, end, distance)`` edge field.  Each forwarder flips a
coin with probability ``p``:

* heads -- it *overwrites* the slot with ``start = itself``, ``end``
  empty, ``distance = 0``;
* tails -- if ``distance == 0`` it writes itself into ``end`` (completing
  the edge its upstream neighbor started), and either way increments
  ``distance``.

Over many packets the sink collects edges at every distance; since a
packet marked by a node ``d`` hops out arrives with ``distance = d``, the
edges sort into a path.  The scheme is beautiful for the Internet -- fixed
per-packet overhead, no keys -- and exactly as fragile as Section 3
predicts in a sensor network: the slot is unauthenticated *mutable* state,
so a forwarding mole can overwrite it every packet with a fabricated edge,
placing any victim at any distance.  :class:`EdgeForgingMole` does just
that.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

from repro.packets.packet import MarkedPacket
from repro.sim.behaviors import ForwardingBehavior

__all__ = [
    "EdgeSample",
    "EdgeSamplingForwarder",
    "EdgeForgingMole",
    "EdgeSamplingSink",
    "EDGE_SLOT_BYTES",
]

#: Wire cost of the single marking slot: start (2) + end (2) + distance (1).
EDGE_SLOT_BYTES = 5

#: Sentinel for an empty start/end field.
EMPTY = -1


@dataclass(frozen=True)
class EdgeSample:
    """The packet's single marking slot.

    Attributes:
        start: node that began the edge (``EMPTY`` if never marked).
        end: node that completed the edge (``EMPTY`` while dangling).
        distance: hops travelled since ``start`` marked.
    """

    start: int = EMPTY
    end: int = EMPTY
    distance: int = 0

    @property
    def is_empty(self) -> bool:
        """Whether no forwarder has marked the slot yet."""
        return self.start == EMPTY


class EdgeSamplingForwarder:
    """An honest forwarder running the edge-sampling algorithm.

    The slot rides out of band of the mark list (``slots`` keyed by packet
    identity on the shared channel object) to keep the existing packet
    type untouched; byte accounting uses :data:`EDGE_SLOT_BYTES`.

    Args:
        inner: wrapped behavior (typically a no-marking honest forwarder).
        channel: shared slot store, one per simulation.
        mark_prob: the sampling probability ``p``.
        rng: the node's random stream.
    """

    def __init__(
        self,
        inner: ForwardingBehavior,
        channel: "EdgeSamplingSink",
        mark_prob: float,
        rng: random.Random,
    ):
        if not 0.0 < mark_prob <= 1.0:
            raise ValueError(f"mark_prob must be in (0, 1], got {mark_prob}")
        self.inner = inner
        self.channel = channel
        self.mark_prob = mark_prob
        self.rng = rng

    @property
    def node_id(self) -> int:
        return self.inner.node_id

    def _update_slot(self, slot: EdgeSample) -> EdgeSample:
        if self.rng.random() < self.mark_prob:
            return EdgeSample(start=self.node_id, end=EMPTY, distance=0)
        if slot.is_empty:
            return slot
        if slot.distance == 0:
            return EdgeSample(
                start=slot.start, end=self.node_id, distance=1
            )
        return replace(slot, distance=slot.distance + 1)

    def forward(self, packet: MarkedPacket) -> MarkedPacket | None:
        """Apply the edge-sampling coin to the packet's slot, then forward."""
        result = self.inner.forward(packet)
        if result is None:
            return None
        self.channel.update_slot(packet, self._update_slot)
        return result


class EdgeForgingMole(EdgeSamplingForwarder):
    """A mole that overwrites the slot with a fabricated distant edge.

    Every packet leaves the mole claiming it was marked by
    ``fake_start -> fake_end`` at ``fake_distance`` hops upstream --
    nothing authenticates the slot, so the sink's reconstruction roots the
    path at the victim.
    """

    def __init__(
        self,
        *args,
        fake_start: int,
        fake_end: int,
        fake_distance: int,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.fake_start = fake_start
        self.fake_end = fake_end
        self.fake_distance = fake_distance

    def forward(self, packet: MarkedPacket) -> MarkedPacket | None:
        """Forward while planting the forged edge into the slot."""
        result = self.inner.forward(packet)
        if result is None:
            return None
        self.channel.update_slot(
            packet,
            lambda _slot: EdgeSample(
                start=self.fake_start,
                end=self.fake_end,
                distance=self.fake_distance,
            ),
        )
        return result


class EdgeSamplingSink:
    """Carries per-packet slots in flight and reconstructs the path.

    Doubles as the "channel" (slot storage keyed by packet object
    identity; single-threaded simulations hand each packet through
    unchanged) and as the collector.
    """

    def __init__(self) -> None:
        self._slots: dict[int, EdgeSample] = {}
        self.collected: list[EdgeSample] = []
        self.bytes_overhead = 0

    def update_slot(self, packet: MarkedPacket, fn) -> None:
        """Apply a forwarder's slot transition for ``packet``."""
        key = id(packet.report)
        self._slots[key] = fn(self._slots.get(key, EdgeSample()))

    def deliver(self, packet: MarkedPacket) -> EdgeSample:
        """Take delivery of a packet: collect and clear its slot."""
        key = id(packet.report)
        slot = self._slots.pop(key, EdgeSample())
        self.collected.append(slot)
        self.bytes_overhead += EDGE_SLOT_BYTES
        return slot

    def reconstruct_path(self, min_support: int = 2) -> list[int]:
        """Order collected edges by distance into a sink-rooted path.

        For each distance level, the most frequently sampled ``start``
        node (with at least ``min_support`` sightings) is taken as the
        path node at that depth; reconstruction stops at the first level
        with no supported candidate.  Returns nodes nearest-first.
        """
        by_distance: dict[int, Counter[int]] = {}
        for slot in self.collected:
            if slot.is_empty:
                continue
            by_distance.setdefault(slot.distance, Counter())[slot.start] += 1
        path: list[int] = []
        for distance in range(0, max(by_distance, default=-1) + 1):
            counts = by_distance.get(distance)
            if not counts:
                break
            node, support = counts.most_common(1)[0]
            if support < min_support:
                break
            path.append(node)
        return path

    def apparent_origin(self, min_support: int = 2) -> int | None:
        """The deepest supported path node: who the sink would blame."""
        path = self.reconstruct_path(min_support=min_support)
        return path[-1] if path else None
