"""Simulation metrics: traffic, bytes, and a simple energy proxy.

False data injection "wastes energy and bandwidth resources along the
forwarding path" (Section 1); the examples quantify that waste and the
savings from catching the mole.  Radio transmission dominates sensor energy
budgets, so the energy proxy here is linear in transmitted bytes plus a
fixed per-packet cost -- standard first-order mote modelling.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = ["MetricsCollector", "EnergyModel"]


@dataclass(frozen=True)
class EnergyModel:
    """First-order radio energy model.

    Attributes:
        joules_per_byte: marginal cost per transmitted byte.
        joules_per_packet: fixed per-transmission overhead (preamble,
            radio wakeup).
    """

    joules_per_byte: float = 1.6e-6
    joules_per_packet: float = 2.4e-5


@dataclass
class MetricsCollector:
    """Accumulates per-node and network-wide counters during a run.

    Transmissions recorded through :meth:`record_transmission` and
    :meth:`record_run` wait in plain dicts -- one entry per node, and one
    per distinct run of node IDs -- until :attr:`transmissions` or
    :attr:`bytes_transmitted` is next read.  A hop then costs one dict
    lookup instead of two ``Counter`` writes, and a packet's run costs
    work in the number of its marks rather than in the number of its
    hops.
    """

    energy_model: EnergyModel = field(default_factory=EnergyModel)
    packets_injected: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    packets_lost: int = 0
    packets_faulted: int = 0
    delivery_delays: list[float] = field(default_factory=list)
    #: ``(time, node)`` of every drop a node's forwarding behavior chose
    #: (honest filtering or mole activity), in event order -- the drop
    #: sites :func:`repro.faults.attribute_drops` classifies.
    drop_sites: list[tuple[float, int]] = field(default_factory=list)
    #: Node -> packets that died there to an injected fault.
    fault_sites: Counter = field(default_factory=Counter)
    #: Next hops declared dead and routed around.
    route_repairs: int = 0
    _transmissions: Counter = field(default_factory=Counter, init=False, repr=False)
    _bytes: Counter = field(default_factory=Counter, init=False, repr=False)
    #: Node -> ``[packets, bytes]`` sent through :meth:`record_transmission`.
    _sent: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)
    #: Run of node IDs -> ``[packets, d_0, d_1, ...]``, where the bytes
    #: the run's ``i``-th node sent are ``d_0 + ... + d_i``.
    _runs: dict[tuple[int, ...], list[int]] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def transmissions(self) -> Counter:
        """Transmissions per node."""
        if self._sent or self._runs:
            self._settle()
        return self._transmissions

    @property
    def bytes_transmitted(self) -> Counter:
        """Bytes sent per node."""
        if self._sent or self._runs:
            self._settle()
        return self._bytes

    def record_injection(self) -> None:
        """A source generated one packet."""
        self.packets_injected += 1

    def record_transmission(self, node_id: int, packet_len: int) -> None:
        """``node_id`` pushed ``packet_len`` bytes onto the radio."""
        pending = self._sent.get(node_id)
        if pending is None:
            self._sent[node_id] = [1, packet_len]
        else:
            pending[0] += 1
            pending[1] += packet_len

    def record_run(
        self,
        node_ids: tuple[int, ...],
        packet_len: int,
        changes: Sequence[tuple[int, int]],
    ) -> None:
        """Each of ``node_ids`` transmitted once, in order.

        The first sent ``packet_len`` bytes; from each ``(position,
        new_len)`` in ``changes`` on, the nodes sent ``new_len`` bytes --
        the shape :meth:`~repro.marking.base.MarkingScheme.forward_run`
        returns.  Equal to one :meth:`record_transmission` per node once
        the counters are read.
        """
        pending = self._runs.get(node_ids)
        if pending is None:
            pending = self._runs[node_ids] = [0] * (len(node_ids) + 1)
        pending[0] += 1
        pending[1] += packet_len
        for position, new_len in changes:
            pending[position + 1] += new_len - packet_len
            packet_len = new_len

    def _settle(self) -> None:
        """Fold the pending tallies into the per-node counters."""
        for node_id, (packets, sent) in self._sent.items():
            self._transmissions[node_id] += packets
            self._bytes[node_id] += sent
        self._sent.clear()
        for node_ids, pending in self._runs.items():
            packets, sent = pending[0], 0
            for node_id, step in zip(node_ids, pending[1:]):
                sent += step
                self._transmissions[node_id] += packets
                self._bytes[node_id] += sent
        self._runs.clear()

    def record_delivery(self, delay: float) -> None:
        """A packet reached the sink after ``delay`` seconds in flight."""
        self.packets_delivered += 1
        self.delivery_delays.append(delay)

    def record_drop(self, site: tuple[float, int] | None = None) -> None:
        """A node (honest filter or mole) intentionally dropped a packet.

        ``site`` is ``(time, node)`` when the drop was a forwarding
        behavior's decision at a known place and time; a quarantined
        node's discarded transmission counts but has no site.
        """
        self.packets_dropped += 1
        if site is not None:
            self.drop_sites.append(site)

    def record_loss(self) -> None:
        """The radio link lost a transmission."""
        self.packets_lost += 1

    def record_fault(self, node: int) -> None:
        """A packet died at ``node`` to an injected fault (dead node, severed route)."""
        self.packets_faulted += 1
        self.fault_sites[node] += 1

    def record_repair(self) -> None:
        """A sender declared its next hop dead and the route was repaired."""
        self.route_repairs += 1

    def delivery_ratio(self) -> float:
        """Delivered / injected packets (1.0 when nothing was injected)."""
        if not self.packets_injected:
            return 1.0
        return self.packets_delivered / self.packets_injected

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_transmitted.values())

    @property
    def total_transmissions(self) -> int:
        return sum(self.transmissions.values())

    def energy_spent(self, node_id: int | None = None) -> float:
        """Total radio energy in joules, network-wide or for one node."""
        if node_id is not None:
            return (
                self.energy_model.joules_per_packet * self.transmissions[node_id]
                + self.energy_model.joules_per_byte
                * self.bytes_transmitted[node_id]
            )
        return (
            self.energy_model.joules_per_packet * self.total_transmissions
            + self.energy_model.joules_per_byte * self.total_bytes
        )

    def mean_delivery_delay(self) -> float:
        """Average source-to-sink latency over delivered packets."""
        if not self.delivery_delays:
            return 0.0
        return sum(self.delivery_delays) / len(self.delivery_delays)

    def summary(self) -> dict[str, float]:
        """A flat dict of headline numbers for printing/logging (its
        integer counts are the obs registry's ``sim_*`` gauges)."""
        return {
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "packets_lost": self.packets_lost,
            "packets_faulted": self.packets_faulted,
            "total_transmissions": self.total_transmissions,
            "total_bytes": self.total_bytes,
            "delivery_ratio": self.delivery_ratio(),
            "energy_joules": self.energy_spent(),
            "mean_delivery_delay_s": self.mean_delivery_delay(),
        }
