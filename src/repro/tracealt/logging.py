"""Logging-based traceback: SPIE-style per-node packet digests.

Each node records a digest of every report it forwards in a bounded Bloom
filter (sensor nodes have tiny memories, so the filter is the whole
storage story).  To trace a packet, the sink asks its own neighbors "did
you forward this report?" and walks the "yes" answers upstream, querying
each implicated node's neighbors in turn.

What the paper's critique predicts, and this module lets you measure:

* **storage**: the Bloom filter competes with application memory; sizing
  it down raises the false-positive rate, which creates phantom trace
  branches.
* **signaling**: a trace costs ``O(path length x degree)`` query/reply
  messages per traced packet -- radio traffic marking never spends.
* **trust**: queries are answered by the nodes themselves.  A mole simply
  *denies* (:class:`DenyingLogMole`), truncating the trace at its
  downstream neighbor; unlike nested marks, nothing binds an answer to
  the evidence.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.net.topology import Topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.sim.behaviors import ForwardingBehavior

__all__ = [
    "BloomFilter",
    "PacketLog",
    "LoggingNode",
    "DenyingLogMole",
    "LoggingTracer",
    "TraceResult",
]


class BloomFilter:
    """A classic Bloom filter over byte strings.

    Args:
        size_bits: filter width.  SPIE suggests sizing for the per-epoch
            packet volume; the default fits a few hundred packets at ~1%
            false positives.
        num_hashes: hash functions (derived from one SHA-256 call).
    """

    def __init__(self, size_bits: int = 4096, num_hashes: int = 4):
        if size_bits < 8:
            raise ValueError(f"size_bits must be >= 8, got {size_bits}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.size_bits = size_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(size_bits // 8 + (size_bits % 8 > 0))
        self.items_added = 0

    def _positions(self, item: bytes) -> list[int]:
        digest = hashlib.sha256(item).digest()
        positions = []
        for k in range(self.num_hashes):
            chunk = digest[4 * k : 4 * k + 4]
            positions.append(int.from_bytes(chunk, "big") % self.size_bits)
        return positions

    def add(self, item: bytes) -> None:
        """Insert ``item`` into the filter."""
        for pos in self._positions(item):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self.items_added += 1

    def __contains__(self, item: bytes) -> bool:
        return all(
            self._bits[pos // 8] & (1 << (pos % 8)) for pos in self._positions(item)
        )

    @property
    def storage_bytes(self) -> int:
        """RAM the filter occupies on the node."""
        return len(self._bits)

    def false_positive_rate(self) -> float:
        """Expected FP rate at the current fill level."""
        if self.items_added == 0:
            return 0.0
        exponent = -self.num_hashes * self.items_added / self.size_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes


def report_digest(report: Report) -> bytes:
    """The content identity of a report (marks change hop to hop)."""
    return hashlib.sha256(b"log-digest" + report.encode()).digest()[:8]


class PacketLog:
    """A node's forwarded-packet log."""

    def __init__(self, size_bits: int = 4096, num_hashes: int = 4):
        self._filter = BloomFilter(size_bits=size_bits, num_hashes=num_hashes)

    def record(self, report: Report) -> None:
        """Log that this node forwarded ``report``."""
        self._filter.add(report_digest(report))

    def has_forwarded(self, report: Report) -> bool:
        """Whether the log (possibly falsely, per Bloom FP) holds the report."""
        return report_digest(report) in self._filter

    @property
    def storage_bytes(self) -> int:
        return self._filter.storage_bytes

    def false_positive_rate(self) -> float:
        """Expected false-positive rate at the current fill level."""
        return self._filter.false_positive_rate()


class LoggingNode:
    """Wraps a forwarding behavior with SPIE-style logging.

    Honest nodes log every report they forward and answer queries
    truthfully.
    """

    def __init__(self, inner: ForwardingBehavior, log: PacketLog | None = None):
        self.inner = inner
        self.log = log if log is not None else PacketLog()

    @property
    def node_id(self) -> int:
        return self.inner.node_id

    def forward(self, packet: MarkedPacket) -> MarkedPacket | None:
        """Forward via the wrapped behavior, logging what went through."""
        result = self.inner.forward(packet)
        if result is not None:
            self.log.record(packet.report)
        return result

    def answer_query(self, report: Report) -> bool:
        """Truthful reply to "did you forward this report?"."""
        return self.log.has_forwarded(report)


class DenyingLogMole(LoggingNode):
    """A mole that forwards attack traffic but denies having seen it.

    Nothing in the query protocol binds the answer to evidence, so denial
    is free -- the trace dies at the mole and can never reach the source
    upstream of it.
    """

    def answer_query(self, report: Report) -> bool:
        return False


@dataclass
class TraceResult:
    """Outcome of one logging trace.

    Attributes:
        chains: maximal upstream chains of "yes" answers, each ordered
            sink-nearest first.
        most_upstream: the farthest implicated node of the longest chain
            (``None`` if nobody admitted forwarding).
        queries_sent: query messages spent (the control-traffic cost).
        replies_received: reply messages spent.
    """

    chains: list[list[int]] = field(default_factory=list)
    most_upstream: int | None = None
    queries_sent: int = 0
    replies_received: int = 0

    @property
    def control_messages(self) -> int:
        return self.queries_sent + self.replies_received


class LoggingTracer:
    """The sink-side recursive query protocol.

    Args:
        topology: the deployment (the sink queries radio neighbors).
        nodes: every node's :class:`LoggingNode` (or mole subclass).
    """

    def __init__(self, topology: Topology, nodes: dict[int, LoggingNode]):
        self.topology = topology
        self.nodes = nodes

    def trace(self, report: Report) -> TraceResult:
        """Walk "yes" answers upstream from the sink.

        Breadth-first from the sink's neighbors; each implicated node's
        unvisited neighbors are queried in turn.  Every query costs one
        message and one reply (replies are sent even for "no" -- silence
        is indistinguishable from loss on a radio).
        """
        result = TraceResult()
        visited: set[int] = {self.topology.sink}
        implicated: dict[int, int | None] = {}  # node -> downstream it extends

        frontier: list[int] = [self.topology.sink]
        while frontier:
            next_frontier: list[int] = []
            for at in frontier:
                for nbr in sorted(self.topology.neighbors(at)):
                    if nbr in visited:
                        continue
                    visited.add(nbr)
                    node = self.nodes.get(nbr)
                    result.queries_sent += 1
                    result.replies_received += 1
                    if node is not None and node.answer_query(report):
                        implicated[nbr] = at if at != self.topology.sink else None
                        next_frontier.append(nbr)
            frontier = next_frontier

        result.chains = self._chains(implicated)
        if result.chains:
            longest = max(result.chains, key=len)
            result.most_upstream = longest[-1]
        return result

    @staticmethod
    def _chains(implicated: dict[int, int | None]) -> list[list[int]]:
        """Reconstruct maximal chains from the downstream-pointer map."""
        children: dict[int | None, list[int]] = {}
        for node, downstream in implicated.items():
            children.setdefault(downstream, []).append(node)

        chains: list[list[int]] = []

        def walk(node: int, prefix: list[int]) -> None:
            path = prefix + [node]
            nexts = sorted(children.get(node, ()))
            if not nexts:
                chains.append(path)
                return
            for nxt in nexts:
                walk(nxt, path)

        for root in sorted(children.get(None, ())):
            walk(root, [])
        return chains
