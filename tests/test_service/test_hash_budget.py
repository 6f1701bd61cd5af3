"""The sink's hash budget, counted rather than timed.

Every anonymous ID and MAC the sink computes goes through its
``MacProvider``, so a counting provider measures the sink's work exactly
and independently of the host's speed.  Two properties are pinned here:

* the exact hash totals of a small seeded multi-region stream through a
  :class:`~repro.service.SinkIngestService`, so a change to how the
  verifier asks for search sets cannot silently change what it hashes;
* the cost of resolver-busting marks: once the verdict names the node
  that keeps delivering packets with a garbage mark on top, later such
  packets should cost no more than a small multiple of an honest one.
"""

import random

import pytest

from repro.crypto.mac import KeyedHashProvider
from repro.experiments.cluster_sweep import build_cluster_workload
from repro.marking.pnm import PNMMarking
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.routing.tree import build_routing_tree
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink


class CountingProvider(KeyedHashProvider):
    """A :class:`KeyedHashProvider` that counts its two PRFs' calls."""

    def __init__(self) -> None:
        super().__init__()
        self.anon_ids = 0
        self.macs = 0

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        self.anon_ids += 1
        return super().anon_id(key, data)

    def mac(self, key: bytes, data: bytes) -> bytes:
        self.macs += 1
        return super().mac(key, data)

    @property
    def total(self) -> int:
        return self.anon_ids + self.macs


def counted_service(
    topology, keystore, hot_capacity: int = 256
) -> tuple[SinkIngestService, CountingProvider]:
    provider = CountingProvider()
    sink = TracebackSink(PNMMarking(mark_prob=1.0), keystore, provider, topology)
    return SinkIngestService(sink, hot_capacity=hot_capacity), provider


def with_flipped_mac(packet: MarkedPacket) -> MarkedPacket:
    """``packet`` with its middle mark's MAC bits flipped."""
    marks = list(packet.marks)
    middle = len(marks) // 2
    id_field, mac = marks[middle]
    marks[middle] = Mark(id_field, bytes(b ^ 1 for b in mac))
    return packet.with_marks(tuple(marks))


def test_hash_totals_pinned_on_a_mixed_stream():
    # A hot-set too small for the four routes' union: learned sets keep
    # losing members, so learned misses, exhaustive fallbacks and suffix
    # stops (every 20th packet is tampered) all run alongside warm marks.
    topology, keystore, batches, _sources = build_cluster_workload(
        12, 96, sources=4, mixed_batches=True
    )
    service, provider = counted_service(topology, keystore, hot_capacity=24)
    submitted = 0
    for packets, delivering_node in batches:
        stream = []
        for packet in packets:
            submitted += 1
            stream.append(with_flipped_mac(packet) if submitted % 20 == 0 else packet)
        service.submit_batch(stream, delivering_node)
        service.flush()
    assert service.processed == 96
    assert (provider.anon_ids, provider.macs) == (12929, 928)
    assert (service.cache.hot_searches, service.cache.hot_misses) == (748, 41)
    assert service.sink.fallback_searches == 45
    assert service.verdict().identified


def garbage_mark(rng: random.Random) -> Mark:
    """One random 8-byte mark in PNM's default 4 + 4 byte layout."""
    raw = rng.randbytes(8)
    return Mark(raw[:4], raw[4:])


# One exhaustive table on this grid is 575 anonymous IDs, far above the
# bound below; the warm honest cost is about twice the route length.
BUSTING_GRID = 24
HONEST_MULTIPLE = 4


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP 'Bound the sink's work under attack': a garbage mark "
        "misses the learned set and pays the full exhaustive table on "
        "every fresh report, even after the verdict names its deliverer"
    ),
)
def test_resolver_busting_marks_cost_bounded_after_verdict():
    honest_count, attack_count = 48, 24
    topology, keystore, batches, sources = build_cluster_workload(
        BUSTING_GRID, honest_count + attack_count, sources=6, mixed_batches=True
    )
    routing = build_routing_tree(topology)
    last_hop = {src: routing.forwarders_between(src)[-1] for src in sources}
    # A mixed batch carries one packet per source, in source order.
    stream = [
        (packet, last_hop[src])
        for packets, _deliverer in batches
        for packet, src in zip(packets, sources)
    ]
    # The mole sits at one deliverer: only its sources' reports carry the
    # garbage mark.
    delivering = last_hop[sources[0]]
    honest, fresh = stream[:honest_count], [
        packet for packet, hop in stream[honest_count:] if hop == delivering
    ]
    assert len(fresh) >= 3

    service, provider = counted_service(topology, keystore)
    before = provider.total
    for packet, hop in honest:
        service.submit(packet, hop)
        service.flush()
    honest_mean = (provider.total - before) / len(honest)
    assert HONEST_MULTIPLE * honest_mean < len(keystore)

    rng = random.Random(21)
    costs: list[tuple[bool, int]] = []
    for packet in fresh:
        named = service.verdict().suspect
        before = provider.total
        service.submit(packet.with_mark(garbage_mark(rng)), delivering)
        service.flush()
        costs.append(
            (named is not None and named.center == delivering, provider.total - before)
        )
    after_named = [cost for named, cost in costs if named]
    assert after_named, "the verdict never named the delivering node"
    assert max(after_named) <= HONEST_MULTIPLE * honest_mean
