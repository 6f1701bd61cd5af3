"""Sink-side verification cost: the Section 4.2 feasibility numbers, live.

These benchmarks time the actual operations the paper's argument rests on:
building a full anonymous-ID resolution table (one per distinct message),
verifying a marked packet end to end, and the topology-bounded O(d)
variant of Section 7.
"""

import time

import pytest

from repro.analysis.cost import MICA2_PACKETS_PER_SECOND
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.verify import PacketVerifier
from tests.conftest import ctx_for

PROVIDER = KeyedHashProvider()
SCHEME = PNMMarking(mark_prob=1.0)


def mean_seconds(benchmark, fn, *args, rounds=5):
    """Mean seconds per ``fn(*args)`` call from the benchmark's stats.

    Under ``--benchmark-disable`` pytest-benchmark runs the call once and
    keeps no stats, so the call is timed directly instead and the
    feasibility gates still run.
    """
    if benchmark.stats is not None:
        return benchmark.stats.stats.mean
    start = time.perf_counter()
    for _ in range(rounds):
        fn(*args)
    return (time.perf_counter() - start) / rounds


def make_marked_packet(keystore, markers):
    packet = MarkedPacket(
        report=Report(event=b"bench-report", location=(5.0, 5.0), timestamp=1)
    )
    for node_id in markers:
        packet = SCHEME.on_forward(ctx_for(node_id, keystore, PROVIDER), packet)
    return packet


@pytest.mark.parametrize("network_size", [500, 2000])
class TestResolutionTable:
    def test_bench_table_build(self, benchmark, network_size):
        keystore = KeyStore.from_master_secret(b"bench", range(1, network_size + 1))
        packet = make_marked_packet(keystore, [1, 2, 3])
        result = benchmark(
            SCHEME.build_resolution_table, packet, keystore, PROVIDER
        )
        assert len(result) <= network_size
        # Feasibility: one table per message must cost well under the
        # inter-packet gap at Mica2 rates (1/50 s).
        mean = mean_seconds(
            benchmark, SCHEME.build_resolution_table, packet, keystore, PROVIDER
        )
        assert mean < 1.0 / MICA2_PACKETS_PER_SECOND


class TestPacketVerification:
    def test_bench_exhaustive_verify(self, benchmark):
        keystore = KeyStore.from_master_secret(b"bench", range(1, 1001))
        packet = make_marked_packet(keystore, [10, 20, 30])
        verifier = PacketVerifier(SCHEME, keystore, PROVIDER)
        result = benchmark(verifier.verify, packet)
        assert result.chain_ids == [10, 20, 30]
        # Verification throughput must exceed the radio delivery rate.
        mean = mean_seconds(benchmark, verifier.verify, packet)
        assert 1.0 / mean > MICA2_PACKETS_PER_SECOND

    def test_bench_bounded_verify(self, benchmark):
        topo, _source = linear_path_topology(30)
        keystore = KeyStore.from_master_secret(b"bench", topo.sensor_nodes())
        packet = make_marked_packet(keystore, list(range(1, 31)))
        resolver = TopologyBoundedResolver(topo, radius=2)
        verifier = PacketVerifier(SCHEME, keystore, PROVIDER, resolver)
        result = benchmark(verifier.verify, packet)
        assert result.chain_ids == list(range(1, 31))


class TestMarkingCost:
    def test_bench_node_marking(self, benchmark, keystore=None):
        # The sensor-side cost: one anonymous ID + one MAC per mark.
        store = KeyStore.from_master_secret(b"bench", range(1, 10))
        packet = make_marked_packet(store, [1, 2])
        ctx = ctx_for(3, store, PROVIDER)
        out = benchmark(SCHEME.make_mark, ctx, packet)
        assert out.wire_len == SCHEME.fmt.mark_len
