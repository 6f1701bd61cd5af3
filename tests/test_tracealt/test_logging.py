"""Logging-based traceback (SPIE-style)."""

import pytest

from repro.marking.plain import NoMarking
from repro.net.topology import linear_path_topology
from repro.packets.report import Report
from repro.sim.behaviors import HonestForwarder
from repro.tracealt.logging import (
    BloomFilter,
    DenyingLogMole,
    LoggingNode,
    LoggingTracer,
    PacketLog,
)
from tests.conftest import ctx_for


class TestBloomFilter:
    def test_membership(self):
        bf = BloomFilter()
        bf.add(b"hello")
        assert b"hello" in bf
        assert b"other" not in bf

    def test_no_false_negatives(self):
        bf = BloomFilter(size_bits=2048, num_hashes=4)
        items = [i.to_bytes(4, "big") for i in range(200)]
        for item in items:
            bf.add(item)
        assert all(item in bf for item in items)

    def test_false_positive_rate_estimate(self):
        bf = BloomFilter(size_bits=1024, num_hashes=4)
        for i in range(100):
            bf.add(i.to_bytes(4, "big"))
        # Empirical FP rate should be in the ballpark of the estimate.
        probes = [i.to_bytes(4, "big") for i in range(10_000, 14_000)]
        fp = sum(p in bf for p in probes) / len(probes)
        assert fp == pytest.approx(bf.false_positive_rate(), abs=0.05)

    def test_storage_accounting(self):
        assert BloomFilter(size_bits=4096).storage_bytes == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(size_bits=4)
        with pytest.raises(ValueError):
            BloomFilter(num_hashes=0)


class TestPacketLog:
    def r(self, tag: int) -> Report:
        return Report(event=bytes([tag]), location=(0, 0), timestamp=tag)

    def test_record_and_query(self):
        log = PacketLog()
        log.record(self.r(1))
        assert log.has_forwarded(self.r(1))
        assert not log.has_forwarded(self.r(2))


def build_logging_path(n: int, mole_position: int | None, keystore, provider):
    topo, source_id = linear_path_topology(n)
    nodes = {}
    for nid in range(1, n + 1):
        inner = HonestForwarder(ctx_for(nid, keystore, provider), NoMarking())
        cls = DenyingLogMole if nid == mole_position else LoggingNode
        nodes[nid] = cls(inner)
    return topo, source_id, nodes


class TestLoggingTracer:
    def push(self, nodes, path, report):
        from repro.packets.packet import MarkedPacket

        packet = MarkedPacket(report=report)
        for nid in path:
            packet = nodes[nid].forward(packet)

    def test_honest_trace_reaches_first_forwarder(self, keystore, provider):
        topo, source_id, nodes = build_logging_path(8, None, keystore, provider)
        report = Report(event=b"x", location=(0, 0), timestamp=1)
        self.push(nodes, range(1, 9), report)
        result = LoggingTracer(topo, nodes).trace(report)
        assert result.most_upstream == 1
        assert result.chains == [[8, 7, 6, 5, 4, 3, 2, 1]]
        assert result.queries_sent > 0

    def test_denying_mole_truncates_trace(self, keystore, provider):
        topo, source_id, nodes = build_logging_path(8, 4, keystore, provider)
        report = Report(event=b"x", location=(0, 0), timestamp=1)
        self.push(nodes, range(1, 9), report)
        result = LoggingTracer(topo, nodes).trace(report)
        # The mole forwards (attack traffic flows) but denies: the trace
        # dies at its downstream neighbor and never reaches the source side.
        assert result.most_upstream == 5
        assert 4 not in result.chains[0]
        assert all(node > 4 for node in result.chains[0])

    def test_untraced_report_yields_nothing(self, keystore, provider):
        topo, source_id, nodes = build_logging_path(5, None, keystore, provider)
        unseen = Report(event=b"never-sent", location=(0, 0), timestamp=9)
        result = LoggingTracer(topo, nodes).trace(unseen)
        assert result.most_upstream is None
        assert result.chains == []

    def test_control_message_cost_scales_with_queries(self, keystore, provider):
        topo, source_id, nodes = build_logging_path(8, None, keystore, provider)
        report = Report(event=b"x", location=(0, 0), timestamp=1)
        self.push(nodes, range(1, 9), report)
        result = LoggingTracer(topo, nodes).trace(report)
        # One query + one reply per queried node.
        assert result.control_messages == 2 * result.queries_sent
