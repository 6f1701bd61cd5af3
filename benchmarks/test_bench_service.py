"""Ingest-service throughput: the service's 3x claim, measured.

A stream of distinct reports forces the serial sink to rebuild the full
exhaustive resolution table per packet.  The service's report-keyed table
cache plus marker hot-set cuts that to a bounded search with exhaustive
fallback, and the equivalence tests guarantee identical verdicts.  The
ratio test below is the acceptance gate: cached service >= 3x the serial
sink's packets/second on a grid workload with the exhaustive resolver.
"""

import time

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink

GRID_SIDE = 20
PACKETS = 150


@pytest.fixture(scope="module")
def workload():
    topology, keystore, [(stream, delivering)], _ = build_cluster_workload(
        GRID_SIDE,
        PACKETS,
        sources=1,
        batch_size=PACKETS,
        master_secret=b"service-sweep",
    )
    return topology, keystore, stream, delivering


def make_sink(workload) -> TracebackSink:
    topology, keystore, _stream, _delivering = workload
    return make_sink_factory(topology, keystore)()


def run_serial(workload) -> TracebackSink:
    _topology, _keystore, stream, delivering = workload
    sink = make_sink(workload)
    for packet in stream:
        sink.receive(packet, delivering)
    return sink


def run_service(workload) -> TracebackSink:
    _topology, _keystore, stream, delivering = workload
    sink = make_sink(workload)
    with SinkIngestService(sink, capacity=len(stream)) as service:
        for packet in stream:
            service.submit(packet, delivering)
        service.flush()
    return sink


class TestThroughputGate:
    def test_cached_service_is_3x_serial(self, workload, bench_record):
        # Plain wall-clock ratio, deliberately not benchmark-fixture based,
        # so the gate runs (and fails loudly) on every benchmark invocation.
        start = time.perf_counter()
        serial_sink = run_serial(workload)
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        service_sink = run_service(workload)
        service_s = time.perf_counter() - start

        assert service_sink.verdict() == serial_sink.verdict()
        speedup = serial_s / service_s
        bench_record(
            "service",
            "cached_vs_serial",
            packets=PACKETS,
            serial_s=serial_s,
            service_s=service_s,
            speedup=speedup,
            gate=3.0,
        )
        assert speedup >= 3.0, (
            f"cached service only {speedup:.2f}x serial "
            f"({PACKETS / serial_s:.0f} -> {PACKETS / service_s:.0f} pkts/s)"
        )


class TestBenchIngest:
    def test_bench_serial_sink(self, benchmark, workload):
        sink = benchmark(run_serial, workload)
        assert sink.packets_received == PACKETS

    def test_bench_cached_service(self, benchmark, workload):
        sink = benchmark(run_service, workload)
        assert sink.packets_received == PACKETS
