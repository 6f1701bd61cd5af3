"""Ingest-service throughput: the service's 3x claim, measured.

A stream of distinct reports forces the serial sink to rebuild the full
exhaustive resolution table per packet.  The service searches each mark
along the route its precedence graph has learned, filtered by the marker
hot-set, with exhaustive fallback, and the equivalence tests guarantee
identical verdicts.  The ratio test below is the acceptance gate: cached
service >= 3x the serial sink's packets/second on a grid workload with
the exhaustive resolver.

Timing method (as in ``test_bench_obs.py``): each trial times the serial
and the service side back-to-back in ABBA order, so a drift within the
trial hits both sides alike, and yields one paired ratio; the gate
checks the **median** of ``TRIALS`` paired ratios, with the garbage
collector off.
"""

import gc
import statistics
import time

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink

GRID_SIDE = 20
PACKETS = 150
TRIALS = 5


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


def timed(run, workload) -> tuple[float, TracebackSink]:
    start = time.perf_counter()
    sink = run(workload)
    return time.perf_counter() - start, sink


def paired_trials(workload, trials: int = TRIALS):
    """``trials`` ABBA (serial, service) timings, their ratios and the
    last pair of sinks.

    Each trial runs serial, service, service, serial consecutively, so its
    ratio is a within-regime comparison; timings from different trials
    are never mixed.
    """
    ratios: list[float] = []
    timings: list[tuple[float, float]] = []
    run_service(workload)  # warm imports and caches before timing
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            serial_s, serial_sink = timed(run_serial, workload)
            service_s, service_sink = timed(run_service, workload)
            more_service_s, service_sink = timed(run_service, workload)
            more_serial_s, serial_sink = timed(run_serial, workload)
            serial_s += more_serial_s
            service_s += more_service_s
            ratios.append(serial_s / service_s)
            timings.append((serial_s / 2, service_s / 2))
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios, timings, serial_sink, service_sink


class TestThroughputGate:
    def test_cached_service_is_3x_serial(self, workload, bench_record):
        # Paired wall-clock ratios, deliberately not benchmark-fixture
        # based, so the gate runs (and fails loudly) on every benchmark
        # invocation.
        ratios, timings, serial_sink, service_sink = paired_trials(workload)
        assert service_sink.verdict() == serial_sink.verdict()
        speedup = statistics.median(ratios)
        serial_s = statistics.median(a for a, _b in timings)
        service_s = statistics.median(b for _a, b in timings)
        bench_record(
            "service",
            "cached_vs_serial",
            packets=PACKETS,
            trial_ratios=[round(r, 3) for r in ratios],
            trial_timings_s=[[round(a, 4), round(b, 4)] for a, b in timings],
            serial_s=serial_s,
            service_s=service_s,
            speedup=speedup,
            gate=3.0,
        )
        assert speedup >= 3.0, (
            f"cached service only {speedup:.2f}x serial "
            f"(median of paired ratios {sorted(round(r, 3) for r in ratios)}; "
            f"{PACKETS / serial_s:.0f} -> {PACKETS / service_s:.0f} pkts/s)"
        )


class TestBenchIngest:
    def test_bench_serial_sink(self, benchmark, workload):
        sink = benchmark(run_serial, workload)
        assert sink.packets_received == PACKETS

    def test_bench_cached_service(self, benchmark, workload):
        sink = benchmark(run_service, workload)
        assert sink.packets_received == PACKETS
