"""Observability overhead: instrumentation must stay in the noise.

The obs layer promises near-zero cost when disabled and small, bounded
cost when enabled.  This gate runs the same sink-verification workload
under the no-op provider and under a fully live provider (registry +
tracer + timers) and asserts the instrumented wall time stays within 15%
of the no-op baseline.

Timing method (as in ``test_bench_cluster.py``): the box this runs on
drifts between scheduling regimes, so timings from different moments are
not comparable.  Each trial times the no-op and the instrumented side
back-to-back, in ABBA order so a drift within the trial hits both sides
alike, and yields one paired ratio; the gate checks the **median** of
``TRIALS`` paired ratios, with the garbage collector off.

The attached-telemetry gate goes one step further: the live provider is
additionally *polled* like a cluster shard (a full registry snapshot per
pass, federated under its shard label -- the exact read path a TELEMETRY
frame triggers), and the total must still stay within the same 15%
envelope.  Its numbers land in ``BENCH_obs.json`` via ``bench_record``.
"""

import gc
import statistics
import time
from collections.abc import Callable

import pytest

from repro.crypto.mac import KeyedHashProvider
from repro.experiments.cluster_sweep import build_cluster_workload
from repro.marking.pnm import PNMMarking
from repro.obs import NOOP, ObsProvider, Tracer, federate_snapshots
from repro.traceback.sink import TracebackSink

GRID_SIDE = 16
PACKETS = 120
TRIALS = 9
MAX_OVERHEAD = 1.15


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


def run_sink(workload, obs) -> float:
    """One full ingest pass under ``obs``; returns elapsed seconds."""
    topology, keystore, stream, delivering = workload
    sink = TracebackSink(
        PNMMarking(mark_prob=1.0), keystore, KeyedHashProvider(), topology, obs=obs
    )
    start = time.perf_counter()
    for packet in stream:
        sink.receive(packet, delivering)
    elapsed = time.perf_counter() - start
    assert sink.packets_received == PACKETS
    return elapsed


def paired_ratios(
    workload, run_variant: Callable[[object], float], trials: int = TRIALS
) -> tuple[list[float], list[tuple[float, float]]]:
    """``trials`` back-to-back (no-op, variant) timings and their ratios.

    Each trial runs no-op, variant, variant, no-op consecutively, so its
    ratio is a within-regime comparison; timings from different trials
    are never mixed.
    """
    ratios: list[float] = []
    timings: list[tuple[float, float]] = []
    run_sink(workload, NOOP)  # warm caches before timing anything
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            noop_s = run_sink(workload, NOOP)
            variant_s = run_variant(workload)
            variant_s += run_variant(workload)
            noop_s += run_sink(workload, NOOP)
            ratios.append(variant_s / noop_s)
            timings.append((round(noop_s, 4), round(variant_s, 4)))
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios, timings


class TestOverheadGate:
    def test_instrumented_run_is_within_15_percent_of_noop(self, workload):
        # Paired wall-clock ratios, deliberately not benchmark-fixture
        # based, so the gate runs (and fails loudly) on every benchmark
        # invocation.
        ratios, timings = paired_ratios(
            workload, lambda w: run_sink(w, ObsProvider(tracer=Tracer()))
        )
        ratio = statistics.median(ratios)
        assert ratio <= MAX_OVERHEAD, (
            f"instrumentation overhead {ratio:.3f}x exceeds {MAX_OVERHEAD}x "
            f"(median of paired ratios {sorted(round(r, 3) for r in ratios)}; "
            f"(noop, live) s per trial {timings})"
        )

    def test_attached_telemetry_within_15_percent_of_noop(
        self, workload, bench_record
    ):
        """The cluster-shard read path: live provider + TELEMETRY poll."""

        def run_attached(workload) -> float:
            provider = ObsProvider(tracer=Tracer(id_prefix="sh0-"))
            elapsed = run_sink(workload, provider)
            # The poll a TELEMETRY frame triggers: full snapshot, then
            # federation under the shard label (the coordinator's side).
            start = time.perf_counter()
            federated = federate_snapshots({0: provider.registry.snapshot()})
            elapsed += time.perf_counter() - start
            assert len(federated) > 0
            return elapsed

        ratios, timings = paired_ratios(workload, run_attached)
        ratio = statistics.median(ratios)
        bench_record(
            "obs",
            "telemetry_attached",
            packets=PACKETS,
            trial_ratios=[round(r, 4) for r in ratios],
            trial_timings_s=[list(pair) for pair in timings],
            ratio=round(ratio, 4),
            max_overhead=MAX_OVERHEAD,
        )
        assert ratio <= MAX_OVERHEAD, (
            f"attached-telemetry overhead {ratio:.3f}x exceeds {MAX_OVERHEAD}x "
            f"(median of paired ratios {sorted(round(r, 3) for r in ratios)}; "
            f"(noop, attached) s per trial {timings})"
        )

    def test_live_provider_actually_recorded(self, workload):
        live = ObsProvider(tracer=Tracer())
        run_sink(workload, live)
        registry = live.registry
        assert registry.counter("marks_verified_total").get() > 0
        assert registry.histogram("verify_packet_seconds").data().count == PACKETS
        assert len(live.tracer) > 0  # verify/verdict event spans


class TestBenchObs:
    def test_bench_noop_instrumented_sink(self, benchmark, workload):
        benchmark(run_sink, workload, NOOP)

    def test_bench_live_instrumented_sink(self, benchmark, workload):
        benchmark(run_sink, workload, ObsProvider(tracer=Tracer()))
