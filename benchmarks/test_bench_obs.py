"""Observability overhead: instrumentation must stay in the noise.

The obs layer promises near-zero cost when disabled and small, bounded
cost when enabled.  This gate runs the same sink-verification workload
under the no-op provider and under a fully live provider (registry +
tracer + timers) and asserts the instrumented wall time stays within 15%
of the no-op baseline.  Best-of-N with alternating order so scheduler
noise hits both variants equally.

The attached-telemetry gate goes one step further: the live provider is
additionally *polled* like a cluster shard (a full registry snapshot per
pass, federated under its shard label -- the exact read path a TELEMETRY
frame triggers), and the total must still stay within the same 15%
envelope.  Its numbers land in ``BENCH_obs.json`` via ``bench_record``.
"""

import time

import pytest

from repro.crypto.mac import HmacProvider
from repro.experiments.cluster_sweep import build_cluster_workload
from repro.marking.pnm import PNMMarking
from repro.obs import NOOP, ObsProvider, Tracer, federate_snapshots
from repro.traceback.sink import TracebackSink

GRID_SIDE = 16
PACKETS = 120
ROUNDS = 5
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
        PNMMarking(mark_prob=1.0), keystore, HmacProvider(), topology, obs=obs
    )
    start = time.perf_counter()
    for packet in stream:
        sink.receive(packet, delivering)
    elapsed = time.perf_counter() - start
    assert sink.packets_received == PACKETS
    return elapsed


class TestOverheadGate:
    def test_instrumented_run_is_within_15_percent_of_noop(self, workload):
        # Plain wall-clock, deliberately not benchmark-fixture based, so
        # the gate runs (and fails loudly) on every benchmark invocation.
        run_sink(workload, NOOP)  # warm caches before timing anything
        noop_times = []
        live_times = []
        for round_index in range(ROUNDS):
            live = ObsProvider(tracer=Tracer())
            if round_index % 2 == 0:
                noop_times.append(run_sink(workload, NOOP))
                live_times.append(run_sink(workload, live))
            else:
                live_times.append(run_sink(workload, live))
                noop_times.append(run_sink(workload, NOOP))
        ratio = min(live_times) / min(noop_times)
        assert ratio <= MAX_OVERHEAD, (
            f"instrumentation overhead {ratio:.3f}x exceeds "
            f"{MAX_OVERHEAD}x (noop {min(noop_times):.4f}s, "
            f"live {min(live_times):.4f}s)"
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

        run_sink(workload, NOOP)  # warm caches before timing anything
        noop_times = []
        attached_times = []
        for round_index in range(ROUNDS):
            if round_index % 2 == 0:
                noop_times.append(run_sink(workload, NOOP))
                attached_times.append(run_attached(workload))
            else:
                attached_times.append(run_attached(workload))
                noop_times.append(run_sink(workload, NOOP))
        ratio = min(attached_times) / min(noop_times)
        bench_record(
            "obs",
            "telemetry_attached",
            packets=PACKETS,
            noop_s=min(noop_times),
            attached_s=min(attached_times),
            ratio=round(ratio, 4),
            max_overhead=MAX_OVERHEAD,
        )
        assert ratio <= MAX_OVERHEAD, (
            f"attached-telemetry overhead {ratio:.3f}x exceeds "
            f"{MAX_OVERHEAD}x (noop {min(noop_times):.4f}s, "
            f"attached {min(attached_times):.4f}s)"
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
