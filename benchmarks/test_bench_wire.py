"""Wire-protocol cost: codec microbenchmarks and the loopback server gate.

The deployment keeps the sink off-mote, so every report crosses the wire
codec and the asyncio server before it reaches verification.  Two checks:

* the gate: pushing a workload through ``SinkServer``/``SinkClient`` on a
  loopback socket must sustain at least **0.5x** the packets/second of
  handing the same batches straight to the in-process
  ``SinkIngestService`` — i.e. framing + CRC + TCP may at most halve
  throughput;
* microbenchmarks for ``encode_packet``/``decode_packet`` and
  ``encode_frame``/``decode_frame``, the per-packet inner loop, and for
  a warm service verifying the decoded packets, so the per-mark verify
  cost reads beside the codec's.

Timing method (as in ``test_bench_obs.py``): one run of either side takes
a few tens of milliseconds, so a single unpaired pair of runs mostly
measures host noise.  Each trial times the in-process and the wire side
back-to-back in ABBA order, so a drift within the trial hits both sides
alike, and yields one paired ratio; the gate checks the **median** of
``TRIALS`` paired ratios, with the garbage collector off.
"""

import gc
import statistics
import time

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.marking.pnm import PNMMarking
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.frames import FrameType, decode_frame, encode_frame
from repro.wire.loopback import run_loopback
from repro.wire.messages import encode_batch

GRID_SIDE = 12
PACKETS = 240
BATCH_SIZE = 60
MIN_WIRE_RATIO = 0.5
TRIALS = 9


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


def make_service(workload) -> SinkIngestService:
    topology, keystore, stream, _delivering = workload
    sink = make_sink_factory(topology, keystore)()
    return SinkIngestService(sink, capacity=len(stream))


def batches_of(workload):
    _topology, _keystore, stream, delivering = workload
    return [
        (stream[i : i + BATCH_SIZE], delivering)
        for i in range(0, len(stream), BATCH_SIZE)
    ]


def run_in_process(workload) -> TracebackSink:
    _topology, _keystore, stream, delivering = workload
    with make_service(workload) as service:
        for packet in stream:
            service.submit(packet, delivering)
        service.flush()
        return service.sink


def run_wire(workload) -> TracebackSink:
    fmt = PNMMarking(mark_prob=1.0).fmt
    with make_service(workload) as service:
        result = run_loopback(service, fmt, batches_of(workload), ping=False)
        assert result.final_verdict is not None
        return service.sink


def timed(run, workload) -> tuple[float, TracebackSink]:
    start = time.perf_counter()
    sink = run(workload)
    return time.perf_counter() - start, sink


def paired_trials(workload, trials: int = TRIALS):
    """``trials`` ABBA (in-process, wire) timings, their ratios and the
    last pair of sinks.

    Each trial runs in-process, wire, wire, in-process consecutively, so
    its ratio is a within-regime comparison; timings from different
    trials are never mixed.
    """
    ratios: list[float] = []
    timings: list[tuple[float, float]] = []
    run_in_process(workload)  # warm imports and caches before timing
    run_wire(workload)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(trials):
            inproc_s, inproc_sink = timed(run_in_process, workload)
            wire_s, wire_sink = timed(run_wire, workload)
            more_wire_s, wire_sink = timed(run_wire, workload)
            more_inproc_s, inproc_sink = timed(run_in_process, workload)
            inproc_s += more_inproc_s
            wire_s += more_wire_s
            ratios.append(inproc_s / wire_s)
            timings.append((inproc_s / 2, wire_s / 2))
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios, timings, inproc_sink, wire_sink


class TestThroughputGate:
    def test_loopback_within_2x_of_in_process(self, workload, bench_record):
        # Paired wall-clock ratios, deliberately not benchmark-fixture
        # based, so the gate runs (and fails loudly) on every benchmark
        # invocation.
        ratios, timings, inproc_sink, wire_sink = paired_trials(workload)
        assert wire_sink.verdict() == inproc_sink.verdict()
        ratio = statistics.median(ratios)
        inproc_s = statistics.median(a for a, _b in timings)
        wire_s = statistics.median(b for _a, b in timings)
        bench_record(
            "wire",
            "loopback_vs_in_process",
            packets=PACKETS,
            trial_ratios=[round(r, 3) for r in ratios],
            trial_timings_s=[[round(a, 4), round(b, 4)] for a, b in timings],
            in_process_s=inproc_s,
            wire_s=wire_s,
            ratio=ratio,
            gate=MIN_WIRE_RATIO,
        )
        assert ratio >= MIN_WIRE_RATIO, (
            f"loopback server only {ratio:.2f}x in-process "
            f"(median of paired ratios {sorted(round(r, 3) for r in ratios)}; "
            f"{PACKETS / inproc_s:.0f} -> {PACKETS / wire_s:.0f} pkts/s); "
            f"gate is {MIN_WIRE_RATIO}x"
        )


class TestBenchServer:
    def test_bench_in_process_batches(self, benchmark, workload):
        sink = benchmark(run_in_process, workload)
        assert sink.packets_received == PACKETS

    def test_bench_loopback_batches(self, benchmark, workload):
        sink = benchmark(run_wire, workload)
        assert sink.packets_received == PACKETS


class TestBenchCodec:
    def test_bench_encode_packet(self, benchmark, workload):
        _topology, _keystore, stream, _delivering = workload
        out = benchmark(lambda: [encode_packet(p) for p in stream])
        assert len(out) == PACKETS

    def test_bench_decode_packet(self, benchmark, workload):
        _topology, _keystore, stream, _delivering = workload
        fmt = PNMMarking(mark_prob=1.0).fmt
        bodies = [encode_packet(p) for p in stream]
        out = benchmark(lambda: [decode_packet(b, fmt) for b in bodies])
        assert out == stream

    def test_bench_verify_decoded_packet(self, benchmark, workload):
        _topology, _keystore, stream, delivering = workload
        fmt = PNMMarking(mark_prob=1.0).fmt
        received = [decode_packet(encode_packet(p), fmt) for p in stream]
        with make_service(workload) as service:
            # Warm: the learned route and the resolution tables are built.
            service.submit_batch(received, delivering)
            service.flush()
            verify = service.verifier.verify
            out = benchmark(lambda: [verify(p) for p in received])
        assert len(out) == PACKETS
        assert all(v.all_valid and v.verified for v in out)

    def test_bench_frame_round_trip(self, benchmark, workload):
        _topology, _keystore, stream, delivering = workload
        fmt = PNMMarking(mark_prob=1.0).fmt
        payload = encode_batch(stream, delivering, fmt)

        def round_trip():
            frame, _ = decode_frame(encode_frame(FrameType.BATCH, payload))
            return frame

        frame = benchmark(round_trip)
        assert frame.payload == payload
