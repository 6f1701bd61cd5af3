"""Wire-protocol overhead: loopback TCP sink vs the in-process service.

The deployment model in Section 2 keeps the sink off-mote: reports reach
it over a real network, so the codec + framing + asyncio path sits between
the sensor field and every verdict.  This sweep quantifies what that path
costs.  The same workload (one multi-hop route, ``packets`` distinct
reports) is pushed through

* the in-process :class:`~repro.service.SinkIngestService` (the
  ``service-sweep`` baseline), and
* a :class:`~repro.wire.server.SinkServer` on an ephemeral loopback port,
  fed by a pipelined :class:`~repro.wire.client.SinkClient` in batches.

The headline column is ``vs_inproc`` — loopback throughput as a fraction
of in-process throughput; ``benchmarks/test_bench_wire.py`` gates it at
0.5x.  Both paths must produce the serial sink's verdict byte-for-byte
(the service determinism contract extended over TCP).
"""

from __future__ import annotations

import time

from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.experiments.presets import QUICK, Preset
from repro.experiments.service_sweep import _time_service
from repro.experiments.tables import FigureResult
from repro.marking.pnm import PNMMarking
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.loopback import Batch, run_loopback
from repro.wire.messages import WireVerdict

__all__ = ["run", "measure_wire_overhead"]

# (grid side, packet count, batch size) per preset; batching exercises the
# client's pipelined sends rather than one giant frame.
_WORKLOADS = {"ci": (10, 60, 20), "quick": (12, 120, 30), "full": (16, 360, 60)}


def _time_loopback(
    topology, keystore, batches: list[Batch], capacity: int
) -> tuple[float, TracebackSink, WireVerdict]:
    service = SinkIngestService(
        make_sink_factory(topology, keystore)(), capacity=capacity
    )
    fmt = PNMMarking(mark_prob=1.0).fmt
    try:
        start = time.perf_counter()
        result = run_loopback(service, fmt, batches, ping=False)
        elapsed = time.perf_counter() - start
        return elapsed, service.sink, result.final_verdict
    finally:
        service.close(drain=False)


def measure_wire_overhead(
    grid_side: int, packets: int, batch_size: int
) -> dict[str, float | bool]:
    """One comparable measurement; shared with ``benchmarks/test_bench_wire``.

    Returns in-process and loopback elapsed seconds plus a ``parity`` flag
    asserting both paths reproduced the serial sink's verdict.
    """
    # One route, cut into ``batch_size`` wire batches; the in-process
    # path gets the same packets as one stream.
    topology, keystore, batches, _ = build_cluster_workload(
        grid_side,
        packets,
        sources=1,
        batch_size=batch_size,
        master_secret=b"service-sweep",
    )
    stream = [packet for chunk, _ in batches for packet in chunk]
    delivering = batches[0][1]

    reference = make_sink_factory(topology, keystore)()
    for packet in stream:
        reference.receive(packet, delivering)
    expected = reference.verdict()

    inproc_s, inproc_sink, _ = _time_service(topology, keystore, stream, delivering)
    wire_s, wire_sink, wire_verdict = _time_loopback(
        topology, keystore, batches, len(stream)
    )
    parity = (
        inproc_sink.verdict() == expected
        and wire_sink.verdict() == expected
        and wire_verdict.identified == expected.identified
        and wire_verdict.packets_used == expected.packets_used
        and wire_verdict.suspect_neighborhood() == expected.suspect
    )
    return {"in_process_s": inproc_s, "loopback_s": wire_s, "parity": parity}


def run(preset: Preset = QUICK) -> FigureResult:
    """Compare loopback-TCP and in-process ingest throughput."""
    grid_side, packets, batch_size = _WORKLOADS.get(
        preset.name, _WORKLOADS["quick"]
    )
    measured = measure_wire_overhead(grid_side, packets, batch_size)
    inproc_s = float(measured["in_process_s"])
    wire_s = float(measured["loopback_s"])
    rows = [
        [
            "service-inproc",
            packets,
            round(inproc_s, 4),
            round(packets / inproc_s, 1),
            1.0,
        ],
        [
            "wire-loopback",
            packets,
            round(wire_s, 4),
            round(packets / wire_s, 1),
            round(inproc_s / wire_s, 2),
        ],
    ]
    notes = [
        f"preset={preset.name}; {grid_side}x{grid_side} grid, {packets} "
        f"reports in pipelined batches of {batch_size} over loopback TCP",
        "vs_inproc is loopback throughput relative to the in-process "
        "service (codec + framing + asyncio overhead)",
        f"verdict parity with the serial sink on both paths: "
        f"{measured['parity']}",
    ]
    return FigureResult(
        figure_id="wire-sweep",
        title="Wire-protocol overhead: loopback sink server vs in-process",
        columns=["config", "packets", "seconds", "packets_per_s", "vs_inproc"],
        rows=rows,
        notes=notes,
        checks={"parity": measured["parity"]},
    )
