"""Sink ingest throughput: serial sink vs the :mod:`repro.service` pipeline.

Section 4.2 argues the sink can afford brute-force anonymous-ID search for
each distinct message.  That holds per message, but a stream of *distinct*
reports from the same region re-pays the full ``O(N)`` search per packet.
The ingest service amortizes it two ways: a resolution-table cache keyed on
report bytes, and a search along the route its precedence graph has
learned (filtered by a hot-set of recently verified markers) that bounds
the search like Section 7's topology-bounded resolver — without needing
the topology, and falling back to the exhaustive search on any miss so
verdicts are unchanged.

This sweep measures packets/second through a grid deployment with the
exhaustive resolver for the plain serial sink and for the cached service.
The headline number is ``speedup`` relative to the serial sink; the
service is expected to clear 3x on this workload.  ``hot_hit_rate`` is
the share of marks offered a learned search set that resolved without
the exhaustive fallback.
"""

from __future__ import annotations

import time

from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink

__all__ = ["run"]

# (grid side, packet count) per preset: the serial baseline pays a full
# O(N) table build per distinct report, so even the CI size shows the gap.
_WORKLOADS = {"ci": (12, 60), "quick": (16, 120), "full": (24, 240)}


def _time_serial(topology, keystore, stream, delivering) -> tuple[float, TracebackSink]:
    sink = make_sink_factory(topology, keystore)()
    start = time.perf_counter()
    for packet in stream:
        sink.receive(packet, delivering)
    return time.perf_counter() - start, sink


def _time_service(
    topology, keystore, stream, delivering
) -> tuple[float, TracebackSink, float]:
    sink = make_sink_factory(topology, keystore)()
    service = SinkIngestService(sink, capacity=len(stream))
    try:
        start = time.perf_counter()
        for packet in stream:
            service.submit(packet, delivering)
        service.flush()
        elapsed = time.perf_counter() - start
        hot_rate = service.stats().cache["hot_hit_rate"]
        return elapsed, sink, hot_rate
    finally:
        service.close(drain=False)


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep ingest configurations and tabulate throughput and speedup."""
    grid_side, packets = _WORKLOADS.get(preset.name, _WORKLOADS["quick"])
    # One route: every report marked along the path from the grid node
    # farthest from the sink, sent as a single batch.
    topology, keystore, [(stream, delivering)], _ = build_cluster_workload(
        grid_side,
        packets,
        sources=1,
        batch_size=packets,
        master_secret=b"service-sweep",
    )

    serial_s, serial_sink = _time_serial(topology, keystore, stream, delivering)
    rows = [
        [
            "serial-sink",
            packets,
            round(serial_s, 4),
            round(packets / serial_s, 1),
            1.0,
            "-",
        ]
    ]
    elapsed, sink, hot_rate = _time_service(topology, keystore, stream, delivering)
    verdicts_match = sink.verdict() == serial_sink.verdict()
    rows.append(
        [
            "service-cached",
            packets,
            round(elapsed, 4),
            round(packets / elapsed, 1),
            round(serial_s / elapsed, 2),
            round(hot_rate, 3),
        ]
    )
    notes = [
        f"preset={preset.name}; {grid_side}x{grid_side} grid "
        f"({len(topology.sensor_nodes())} sensor nodes), exhaustive resolver, "
        f"{packets} distinct reports along one {len(stream[0].marks)}-hop route",
        f"all configurations produced the serial sink's verdict: {verdicts_match}",
        "hot_hit_rate: share of marks offered a learned search set that "
        "resolved without the exhaustive fallback",
    ]
    return FigureResult(
        figure_id="service-sweep",
        title="Sink ingest throughput: serial sink vs cached service",
        columns=[
            "config",
            "packets",
            "seconds",
            "packets_per_s",
            "speedup",
            "hot_hit_rate",
        ],
        rows=rows,
        notes=notes,
    )
