"""Section 4.2's sink feasibility numbers, modelled and measured.

The paper argues that brute-forcing anonymous IDs is practical: ~2.5 M
hashes/s at the sink means a full table for a few-thousand-node network
costs milliseconds, supporting several hundred verified packets per second
against a radio that delivers ~50.  This experiment reports the analytical
model side by side with a *measured* hash rate and measured table-build
times on this machine, plus the Section 7 ``O(d)`` topology-bounded search.
"""

from __future__ import annotations

import time

from repro.analysis.cost import MICA2_PACKETS_PER_SECOND, SinkCostModel
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.marking.pnm import PNMMarking
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report

__all__ = ["NETWORK_SIZES", "run", "measure_hash_rate"]

NETWORK_SIZES = (100, 500, 1000, 2000, 5000)


def measure_hash_rate(duration: float = 0.2) -> float:
    """Measure this machine's keyed-hash MAC throughput (hashes/second)."""
    provider = KeyedHashProvider()
    key = b"k" * 32
    data = b"d" * 64
    count = 0
    start = time.perf_counter()
    deadline = start + duration
    while time.perf_counter() < deadline:
        for _ in range(1000):
            provider.mac(key, data)
        count += 1000
    elapsed = time.perf_counter() - start
    return count / elapsed


def _measure_table_build(network_size: int, provider: KeyedHashProvider) -> float:
    """Measured seconds to build one message's anonymous-ID table."""
    scheme = PNMMarking(mark_prob=0.1)
    keystore = KeyStore.from_master_secret(b"cost", range(1, network_size + 1))
    packet = MarkedPacket(
        report=Report(event=b"cost-model", location=(1.0, 2.0), timestamp=1)
    )
    start = time.perf_counter()
    scheme.build_resolution_table(packet, keystore, provider)
    return time.perf_counter() - start


def run(preset: Preset = QUICK) -> FigureResult:
    """Tabulate modelled and measured sink verification costs."""
    provider = KeyedHashProvider()
    measured_rate = measure_hash_rate()
    columns = [
        "network_size",
        "model_table_ms",
        "measured_table_ms",
        "model_pkts_per_s",
        "model_pkts_per_s_bounded",
        "keeps_up_with_radio",
    ]
    rows = []
    for size in NETWORK_SIZES:
        model = SinkCostModel(network_size=size, hash_rate=measured_rate)
        rows.append(
            [
                size,
                round(1e3 * model.table_build_seconds(), 3),
                round(1e3 * _measure_table_build(size, provider), 3),
                round(model.packets_per_second(), 1),
                round(model.packets_per_second(bounded=True), 1),
                model.keeps_up_with_radio(),
            ]
        )
    notes = [
        f"preset={preset.name}; measured hash rate on this machine: "
        f"{measured_rate / 1e6:.2f} M/s (paper assumed 2.5 M/s)",
        f"radio-limited delivery rate: {MICA2_PACKETS_PER_SECOND:.0f} pkts/s "
        f"(19.2 kbps Mica2); feasibility requires verification >= that",
    ]
    return FigureResult(
        figure_id="sink-cost",
        title="Sink verification cost: anonymous-ID search (Section 4.2/7)",
        columns=columns,
        rows=rows,
        notes=notes,
    )
