"""Multi-source traceback experiment (the Section 9 future-work item).

Sweeps the number of concurrently injecting source moles on a grid
deployment and measures what the forest-reconstruction extension
(:mod:`repro.traceback.multisource`) delivers:

* how many packets per source until *every* source component is confirmed,
* whether each confirmed suspect neighborhood contains its true mole,
* how often an innocent neighborhood is confirmed (must be ~never).

Sources inject round-robin, modelling simultaneous attacks; the sink sees
an interleaved stream, which is the hard part -- chains from different
sources must not merge into phantom orderings (they cannot: precedence
edges only arise *within* one packet's marks).
"""

from __future__ import annotations

import random

from repro.core.build import deploy
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.sources import BogusReportSource
from repro.traceback.multisource import MultiSourceTracebackSink

__all__ = ["run"]

#: Grid corners/edges used as source moles, in activation order.
_MOLE_POOL = (35, 30, 5, 33, 23)
_SOURCE_COUNTS = (1, 2, 3, 5)
_MAX_PACKETS_PER_SOURCE = 200


def _run_cell(k: int, seed: int) -> tuple[int | None, bool, int]:
    """One deployment with ``k`` sources.

    Returns ``(packets_per_source_to_confirm_all, all_caught,
    innocent_confirmations)``.
    """
    topo = grid_topology(6, 6, sink_at="corner")
    routing = build_routing_tree(topo)
    dep = deploy(topo, b"multisource-" + seed.to_bytes(4, "big"), f"{seed}:node")
    scheme = PNMMarking(mark_prob=0.35)
    sink = MultiSourceTracebackSink(scheme, dep.keystore, dep.provider, topo, min_support=3)
    behaviors = {nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topo.sensor_nodes()}
    moles = _MOLE_POOL[:k]
    sources = [
        (
            BogusReportSource(m, topo.position(m), random.Random(f"{seed}:{m}")),
            routing.forwarders_between(m),
        )
        for m in moles
    ]

    confirmed_at: int | None = None
    for round_idx in range(1, _MAX_PACKETS_PER_SOURCE + 1):
        for source, path in sources:
            packet = source.next_packet(timestamp=round_idx)
            for nid in path:
                packet = behaviors[nid].forward(packet)
            sink.receive(packet, path[-1] if path else source.node_id)
        if confirmed_at is None:
            verdict = sink.multi_verdict()
            if verdict.num_sources >= k:
                confirmed_at = round_idx

    verdict = sink.multi_verdict()
    caught = 0
    innocent = 0
    for suspect in verdict.suspects:
        if suspect.members & set(moles):
            caught += 1
        else:
            innocent += 1
    all_caught = caught >= k
    return confirmed_at, all_caught, innocent


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep the number of concurrent sources."""
    columns = [
        "num_sources",
        "packets_per_source_to_confirm",
        "all_sources_caught",
        "innocent_confirmations",
    ]
    rows = []
    for k in _SOURCE_COUNTS:
        confirmed_at, all_caught, innocent = _run_cell(k, preset.seed)
        rows.append(
            [
                k,
                confirmed_at if confirmed_at is not None else "never",
                all_caught,
                innocent,
            ]
        )
    return FigureResult(
        figure_id="multi-source",
        title="Concurrent source moles vs forest traceback (Section 9 extension)",
        columns=columns,
        rows=rows,
        notes=[
            "6x6 grid, p=0.35, min_support=3, sources inject round-robin; "
            "confirmation = every source component supported",
            "chains from different sources cannot create phantom orderings "
            "(precedence edges only form within one packet), so suspects "
            "stay per-source",
        ],
    )
