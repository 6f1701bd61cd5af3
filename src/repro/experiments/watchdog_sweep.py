"""Watchdog fusion vs. PNM-only traceback: detection latency and safety.

The paper's sink identifies a mark-manipulating mole purely from
delivered packets (Section 4); detection latency is bounded by how fast
tamper-stop statistics converge.  The :mod:`repro.watchdog` overhearing
layer adds a second, independent evidence stream: neighbors overhear
each other's forwardings and report inconsistencies, and the sink fuses
those accusations with PNM evidence: the sink counts each delivered
accusation as a claim in its evidence, and
:func:`repro.faults.attribution.accusation_report` confirms a claim only
where PNM evidence corroborates it.

This sweep quantifies the trade on the paper's linear-chain deployment
(the Figure 6 topology) across marking probability and mole position,
three scenarios per cell:

* **mole** -- one mark-altering forwarder, honest watchers.  Reported:
  PNM-only *stable* detection (the verdict holds from that packet to the
  end of the run) vs. fused detection (the earlier of a corroborated
  watchdog accusation and the PNM detection), both in delivered packets.
  Fused detection is never later than PNM-only by construction, and is
  strictly earlier on average in every cell: a single watcher flags the
  mole within a handful of forwardings, while the sink's tamper-stop
  mass estimate takes tens of packets to stabilize.
* **collusion** -- the mole's downstream neighbor drops relayed
  accusations that name the mole (watched/watcher collusion).  The
  watchdog stream goes dark and fused detection falls back to PNM-only;
  the mole is still caught.
* **framing** -- an honest data plane plus one lying watchdog that
  fabricates accusations against an honest victim.  With no tamper
  evidence the corroboration zone is empty, every fabricated claim is
  rejected, and the fused false-accusation rate is exactly 0.0.

The ``wd_added_false`` column isolates the watchdog's contribution to
false accusations -- confirmed claims against honest nodes.  It must be
0.0 in **every** cell: the fusion rule (corroboration required) means
enabling the watchdog never convicts an honest node that PNM-only would
not have, which is the safety half of the headline claim.
"""

from __future__ import annotations

import random

from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.watchdog import AccusationSuppressor, LyingWatchdog
from repro.analysis.overhead import probability_for_target_marks
from repro.core.build import build_network
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.faults import accusation_report, attribute_drops
from repro.marking.pnm import PNMMarking
from repro.net.overhear import OverhearModel
from repro.net.topology import linear_path_topology
from repro.watchdog import WatchdogLayer

__all__ = ["run", "CHAIN_LENGTHS", "TARGET_MARKS", "SCENARIOS"]

#: Forwarder counts for the paper's linear-chain (Fig. 6) deployments.
CHAIN_LENGTHS = (10, 15)

#: Average marks per delivered packet; sets p = target / n following the
#: paper's mark-budget calibration (Section 5).  The sweep deliberately
#: covers the sparse-marking regime (1.5-2 marks per packet), where the
#: sink's tamper-stop statistics converge slowest and overheard evidence
#: buys the most; at 3+ marks per packet PNM-only already converges
#: within a handful of packets and the two paths tie.
TARGET_MARKS = (1.5, 2.0)

#: Adversary configurations swept per (n, p) cell.
SCENARIOS = ("mole", "collusion", "framing")

# (runs per cell, packets per run) per preset.
_WORKLOADS = {"ci": (4, 80), "quick": (6, 120), "full": (10, 160)}

_MASTER = b"watchdog-sweep-master"


def _mean(outcomes: list[dict[str, object]], key: str) -> float:
    """Average of one numeric field across per-run outcome dicts."""
    return sum(float(o[key]) for o in outcomes) / len(outcomes)


def _mole_positions(n: int) -> tuple[int, ...]:
    """Mole placements swept for an ``n``-forwarder chain.

    Node IDs ascend toward the sink (V1 is the source's neighbor), so
    position 3 is an upstream mole -- the regime where the sink's
    tamper-stop statistics converge slowest -- and ``n // 2`` is the
    paper's usual mid-path placement.
    """
    return (3, n // 2)


def _run_once(
    n: int,
    p: float,
    position: int,
    packets: int,
    seed: int,
    scenario: str,
) -> dict[str, object]:
    """One chain deployment under one scenario; returns raw outcomes."""
    topology, _source = linear_path_topology(n)
    framing = scenario == "framing"  # honest data plane, one lying watcher
    liars = (LyingWatchdog(watcher=position, victim=position + 1),) if framing else ()
    # Collusion: the mole's downstream neighbor sits on the accusation
    # relay path (IDs ascend toward the sink) and drops every accusation
    # naming its partner.
    suppressors = (
        (AccusationSuppressor(node=position + 1, protects=frozenset({position})),)
        if scenario == "collusion"
        else ()
    )
    layer = WatchdogLayer(
        OverhearModel(topology),
        rng=random.Random(f"wd-sweep:layer:{seed}"),
        liars=liars,
        suppressors=suppressors,
    )
    net = build_network(
        topology,
        PNMMarking(mark_prob=p),
        _MASTER,
        packets,
        rng_label="wd-sweep",
        seed=seed,
        attack=None if framing else MarkAlteringAttack(target="first", field="mac"),
        mole_id=position,
        watchdog=layer,
    )
    probe = net.probe
    fused = accusation_report(
        net.sink.evidence(),
        topology,
        attribute_drops(net.sim.metrics),
        moles=net.moles,
    )
    honest = set(fused.honest)
    miss = packets + 1  # sentinel: not detected within the budget
    return {
        "delivered": probe.delivered_count,
        "pnm_detect": probe.pnm_stable_detection() or miss,
        "fused_detect": probe.fused_detection() or miss,
        # Accusation->fusion latency SLO: delivered packets between the
        # first accusation reaching the sink and fused conviction; None
        # when either never happened (e.g. framing runs never convict).
        "acc_fusion_latency": probe.accusation_fusion_latency(),
        "confirmed": len(fused.watchdog_confirmed),
        "rejected": len(fused.watchdog_rejected),
        "suppressed": len(layer.suppressed),
        "fused_false_rate": fused.false_accusation_rate,
        # The watchdog's own contribution to false accusations: confirmed
        # claims against honest nodes.  Must be 0.0 everywhere.
        "wd_added_false": (
            sum(1 for node in fused.watchdog_confirmed if node in honest)
            / len(honest)
            if honest
            else 0.0
        ),
    }


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep chains, marking rates, positions, and adversary scenarios."""
    runs, packets = _WORKLOADS.get(preset.name, _WORKLOADS["quick"])
    rows = []
    all_strict = True
    wd_false_clean = True
    framing_clean = True
    fusion_latencies: list[float] = []
    for n in CHAIN_LENGTHS:
        for target in TARGET_MARKS:
            p = probability_for_target_marks(n, target)
            for scenario in SCENARIOS:
                positions = (
                    _mole_positions(n) if scenario == "mole" else (n // 2,)
                )
                for position in positions:
                    outcomes = [
                        _run_once(
                            n,
                            p,
                            position,
                            packets,
                            preset.seed + index,
                            scenario,
                        )
                        for index in range(runs)
                    ]

                    pnm_mean = _mean(outcomes, "pnm_detect")
                    fused_mean = _mean(outcomes, "fused_detect")
                    wd_false = max(float(o["wd_added_false"]) for o in outcomes)
                    wd_false_clean = wd_false_clean and wd_false == 0.0
                    if scenario == "mole":
                        all_strict = all_strict and fused_mean < pnm_mean
                        fusion_latencies.extend(
                            float(o["acc_fusion_latency"])
                            for o in outcomes
                            if o["acc_fusion_latency"] is not None
                        )
                    if scenario == "framing":
                        framing_clean = framing_clean and all(
                            o["fused_false_rate"] == 0.0 for o in outcomes
                        )
                    rows.append(
                        [
                            scenario,
                            n,
                            round(p, 3),
                            position,
                            round(_mean(outcomes, "delivered"), 1),
                            round(pnm_mean, 1),
                            round(fused_mean, 1),
                            sum(int(o["confirmed"]) for o in outcomes),
                            sum(int(o["rejected"]) for o in outcomes),
                            sum(int(o["suppressed"]) for o in outcomes),
                            round(max(
                                float(o["fused_false_rate"]) for o in outcomes
                            ), 3),
                            round(wd_false, 3),
                        ]
                    )
    notes = [
        f"preset={preset.name}; linear chains (Fig. 6 topology), {runs} runs "
        f"per cell, {packets} packets per run, p = target_marks / n",
        "detection in delivered packets; pnm = stable PNM-only conviction, "
        f"fused = min(corroborated accusation, pnm); {packets + 1} means "
        "not detected within the budget",
        "mole rows: fused must beat pnm on average in every cell "
        f"(observed: {'yes' if all_strict else 'NO'})",
        "collusion rows: accusations suppressed en route; fused falls back "
        "to pnm, the mole is still caught",
        "framing rows: honest data plane + lying watchdog; every claim "
        "rejected, fused false-accusation rate exactly 0.0 "
        f"(observed: {'yes' if framing_clean else 'NO'})",
        "wd_added_false = confirmed watchdog claims against honest nodes; "
        f"must be 0.0 in every cell (observed: "
        f"{'yes' if wd_false_clean else 'NO'})",
    ]
    fusion_latency = (
        sum(fusion_latencies) / len(fusion_latencies)
        if fusion_latencies
        else None
    )
    if fusion_latency is not None:
        notes.append(
            "accusation->fusion latency (mole runs, delivered packets "
            "between first accusation at sink and fused conviction): "
            f"mean {fusion_latency:.1f} over {len(fusion_latencies)} runs"
        )
    return FigureResult(
        figure_id="watchdog-sweep",
        title="Watchdog fusion vs. PNM-only: detection latency and safety",
        columns=[
            "scenario",
            "n",
            "p",
            "mole_pos",
            "delivered",
            "pnm_detect",
            "fused_detect",
            "wd_confirmed",
            "wd_rejected",
            "wd_suppressed",
            "fused_false_rate",
            "wd_added_false",
        ],
        rows=rows,
        notes=notes,
        extra={
            "slo": {
                "accusation_fusion_latency": fusion_latency,
                "accusation_fusion_samples": len(fusion_latencies),
            }
        },
        checks={
            "all_strict": all_strict,
            "framing_clean": framing_clean,
            "wd_false_clean": wd_false_clean,
        },
    )
