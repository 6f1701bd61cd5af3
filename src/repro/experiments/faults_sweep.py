"""Traceback under churn: delivery, repair, and false accusations.

The paper's guarantees are proved for a static network (Section 2.1).
This sweep quantifies what survives when the network churns: nodes crash
and recover on a seeded schedule (:mod:`repro.faults`), routes repair
around dead hops, and the sink must not mistake benign drop sites for
moles.

For each churn rate the sweep runs the same grid workload twice:

* **honest** -- every node runs the protocol faithfully.  Reported:
  delivery ratio, packets killed by faults, route repairs, and the
  honest-node **false-accusation rate** from
  :func:`repro.faults.attribution.accusation_report`.  Benign faults
  cannot forge MACs and every drop site is fault-explained, so this rate
  must be exactly 0.0 at every churn rate -- the claim the property
  suite (``tests/test_properties/test_faults_precision.py``) fuzzes.
* **mole** -- one mid-path forwarder runs a mark-altering attack
  (invalid MACs: tamper evidence).  Reported: whether the sink still
  identifies a suspect and whether the suspect neighborhood contains the
  mole (the paper's one-hop localization), plus the false-accusation
  rate with the mole excluded from the honest set.
"""

from __future__ import annotations

from repro.adversary.attacks import MarkAlteringAttack
from repro.core.build import build_network
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.faults import accusation_report, attribute_drops
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology

__all__ = ["run", "CHURN_RATES"]

#: Crash events per sensor per unit virtual time, swept low to high.
CHURN_RATES = (0.0, 0.05, 0.15, 0.3)

# (grid side, packets injected) per preset.
_WORKLOADS = {"ci": (4, 40), "quick": (5, 100), "full": (6, 240)}

_MASTER = b"faults-sweep-master"


def _run_once(
    grid_side: int,
    packets: int,
    churn_rate: float,
    seed: int,
    mole: bool,
) -> dict[str, object]:
    """One simulated deployment under one churn rate; returns raw outcomes."""
    net = build_network(
        grid_topology(grid_side, grid_side, sink_at="corner"),
        PNMMarking(mark_prob=0.5),
        _MASTER,
        packets,
        rng_label="faults",
        seed=seed,
        attack=MarkAlteringAttack(target="first", field="mac") if mole else None,
        churn_rate=churn_rate,
    )
    attribution = attribute_drops(net.sim.metrics, net.injector)
    report = accusation_report(
        net.sink.evidence(), net.sink.topology, attribution, moles=net.moles
    )
    verdict = net.sink.verdict()
    return {
        "delivery_ratio": net.sim.metrics.delivery_ratio(),
        "faulted": net.sim.metrics.packets_faulted,
        "repairs": attribution.repairs,
        "crashes": net.injector.counts().get("crash", 0),
        "false_rate": report.false_accusation_rate,
        "false_accused": report.false_accusations,
        "identified": verdict.identified,
        "localized": net.localized(verdict),
    }


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep churn rates; tabulate delivery, repair, and accusation outcomes."""
    grid_side, packets = _WORKLOADS.get(preset.name, _WORKLOADS["quick"])
    rows = []
    all_honest_clean = True
    for rate in CHURN_RATES:
        honest = _run_once(grid_side, packets, rate, preset.seed, mole=False)
        attacked = _run_once(grid_side, packets, rate, preset.seed, mole=True)
        all_honest_clean = all_honest_clean and honest["false_rate"] == 0.0
        rows.append(
            [
                rate,
                honest["crashes"],
                round(float(honest["delivery_ratio"]), 3),
                honest["faulted"],
                honest["repairs"],
                round(float(honest["false_rate"]), 3),
                bool(attacked["identified"]),
                bool(attacked["localized"]),
                round(float(attacked["false_rate"]), 3),
            ]
        )
    notes = [
        f"preset={preset.name}; {grid_side}x{grid_side} grid, {packets} packets "
        f"per run, PNM mark_prob=0.5, repairing routes (retry+backoff)",
        "honest runs: benign churn only -- false-accusation rate must be 0.0 "
        f"at every rate (observed: {'yes' if all_honest_clean else 'NO'})",
        "mole runs: one mid-path mark-altering mole; 'localized' means the "
        "suspect neighborhood contains the mole (one-hop precision)",
    ]
    return FigureResult(
        figure_id="faults-sweep",
        title="Traceback under churn: delivery, repair, false accusations",
        columns=[
            "churn_rate",
            "crashes",
            "delivery_ratio",
            "faulted",
            "repairs",
            "false_acc_rate",
            "mole_identified",
            "mole_localized",
            "false_acc_rate_mole",
        ],
        rows=rows,
        notes=notes,
        checks={"all_honest_clean": all_honest_clean},
    )
