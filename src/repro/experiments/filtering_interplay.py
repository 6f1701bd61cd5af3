"""En-route filtering and traceback: complements with a tension.

Section 8 positions PNM as a *complement* to en-route filtering: filtering
passively thins bogus traffic, traceback actively finds its origin.  But
there is an interplay the paper does not quantify: every bogus packet a
filter drops is a packet whose marks the sink never sees, so aggressive
filtering *slows the traceback down* (while also bounding the damage per
packet).  This experiment sweeps the per-hop filtering drop probability
and measures both sides:

* packets the sink must wait for (injections until identification),
* network bytes spent on attack traffic per injected packet (the damage
  filtering is there to bound).

The sweep abstracts SEF as a per-hop Bernoulli drop of attack packets
(its detection probability), applied by every honest forwarder.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.overhead import probability_for_target_marks
from repro.experiments.fastpath import identification_times, simulate_first_times
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult

__all__ = ["run"]

_DROP_RATES = (0.0, 0.02, 0.05, 0.1, 0.2)
_N = 15


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep per-hop filtering aggressiveness on a 15-hop path.

    With per-hop drop probability ``f``, an injected packet survives all
    ``n`` hops with probability ``s = (1-f)^n``; the sink's identification
    clock only ticks on survivors, so injections-to-identify scales as
    ``packets_to_identify / s`` while bytes-per-injection shrink with the
    expected number of hops traversed.
    """
    p = probability_for_target_marks(_N, 3.0)
    times = simulate_first_times(
        n=_N,
        p=p,
        packets=preset.budget,
        runs=preset.runs_fig7,
        seed=preset.seed + 4242,
    )
    ident = identification_times(times)
    base_packets = float(np.nanmean(ident[~np.isnan(ident)]))

    columns = [
        "per_hop_drop_prob",
        "delivery_rate",
        "delivered_to_identify",
        "injections_to_identify",
        "avg_hops_traversed",
        "relative_attack_bytes",
    ]
    rows = []
    for f in _DROP_RATES:
        survive = (1.0 - f) ** _N
        # Expected hops an injected packet traverses before being dropped
        # (or delivered): sum over hops of P(alive at that hop).
        hops = sum((1.0 - f) ** k for k in range(1, _N + 1))
        rows.append(
            [
                f,
                round(survive, 3),
                round(base_packets, 1),
                round(base_packets / survive, 1),
                round(hops, 2),
                round(hops / _N, 3),
            ]
        )
    return FigureResult(
        figure_id="filtering-interplay",
        title="En-route filtering vs traceback speed (15-hop path, PNM)",
        columns=columns,
        rows=rows,
        notes=[
            f"preset={preset.name}; identification baseline "
            f"{base_packets:.1f} delivered packets (n={_N}, n*p=3)",
            "filtering bounds per-packet damage (relative_attack_bytes) "
            "but stretches the injections the mole gets away with before "
            "being located -- the paper's 'complement' has a price",
        ],
    )
