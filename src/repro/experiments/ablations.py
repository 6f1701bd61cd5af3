"""Ablation benches for the design choices DESIGN.md calls out.

Each function isolates one design decision:

* :func:`marking_probability_sweep` -- overhead vs identification speed
  as the per-packet mark budget ``n*p`` varies (the paper fixes 3).
* :func:`anonymity_ablation` -- plain-ID vs anonymous-ID probabilistic
  nested marking under selective dropping (the paper's central
  probabilistic-design point).
* :func:`nesting_ablation` -- extended AMS vs partially nested vs fully
  nested marking under mark manipulation (Theorem 3 empirically).
* :func:`resolver_ablation` -- exhaustive ``O(N)`` vs topology-bounded
  ``O(d)`` anonymous-ID search (Section 7), in actual candidate checks.
* :func:`mark_length_ablation` -- MAC/anonymous-ID truncation length vs
  per-packet byte overhead and observed verification ambiguity.
* :func:`mole_placement_ablation` -- does the colluding forwarder's
  position on the path matter?  (Theorem 4 says it should not, for PNM.)
* :func:`route_dynamics_ablation` -- traceback under route churn that
  preserves vs violates the upstream order (Section 7's claim).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.overhead import probability_for_target_marks
from repro.core.build import build_scenario
from repro.core.experiment import run_scenario
from repro.core.scenario import Scenario
from repro.experiments.fastpath import identification_times, simulate_first_times
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.routing.dynamics import RouteDynamics
from repro.traceback.resolver import TopologyBoundedResolver
from repro.traceback.sink import TracebackSink

__all__ = [
    "marking_probability_sweep",
    "anonymity_ablation",
    "nesting_ablation",
    "resolver_ablation",
    "mark_length_ablation",
    "mole_placement_ablation",
    "route_dynamics_ablation",
]


def marking_probability_sweep(
    preset: Preset = QUICK,
    n: int = 20,
    mark_budgets: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0),
) -> FigureResult:
    """Packets-to-identify and byte overhead as ``n*p`` varies."""
    columns = [
        "avg_marks_per_packet",
        "mark_prob",
        "avg_packets_to_identify",
        "success_rate",
        "mark_bytes_per_packet",
    ]
    rows = []
    mark_len = 8  # anon_id_len 4 + mac_len 4
    for budget in mark_budgets:
        p = probability_for_target_marks(n, budget)
        times = simulate_first_times(
            n=n,
            p=p,
            packets=preset.budget * 2,
            runs=preset.runs_fig7,
            seed=preset.seed + int(budget * 10),
        )
        ident = identification_times(times)
        successes = ident[~np.isnan(ident)]
        rows.append(
            [
                budget,
                round(p, 4),
                round(float(successes.mean()), 1) if successes.size else float("nan"),
                round(successes.size / preset.runs_fig7, 3),
                round(budget * mark_len, 1),
            ]
        )
    return FigureResult(
        figure_id="ablation-mark-prob",
        title=f"Marking budget vs identification speed (n={n})",
        columns=columns,
        rows=rows,
        notes=[
            f"preset={preset.name}; more marks per packet = faster traceback "
            f"but linearly more radio bytes; the paper picks n*p = 3"
        ],
    )


def anonymity_ablation(preset: Preset = QUICK, n: int = 10) -> FigureResult:
    """Selective dropping vs plain-ID and anonymous-ID nested marking."""
    columns = ["scheme", "outcome", "suspect_center", "delivered", "dropped"]
    rows = []
    for scheme in ("naive-pnm", "pnm"):
        sc = Scenario(
            n_forwarders=n,
            scheme=scheme,
            attack="selective-drop",
            seed=preset.seed,
        )
        built = build_scenario(sc)
        result = run_scenario(sc, num_packets=preset.matrix_packets, built=built)
        rows.append(
            [
                scheme,
                result.outcome,
                result.suspect_center,
                result.packets_delivered,
                built.pipeline.metrics.packets_dropped,
            ]
        )
    return FigureResult(
        figure_id="ablation-anonymity",
        title="Selective dropping: plain IDs get framed, anonymous IDs do not",
        columns=columns,
        rows=rows,
        notes=[
            "the mole drops packets carrying V_1's mark; with anonymous IDs "
            "it cannot evaluate that predicate and drops nothing"
        ],
    )


def nesting_ablation(preset: Preset = QUICK, n: int = 10) -> FigureResult:
    """How much MAC coverage is enough?  (Theorem 3, empirically.)"""
    columns = ["scheme", "mac_covers", "attack", "outcome", "suspect_center"]
    coverage = {
        "ams": "report + own ID",
        "partial-nested": "report + previous IDs + own ID",
        "nested": "entire received message + own ID",
    }
    rows = []
    for scheme in ("ams", "partial-nested", "nested"):
        for attack in ("remove-targeted", "unprotected-alter"):
            sc = Scenario(
                n_forwarders=n, scheme=scheme, attack=attack, seed=preset.seed
            )
            result = run_scenario(sc, num_packets=preset.matrix_packets)
            rows.append(
                [scheme, coverage[scheme], attack, result.outcome, result.suspect_center]
            )
    return FigureResult(
        figure_id="ablation-nesting",
        title="MAC coverage vs manipulation attacks (necessity of nesting)",
        columns=columns,
        rows=rows,
        notes=[
            "only full nesting is caught under both attacks: protecting "
            "fewer fields loses consecutive traceability (Theorem 3)"
        ],
    )


def resolver_ablation(preset: Preset = QUICK, n: int = 20) -> FigureResult:
    """Exhaustive vs topology-bounded anonymous-ID search cost."""
    columns = [
        "resolver",
        "radius",
        "outcome",
        "exhaustive_fallbacks",
        "candidate_checks_per_mark",
    ]
    rows = []
    for label, radius in (("exhaustive", None), ("bounded", 1), ("bounded", 8)):
        sc = Scenario(n_forwarders=n, scheme="pnm", attack="none", seed=preset.seed)
        built = build_scenario(sc)
        if radius is not None:
            resolver = TopologyBoundedResolver(built.topology, radius=radius)
            built.sink.verifier.resolver = resolver
        result = run_scenario(sc, num_packets=200, built=built)
        network_size = built.topology.num_nodes() - 1
        # On a chain, a radius-r ball holds at most 2r+1 nodes.
        checks = network_size if radius is None else min(2 * radius + 1, network_size)
        rows.append(
            [
                label,
                radius if radius is not None else "-",
                result.outcome,
                built.sink.fallback_searches,
                checks,
            ]
        )
    return FigureResult(
        figure_id="ablation-resolver",
        title="Anonymous-ID search: O(N) exhaustive vs O(d) topology-bounded",
        columns=columns,
        rows=rows,
        notes=[
            "bounded search with a too-small radius falls back to the "
            "exhaustive table whenever probabilistic marking skips past the "
            "ball; a radius of a few hops eliminates fallbacks on chains"
        ],
    )


def mark_length_ablation(preset: Preset = QUICK, n: int = 10) -> FigureResult:
    """Field truncation vs byte overhead and resolution ambiguity."""
    columns = [
        "anon_id_len",
        "mac_len",
        "mark_len_bytes",
        "outcome",
        "ambiguous_marks",
    ]
    rows = []
    for anon_len, mac_len in ((1, 1), (2, 2), (4, 4), (8, 8)):
        sc = Scenario(
            n_forwarders=n,
            scheme="pnm",
            attack="none",
            seed=preset.seed,
            anon_id_len=anon_len,
            mac_len=mac_len,
        )
        built = build_scenario(sc)
        ambiguous = 0
        original_receive = built.sink.receive

        def counting_receive(packet, delivering_node):
            nonlocal ambiguous
            verification = original_receive(packet, delivering_node)
            ambiguous += sum(1 for vm in verification.verified if vm.ambiguous)
            return verification

        built.sink.receive = counting_receive  # type: ignore[method-assign]
        built.pipeline.sink = built.sink
        result = run_scenario(sc, num_packets=preset.matrix_packets, built=built)
        rows.append(
            [anon_len, mac_len, anon_len + mac_len, result.outcome, ambiguous]
        )
    return FigureResult(
        figure_id="ablation-mark-length",
        title="Mark truncation: bytes per mark vs anonymous-ID collisions",
        columns=columns,
        rows=rows,
        notes=[
            "1-byte fields collide visibly but MAC verification still "
            "disambiguates attribution; 4+4 bytes make ambiguity negligible"
        ],
    )


def mole_placement_ablation(
    preset: Preset = QUICK, n: int = 12, attack: str = "selective-drop"
) -> FigureResult:
    """Does the forwarding mole's position matter?

    Sweeps X from next-to-source to next-to-sink under a fixed attack and
    scheme pair.  For PNM the answer should be "no": one-hop precision is
    position-independent (Theorem 4 makes no placement assumption).  For
    the naive plaintext variant, position changes *which* innocent gets
    framed (always the frame target's neighborhood), never the failure
    itself.
    """
    columns = ["mole_position", "pnm_outcome", "pnm_center", "naive_outcome", "naive_center"]
    rows = []
    for position in range(1, n + 1):
        row: list[object] = [position]
        for scheme in ("pnm", "naive-pnm"):
            sc = Scenario(
                n_forwarders=n,
                scheme=scheme,
                attack=attack,
                mole_position=position,
                seed=preset.seed + position,
            )
            result = run_scenario(sc, num_packets=preset.matrix_packets)
            row.extend([result.outcome, result.suspect_center])
        rows.append(row)
    return FigureResult(
        figure_id="ablation-mole-placement",
        title=f"Forwarding-mole position vs outcome ({attack}, n={n})",
        columns=columns,
        rows=rows,
        notes=[
            "PNM catches a mole anywhere on the path; the naive plaintext "
            "variant is framed regardless of where the dropper sits"
        ],
    )


def route_dynamics_ablation(preset: Preset = QUICK) -> FigureResult:
    """Traceback under route churn (Section 7's stability discussion).

    Runs PNM over a grid deployment whose routing tree is re-drawn several
    times during the trace.  Order-preserving churn (different
    shortest-path trees) keeps the upstream relation intact, so traceback
    still succeeds; order-violating churn (sideways detours) can place
    node pairs in both relative orders, which surfaces as loops/equivocal
    evidence rather than as a framed innocent.
    """
    from repro.core.build import deploy
    from repro.marking.pnm import PNMMarking
    from repro.net.topology import grid_topology
    from repro.sim.behaviors import HonestForwarder
    from repro.sim.pipeline import PathPipeline
    from repro.sim.sources import BogusReportSource

    columns = ["churn", "epochs", "outcome", "suspect_center", "loop_detected"]
    rows = []
    topology = grid_topology(6, 6, sink_at="corner")
    source_id = 35  # far corner
    dep = deploy(topology, b"dyn", f"{preset.seed}:node")
    epochs = 6
    packets_per_epoch = 60

    for churn in ("order-preserving", "order-violating"):
        scheme = PNMMarking(mark_prob=0.4)
        sink = TracebackSink(scheme, dep.keystore, dep.provider, topology)
        dynamics = RouteDynamics(
            topology,
            seed=preset.seed,
            order_preserving=(churn == "order-preserving"),
        )
        source = BogusReportSource(
            node_id=source_id,
            claimed_location=topology.position(source_id),
            rng=dep.rng(source_id),
        )
        for _ in range(epochs):
            table = dynamics.next_table()
            path = table.forwarders_between(source_id)
            forwarders = [HonestForwarder(dep.ctx(nid), scheme) for nid in path]
            pipeline = PathPipeline(source=source, forwarders=forwarders, sink=sink)
            pipeline.push_many(packets_per_epoch)
        verdict = sink.verdict()
        caught = (
            verdict.suspect is not None and source_id in verdict.suspect.members
        )
        rows.append(
            [
                churn,
                epochs,
                "caught" if caught else ("identified-elsewhere" if verdict.identified else "equivocal"),
                verdict.suspect.center if verdict.suspect else None,
                verdict.loop_detected,
            ]
        )
    return FigureResult(
        figure_id="ablation-route-dynamics",
        title="PNM traceback under route churn (Section 7)",
        columns=columns,
        rows=rows,
        notes=[
            f"grid 6x6, source at far corner, {epochs} epochs x "
            f"{packets_per_epoch} packets, new routing tree each epoch"
        ],
    )
