"""``pnm-experiment``: command-line front end for the experiment harness.

Examples::

    pnm-experiment fig6 --preset quick
    pnm-experiment fig7 --preset full        # the paper's exact run sizes
    pnm-experiment security-matrix
    pnm-experiment all --preset ci

Exits 1 when any run's checked claim (``FigureResult.checks``) fails,
naming each failed check on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from repro import obs as obs_pkg
from repro.experiments import (
    ablations,
    algebraic_sweep,
    approaches,
    cluster_sweep,
    faults_sweep,
    fig4,
    fig5,
    fig6,
    fig7,
    filtering_interplay,
    multisource_exp,
    overhead_table,
    security_matrix,
    service_sweep,
    sink_cost,
    watchdog_sweep,
    wire_sweep,
)
from repro.experiments.presets import Preset, preset_by_name
from repro.experiments.tables import FigureResult

__all__ = ["main"]

_SINGLE_RUNNERS: dict[str, Callable[[Preset], FigureResult]] = {
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "security-matrix": security_matrix.run,
    "sink-cost": sink_cost.run,
    "service-sweep": service_sweep.run,
    "wire-sweep": wire_sweep.run,
    "cluster-sweep": cluster_sweep.run,
    "faults-sweep": faults_sweep.run,
    "algebraic-sweep": algebraic_sweep.run,
    "watchdog-sweep": watchdog_sweep.run,
    "approaches": approaches.run,
    "overhead": overhead_table.run,
    "filtering-interplay": filtering_interplay.run,
    "multi-source": multisource_exp.run,
}

_ABLATION_RUNNERS: dict[str, Callable[..., FigureResult]] = {
    "ablation-mark-prob": ablations.marking_probability_sweep,
    "ablation-anonymity": ablations.anonymity_ablation,
    "ablation-nesting": ablations.nesting_ablation,
    "ablation-resolver": ablations.resolver_ablation,
    "ablation-mark-length": ablations.mark_length_ablation,
    "ablation-mole-placement": ablations.mole_placement_ablation,
    "ablation-route-dynamics": ablations.route_dynamics_ablation,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnm-experiment",
        description=(
            "Regenerate the evaluation of 'Catching Moles in Sensor "
            "Networks' (ICDCS 2007)."
        ),
    )
    experiments = sorted(_SINGLE_RUNNERS) + sorted(_ABLATION_RUNNERS) + ["all"]
    parser.add_argument(
        "experiment",
        choices=experiments,
        help="which figure/claim to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=["full", "quick", "ci"],
        help="Monte Carlo sizes: 'full' matches the paper's 5000-run setup",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render an ASCII chart of each numeric series",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="additionally append the rendered tables to FILE",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help=(
            "capture observability per experiment: DIR/<name>/ gets "
            "manifest.json, metrics.json, metrics.prom and spans.jsonl "
            "(render them with 'python -m repro.obs report DIR')"
        ),
    )
    return parser


def _run_observed(
    runner: Callable[[Preset], FigureResult],
    name: str,
    preset: Preset,
    obs_dir: str,
) -> FigureResult:
    """Run one experiment under a fresh obs provider; write its artifacts."""
    run_dir = os.path.join(obs_dir, name)
    os.makedirs(run_dir, exist_ok=True)
    tracer = obs_pkg.Tracer()
    provider = obs_pkg.ObsProvider(tracer=tracer)
    manifest = obs_pkg.RunManifest.begin(name, preset=preset.name)
    with obs_pkg.use_provider(provider):
        result = runner(preset)
    manifest.extra["notes"] = list(result.notes)
    manifest.extra.update(result.extra)
    manifest.finish(metrics=provider.registry.snapshot())
    # A full span store drops every later span; say so rather than leave
    # a spans.jsonl that silently stops partway through the run.
    manifest.extra["spans_written"] = tracer.write_jsonl(
        os.path.join(run_dir, "spans.jsonl")
    )
    manifest.extra["spans_truncated"] = tracer.truncated
    if tracer.truncated:
        print(
            f"pnm-experiment: {name}: span store full at {tracer.max_spans} "
            "spans; later spans were dropped",
            file=sys.stderr,
        )
    manifest.write(os.path.join(run_dir, "manifest.json"))
    with open(os.path.join(run_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write(obs_pkg.registry_to_json(provider.registry, indent=2) + "\n")
    with open(os.path.join(run_dir, "metrics.prom"), "w", encoding="utf-8") as fh:
        fh.write(obs_pkg.to_prometheus_text(provider.registry))
    return result


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    preset = preset_by_name(args.preset)

    if args.experiment == "all":
        names = sorted(_SINGLE_RUNNERS) + sorted(_ABLATION_RUNNERS)
    else:
        names = [args.experiment]

    sections: list[str] = []
    status = 0
    for name in names:
        runner = _SINGLE_RUNNERS.get(name) or _ABLATION_RUNNERS[name]
        if args.obs_dir:
            result = _run_observed(runner, name, preset, args.obs_dir)
        else:
            result = runner(preset)
        rendered = result.render()
        if args.plot:
            from repro.experiments.plotting import render_figure_chart

            try:
                rendered += "\n" + render_figure_chart(result)
            except ValueError:  # noqa: S110 - chart is optional decoration
                pass  # nothing numeric to chart (e.g. the security matrix)
        print(rendered)
        print()
        sections.append(rendered)
        for check, held in result.checks.items():
            if not held:
                print(f"pnm-experiment: {name}: check failed: {check}", file=sys.stderr)
                status = 1
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            handle.write("\n\n".join(sections) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
