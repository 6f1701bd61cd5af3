"""Experiment harnesses: one module per paper figure/claim.

Every module exposes ``run(preset) -> FigureResult``, whose table holds the
same rows/series the paper reports:

* :mod:`repro.experiments.fig4` -- analytical mark-collection probability.
* :mod:`repro.experiments.fig5` -- simulated mark-collection percentage.
* :mod:`repro.experiments.fig6` -- identification failures vs path length.
* :mod:`repro.experiments.fig7` -- packets needed to identify the source.
* :mod:`repro.experiments.security_matrix` -- scheme x attack outcomes
  (the Sections 3 and 5 qualitative claims).
* :mod:`repro.experiments.sink_cost` -- Section 4.2's feasibility numbers.
* :mod:`repro.experiments.ablations` -- design-choice sweeps (marking
  probability, resolver bounding, mark truncation, route dynamics).
* :mod:`repro.experiments.faults_sweep` -- traceback under churn:
  delivery, route repairs, and honest false-accusation rates across
  fault schedules (see ``docs/faults.md``).

Run any of them through the one entry point, ``pnm-experiment <name>``
(:mod:`repro.experiments.cli`).
"""

from repro.experiments.presets import CI, FULL, QUICK, Preset, preset_by_name
from repro.experiments.tables import FigureResult

__all__ = ["Preset", "FULL", "QUICK", "CI", "preset_by_name", "FigureResult"]
