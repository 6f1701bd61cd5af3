"""High-level experiment API.

:class:`Scenario` declares a complete attack/defense configuration -- path
length, marking scheme, colluding attack, crypto realism, seed -- and
:func:`build_scenario` materializes it into a runnable
:class:`~repro.sim.pipeline.PathPipeline` with a traceback sink.
:func:`run_scenario` executes it and scores the outcome (mole caught /
innocent framed / unidentified).

This is the API the examples, the security-matrix experiment and most
integration tests use.
"""

from repro.core.build import BuiltScenario, Deployment, build_scenario, deploy
from repro.core.experiment import ExperimentResult, run_scenario
from repro.core.scenario import ATTACK_NAMES, Scenario

__all__ = [
    "Scenario",
    "ATTACK_NAMES",
    "BuiltScenario",
    "build_scenario",
    "Deployment",
    "deploy",
    "ExperimentResult",
    "run_scenario",
]
