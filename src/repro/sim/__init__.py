"""Simulation substrate.

Two execution models, sharing the same node behaviors and marking schemes:

* :mod:`repro.sim.pipeline` -- a fast synchronous pipeline that pushes each
  packet hop by hop along an explicit forwarding path.  This is what the
  paper's evaluation needs (its experiments are parameterized purely by
  path length and marking probability) and what the security-matrix and
  figure experiments use.
* :mod:`repro.sim.network` -- a discrete-event simulation of a whole
  deployment with per-hop delays and losses, used by the examples and the
  integration tests to exercise PNM end to end on 2-D topologies.
"""

from repro.sim.behaviors import ForwardingBehavior, HonestForwarder
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkSimulation
from repro.sim.pipeline import PathPipeline
from repro.sim.sources import BogusReportSource, HonestReportSource, ReportSource

__all__ = [
    "Simulator",
    "ForwardingBehavior",
    "HonestForwarder",
    "PathPipeline",
    "NetworkSimulation",
    "MetricsCollector",
    "ReportSource",
    "HonestReportSource",
    "BogusReportSource",
]
