"""Fault injection and network dynamics for the PNM reproduction.

The paper proves one-hop traceback precision for a *static* network
(Section 2.1); real deployments churn -- nodes crash, batteries drain,
links fade, routes get repaired.  This package stress-tests whether the
mole hunt survives benign failures without framing honest nodes:

* :mod:`repro.faults.schedule` -- a declarative
  :class:`~repro.faults.schedule.FaultSchedule` of
  :class:`~repro.faults.schedule.FaultEvent` records (crash/recover,
  energy depletion, per-link degradation, regional outages) at virtual
  timestamps, plus a seeded random-churn generator.
* :mod:`repro.faults.injector` -- the
  :class:`~repro.faults.injector.FaultInjector` that arms a schedule on a
  :class:`~repro.sim.network.NetworkSimulation`, applies and reverts
  faults on the engine's virtual clock, and keeps the per-node/per-link
  fault intervals attribution needs.
* :mod:`repro.faults.attribution` -- sink-side drop-site analysis
  separating fault-explained drop points from mole-suspect ones, and the
  honest-node false-accusation accounting the ``faults-sweep``
  experiment reports.

Everything is deterministic given the injected RNG and runs on the
discrete-event engine's virtual clock -- no wall-clock reads, no shared
``random`` stream (RL002/RL006 enforced by ``python -m repro.lint``).
"""

from repro.faults.attribution import (
    AccusationReport,
    DropAttribution,
    accusation_report,
    attribute_drops,
)
from repro.faults.injector import AppliedFault, FaultInjector
from repro.faults.schedule import FAULT_KINDS, FaultEvent, FaultSchedule

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "AppliedFault",
    "DropAttribution",
    "AccusationReport",
    "attribute_drops",
    "accusation_report",
]
