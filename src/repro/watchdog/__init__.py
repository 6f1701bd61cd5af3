"""In-network misbehavior detection by radio overhearing.

The Algebraic Watchdog line of work (arXiv:1011.3879, arXiv:1007.2088)
observes that wireless is a broadcast medium: a node's neighbors hear
the frames it forwards and can check them against the frames it
received, catching manipulation within O(1) hops of the mole -- long
before PNM traceback has accumulated enough marked packets at the sink.

This package adds that substrate to the reproduction:

* :class:`~repro.watchdog.monitor.WatchdogMonitor` -- per-watcher
  consistency checks over overheard frames (pure structural comparison;
  no new crypto) feeding a per-neighbor log-likelihood score with a
  configurable accusation threshold
  (:class:`~repro.watchdog.monitor.WatchdogConfig`).
* :class:`~repro.watchdog.layer.WatchdogLayer` -- deployment-wide glue:
  taps every simulated transmission through the
  :class:`~repro.net.overhear.OverhearModel`, relays threshold-crossing
  :class:`~repro.watchdog.accusation.LocalAccusation` messages
  hop-by-hop to the sink, and hosts the layer's adversaries (lying
  watchdogs, colluding suppressors --
  :mod:`repro.adversary.watchdog`).
* :class:`~repro.watchdog.fusion.DetectionProbe` -- detection-latency
  instrumentation around the sink.  The layer hands every delivered
  accusation to the sink, which counts it as a claim in its
  :class:`~repro.traceback.sink.SinkEvidence`.  Claims alone convict
  nobody: :func:`repro.faults.attribution.accusation_report` confirms
  them only against nodes PNM evidence independently suspects,
  preserving the honest false-accusation == 0.0 invariant.

See ``docs/watchdog.md`` for the model and threat discussion.
"""

from repro.watchdog.accusation import (
    ACCUSATION_WIRE_LEN,
    DeliveredAccusation,
    LocalAccusation,
)
from repro.watchdog.fusion import DetectionProbe, tamper_corroboration_zone
from repro.watchdog.layer import WatchdogLayer
from repro.watchdog.monitor import NeighborScore, WatchdogConfig, WatchdogMonitor

__all__ = [
    "ACCUSATION_WIRE_LEN",
    "LocalAccusation",
    "DeliveredAccusation",
    "WatchdogConfig",
    "WatchdogMonitor",
    "NeighborScore",
    "WatchdogLayer",
    "DetectionProbe",
    "tamper_corroboration_zone",
]
