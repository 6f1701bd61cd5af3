"""Watchdog-layer adversaries: framing and report suppression.

The overhearing layer (:mod:`repro.watchdog`) creates two attack surfaces
of its own, both named by the Algebraic Watchdog papers and both required
to be survivable:

* **Framing** (:class:`LyingWatchdog`): a compromised node fabricates
  accusations against an honest neighbor.  Accusations carry no proof --
  they are claims -- so the defense is sink-side: the fusion rule
  (:func:`repro.faults.attribution.accusation_report`) confirms an
  accusation only against nodes PNM evidence independently suspects.  A
  frame against a node with no tamper or drop evidence nearby is
  discarded, keeping the honest false-accusation rate at exactly 0.0.
* **Watched/watcher collusion** (:class:`AccusationSuppressor`): a mole
  on the relay path drops accusations that implicate its partners.  The
  watchdog's accusations travel hop-by-hop like any packet, so a
  colluding relay can silence them; detection then degrades gracefully
  to PNM's own traceback rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LyingWatchdog", "AccusationSuppressor"]


@dataclass(frozen=True)
class LyingWatchdog:
    """A compromised watcher that frames an honest neighbor.

    The liar abandons honest monitoring entirely (it is a mole; its
    observations serve the coalition) and instead emits a fabricated
    accusation against ``victim`` once it has overheard
    ``after_overhears`` transmissions -- mimicking the cadence of a real
    detection so the sink cannot filter it on timing alone.

    Attributes:
        watcher: the compromised node emitting the frame.
        victim: the honest neighbor it accuses.
        after_overhears: overheard transmissions before the frame fires.
    """

    watcher: int
    victim: int
    after_overhears: int = 3

    def __post_init__(self) -> None:
        if self.watcher == self.victim:
            raise ValueError("a lying watchdog cannot frame itself")
        if self.after_overhears < 1:
            raise ValueError(
                f"after_overhears must be >= 1, got {self.after_overhears}"
            )


@dataclass(frozen=True)
class AccusationSuppressor:
    """A colluding relay that silences accusations against its partners.

    Attributes:
        node: the relay node doing the suppressing.
        protects: accused IDs whose accusations it drops (its coalition).
    """

    node: int
    protects: frozenset[int]

    def __post_init__(self) -> None:
        if not self.protects:
            raise ValueError("protects must not be empty")
