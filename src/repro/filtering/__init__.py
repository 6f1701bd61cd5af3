"""En-route filtering substrate.

The paper positions traceback as a complement to en-route filtering
schemes (SEF and friends, Section 8): filtering passively drops bogus
reports; traceback actively locates their origin.  This package provides
the filtering side so examples can run both together, plus the replay
countermeasures sketched in Section 7:

* :class:`DuplicateSuppressor` -- per-node LRU suppression of repeated
  reports (why bogus reports must all differ, and the first defense
  against replays).
* :class:`OneTimeSequenceFilter` -- the paper's one-time sequence
  numbers: rejects reports with stale timestamps and any reuse of a
  fresh one.
* :mod:`repro.filtering.sef` -- a compact statistical en-route filtering
  implementation with a global key pool and probabilistic en-route MAC
  verification.
"""

from repro.filtering.sef import (
    Endorsement,
    KeyPool,
    SefFilterForwarder,
    attach_endorsements,
    endorse,
    extract_endorsements,
)
from repro.filtering.seqnum import OneTimeSequenceFilter
from repro.filtering.suppression import DuplicateSuppressor

__all__ = [
    "DuplicateSuppressor",
    "OneTimeSequenceFilter",
    "KeyPool",
    "Endorsement",
    "attach_endorsements",
    "extract_endorsements",
    "endorse",
    "SefFilterForwarder",
]
