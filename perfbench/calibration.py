"""Machine-speed calibration.

Two loops that use nothing from the repository, so no change to it can
move them:

* ``calibrate`` times the HMAC-SHA256 construction ``HmacProvider`` uses
  (``hmac.new`` over a 32-byte key, then ``digest``) and is reported as
  ``crypto.hmac_calib_per_s``;
* ``SpeedProbe`` takes short samples of a *reference unit* between units
  of benchmark work.  The unit mixes what the benchmark's own code
  spends its time on: networkx graph work (build a small digraph, find
  its strongly connected components, test reachability, like the
  verdict) and HMACs (like verification).

The shared 2-vCPU cloud VM this benchmark was tuned on switches between
speeds that differ by half, for seconds to minutes at a time.  A unit of
work timed between two probe samples is scaled to
``REFERENCE_UNITS_PER_S`` by the mean of those two samples, which takes
the switches out of the figures: in a ten-minute trace of one scenario
run again and again, 20-second medians of the raw run time ranged over
43% and of the scaled run time over 4%.

Tail latency does not follow the probe: when the probe sped up by 40%,
the online workloads' p50 latency fell by about 30% but their p99 by
about 10%, so scaling p99 by the probe would move it more than the host
does.  ``batch_ms_p99`` is therefore printed as measured and is not a
declared metric; the declared tail is ``batch_ms_p90``, which is scaled.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import random
import statistics
import time

import networkx as nx

_KEY = bytes(range(32))
_DATA = bytes(64)

#: Figures are reported at this probe rate, a little below the slow
#: speed of that VM.
REFERENCE_UNITS_PER_S = 2_000.0

_rng = random.Random(1)
_NODES = 60
_EDGES = [(_rng.randrange(_NODES), _rng.randrange(_NODES)) for _ in range(90)]


def hmac_rate(calls: int) -> float:
    """HMAC-SHA256 calls per second over one loop of ``calls``."""
    start = time.perf_counter()
    for _ in range(calls):
        hmac.new(_KEY, _DATA, hashlib.sha256).digest()
    return calls / (time.perf_counter() - start)


def calibrate(calls: int = 20_000, repeats: int = 5) -> float:
    """The run-start calibration: median rate of ``repeats`` loops."""
    return statistics.median(hmac_rate(calls) for _ in range(repeats))


def reference_unit() -> int:
    """One unit of reference work; returns the number of components."""
    graph = nx.DiGraph(_EDGES)
    components = sum(1 for _ in nx.strongly_connected_components(graph))
    for node in range(0, _NODES, 12):
        if graph.has_node(node):
            nx.has_path(graph, node, _NODES - 1 - node)
    for _ in range(8):
        hmac.new(_KEY, _DATA, hashlib.sha256).digest()
    return components


class SpeedProbe:
    """Short samples of the reference unit spread over a run.

    Attributes:
        rates: every sample's reference units per second.
        seconds: time spent sampling (kept out of the workload's clock).
    """

    SAMPLE_UNITS = 10

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.seconds = 0.0

    def sample(self) -> int:
        """Take one sample; returns its index in ``rates``."""
        # With the collector off, the size of the workload's heap cannot
        # change the sample.
        gc.disable()
        start = time.perf_counter()
        for _ in range(self.SAMPLE_UNITS):
            reference_unit()
        elapsed = time.perf_counter() - start
        gc.enable()
        self.rates.append(self.SAMPLE_UNITS / elapsed)
        self.seconds += elapsed
        return len(self.rates) - 1

    def speed(self, before: int, after: int) -> float:
        """Machine speed over the work between samples ``before`` and
        ``after``, relative to ``REFERENCE_UNITS_PER_S``.  A time measured
        there, multiplied by this, is the time at the reference speed."""
        return (self.rates[before] + self.rates[after]) / 2 / REFERENCE_UNITS_PER_S

    def rate(self) -> float:
        """The run's typical reference-unit rate (median sample)."""
        return statistics.median(self.rates)
