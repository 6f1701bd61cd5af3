"""Core-library throughput: end-to-end packets per second per scheme.

Not a paper figure, but the number a downstream user of the library cares
about: how fast the whole source -> marked path -> verifying sink loop
runs under each marking scheme with real crypto.  An all-honest path is
one run of honest hops; a forwarding mole at mid-path splits it in two
around a hop the pipeline calls on its own.
"""

import random

import pytest

from repro.adversary.attacks import NoMarkAttack
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking import scheme_by_name
from repro.net.topology import linear_path_topology
from repro.sim.behaviors import HonestForwarder
from repro.sim.pipeline import PathPipeline
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER, ctx_for

PROVIDER = KeyedHashProvider()


def make_pipeline(scheme_name: str, n: int = 20, mole_at: int | None = None):
    if scheme_name in ("nested", "partial-nested", "none"):
        scheme = scheme_by_name(scheme_name)
    else:
        scheme = scheme_by_name(scheme_name, mark_prob=min(1.0, 3.0 / n))
    topo, source_id = linear_path_topology(n)
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    forwarders = [
        HonestForwarder(ctx_for(i, keystore, PROVIDER), scheme)
        for i in range(1, n + 1)
    ]
    if mole_at is not None:
        honest = forwarders[mole_at - 1]
        forwarders[mole_at - 1] = ForwardingMole(honest.ctx, scheme, NoMarkAttack())
    sink = TracebackSink(scheme, keystore, PROVIDER, topo)
    source = BogusReportSource(source_id, (float(n + 1), 0.0), random.Random(0))
    return PathPipeline(source=source, forwarders=forwarders, sink=sink)


@pytest.mark.parametrize("scheme_name", ["ppm", "ams", "nested", "naive-pnm", "pnm"])
class TestEndToEndThroughput:
    def test_bench_push(self, benchmark, scheme_name):
        pipeline = make_pipeline(scheme_name)
        benchmark(pipeline.push)
        assert pipeline.metrics.packets_delivered > 0


class TestMidPathMole:
    def test_bench_push_mole_midpath(self, benchmark):
        pipeline = make_pipeline("pnm", mole_at=10)
        benchmark(pipeline.push)
        assert pipeline.metrics.packets_delivered > 0
        assert pipeline.forwarders[9].packets_seen > 0


class TestDiscreteEventEngine:
    def test_bench_event_engine(self, benchmark):
        from repro.sim.engine import Simulator

        def run_events():
            sim = Simulator()
            count = [0]

            def tick():
                count[0] += 1
                if count[0] < 1000:
                    sim.schedule(0.001, tick)

            sim.schedule(0.0, tick)
            sim.run()
            return count[0]

        assert benchmark(run_events) == 1000
