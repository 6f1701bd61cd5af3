"""One trace id follows a report across every layer of the stack.

The acceptance bar for the observability layer: with a shared
:class:`~repro.obs.Tracer`, a single bogus report injected into the DES
produces one parent-linked trace spanning injection, hop forwarding, the
ingest queue, MAC verification, and the sink's verdict.
"""

import random

from repro.core.build import deploy
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import random_topology
from repro.obs import ObsProvider, Tracer
from repro.routing.tree import build_routing_tree
from repro.service.ingest import SinkIngestService
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER


def run_traced_deployment(seed: int = 11):
    """A small deployment instrumented end to end; returns the tracer."""
    topo = random_topology(
        num_nodes=40, width=8, height=8, radio_range=2.6, seed=seed
    )
    routing = build_routing_tree(topo)
    dep = deploy(topo, MASTER, f"{seed}:node")
    scheme = PNMMarking(mark_prob=0.4)
    behaviors = {nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topo.sensor_nodes()}

    tracer = Tracer()
    obs = ObsProvider(tracer=tracer)
    sink = TracebackSink(scheme, dep.keystore, dep.provider, topo, obs=obs)
    service = SinkIngestService(sink, capacity=1024)
    routed = routing.routed_nodes()
    mole = max(routed, key=lambda nid: (routing.hop_count(nid), nid))
    sim = NetworkSimulation(
        topology=topo,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.002),
        rng=random.Random(0),
        ingest=service,
        obs=obs,
    )
    sim.add_periodic_source(
        BogusReportSource(mole, topo.position(mole), random.Random(1)),
        interval=0.05,
        count=40,
    )
    sim.run()
    service.close()
    assert routing.hop_count(mole) >= 2, "mole must be multiple hops out"
    return tracer, obs


class TestTracePropagation:
    def test_one_trace_spans_every_stage(self):
        tracer, _ = run_traced_deployment()
        spans = list(tracer.finished)
        traces: dict[str, list] = {}
        for span in spans:
            traces.setdefault(span.trace_id, []).append(span)

        required = {"inject", "forward", "queue", "verify", "verdict"}
        complete = [
            group
            for group in traces.values()
            if required <= {s.name for s in group}
        ]
        assert complete, "no trace covered injection through verdict"

        for group in complete:
            names = [s.name for s in group]
            assert names.count("inject") == 1
            assert names.count("forward") >= 1  # multi-hop delivery
            assert names.count("queue") == 1
            assert names.count("verify") == 1
            assert names.count("verdict") == 1

            # Parent links are consistent: exactly one root, every other
            # span's parent is a span of the same trace, and the chain
            # runs in stage order (each stage's parent precedes it).
            span_ids = {s.span_id for s in group}
            roots = [s for s in group if s.parent_id is None]
            assert len(roots) == 1
            assert roots[0].name == "inject"
            for span in group:
                if span.parent_id is not None:
                    assert span.parent_id in span_ids
            by_id = {s.span_id: s for s in group}
            order = {"inject": 0, "forward": 1, "deliver": 2,
                     "queue": 3, "verify": 4, "verdict": 5}
            for span in group:
                if span.parent_id is not None:
                    parent = by_id[span.parent_id]
                    assert order[parent.name] <= order[span.name], (
                        f"{parent.name} should not parent {span.name}"
                    )

    def test_metrics_cover_the_same_run(self):
        _, obs = run_traced_deployment()
        registry = obs.registry
        names = registry.names()
        for name in (
            "ingest_submitted",
            "marks_verified_total",
            "sink_packets_ingested_total",
            "verify_packet_seconds",
            "sim_packets_delivered",
        ):
            assert name in names, f"missing {name}"
        submitted = registry.get("ingest_submitted").get()
        ingested = registry.counter("sink_packets_ingested_total").get()
        assert submitted == ingested > 0
