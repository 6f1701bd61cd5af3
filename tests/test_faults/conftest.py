"""Shared builders for the fault-subsystem tests."""

from __future__ import annotations

import random

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import grid_topology
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.traceback.sink import TracebackSink
from tests.conftest import MASTER, ctx_for


def make_grid_sim(
    side: int = 4,
    mark_prob: float = 0.5,
    seed: int = 7,
    behaviors_override: dict | None = None,
    ingest: object | None = None,
):
    """A grid simulation with repairing routes, ready for faults.

    Returns ``(sim, topology, routing, metrics, sink)``, where ``metrics``
    is ``sim.metrics`` (what attribution reads); the far-corner
    node (highest ID) is the natural traffic source.
    """
    topo = grid_topology(side, side, sink_at="corner")
    routing = RepairingRoutingTable(topo)
    provider = KeyedHashProvider()
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = PNMMarking(mark_prob=mark_prob)
    behaviors = {
        nid: HonestForwarder(ctx_for(nid, keystore, provider), scheme)
        for nid in topo.sensor_nodes()
    }
    if behaviors_override:
        behaviors.update(behaviors_override)
    sink = TracebackSink(scheme, keystore, provider, topo)
    sim = NetworkSimulation(
        topology=topo,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001),
        rng=random.Random(seed),
        ingest=ingest,
    )
    return sim, topo, routing, sim.metrics, sink
