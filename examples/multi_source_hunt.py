#!/usr/bin/env python3
"""Hunting several moles at once, then pinning one to a pair of nodes.

Two extensions beyond the paper's core scheme, both flagged in its
Sections 7/9 as follow-on work:

1. **Multiple source moles** -- three captured nodes in different corners
   of a grid flood bogus reports concurrently.  The precedence graph grows
   one source component per mole; the multi-source sink confirms each by
   chain-head support and emits one suspect neighborhood per source.
2. **Pair precision via neighbor authentication** -- with pairwise keys
   deployed, marks embed the authenticated previous hop, so a single
   packet narrows a suspect from a whole neighborhood to TWO nodes: the
   stopping marker and the previous hop it attests to.
"""

import random
from dataclasses import replace

from repro.core.build import deploy
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology, linear_path_topology
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.sources import BogusReportSource
from repro.traceback.multisource import MultiSourceTracebackSink
from repro.traceback.precision import PairAwareNestedMarking, refine_to_pair
from repro.traceback.verify import PacketVerifier

SEED = 77


def hunt_multiple_sources() -> None:
    print("=== part 1: three source moles on a 6x6 grid ===")
    topo = grid_topology(6, 6, sink_at="corner")
    routing = build_routing_tree(topo)
    dep = deploy(topo, b"hunt", f"{SEED}:node")
    scheme = PNMMarking(mark_prob=0.35)
    sink = MultiSourceTracebackSink(
        scheme, dep.keystore, dep.provider, topo, min_support=3
    )
    behaviors = {nid: HonestForwarder(dep.ctx(nid), scheme) for nid in topo.sensor_nodes()}

    moles = (35, 30, 5)  # far corner, left edge, right edge
    print(f"source moles: {moles} "
          f"({', '.join(str(routing.hop_count(m)) for m in moles)} hops out)")
    for i, mole in enumerate(moles):
        source = BogusReportSource(
            mole, topo.position(mole), random.Random(f"hunt:{i}")
        )
        path = routing.forwarders_between(mole)
        for _ in range(120):
            packet = source.next_packet(timestamp=0)
            for nid in path:
                packet = behaviors[nid].forward(packet)
            sink.receive(packet, path[-1] if path else mole)

    verdict = sink.multi_verdict()
    print(f"confirmed source components: {verdict.num_sources}")
    for suspect in verdict.suspects:
        caught = sorted(suspect.members & set(moles))
        print(f"  suspect neighborhood around node {suspect.center}: "
              f"{sorted(suspect.members)} -> moles inside: {caught}")
    implicated = set().union(*(s.members for s in verdict.suspects))
    print(f"all three moles implicated: {set(moles) <= implicated}\n")


def pin_to_a_pair() -> None:
    print("=== part 2: pair precision with neighbor authentication ===")
    n = 10
    topo, source_id = linear_path_topology(n)
    dep = deploy(topo, b"pair", f"{SEED}:node")
    scheme = PairAwareNestedMarking()

    packet = BogusReportSource(
        source_id, topo.position(source_id), random.Random(1)
    ).next_packet(timestamp=5)
    prev = source_id
    for nid in range(1, n + 1):
        ctx = replace(dep.ctx(nid), prev_hop=prev)  # authenticated via pairwise keys
        packet = scheme.on_forward(ctx, packet)
        prev = nid

    verification = PacketVerifier(scheme, dep.keystore, dep.provider).verify(packet)
    pair = refine_to_pair(verification, scheme)
    neighborhood = topo.closed_neighborhood(verification.chain_ids[0])
    print(f"single packet, {n}-hop path:")
    print(f"  plain PNM suspect neighborhood: {sorted(neighborhood)} "
          f"({len(neighborhood)} nodes)")
    print(f"  pair-precision suspect: {sorted(pair.members)} (2 nodes)")
    print(f"  source mole {source_id} in pair: {source_id in pair.members}")


def main() -> None:
    hunt_multiple_sources()
    pin_to_a_pair()


if __name__ == "__main__":
    main()
