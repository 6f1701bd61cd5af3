#!/usr/bin/env python3
"""Field monitoring: a full deployment under attack, end to end.

A 100-node random field reports events to a corner sink over a collection
tree (discrete-event simulation with Mica2-rate links).  One captured node
deep in the field floods bogus reports.  The defense runs in layers, as
the paper positions it:

1. **En-route filtering (SEF, passive)** -- forwarders probabilistically
   drop forged reports that lack enough valid key-pool endorsements.
   Filtering thins the attack but cannot stop the mole from injecting.
2. **PNM traceback (active)** -- the sink verifies nested anonymous marks
   on the surviving bogus reports and localizes the mole.
3. **Quarantine** -- neighbors stop forwarding the suspect neighborhood's
   traffic, cutting the attack off at its first hop.

The run reports packets and radio energy wasted before vs after the
catch.
"""

import random

from repro.core.build import deploy
from repro.filtering.sef import KeyPool, SefFilterForwarder, endorse, extract_endorsements
from repro.isolation.quarantine import QuarantineManager, QuarantinePolicy
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import random_topology
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource, HonestReportSource
from repro.traceback.sink import TracebackSink

SEED = 1234
NUM_NODES = 100
SEF_THRESHOLD = 3


def build_network():
    topology = random_topology(
        num_nodes=NUM_NODES, width=10, height=10, radio_range=2.2, seed=SEED
    )
    routing = build_routing_tree(topology)
    dep = deploy(topology, b"field-demo", f"{SEED}:node")
    # Pick the routable sensor farthest (in hops) from the sink as the mole.
    depths = topology.hop_distances()
    mole_id = max(topology.sensor_nodes(), key=lambda nid: (depths[nid], nid))
    return topology, routing, dep, mole_id


def main() -> None:
    topology, routing, dep, mole_id = build_network()
    provider = dep.provider
    scheme = PNMMarking(mark_prob=0.35)
    pool = KeyPool(b"field-demo-sef", pool_size=100, partitions=10, keys_per_node=5)
    rng = random.Random(SEED)

    # Honest witnesses endorse real events; the mole only holds its own few
    # pool keys, so its reports carry forged endorsements that an honest
    # forwarder holding one of the claimed keys will expose.
    node_pool_keys = {
        nid: pool.assign_node_keys(nid, random.Random(f"{SEED}:{nid}"))
        for nid in topology.sensor_nodes()
    }
    witness_keys = []
    for nid in sorted(node_pool_keys):
        for idx, key in sorted(node_pool_keys[nid].items()):
            if all(pool.partition_of(idx) != pool.partition_of(i) for i, _ in witness_keys):
                witness_keys.append((idx, key))
        if len(witness_keys) >= SEF_THRESHOLD:
            witness_keys = witness_keys[:SEF_THRESHOLD]
            break

    sink = TracebackSink(scheme, dep.keystore, provider, topology)
    behaviors = {}
    for nid in topology.sensor_nodes():
        honest = HonestForwarder(dep.ctx(nid), scheme)
        behaviors[nid] = SefFilterForwarder(
            inner=honest,
            node_keys=node_pool_keys[nid],
            provider=provider,
            threshold=SEF_THRESHOLD,
            pool=pool,
        )

    def is_suspicious(packet) -> bool:
        # Section 7, "Background Traffic": the sink decides which delivered
        # packets feed the traceback.  Unlike forwarders (who hold ~5 pool
        # keys each), the sink holds the whole pool and can verify every
        # endorsement -- any forged one marks the report as attack traffic.
        try:
            bare, endos = extract_endorsements(packet.report)
        except ValueError:
            return True
        if len(endos) < SEF_THRESHOLD:
            return True
        base = bare.encode()
        return any(
            provider.mac(pool.key(e.key_index), b"sef-endorse" + base) != e.mac
            for e in endos
        )

    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.004, loss_prob=0.01),
        rng=rng,
        suspicious=is_suspicious,
    )

    # Legitimate traffic: five sensors report endorsed events periodically.
    class EndorsedSource:
        def __init__(self, inner):
            self.inner = inner
            self.node_id = inner.node_id

        def next_packet(self, timestamp):
            packet = self.inner.next_packet(timestamp)
            endorsed = endorse(packet.report, witness_keys, provider)
            return packet.with_marks(()).__class__(
                report=endorsed, origin=packet.origin
            )

    depths = topology.hop_distances()
    reporters = [n for n in topology.sensor_nodes() if n != mole_id][:5]
    for nid in reporters:
        sim.add_periodic_source(
            EndorsedSource(HonestReportSource(
                nid, topology.position(nid), dep.rng(5000 + nid))),
            interval=1.0, count=40, start=0.1, jitter=0.2,
        )

    # The mole floods bogus reports with forged endorsements: it claims
    # SEF_THRESHOLD keys but only actually holds its own partition's keys,
    # so at least some claimed MACs are fabricated.
    class ForgedSource:
        """One genuine endorsement (the mole's own pool key) plus randomly
        chosen forged indices, re-rolled per packet -- a report only slips
        through when no forwarder on the path happens to hold a claimed
        index, so SEF thins the flood probabilistically rather than all
        or nothing."""

        def __init__(self, inner, rng):
            self.inner = inner
            self.node_id = inner.node_id
            self.rng = rng
            self.own = sorted(node_pool_keys[mole_id].items())[:1]
            self.own_partition = pool.partition_of(self.own[0][0])

        def next_packet(self, timestamp):
            packet = self.inner.next_packet(timestamp)
            partitions = [
                q for q in range(pool.partitions) if q != self.own_partition
            ]
            self.rng.shuffle(partitions)
            fake = [
                (
                    q * pool.partition_size
                    + self.rng.randrange(pool.partition_size),
                    b"\x00" * 32,
                )
                for q in partitions[: SEF_THRESHOLD - 1]
            ]
            forged = endorse(packet.report, self.own + fake, provider)
            return packet.__class__(report=forged, origin=packet.origin)

    # A flood: 25 reports/s.  SEF will thin it en route (each honest hop
    # holding a claimed-but-forged key index drops the report), but a flood
    # is exactly the regime where filtering alone cannot win -- enough
    # survivors reach the sink to fuel the traceback.
    sim.add_periodic_source(
        ForgedSource(
            BogusReportSource(
                mole_id, topology.position(mole_id), dep.rng(9999)
            ),
            rng=dep.rng(8888),
        ),
        interval=0.04, count=1500, start=0.5,
    )

    print(f"deployment: {NUM_NODES} sensors, sink at corner; "
          f"mole = node {mole_id} ({depths[mole_id]} hops out)")
    print(f"defense: SEF(threshold={SEF_THRESHOLD}) + "
          f"PNM(p={scheme.mark_prob}) + quarantine\n")

    # Phase 1: let the attack run, watch filtering + traceback.
    sim.run(until=40.0)
    sef_drops = sum(b.forged_dropped for b in behaviors.values())
    print("phase 1 (attack in progress, t=40s):")
    print(f"  injected: {sim.metrics.packets_injected}, "
          f"delivered: {sim.metrics.packets_delivered}, "
          f"SEF-dropped en route: {sef_drops}")
    print(f"  energy spent so far: {sim.metrics.energy_spent():.3f} J")

    verdict = sink.verdict()
    if verdict.suspect is None:
        raise SystemExit("traceback failed to localize the mole")
    caught = mole_id in verdict.suspect.members
    print(f"  traceback verdict after {verdict.packets_used} suspicious "
          f"packets: center {verdict.suspect.center}, "
          f"members {sorted(verdict.suspect.members)} -> mole inside: {caught}\n")

    # Phase 2: quarantine the suspect neighborhood and keep running.
    manager = QuarantineManager(
        policy=QuarantinePolicy.FULL_NEIGHBORHOOD, protect={topology.sink}
    )
    isolated = manager.apply(verdict.suspect, at=sim.sim.now,
                             evidence=f"PNM trace, {verdict.packets_used} packets")
    sim.quarantine(isolated)
    print(f"phase 2: quarantined {sorted(isolated)} "
          f"({len(isolated) - 1} innocent bystanders pending inspection)")

    delivered_before = sim.metrics.packets_delivered
    energy_before = sim.metrics.energy_spent()
    sim.run()  # drain the remaining scheduled traffic
    print(f"  after quarantine: {sim.metrics.packets_delivered - delivered_before} "
          f"more packets delivered (mole's flood now dies at hop 1)")
    print(f"  additional energy: "
          f"{sim.metrics.energy_spent() - energy_before:.3f} J")
    print(f"  revocation log: "
          f"{manager.revocations.record(mole_id).reason!r}")


if __name__ == "__main__":
    main()
