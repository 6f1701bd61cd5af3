"""Property-based security tests: the paper's theorems under random attacks.

Hypothesis drives random colluding-attack configurations against nested
marking and PNM and checks the theorems' guarantees:

* Theorem 2 / Corollary 5.1 (nested marking is one-hop precise): for any
  per-packet manipulation by a forwarding mole, the single-packet
  traceback stop node is within one hop of a mole.
* Theorem 4 (PNM asymptotically one-hop precise): with enough packets,
  the aggregate verdict implicates a mole.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attacks import (
    CompositeAttack,
    IdentitySwappingAttack,
    MarkAlteringAttack,
    MarkInsertionAttack,
    MarkRemovalAttack,
    MarkReorderingAttack,
    NoMarkAttack,
)
from repro.adversary.coalition import Coalition
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.base import NodeContext
from repro.marking.nested import NestedMarking
from repro.net.topology import linear_path_topology
from repro.sim.behaviors import HonestForwarder
from repro.sim.pipeline import PathPipeline
from repro.sim.sources import BogusReportSource
from repro.traceback.sink import TracebackSink

PROVIDER = KeyedHashProvider()
MASTER = b"property-master"


def attack_strategy(source_id: int, mole_id: int):
    """Random single or composite manipulations available to a mole."""
    single = st.one_of(
        st.just(NoMarkAttack()),
        st.builds(MarkInsertionAttack, num_fake=st.integers(1, 3)),
        st.builds(
            MarkInsertionAttack,
            num_fake=st.integers(1, 2),
            claim_ids=st.lists(st.integers(1, 10), min_size=1, max_size=2),
        ),
        st.builds(MarkRemovalAttack, num_remove=st.one_of(st.none(), st.integers(1, 4))),
        st.builds(
            MarkRemovalAttack,
            num_remove=st.none(),
            also_mark=st.just(True),
        ),
        st.builds(MarkReorderingAttack, mode=st.sampled_from(["reverse", "shuffle"])),
        st.builds(
            MarkAlteringAttack,
            target=st.sampled_from(["first", "last", "all"]),
            field=st.sampled_from(["mac", "id"]),
        ),
        st.just(
            IdentitySwappingAttack(partner_id=source_id, swap_prob=0.5, mark_prob=1.0)
        ),
    )
    return st.one_of(
        single,
        st.lists(single, min_size=2, max_size=3).map(CompositeAttack),
    )


def build_path(n: int, mole_position: int, attack, seed: int):
    topo, source_id = linear_path_topology(n)
    keystore = KeyStore.from_master_secret(MASTER, topo.sensor_nodes())
    scheme = NestedMarking()
    coalition = Coalition(
        {source_id: keystore[source_id], mole_position: keystore[mole_position]}
    )

    def ctx(node_id):
        return NodeContext(
            node_id=node_id,
            key=keystore[node_id],
            provider=PROVIDER,
            rng=random.Random(f"prop:{seed}:{node_id}"),
        )

    forwarders = []
    for nid in range(1, n + 1):
        if nid == mole_position:
            forwarders.append(
                ForwardingMole(ctx(nid), scheme, attack, coalition)
            )
        else:
            forwarders.append(HonestForwarder(ctx(nid), scheme))
    source = BogusReportSource(
        source_id, (float(n + 1), 0.0), random.Random(f"prop-src:{seed}")
    )
    sink = TracebackSink(scheme, keystore, PROVIDER, topo)
    pipeline = PathPipeline(source, forwarders, sink)
    return pipeline, sink, topo, {source_id, mole_position}


class TestNestedOneHopPrecision:
    @given(
        data=st.data(),
        n=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_packet_stop_is_one_hop_from_a_mole(self, data, n, seed):
        """Theorem 2: whatever one colluding forwarding mole does to a
        packet, the per-packet stopping node is within one hop of a mole
        (or the packet never arrives)."""
        mole_position = data.draw(st.integers(1, n), label="mole_position")
        source_id = n + 1
        attack = data.draw(attack_strategy(source_id, mole_position), label="attack")
        pipeline, sink, topo, moles = build_path(n, mole_position, attack, seed)

        delivered = pipeline.push()
        if delivered is None:
            return  # dropped: no evidence, no verdict -- nothing to violate
        suspect = sink.last_packet_suspect()
        assert suspect is not None
        assert suspect.members & moles, (
            f"stop node {suspect.center} neighborhood {sorted(suspect.members)} "
            f"contains no mole (moles at {sorted(moles)})"
        )

    @given(
        data=st.data(),
        n=st.integers(min_value=3, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_aggregate_verdict_never_frames(self, data, n, seed):
        """Across a batch of packets, if the sink reaches a verdict it
        implicates a mole -- never an innocent-only neighborhood."""
        mole_position = data.draw(st.integers(1, n), label="mole_position")
        source_id = n + 1
        attack = data.draw(attack_strategy(source_id, mole_position), label="attack")
        pipeline, sink, topo, moles = build_path(n, mole_position, attack, seed)

        pipeline.push_many(60)
        verdict = sink.verdict()
        if verdict.identified:
            assert verdict.suspect.members & moles, (
                f"verdict framed innocents: {sorted(verdict.suspect.members)}, "
                f"moles {sorted(moles)}, attack {attack!r}"
            )
