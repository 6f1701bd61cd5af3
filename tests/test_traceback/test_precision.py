"""Pairwise keys and pair-precision traceback (Section 7)."""

import hashlib
import hmac
import random

import pytest

from repro.crypto.pairwise import PairwiseKeyTable, derive_pairwise_key
from repro.marking.base import NodeContext
from repro.net.topology import linear_path_topology
from repro.traceback.precision import (
    PairAwareNestedMarking,
    SuspectPair,
    refine_to_pair,
)
from repro.traceback.verify import PacketVerifier


def sender_proof(pairwise_key: bytes, challenge: bytes) -> bytes:
    """The sender side of ``PairwiseKeyTable.authenticate_sender``."""
    return hmac.new(
        pairwise_key, b"neighbor-auth" + challenge, hashlib.sha256
    ).digest()[:8]


class TestPairwiseKeys:
    def test_symmetric(self):
        assert derive_pairwise_key(b"m", 3, 7) == derive_pairwise_key(b"m", 7, 3)

    def test_distinct_per_pair(self):
        keys = {
            derive_pairwise_key(b"m", u, v)
            for u in range(5)
            for v in range(5)
            if u < v
        }
        assert len(keys) == 10

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            derive_pairwise_key(b"m", 4, 4)

    def test_table_covers_neighbors_only(self):
        topo, _ = linear_path_topology(5)
        table = PairwiseKeyTable(b"m", topo, node_id=3)
        assert table.neighbors() == {2, 4}

    def test_neighbor_authentication_roundtrip(self):
        topo, _ = linear_path_topology(5)
        receiver = PairwiseKeyTable(b"m", topo, node_id=3)
        challenge = b"nonce-123"
        # The true neighbor 4 proves itself.
        proof = sender_proof(derive_pairwise_key(b"m", 4, 3), challenge)
        assert receiver.authenticate_sender(4, proof, challenge)

    def test_impersonation_fails(self):
        topo, _ = linear_path_topology(5)
        receiver = PairwiseKeyTable(b"m", topo, node_id=3)
        challenge = b"nonce-123"
        # A mole with ITS OWN pairwise key cannot prove it is node 2.
        mole_key = derive_pairwise_key(b"m", 4, 3)
        proof = sender_proof(mole_key, challenge)
        assert not receiver.authenticate_sender(2, proof, challenge)

    def test_non_neighbor_claim_rejected(self):
        topo, _ = linear_path_topology(5)
        receiver = PairwiseKeyTable(b"m", topo, node_id=3)
        assert not receiver.authenticate_sender(1, b"whatever", b"challenge")


@pytest.fixture
def pair_scheme():
    return PairAwareNestedMarking()


def pair_ctx(node_id, prev_hop, keystore, provider):
    return NodeContext(
        node_id=node_id,
        key=keystore[node_id],
        provider=provider,
        rng=random.Random(f"pair:{node_id}"),
        prev_hop=prev_hop,
    )


def mark_pair_path(scheme, keystore, provider, path, source_id, packet):
    prev = source_id
    for nid in path:
        packet = scheme.on_forward(pair_ctx(nid, prev, keystore, provider), packet)
        prev = nid
    return packet


class TestPairAwareMarking:
    def test_requires_prev_hop(self, pair_scheme, keystore, provider, packet):
        ctx = pair_ctx(3, None, keystore, provider)
        with pytest.raises(ValueError, match="prev_hop"):
            pair_scheme.make_mark(ctx, packet)

    def test_honest_chain_verifies(self, pair_scheme, keystore, provider, packet):
        marked = mark_pair_path(
            pair_scheme, keystore, provider, [1, 2, 3], 9, packet
        )
        result = PacketVerifier(pair_scheme, keystore, provider).verify(marked)
        assert result.chain_ids == [1, 2, 3]

    def test_reported_prev_hops(self, pair_scheme, keystore, provider, packet):
        marked = mark_pair_path(
            pair_scheme, keystore, provider, [1, 2, 3], 9, packet
        )
        assert pair_scheme.reported_prev_hop(marked, 0) == 9
        assert pair_scheme.reported_prev_hop(marked, 1) == 1
        assert pair_scheme.reported_prev_hop(marked, 2) == 2

    def test_prev_hop_is_mac_protected(self, pair_scheme, keystore, provider, packet):
        from repro.packets.marks import Mark

        marked = mark_pair_path(pair_scheme, keystore, provider, [1], 9, packet)
        mark = marked.marks[0]
        # Tamper with the embedded prev-hop field.
        mangled_field = mark.id_field[:2] + (5).to_bytes(2, "big")
        tampered = marked.with_marks(
            (Mark(id_field=mangled_field, mac=mark.mac),)
        )
        assert not pair_scheme.verify_mark_as(
            tampered, 0, 1, keystore[1], provider
        )


class TestRefineToPair:
    def test_pair_is_stop_and_prev(self, pair_scheme, keystore, provider, packet):
        marked = mark_pair_path(
            pair_scheme, keystore, provider, [1, 2, 3], 9, packet
        )
        result = PacketVerifier(pair_scheme, keystore, provider).verify(marked)
        pair = refine_to_pair(result, pair_scheme)
        assert pair == SuspectPair(
            stop_node=1, reported_prev=9, members=frozenset({1, 9})
        )
        assert pair.contains_any({9})  # the source mole
        assert len(pair) == 2

    def test_pair_after_mole_tampering(self, pair_scheme, keystore, provider, packet):
        # Mole = node 3: strips upstream marks, then marks validly.
        marked = mark_pair_path(pair_scheme, keystore, provider, [1, 2], 9, packet)
        stripped = marked.with_marks(())
        mole_marked = pair_scheme.on_forward(
            pair_ctx(3, 2, keystore, provider), stripped
        )
        final = mark_pair_path(
            pair_scheme, keystore, provider, [4, 5], 3, mole_marked
        )
        result = PacketVerifier(pair_scheme, keystore, provider).verify(final)
        pair = refine_to_pair(result, pair_scheme)
        assert pair is not None
        # Stop node is the mole itself; either way the pair holds a mole.
        assert pair.contains_any({3, 9})
        assert len(pair.members) == 2

    def test_none_without_verified_marks(self, pair_scheme, keystore, provider, packet):
        result = PacketVerifier(pair_scheme, keystore, provider).verify(packet)
        assert refine_to_pair(result, pair_scheme) is None

    def test_pair_smaller_than_neighborhood(self, pair_scheme, keystore, provider, packet):
        # The whole point: 2 suspects instead of a closed neighborhood
        # (>= 3 on a chain, much larger on dense graphs).
        topo, _source = linear_path_topology(5)
        marked = mark_pair_path(
            pair_scheme, keystore, provider, [1, 2, 3], 6, packet
        )
        result = PacketVerifier(pair_scheme, keystore, provider).verify(marked)
        pair = refine_to_pair(result, pair_scheme)
        assert len(pair.members) < len(topo.closed_neighborhood(1))
