"""Pairwise neighbor keys (the Section 7 precision extension).

"We can improve the traceback precision of PNM to a pair of neighboring
nodes with additional neighbor authentication schemes, e.g., using
pairwise keys."  This module supplies that substrate: every pair of radio
neighbors shares a key derived at deployment, so a node knows -- with
cryptographic certainty -- *which neighbor* handed it each packet.  A mole
cannot impersonate an arbitrary node to its downstream neighbor, because
the pairwise key for that (impersonated, downstream) pair was never
established with it.

Caveat modelled faithfully: two *colluding* moles that happen to share an
honest neighbor can still lend each other that neighbor's pairwise keys;
traceback precision then degrades back to the coalition, which is already
compromised territory.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.net.topology import Topology

__all__ = ["derive_pairwise_key", "PairwiseKeyTable"]


def derive_pairwise_key(master_secret: bytes, u: int, v: int) -> bytes:
    """The key shared by neighbor pair ``{u, v}`` (order-independent).

    Raises:
        ValueError: for a self-pair or negative IDs.
    """
    if u == v:
        raise ValueError(f"a node shares no pairwise key with itself ({u})")
    if u < 0 or v < 0:
        raise ValueError(f"node IDs must be non-negative, got {u}, {v}")
    lo, hi = min(u, v), max(u, v)
    info = b"pnm-pairwise" + lo.to_bytes(8, "big") + hi.to_bytes(8, "big")
    return hmac.new(master_secret, info, hashlib.sha256).digest()


class PairwiseKeyTable:
    """One node's table of pairwise keys with its radio neighbors.

    Built at deployment from the topology (modelling a neighbor-discovery
    plus key-establishment phase such as LEAP).
    """

    def __init__(
        self, master_secret: bytes, topology: Topology, node_id: int
    ) -> None:
        self.node_id = node_id
        self._keys = {
            nbr: derive_pairwise_key(master_secret, node_id, nbr)
            for nbr in topology.neighbors(node_id)
        }

    def neighbors(self) -> set[int]:
        """Neighbor IDs a pairwise key was established with."""
        return set(self._keys)

    def authenticate_sender(self, claimed: int, proof: bytes, challenge: bytes) -> bool:
        """Verify a link-layer sender-identity proof.

        The sender proves knowledge of the pairwise key by MACing the
        receiver's challenge (HMAC-SHA256 over ``b"neighbor-auth" +
        challenge``, truncated to the proof's length); only the true
        neighbor (or someone holding its key, i.e. a compromised
        coalition) can produce it.
        """
        key = self._keys.get(claimed)
        if key is None:
            return False
        expected = hmac.new(key, b"neighbor-auth" + challenge, hashlib.sha256).digest()
        return hmac.compare_digest(expected[: len(proof)], proof)
