"""Key material management.

Every sensor node has a unique ID and shares a unique secret key with the
sink (Section 2.1 of the paper).  Keys are pre-loaded before deployment; the
sink maintains a lookup table over all node IDs and keys.

In this reproduction the per-node keys are derived deterministically from a
deployment *master secret* with an HMAC-based KDF, which models a pre-loading
step and keeps experiment runs reproducible from a single seed.  A compromised
node ("mole") exposes only its own derived key -- the derivation is one-way,
so possession of ``k_i`` reveals nothing about ``k_j``.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from types import MappingProxyType

__all__ = ["derive_node_key", "KeyStore", "NODE_ID_BYTES"]

#: Length of every node key in bytes (SHA-256 output size).
KEY_LEN = 32

#: Width of the big-endian node ID inside keyed inputs: the KDF's info
#: string and PNM's anonymous-ID input ``M | i``.
NODE_ID_BYTES = 8


def derive_node_key(master_secret: bytes, node_id: int) -> bytes:
    """Derive the unique key a node shares with the sink.

    The derivation is ``HMAC-SHA256(master_secret, "pnm-node-key" | id)``,
    a standard one-way KDF construction: compromising one node's key does
    not help an adversary recover any other node's key.

    Args:
        master_secret: deployment-wide secret held only by the sink
            (and the pre-loading facility).
        node_id: the node's unique non-negative identifier.

    Returns:
        A 32-byte key.

    Raises:
        ValueError: if ``node_id`` is negative.
    """
    if node_id < 0:
        raise ValueError(f"node_id must be non-negative, got {node_id}")
    info = b"pnm-node-key" + node_id.to_bytes(NODE_ID_BYTES, "big")
    return hmac.new(master_secret, info, hashlib.sha256).digest()


class KeyStore(Mapping[int, bytes]):
    """The sink's lookup table of node IDs to shared secret keys.

    The store behaves as an immutable mapping ``node_id -> key``.  It is the
    ground truth the sink uses both to verify MACs and to brute-force
    anonymous IDs (Section 4.2: the sink "can build a table to map all IDs
    i to i'").

    Two construction paths are supported:

    * :meth:`from_master_secret` -- derive keys for a contiguous ID range,
      modelling pre-deployment loading.
    * direct construction from an explicit ``{id: key}`` mapping, for tests
      and for modelling heterogeneous deployments.
    """

    def __init__(self, keys: Mapping[int, bytes]) -> None:
        for node_id, key in keys.items():
            if node_id < 0:
                raise ValueError(f"node_id must be non-negative, got {node_id}")
            if not key:
                raise ValueError(f"empty key for node {node_id}")
        self._keys: dict[int, bytes] = dict(keys)

    @classmethod
    def from_master_secret(
        cls, master_secret: bytes, node_ids: Iterable[int]
    ) -> "KeyStore":
        """Build a store by deriving a key for every ID in ``node_ids``."""
        return cls({nid: derive_node_key(master_secret, nid) for nid in node_ids})

    def key_of(self, node_id: int) -> bytes:
        """Return the key shared with ``node_id``.

        Raises:
            KeyError: if the node is unknown to the sink.
        """
        return self._keys[node_id]

    @property
    def mapping(self) -> Mapping[int, bytes]:
        """A read-only view of the table with ``dict``-speed lookups, for
        the sink's per-mark loops."""
        return MappingProxyType(self._keys)

    def node_ids(self) -> list[int]:
        """All known node IDs, sorted ascending."""
        return sorted(self._keys)

    @cached_property
    def id_entries(self) -> tuple[tuple[int, bytes, bytes], ...]:
        """Every node as ``(node_id, key, id_bytes)``, sorted by ID.

        ``id_bytes`` is the ID as :data:`NODE_ID_BYTES` big-endian bytes.
        Built once (the store is immutable) for the sink's exhaustive
        anonymous-ID table, which walks every key for every report.
        """
        keys = self._keys
        return tuple(
            (node_id, keys[node_id], node_id.to_bytes(NODE_ID_BYTES, "big"))
            for node_id in sorted(keys)
        )

    # Mapping interface -----------------------------------------------------

    def __getitem__(self, node_id: int) -> bytes:
        return self._keys[node_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"KeyStore({len(self._keys)} nodes)"
