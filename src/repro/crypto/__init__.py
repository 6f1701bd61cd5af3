"""Cryptographic substrate for PNM.

The paper assumes only efficient symmetric cryptography: each sensor node
shares a unique secret key with the sink, and marks are protected with a
secure keyed hash function ``H_k(.)``.  This package provides:

* :mod:`repro.crypto.keys` -- per-node key material, derivation from a
  deployment master secret, and the sink's key lookup table.
* :mod:`repro.crypto.mac` -- message authentication codes (keyed
  BLAKE2s with short digests) and anonymous-ID derivation behind a provider interface, so
  simulations can swap in a zero-cost provider for large statistical sweeps.
"""

from repro.crypto.keys import KeyStore, derive_node_key
from repro.crypto.pairwise import PairwiseKeyTable, derive_pairwise_key
from repro.crypto.mac import (
    KeyedHashProvider,
    MacProvider,
    NullMacProvider,
    constant_time_equal,
)

__all__ = [
    "KeyStore",
    "derive_node_key",
    "derive_pairwise_key",
    "PairwiseKeyTable",
    "MacProvider",
    "KeyedHashProvider",
    "NullMacProvider",
    "constant_time_equal",
]
