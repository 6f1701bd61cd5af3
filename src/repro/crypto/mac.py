"""Message authentication codes and anonymous-ID derivation.

The paper uses two keyed one-way functions:

* ``H_k(.)`` -- the MAC a node computes over the entire message it received
  plus its own ID: ``MAC_i = H_{k_i}(M_{i-1} | i)`` (Section 4.1).
* ``H'_k(.)`` -- "another secure one-way function" that derives a per-message
  *anonymous ID*: ``i' = H'_{k_i}(M | i)`` (Section 4.2), so a forwarding
  mole cannot tell which nodes have marked a packet.

Both are instantiated here as HMAC-SHA256 with domain separation, truncated
to short field lengths appropriate for sensor packets.  Truncation trades a
small collision probability for byte overhead; the traceback engine handles
anonymous-ID collisions by verifying MACs against every candidate key.

The sink computes these functions for every key in its table on every
report (Section 4.2), so :class:`HmacProvider` keeps each key's HMAC pad
states -- the SHA-256 state after absorbing ``key ^ ipad`` plus the domain
prefix, and after ``key ^ opad`` -- and finishes copies of them per call.
The bytes are exactly those of ``hmac.new(key, domain + data, sha256)``.

A :class:`NullMacProvider` is also provided for large statistical sweeps
(Figures 5-7 involve millions of packets): it preserves field lengths and
control flow but skips the hash computation.  It must only be used in
honest-path experiments where no mark is ever tampered with -- its MACs are
trivially forgeable by design.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from hashlib import _Hash

__all__ = [
    "MacProvider",
    "HmacProvider",
    "NullMacProvider",
    "constant_time_equal",
    "DEFAULT_MAC_LEN",
    "DEFAULT_ANON_ID_LEN",
]

#: Default MAC field length in bytes.  4 bytes keeps per-mark overhead small
#: (the paper targets Mica2-class packets) while making blind forgery of a
#: specific MAC a 1-in-2^32 event per attempt.
DEFAULT_MAC_LEN = 4

#: Default anonymous-ID field length in bytes.
DEFAULT_ANON_ID_LEN = 4

_MAC_DOMAIN = b"pnm-mac\x00"
_ANON_DOMAIN = b"pnm-anon\x00"

# RFC 2104 pads, applied to a whole key with ``bytes.translate`` (as the
# stdlib ``hmac`` module does) rather than byte by byte.
_BLOCK_SIZE = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking timing information."""
    return hmac.compare_digest(a, b)


@runtime_checkable
class MacProvider(Protocol):
    """Interface for the keyed one-way functions used by marking schemes."""

    #: Length in bytes of values returned by :meth:`mac`.
    mac_len: int
    #: Length in bytes of values returned by :meth:`anon_id`.
    anon_id_len: int

    def mac(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H_k(data)`` truncated to :attr:`mac_len` bytes."""
        ...

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H'_k(data)`` truncated to :attr:`anon_id_len` bytes."""
        ...


class HmacProvider:
    """Real cryptographic provider: truncated HMAC-SHA256.

    ``mac`` and ``anon_id`` use distinct domain-separation prefixes so they
    behave as two independent PRFs even under the same key, matching the
    paper's use of two different one-way functions ``H`` and ``H'``.
    """

    def __init__(
        self,
        mac_len: int = DEFAULT_MAC_LEN,
        anon_id_len: int = DEFAULT_ANON_ID_LEN,
    ) -> None:
        if not 1 <= mac_len <= 32:
            raise ValueError(f"mac_len must be in [1, 32], got {mac_len}")
        if not 1 <= anon_id_len <= 32:
            raise ValueError(f"anon_id_len must be in [1, 32], got {anon_id_len}")
        self.mac_len = mac_len
        self.anon_id_len = anon_id_len
        # key -> (inner state for H, inner state for H', outer state).  One
        # entry per distinct key seen, i.e. the deployment's key table.
        # Concurrent first uses of a key build equal entries; either wins.
        self._pads: dict[bytes, tuple[_Hash, _Hash, _Hash]] = {}

    def _build_pads(self, key: bytes) -> tuple[_Hash, _Hash, _Hash]:
        """Build and memoize ``key``'s three pad states."""
        block = hashlib.sha256(key).digest() if len(key) > _BLOCK_SIZE else key
        block = block.ljust(_BLOCK_SIZE, b"\x00")
        mac_inner = hashlib.sha256(block.translate(_IPAD))
        anon_inner = mac_inner.copy()
        mac_inner.update(_MAC_DOMAIN)
        anon_inner.update(_ANON_DOMAIN)
        outer = hashlib.sha256(block.translate(_OPAD))
        pads = self._pads[key] = (mac_inner, anon_inner, outer)
        return pads

    # mac / anon_id finish copies of the pads inline: this is the sink's
    # innermost loop, and a shared helper costs a third more per call.

    def mac(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H_k(data)``: domain-separated truncated HMAC-SHA256."""
        pads = self._pads.get(key) or self._build_pads(key)
        inner = pads[0].copy()
        inner.update(data)
        outer = pads[2].copy()
        outer.update(inner.digest())
        return outer.digest()[: self.mac_len]

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H'_k(data)``: the anonymous-ID PRF."""
        pads = self._pads.get(key) or self._build_pads(key)
        inner = pads[1].copy()
        inner.update(data)
        outer = pads[2].copy()
        outer.update(inner.digest())
        return outer.digest()[: self.anon_id_len]

    def __repr__(self) -> str:
        return f"HmacProvider(mac_len={self.mac_len}, anon_id_len={self.anon_id_len})"


class NullMacProvider:
    """Zero-cost stand-in provider for honest-path statistical sweeps.

    MACs are a cheap non-cryptographic digest of ``(key, len(data))``; the
    anonymous ID is a cheap digest of ``(key, data length, first bytes)``.
    Field lengths match the real provider so packet overhead accounting is
    identical.  Verification still succeeds exactly when the verifier
    recomputes over the same key and data length, which is sufficient for
    honest runs, but offers **no tamper resistance** -- never use it in
    adversarial experiments.
    """

    def __init__(
        self,
        mac_len: int = DEFAULT_MAC_LEN,
        anon_id_len: int = DEFAULT_ANON_ID_LEN,
    ) -> None:
        self.mac_len = mac_len
        self.anon_id_len = anon_id_len

    def _cheap_digest(self, key: bytes, data: bytes, out_len: int) -> bytes:
        # A tiny FNV-style mix over the key and coarse data features.  Fast,
        # deterministic, collision-prone under adversarial inputs (by design).
        acc = 0xCBF29CE484222325
        for b in key[:8]:
            acc = ((acc ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        acc = ((acc ^ len(data)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        for b in data[:4]:
            acc = ((acc ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        raw = acc.to_bytes(8, "big")
        reps = -(-out_len // 8)  # ceil division
        return (raw * reps)[:out_len]

    def mac(self, key: bytes, data: bytes) -> bytes:
        """A zero-cost stand-in for ``H_k`` (honest runs only)."""
        return self._cheap_digest(key, data, self.mac_len)

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        """A zero-cost stand-in for ``H'_k`` (honest runs only)."""
        return self._cheap_digest(key, data[::max(1, len(data) // 4)], self.anon_id_len)

    def __repr__(self) -> str:
        return f"NullMacProvider(mac_len={self.mac_len}, anon_id_len={self.anon_id_len})"
