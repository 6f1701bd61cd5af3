"""Message authentication codes and anonymous-ID derivation.

The paper uses two keyed one-way functions:

* ``H_k(.)`` -- the MAC a node computes over the entire message it received
  plus its own ID: ``MAC_i = H_{k_i}(M_{i-1} | i)`` (Section 4.1).
* ``H'_k(.)`` -- "another secure one-way function" that derives a per-message
  *anonymous ID*: ``i' = H'_{k_i}(M | i)`` (Section 4.2), so a forwarding
  mole cannot tell which nodes have marked a packet.

Both are instantiated here as keyed BLAKE2s (RFC 7693's keyed mode, a
PRF and MAC by design) with domain separation through BLAKE2s's
personalization parameter, and with the digest size set to the short field
lengths appropriate for sensor packets.  The short digests trade a small
collision probability for byte overhead; the traceback engine handles
anonymous-ID collisions by verifying MACs against every candidate key.

The sink computes these functions for every key in its table on every
report (Section 4.2), so :class:`KeyedHashProvider` keeps, per key, one
keyed BLAKE2s state for each function and finishes a copy of it per call.
The bytes are exactly those of the one-shot ``hashlib.blake2s(data,
key=k, digest_size=n, person=domain)``.

A :class:`NullMacProvider` is also provided for large statistical sweeps
(Figures 5-7 involve millions of packets): it preserves field lengths and
control flow but skips the hash computation.  It must only be used in
honest-path experiments where no mark is ever tampered with -- its MACs are
trivially forgeable by design.
"""

from __future__ import annotations

import hmac
from hashlib import blake2s
from typing import Protocol, runtime_checkable

__all__ = [
    "MacProvider",
    "KeyedHashProvider",
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

# BLAKE2s personalization strings (8 bytes each): H and H' are two
# independent PRFs even under one key.
_MAC_DOMAIN = b"pnm-mac\x00"
_ANON_DOMAIN = b"pnm-anon"

#: Longest key BLAKE2s takes as is; longer keys are hashed down first.
_MAX_KEY_SIZE = blake2s.MAX_KEY_SIZE


def _keyed_state(key: bytes, digest_size: int, person: bytes) -> blake2s:
    """The keyed BLAKE2s state of one function under ``key``.

    Keys longer than BLAKE2s's 32-byte limit are first reduced with
    unkeyed BLAKE2s-256 under the same personalization, as RFC 2104 does
    for long HMAC keys.
    """
    if len(key) > _MAX_KEY_SIZE:
        key = blake2s(key, person=person).digest()
    return blake2s(key=key, digest_size=digest_size, person=person)


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
        """Compute ``H_k(data)``, :attr:`mac_len` bytes long."""
        ...

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H'_k(data)``, :attr:`anon_id_len` bytes long."""
        ...


class KeyedHashProvider:
    """Real cryptographic provider: keyed BLAKE2s with short digests.

    ``mac`` and ``anon_id`` use distinct personalization strings so they
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
        # key -> (keyed state for H, keyed state for H').  One entry per
        # distinct key seen, i.e. the deployment's key table.  Concurrent
        # first uses of a key build equal entries; either wins.
        self._states: dict[bytes, tuple[blake2s, blake2s]] = {}

    def _build_states(self, key: bytes) -> tuple[blake2s, blake2s]:
        """Build and memoize ``key``'s two keyed states."""
        states = self._states[key] = (
            _keyed_state(key, self.mac_len, _MAC_DOMAIN),
            _keyed_state(key, self.anon_id_len, _ANON_DOMAIN),
        )
        return states

    # mac / anon_id finish copies of the states inline: this is the sink's
    # innermost loop, and a shared helper costs a third more per call.

    def mac(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H_k(data)``: keyed BLAKE2s under ``"pnm-mac\\0"``."""
        state = (self._states.get(key) or self._build_states(key))[0].copy()
        state.update(data)
        return state.digest()

    def anon_id(self, key: bytes, data: bytes) -> bytes:
        """Compute ``H'_k(data)``: keyed BLAKE2s under ``"pnm-anon"``."""
        state = (self._states.get(key) or self._build_states(key))[1].copy()
        state.update(data)
        return state.digest()

    def __repr__(self) -> str:
        return (
            f"KeyedHashProvider(mac_len={self.mac_len}, "
            f"anon_id_len={self.anon_id_len})"
        )


#: The provider's name before it moved from HMAC-SHA256 to keyed BLAKE2s;
#: kept for callers that still import it.
HmacProvider = KeyedHashProvider


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
