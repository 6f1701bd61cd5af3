# lint: module=repro/traceback/fixture_prf.py
"""RL008 positive: sink-side hashes that bypass the MacProvider."""

import hashlib
import hmac


def anon_id(provider, key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()[:4]


def inner_state(provider, key: bytes):
    return provider._states.get(key)
