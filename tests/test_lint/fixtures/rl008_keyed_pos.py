# lint: module=repro/service/fixture_keyed.py
"""RL008 positive: the provider's own primitive, keyed, outside it."""

import hashlib
from hashlib import blake2b


def anon_id(key: bytes, data: bytes) -> bytes:
    return hashlib.blake2s(data, key=key, digest_size=4).digest()
