# lint: module=repro/service/fixture_keyed.py
"""RL008 negative: unkeyed digests name content and compute no MAC.

A report's table memo key is an unkeyed digest of its bytes, so plain
``hashlib.blake2s``/``sha256`` calls stay legal; only a ``key=`` turns
them into a PRF the provider should have counted.
"""

import hashlib


def table_key(report_wire: bytes) -> bytes:
    return hashlib.blake2s(report_wire, digest_size=8).digest()


def content_id(report_wire: bytes) -> bytes:
    return hashlib.sha256(report_wire).digest()


def check(provider, key: bytes, data: bytes) -> bytes:
    return provider.mac(key, data + provider.anon_id(key, data))
