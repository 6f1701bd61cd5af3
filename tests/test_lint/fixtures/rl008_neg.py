# lint: module=repro/traceback/fixture_prf.py
"""RL008 negative: every hash goes through the injected provider.

``hmac.compare_digest`` compares and computes nothing, so it stays legal;
the rule is also path-scoped, so ``repro/crypto/`` may build its keyed
states.
"""

import hmac
from hmac import compare_digest


def check(provider, key: bytes, data: bytes, received: bytes) -> bool:
    anon = provider.anon_id(key, data)
    expected = provider.mac(key, data + anon)
    return compare_digest(expected, received) and hmac.compare_digest(
        anon, anon
    )
