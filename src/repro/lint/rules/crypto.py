"""RL001/RL002/RL008: cryptographic hygiene rules.

RL001 guards the paper's Section 3 nested-MAC argument: the sink decides
mole-vs-honest by comparing recomputed MACs against received ones, and a
short-circuiting ``==`` leaks how many prefix bytes matched -- enough, over
traffic volumes the service layer is built for, to forge a truncated MAC
byte by byte.  Every comparison of MAC/digest/proof bytes must go through
``hmac.compare_digest`` (wrapped as ``repro.crypto.mac.constant_time_equal``).

RL002 guards key material: anything under ``repro.crypto``, ``repro.marking``
or ``repro.adversary`` that draws randomness must use ``secrets`` or an
*injected* seeded ``random.Random`` (the simulation's reproducibility
contract) -- never the shared module-level ``random`` stream, which is both
non-cryptographic and invisible to experiment seeding.

RL008 keeps the sink's hashing countable: under ``repro.marking``,
``repro.traceback`` and ``repro.service`` every MAC and anonymous ID goes
through the injected ``MacProvider``, so a counting provider sees exactly
the work Section 4.2's feasibility argument is about.  ``hmac.new``,
``hmac.digest``, a keyed ``hashlib.blake2s``/``blake2b`` (the provider's
own primitive) and reaching into ``KeyedHashProvider``'s per-key states
(``_states``/``_build_states``) would hash behind the provider's back.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules.common import identifier_of, identifier_tokens
from repro.lint.walker import FileContext

__all__ = [
    "ConstantTimeCompareRule",
    "RandomInKeyMaterialRule",
    "UncountedPrfRule",
]

#: Identifier word-tokens that mark a value as secret digest material.
_SECRET_TOKENS = {
    "mac", "macs", "hmac", "digest", "digests", "proof", "proofs", "tag", "tags",
}

#: Tokens that mark the identifier as *about* a digest (its length, format,
#: field name...) rather than the digest bytes themselves.
_META_TOKENS = {
    "len", "length", "size", "count", "num", "idx", "index", "offset",
    "fmt", "format", "field", "name", "kind", "type", "policy", "prob",
    "rate", "provider",
}

#: ``random`` module attributes that are legitimate in key-material paths:
#: constructing an injectable seeded generator is the sanctioned pattern.
_ALLOWED_RANDOM_ATTRS = {"Random", "SystemRandom"}

_RL002_SCOPE = (
    "repro/crypto/",
    "repro/marking/",
    "repro/adversary/",
    "repro/faults/",
    "repro/obs/",
    # Covered by repro/obs/ today; pinned so narrowing the parent scope
    # can never silently drop the federation/SLO layer.
    "repro/obs/telemetry/",
    "repro/wire/",
    "repro/cluster/",
    "repro/watchdog/",
    "repro/algebraic/",
)


def _is_secret_operand(node: ast.expr) -> bool:
    identifier = identifier_of(node)
    if identifier is None:
        return False
    tokens = identifier_tokens(identifier)
    return bool(tokens & _SECRET_TOKENS) and not tokens & _META_TOKENS


def _is_benign_other(node: ast.expr) -> bool:
    """Operands that cannot be timing-attacked: str/None/bool constants."""
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bool))
    )


class ConstantTimeCompareRule(Rule):
    """RL001: ``==``/``!=`` on MAC/digest/proof/tag bytes."""

    rule_id = "RL001"
    summary = (
        "MAC/digest/proof bytes compared with ==/!= instead of "
        "hmac.compare_digest"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if not any(_is_secret_operand(op) for op in operands):
                continue
            others = [op for op in operands if not _is_secret_operand(op)]
            if others and all(_is_benign_other(op) for op in others):
                continue
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                "non-constant-time comparison of MAC/digest material; use "
                "hmac.compare_digest (repro.crypto.mac.constant_time_equal)",
            )


class RandomInKeyMaterialRule(Rule):
    """RL002: module-level ``random`` in key-material paths."""

    rule_id = "RL002"
    summary = "random module used in crypto/marking/adversary key paths"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_scope(_RL002_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name not in _ALLOWED_RANDOM_ATTRS
                ]
                if bad:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"importing {', '.join(bad)} from the shared random "
                        "module in a key-material path; use secrets or an "
                        "injected random.Random instance",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr not in _ALLOWED_RANDOM_ATTRS
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"random.{func.attr}() draws from the shared "
                        "module-level stream in a key-material path; use "
                        "secrets or an injected random.Random instance",
                    )


_RL008_SCOPE = (
    "repro/marking/",
    "repro/traceback/",
    "repro/service/",
)

#: ``hmac`` functions that compute a PRF outright (``compare_digest`` is
#: a comparison and stays legal).
_HMAC_PRFS = {"new", "digest"}

#: ``hashlib`` constructors that become a MAC when given a ``key``.
_KEYED_HASHES = {"blake2s", "blake2b"}

#: ``KeyedHashProvider`` internals that would let a caller finish a hash
#: itself.
_STATE_ATTRS = {"_states", "_build_states"}


def _is_keyed_hash_call(node: ast.Call) -> bool:
    """``hashlib.blake2s(..., key=...)`` or a bare ``blake2b(key=...)``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        named = func.attr in _KEYED_HASHES and (
            isinstance(func.value, ast.Name) and func.value.id == "hashlib"
        )
    else:
        named = isinstance(func, ast.Name) and func.id in _KEYED_HASHES
    return named and any(kw.arg == "key" for kw in node.keywords)


class UncountedPrfRule(Rule):
    """RL008: a sink-side PRF computed outside the ``MacProvider``."""

    rule_id = "RL008"
    summary = "MAC/anonymous-ID hash computed outside the MacProvider"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_scope(_RL008_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "hmac":
                names = [a.name for a in node.names if a.name in _HMAC_PRFS]
            elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
                names = [a.name for a in node.names if a.name in _KEYED_HASHES]
            elif isinstance(node, ast.Call) and _is_keyed_hash_call(node):
                names = [f"keyed {ast.unparse(node.func)}"]
            elif isinstance(node, ast.Attribute) and (
                node.attr in _STATE_ATTRS
                or (
                    node.attr in _HMAC_PRFS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "hmac"
                )
            ):
                names = [node.attr]
            else:
                continue
            if names:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{', '.join(names)} hashes outside the MacProvider; "
                    "call provider.mac/provider.anon_id so every sink PRF "
                    "stays countable",
                )


register(ConstantTimeCompareRule())
register(RandomInKeyMaterialRule())
register(UncountedPrfRule())
