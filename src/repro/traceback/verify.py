"""Per-packet backward mark verification (Section 4.1's procedure).

The sink verifies marks from the most downstream one backwards.  The
verifier asks the resolver once per packet for its search sets (a
``previous verified node -> search set`` mapping) and hands them to the
scheme's backward scan (:meth:`MarkingScheme.verify_marks`), which
resolves candidate marker IDs (trivially for plain-ID schemes, via key
search for anonymous IDs), checks each candidate's MAC over the exact
received bytes and applies the fallback and stopping rules.  Every scheme
but PNM runs the base class's scan, one candidate search and one
``verify_mark_as`` per candidate; PNM verifies the whole packet in one
loop of its own.  The verifier times and traces each packet.

Two policies, selected by the scheme:

* ``"suffix"`` (nested schemes): verification stops at the first invalid
  MAC; only the contiguous valid suffix is trusted.  Theorem 2 guarantees
  the most upstream mark of that suffix is within one hop of a mole.
* ``"independent"`` (PPM/AMS baselines): every individually valid mark is
  kept, invalid ones are skipped -- faithful to how those schemes operate,
  and the behavior their attacks exploit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider
from repro.marking.base import MarkingScheme, PacketResolution
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import report_key
from repro.packets.packet import MarkedPacket
from repro.traceback.resolver import ExhaustiveResolver, Resolver

__all__ = ["VerifiedMark", "PacketVerification", "PacketVerifier"]


class VerifiedMark(NamedTuple):
    """A mark successfully attributed to a real node.

    An immutable named tuple, built once per verified mark; like any tuple
    it also compares equal to (and hashes like) a bare
    ``(index, real_id, ambiguous)`` tuple.

    Attributes:
        index: position of the mark in the packet's mark list.
        real_id: the node whose key validated the mark.
        ambiguous: True if more than one key of the searched set validated
            it (possible only through truncation collisions; ``real_id`` is
            then the smallest validating ID).
    """

    index: int
    real_id: int
    ambiguous: bool = False


#: ``VerifiedMark._make`` in one C call, without its Python frame and
#: field-count check: the schemes' backward scans pass it only literal
#: ``(index, real_id, ambiguous)`` triples.
_verified_mark = partial(tuple.__new__, VerifiedMark)


@dataclass
class PacketVerification:
    """Outcome of verifying one packet's marks.

    Attributes:
        packet: the packet verified.
        verified: attributed marks in wire order (most upstream first).
            Under the ``"suffix"`` policy this is a contiguous suffix of
            the mark list; under ``"independent"`` it may have gaps.
        invalid_indices: mark positions that failed verification.  Under
            ``"suffix"`` this holds at most the single index where the
            backward scan stopped; marks upstream of it were not examined.
        fallback_searches: how many marks needed the exhaustive fallback
            after a topology-bounded search missed (cost accounting).
    """

    packet: MarkedPacket
    verified: list[VerifiedMark] = field(default_factory=list)
    invalid_indices: list[int] = field(default_factory=list)
    fallback_searches: int = 0

    @cached_property
    def chain_ids(self) -> list[int]:
        """Verified marker IDs, most upstream first.

        Computed on first read and kept, so ``verified`` must not change
        after that; :class:`PacketVerifier` returns it complete.
        """
        return [vm.real_id for vm in self.verified]

    @property
    def all_valid(self) -> bool:
        """Whether every mark present verified."""
        return not self.invalid_indices and len(self.verified) == len(
            self.packet.marks
        )

    def stop_node(self, delivering_node: int) -> int:
        """The traceback stopping node for single-packet traceback.

        The most upstream verified marker; if nothing verified, the node
        that physically delivered the packet to the sink (always known to
        the sink -- it is its own radio neighbor).
        """
        if self.verified:
            return self.verified[0].real_id
        return delivering_node


class PacketVerifier:
    """Stateless verifier binding a scheme, the key table and a resolver.

    Args:
        scheme: the deployed marking scheme (defines wire semantics).
        keystore: the sink's ``node ID -> key`` table.
        provider: MAC provider matching the one nodes used.
        resolver: anonymous-ID search strategy, asked once per packet for
            its search sets (see :class:`~repro.traceback.resolver.Resolver`);
            defaults to exhaustive.
        exhaustive_fallback: when a bounded resolver finds no validating
            candidate, retry with the full key table (recommended: bounded
            search is an optimization and must not change results).
        table_factory: optional ``packet -> resolution table`` hook used
            for exhaustive searches instead of building the table inline.
            Lets an ingest service memoize tables across packets (see
            :class:`repro.service.ResolverCache`); the callable must return
            exactly what ``scheme.build_resolution_table(packet, keystore,
            provider)`` would.
        obs: observability provider; ``None`` resolves to the process
            default (the no-op provider unless one was installed).  Feeds
            the ``verify_packet_seconds`` profile, the
            ``resolution_table_seconds`` one (table builds plus bounded
            anonymous-ID search, one observation per packet), mark
            counters, and -- when the provider carries a tracer -- a
            chained ``verify`` span per packet.
    """

    def __init__(
        self,
        scheme: MarkingScheme,
        keystore: KeyStore,
        provider: MacProvider,
        resolver: Resolver | None = None,
        exhaustive_fallback: bool = True,
        table_factory: Callable[[MarkedPacket], object | None] | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.scheme = scheme
        self.keystore = keystore
        self.provider = provider
        self.resolver = resolver if resolver is not None else ExhaustiveResolver()
        self.exhaustive_fallback = exhaustive_fallback
        self.table_factory = table_factory
        self.obs = resolve_provider(obs)

    def verify(self, packet: MarkedPacket) -> PacketVerification:
        """Verify all marks of ``packet`` backwards."""
        with self.obs.timer("verify_packet_seconds"):
            result = self._verify(packet)
        self.obs.inc("marks_verified_total", len(result.verified))
        self.obs.inc("marks_invalid_total", len(result.invalid_indices))
        if result.fallback_searches:
            self.obs.inc("resolver_fallbacks_total", result.fallback_searches)
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.event(
                report_key(packet.report),
                "verify",
                marks=len(packet.marks),
                verified=len(result.verified),
            )
        return result

    def _verify(self, packet: MarkedPacket) -> PacketVerification:
        resolver = self.resolver
        table_factory = self.table_factory
        resolution = PacketResolution(
            resolver.search_sets(packet),
            partial(table_factory, packet)
            if table_factory is not None
            else partial(
                self.scheme.build_resolution_table,
                packet,
                self.keystore,
                self.provider,
            ),
            self.exhaustive_fallback,
            getattr(resolver, "notify_miss", None),
            self.obs.clock if isinstance(self.obs, ObsProvider) else None,
        )
        verified, invalid = self.scheme.verify_marks(
            packet, self.keystore, self.provider, resolution, _verified_mark
        )
        done = getattr(resolver, "notify_packet_done", None)
        if done is not None:
            done(resolution.searches)
        if resolution.seconds:
            self.obs.observe("resolution_table_seconds", resolution.seconds)
        return PacketVerification(packet, verified, invalid, resolution.fallbacks)
