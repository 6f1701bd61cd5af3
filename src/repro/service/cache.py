"""Resolver caching: memoized resolution tables and a learned search space.

Two observations make the anonymous-ID search (Section 4.2) cheap at
service scale:

1. A resolution table depends only on the report bytes ``M`` (anonymous
   IDs are ``H'_{k_i}(M | i)``), so duplicate deliveries of the same
   report -- retransmissions, multi-path -- can share one table.
   :meth:`ResolverCache.resolution_table` memoizes tables in an LRU keyed
   by the report digest.
2. Steady-state traffic keeps traversing the same routes, and the sink's
   :class:`~repro.traceback.reconstruct.PrecedenceGraph` already records
   them as MAC-verified consecutive pairs.  :class:`CachingResolver`
   searches mark ``i`` among the precedence predecessors of the node that
   verified mark ``i+1``, and the most downstream mark among the last-hop
   markers seen so far -- Section 7's ``O(d)`` neighbour search with a
   learned route instead of the topology.  Each set is intersected with
   the cache's *hot-set* of recently verified markers, which ages LRU and
   which revocation and rebalance purge, so stale edges and revoked nodes
   stay out of the search.  An empty set searches every key through the
   memoized table, and the verifier's exhaustive fallback guarantees a
   wrong guess costs hashes, never a verdict.

Both structures invalidate on key revocation: once
:meth:`ResolverCache.invalidate_node` runs (wired to
:meth:`repro.isolation.RevocationList.subscribe` by the service), no cached
state derived from that node's key survives.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Set
from typing import Any

from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider
from repro.marking.base import MarkingScheme
from repro.packets.packet import MarkedPacket
from repro.traceback.reconstruct import PrecedenceGraph
from repro.traceback.resolver import ExhaustiveResolver, SearchSets

__all__ = ["ResolverCache", "CachingResolver"]


class ResolverCache:
    """LRU-bounded memoization for the sink's anonymous-ID resolution.

    Thread-safety: all public methods may be called concurrently.  The
    ingest service verifies on one thread, but revocation and the fault
    injector may invalidate from another.  Table construction happens
    outside the lock, so two callers racing on the same new report may
    both build the (identical) table -- wasted work, never wrong results.
    Its counters are the one store of these counts; the owning service
    registers :meth:`stats` with its obs provider (``resolver_cache_*``).

    Args:
        scheme: the deployed marking scheme.
        keystore: the sink's key table.
        provider: MAC provider matching the deployment.
        table_capacity: distinct reports whose tables are retained.
        hot_capacity: recently seen marker IDs retained in the hot-set,
            the recency filter on :class:`CachingResolver`'s search sets.
    """

    def __init__(
        self,
        scheme: MarkingScheme,
        keystore: KeyStore,
        provider: MacProvider,
        table_capacity: int = 256,
        hot_capacity: int = 256,
    ):
        if table_capacity < 1:
            raise ValueError(f"table_capacity must be >= 1, got {table_capacity}")
        if hot_capacity < 1:
            raise ValueError(f"hot_capacity must be >= 1, got {hot_capacity}")
        self.scheme = scheme
        self.keystore = keystore
        self.provider = provider
        self.table_capacity = table_capacity
        self.hot_capacity = hot_capacity
        self._tables: OrderedDict[bytes, object | None] = OrderedDict()  # guarded-by: _lock
        self._hot: OrderedDict[int, None] = OrderedDict()  # guarded-by: _lock
        self._last_hops: set[int] = set()  # guarded-by: _lock
        # Bumped whenever hot-set membership or the last-hop set changes.
        # CachingResolver reads it without the lock: a stale read costs
        # one stale search set, which the exhaustive fallback covers.
        self.epoch = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        # Counters (read under the lock by stats()).
        self.table_hits = 0  # guarded-by: _lock
        self.table_misses = 0  # guarded-by: _lock
        self.table_evictions = 0  # guarded-by: _lock
        self.hot_searches = 0  # guarded-by: _lock
        self.hot_misses = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock

    # Resolution-table memo ---------------------------------------------------

    def resolution_table(self, packet: MarkedPacket) -> object | None:
        """The scheme's resolution table for ``packet``, memoized by report.

        Safe as a :class:`~repro.traceback.verify.PacketVerifier`
        ``table_factory`` because every scheme's table depends only on the
        report bytes and the key table.
        """
        key = hashlib.sha256(packet.report_wire).digest()
        with self._lock:
            if key in self._tables:
                self._tables.move_to_end(key)
                self.table_hits += 1
                return self._tables[key]
            self.table_misses += 1
        table = self.scheme.build_resolution_table(
            packet, self.keystore, self.provider
        )
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self.table_capacity:
                self._tables.popitem(last=False)
                self.table_evictions += 1
        return table

    # Marker hot-set ----------------------------------------------------------

    def touch(self, chain_ids: list[int]) -> None:
        """Record one verified chain (upstream first).

        Its markers join the hot-set (an LRU refresh for members already
        in it) and its most downstream marker joins the last-hop set.
        """
        with self._lock:
            changed = chain_ids[-1] not in self._last_hops
            self._last_hops.add(chain_ids[-1])
            hot = self._hot
            for node_id in chain_ids:
                if node_id in hot:
                    hot.move_to_end(node_id)
                else:
                    hot[node_id] = None
                    changed = True
            while len(hot) > self.hot_capacity:
                hot.popitem(last=False)
            if changed:
                self.epoch += 1

    def hot_members(self, node_ids: Set[int] | None) -> list[int]:
        """The hot members of ``node_ids`` (``None``: of the last-hop set),
        sorted."""
        with self._lock:
            hot = self._hot
            pool = self._last_hops if node_ids is None else node_ids
            return sorted(node for node in pool if node in hot)

    def record_hot_searches(self, searches: int, misses: int) -> None:
        """Count one packet's learned searches: ``searches`` marks offered
        a learned search set, ``misses`` searches that needed the
        exhaustive fallback."""
        with self._lock:
            self.hot_searches += searches
            self.hot_misses += misses

    # Invalidation ------------------------------------------------------------

    def invalidate_node(self, node_id: int) -> None:
        """Drop all cached state derived from ``node_id``'s key.

        Called on key revocation (:mod:`repro.isolation`).  The node
        leaves the hot-set and the last-hop set, so no learned search
        offers it although the precedence graph keeps its edges, and every
        memoized table is purged -- tables embed the node's anonymous IDs
        and must not resolve to a revoked key on the next lookup.
        """
        with self._lock:
            self._hot.pop(node_id, None)
            self._last_hops.discard(node_id)
            self.epoch += 1
            self._tables.clear()
            self.invalidations += 1

    def clear(self) -> None:
        """Empty the table memo, the hot-set and the last-hop set
        (counters survive)."""
        with self._lock:
            self._tables.clear()
            self._hot.clear()
            self._last_hops.clear()
            self.epoch += 1

    def stats(self) -> dict[str, Any]:
        """The cache's counters as a JSON-ready dict, read under one lock."""
        with self._lock:
            tables, hot = len(self._tables), len(self._hot)
            hits, misses = self.table_hits, self.table_misses
            evictions, invalidations = self.table_evictions, self.invalidations
            searches, hot_misses = self.hot_searches, self.hot_misses
        return {
            "table_capacity": self.table_capacity,
            "tables_cached": tables,
            "table_hits": hits,
            "table_misses": misses,
            "table_evictions": evictions,
            "table_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "hot_capacity": self.hot_capacity,
            "hot_size": hot,
            "hot_searches": searches,
            "hot_misses": hot_misses,
            "hot_hit_rate": 1.0 - hot_misses / searches if searches else 0.0,
            "invalidations": invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"ResolverCache(tables={len(self._tables)}, hot={len(self._hot)})"
        )


class _LearnedSets(dict[int | None, list[int] | None]):
    """``prev_verified -> learned search set`` for one graph version and
    cache epoch, filled on first lookup: the hot precedence predecessors
    of ``prev_verified`` (the hot last hops for ``None``), or ``None``
    (search everything) when there are none."""

    def __init__(self, cache: ResolverCache, precedence: PrecedenceGraph):
        super().__init__()
        self._cache = cache
        self._precedence = precedence

    def __missing__(self, key: int | None) -> list[int] | None:
        learned = self[key] = (
            self._cache.hot_members(
                None if key is None else self._precedence.predecessors(key)
            )
            or None
        )
        return learned


class CachingResolver:
    """Resolver adapter that searches the learned route before everything.

    Wraps an inner resolver: a bounded inner resolver's search sets pass
    through untouched.  When the inner resolver searches exhaustively
    (its :meth:`search_sets` returns ``None``), mark ``i`` is offered the
    precedence predecessors of the node that verified mark ``i+1`` -- the
    last-hop markers for the most downstream mark -- intersected with the
    cache's hot-set, or ``None`` (everything) when that set is empty.
    Requires the verifier's ``exhaustive_fallback`` so a wrong guess can
    never change verification results -- the same contract
    topology-bounded search already relies on.

    The learned sets live in one memo, a dict the verifier subscripts per
    mark.  :meth:`search_sets` checks the graph's version and the cache's
    epoch once per packet and empties the memo when either moved; a miss
    fills from :meth:`ResolverCache.hot_members`.  The epoch is read
    without the cache's lock, and an invalidation that lands mid-packet
    takes effect from the next packet: a stale set costs hashes, never a
    verdict, because every candidate still needs its anonymous-ID match
    and its MAC.

    Learned searches (the verifier's per-packet count of bounded
    searches, when the sets were learned) and learned-set misses
    (``notify_miss`` while the sets were learned; an inner resolver's
    misses never count, and are forwarded to it) are tallied here without
    a lock and added to the cache's ``hot_searches``/``hot_misses`` under
    its lock once per packet, at ``notify_packet_done``.  So, like the
    memo, the tallies belong to the one thread that verifies.
    """

    def __init__(
        self, inner: object, cache: ResolverCache, precedence: PrecedenceGraph
    ):
        self.inner = inner
        self.cache = cache
        self.precedence = precedence
        # The exhaustive resolver always answers None: skip the call.
        self._inner_sets = (
            None if isinstance(inner, ExhaustiveResolver) else inner.search_sets
        )
        self._sets = _LearnedSets(cache, precedence)
        self._sets_key = (-1, -1)
        self._missed = 0
        # Whether the current packet's sets are the inner resolver's own,
        # whose misses are not learned-set misses.
        self._passed = False

    def search_sets(self, packet: MarkedPacket) -> SearchSets | None:
        """The inner resolver's sets when it bounds the search, else the
        learned-route memo.  Callers must not mutate what it holds."""
        if self._inner_sets is not None:
            inner = self._inner_sets(packet)
            self._passed = inner is not None
            if inner is not None:
                return inner
        key = (self.precedence.version, self.cache.epoch)
        if key != self._sets_key:
            self._sets.clear()
            self._sets_key = key
        return self._sets

    def notify_packet_done(self, searches: int) -> None:
        """Verifier feedback: one packet's marks are checked, ``searches``
        of them against a bounded set.  Adds its learned searches and
        misses to the cache's counts."""
        offered = 0 if self._passed else searches
        if offered or self._missed:
            self.cache.record_hot_searches(offered, self._missed)
            self._missed = 0

    def notify_miss(self) -> None:
        """Verifier feedback: the offered search space missed a mark.
        Counted as a learned-set miss only if that space was learned."""
        if not self._passed:
            self._missed += 1
        notify = getattr(self.inner, "notify_miss", None)
        if notify is not None:
            notify()

    def __repr__(self) -> str:
        return f"CachingResolver(inner={self.inner!r})"
