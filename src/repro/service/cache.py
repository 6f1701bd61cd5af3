"""Resolver caching: memoized resolution tables plus a marker hot-set.

Two observations make the exhaustive anonymous-ID search (Section 4.2)
cheap at service scale:

1. A resolution table depends only on the report bytes ``M`` (anonymous
   IDs are ``H'_{k_i}(M | i)``), so duplicate deliveries of the same
   report -- retransmissions, multi-path -- can share one table.
   :meth:`ResolverCache.resolution_table` memoizes tables in an LRU keyed
   by the report digest.
2. Steady-state traffic keeps traversing the same routes, so the nodes
   that marked recent packets will mark the next ones too.  The cache
   maintains that *hot-set* of recently verified markers;
   :class:`CachingResolver` offers it as the search space before the full
   key table, degrading :class:`~repro.traceback.resolver.ExhaustiveResolver`
   cost from ``O(N)`` hashes per packet to roughly
   ``O(|route|)`` -- near :class:`~repro.traceback.resolver.TopologyBoundedResolver`
   cost without knowing the topology.  The verifier's exhaustive fallback
   guarantees a hot-set miss never changes the outcome, exactly as for
   topology-bounded search.

Both structures invalidate on key revocation: once
:meth:`ResolverCache.invalidate_node` runs (wired to
:meth:`repro.isolation.RevocationList.subscribe` by the service), no cached
state derived from that node's key survives.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacProvider
from repro.marking.base import MarkingScheme
from repro.packets.packet import MarkedPacket

__all__ = ["ResolverCache", "CachingResolver"]


class ResolverCache:
    """LRU-bounded memoization for the sink's anonymous-ID resolution.

    Thread-safety: all public methods may be called concurrently.  The
    ingest service verifies on one thread, but revocation and the fault
    injector may invalidate from another.  Table construction happens
    outside the lock, so two callers racing on the same new report may
    both build the (identical) table -- wasted work, never wrong results.

    Args:
        scheme: the deployed marking scheme.
        keystore: the sink's key table.
        provider: MAC provider matching the deployment.
        table_capacity: distinct reports whose tables are retained.
        hot_capacity: recently seen marker IDs retained in the hot-set.
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
        self._hot_snapshot: list[int] | None = None  # guarded-by: _lock
        self._lock = threading.Lock()
        # Counters (read without the lock for display only).
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

    def hot_ids(self) -> list[int] | None:
        """A sorted snapshot of the hot-set, or ``None`` when empty.

        The snapshot is cached between membership changes -- callers hit
        this once per mark, so rebuilding it lazily keeps the hot path at
        dictionary-read cost.  Callers must not mutate the returned list.
        """
        with self._lock:
            if not self._hot:
                return None
            if self._hot_snapshot is None:
                self._hot_snapshot = sorted(self._hot)
            return self._hot_snapshot

    def touch(self, node_ids: list[int]) -> None:
        """Mark ``node_ids`` as recently verified markers (LRU refresh)."""
        with self._lock:
            members_before = len(self._hot)
            for node_id in node_ids:
                self._hot[node_id] = None
                self._hot.move_to_end(node_id)
            while len(self._hot) > self.hot_capacity:
                self._hot.popitem(last=False)
                members_before = -1  # evicted: membership changed
            if len(self._hot) != members_before:
                self._hot_snapshot = None

    def record_hot_search(self) -> None:
        """Count one mark search answered from the hot-set."""
        with self._lock:
            self.hot_searches += 1

    def record_hot_miss(self) -> None:
        """Count one hot-set search that needed the exhaustive fallback."""
        with self._lock:
            self.hot_misses += 1

    # Invalidation ------------------------------------------------------------

    def invalidate_node(self, node_id: int) -> None:
        """Drop all cached state derived from ``node_id``'s key.

        Called on key revocation (:mod:`repro.isolation`).  The node
        leaves the hot-set, and every memoized table is purged -- tables
        embed the node's anonymous IDs and must not resolve to a revoked
        key on the next lookup.
        """
        with self._lock:
            self._hot.pop(node_id, None)
            self._hot_snapshot = None
            self._tables.clear()
            self.invalidations += 1

    def clear(self) -> None:
        """Empty both the table memo and the hot-set (counters survive)."""
        with self._lock:
            self._tables.clear()
            self._hot.clear()
            self._hot_snapshot = None

    def stats(self) -> dict[str, Any]:
        """The cache's counters as a JSON-ready dict."""
        with self._lock:
            tables = len(self._tables)
            hot = len(self._hot)
        lookups = self.table_hits + self.table_misses
        return {
            "table_capacity": self.table_capacity,
            "tables_cached": tables,
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "table_evictions": self.table_evictions,
            "table_hit_rate": self.table_hits / lookups if lookups else 0.0,
            "hot_capacity": self.hot_capacity,
            "hot_size": hot,
            "hot_searches": self.hot_searches,
            "hot_misses": self.hot_misses,
            "hot_hit_rate": (
                1.0 - self.hot_misses / self.hot_searches
                if self.hot_searches
                else 0.0
            ),
            "invalidations": self.invalidations,
        }

    def publish(self, obs: Any) -> None:
        """Mirror the cache counters into an obs provider's registry.

        Gauges, not counters: a publish reflects current totals and must
        overwrite what the previous publish wrote.  Called at snapshot
        time (not per lookup) so the memoization hot path stays untouched.
        """
        stats = self.stats()
        for name in sorted(stats):
            value = stats[name]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                obs.set_gauge(f"resolver_cache_{name}", value)

    def __repr__(self) -> str:
        return (
            f"ResolverCache(tables={len(self._tables)}, hot={len(self._hot)})"
        )


class CachingResolver:
    """Resolver adapter that tries the cache's hot-set before everything.

    Wraps an inner resolver: bounded inner searches pass through
    untouched; when the inner resolver would search exhaustively (returns
    ``None``) and the hot-set is non-empty, the hot-set is offered
    instead.  Requires the verifier's ``exhaustive_fallback`` so a cold
    hot-set can never change verification results -- the same contract
    topology-bounded search already relies on.

    ``notify_miss`` feedback is attributed to the hot-set (the common case
    with an exhaustive inner resolver) and forwarded to adaptive inner
    resolvers.
    """

    def __init__(self, inner: object, cache: ResolverCache):
        self.inner = inner
        self.cache = cache

    def search_ids(
        self, packet: MarkedPacket, prev_verified: int | None
    ) -> list[int] | None:
        """The inner search space, with the hot-set replacing 'everything'."""
        search = self.inner.search_ids(packet, prev_verified)
        if search is not None:
            return search
        hot = self.cache.hot_ids()
        if hot is None:
            return None
        self.cache.record_hot_search()
        return hot

    def notify_miss(self) -> None:
        """Verifier feedback: the offered search space missed a mark."""
        self.cache.record_hot_miss()
        notify = getattr(self.inner, "notify_miss", None)
        if notify is not None:
            notify()

    def __repr__(self) -> str:
        return f"CachingResolver(inner={self.inner!r})"
