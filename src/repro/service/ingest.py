"""The sink ingest service: batched, cached, observable packet intake.

Wraps a :class:`~repro.traceback.sink.TracebackSink` with the pipeline a
production deployment needs::

    submit_batch() ──▶ IngestQueue ──▶ PacketVerifier ──▶ sink.ingest()
                       (tail drop,      (cache-accelerated) (arrival order)
                        all or nothing)

Verification is the expensive, stateless half of packet processing; the
service's verifier shares the sink's scheme/keys but resolves through a
:class:`~repro.service.cache.ResolverCache` and searches each mark's
anonymous ID along the route the sink's precedence graph has learned
(:class:`~repro.service.cache.CachingResolver`).  Each packet verifies and
merges into the precedence graph in turn, in arrival order, so the
service's verdicts are identical to feeding the same stream through
``sink.receive`` one packet at a time.
"""

from __future__ import annotations

import time
from collections import deque

from repro.isolation.revocation import RevocationList, RevocationRecord
from repro.obs.instruments import HistogramSeries
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import Span, report_key
from repro.packets.packet import MarkedPacket
from repro.service.cache import CachingResolver, ResolverCache
from repro.service.queue import IngestQueue
from repro.service.stats import ServiceStats
from repro.traceback.sink import TracebackSink, TracebackVerdict
from repro.traceback.verify import PacketVerifier

__all__ = ["SinkIngestService"]


class SinkIngestService:
    """High-throughput ingest front end for a traceback sink.

    Args:
        sink: the sink to feed.  Its scheme, key table, provider and
            resolver are reused; the sink itself is only ever touched from
            :meth:`process_batch`'s merge step, in arrival order.
        capacity: ingest queue bound (see :class:`IngestQueue`).
        hot_capacity: marker hot-set bound (see :class:`ResolverCache`),
            the recency filter on the learned search sets.  Learned search
            engages only when the sink's verifier has its exhaustive
            fallback (the default), which is what keeps cached verdicts
            identical to serial ones.
        revocations: when given, the service subscribes to it and
            invalidates cached state for every newly revoked node.
        obs: observability provider; ``None`` inherits the sink's, so the
            whole pipeline reports into one registry/tracer.  Registers
            :meth:`stats` (``ingest_*``) and its queue's and cache's
            (``ingest_queue_*``, ``resolver_cache_*``); adds per-packet
            ``queue`` spans (opened at submit, closed when the batch takes
            the packet) and the ``ingest_verify_seconds`` histogram.
    """

    def __init__(
        self,
        sink: TracebackSink,
        capacity: int = 1024,
        hot_capacity: int = 256,
        revocations: RevocationList | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.sink = sink
        self.obs = sink.obs if obs is None else resolve_provider(obs)
        # Open ``queue`` spans per report key, oldest first: the same
        # report may be queued more than once before the first is taken.
        self._open_queue_spans: dict[bytes, deque[Span]] = {}
        base = sink.verifier
        self.cache = ResolverCache(
            base.scheme, base.keystore, base.provider, hot_capacity=hot_capacity
        )
        # The learned route narrows the search space, which is only sound
        # under the exhaustive-fallback safety net; without it, keep the
        # sink's resolver untouched and use the cache for table
        # memoization only.
        resolver = (
            CachingResolver(base.resolver, self.cache, sink.precedence)
            if base.exhaustive_fallback
            else base.resolver
        )
        self.verifier = PacketVerifier(
            base.scheme,
            base.keystore,
            base.provider,
            resolver=resolver,
            exhaustive_fallback=base.exhaustive_fallback,
            table_factory=self.cache.resolution_table,
            obs=self.obs,
        )
        self.queue: IngestQueue[tuple[MarkedPacket, int]] = IngestQueue(capacity)
        self.verify_latency = HistogramSeries()
        self.processed = 0
        self.batches = 0
        self._closed = False
        self.obs.register_stats("ingest", lambda: vars(self.stats()))
        self.obs.register_stats("ingest_queue", self.queue.stats)
        self.obs.register_stats("resolver_cache", self.cache.stats)
        if revocations is not None:
            revocations.subscribe(self._on_revoked)

    # Intake ------------------------------------------------------------------

    def submit(self, packet: MarkedPacket, delivering_node: int) -> bool:
        """Offer one suspicious packet: :meth:`submit_batch` of one.

        Returns:
            True if the packet was queued; False if backpressure shed it.

        Raises:
            RuntimeError: if the service has been closed.
        """
        return self.submit_batch((packet,), delivering_node)

    def submit_batch(
        self,
        packets: list[MarkedPacket] | tuple[MarkedPacket, ...],
        delivering_node: int,
    ) -> bool:
        """Offer a whole batch atomically: every packet queues, or none do.

        The transactional form of :meth:`submit` for senders that retry
        rejected batches wholesale (the wire server's BACKPRESSURE reply
        triggers exactly that).  Per-packet submission would leave the
        accepted prefix queued when the tail is shed, so the sender's
        resend would ingest those packets twice; here a False return
        guarantees the queue took nothing (see
        :meth:`IngestQueue.offer_all`), making the retry safe.

        Returns:
            True if every packet was queued; False if backpressure shed
            the whole batch.

        Raises:
            RuntimeError: if the service has been closed.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed SinkIngestService")
        accepted = self.queue.offer_all(
            [(packet, delivering_node) for packet in packets]
        )
        tracer = self.obs.tracer
        if tracer is not None and accepted:
            depth = self.queue.depth
            for packet in packets:
                key = report_key(packet.report)
                self._open_queue_spans.setdefault(key, deque()).append(
                    tracer.chain(key, "queue", depth=depth)
                )
        return accepted

    # Processing --------------------------------------------------------------

    def process_batch(self, max_packets: int | None = None) -> int:
        """Drain up to ``max_packets`` queued packets through verification.

        Each packet verifies and merges in turn, so the learned route
        warms after the very first packet of a stream.

        Returns:
            The number of packets processed.
        """
        items = self.queue.take(max_packets)
        if not items:
            return 0
        total = len(items)
        if self.obs.tracer is not None:
            for packet, _ in items:
                self._close_queue_span(packet)
        start = time.perf_counter()
        for packet, delivering_node in items:
            verification = self.verifier.verify(packet)
            self.sink.ingest(verification, delivering_node)
            if verification.chain_ids:
                self.cache.touch(verification.chain_ids)
        elapsed = time.perf_counter() - start
        self.verify_latency.observe(elapsed / total, times=total)
        self.obs.observe("ingest_verify_seconds", elapsed / total, times=total)
        self.processed += total
        self.batches += 1
        return total

    def _close_queue_span(self, packet: MarkedPacket, dropped: bool = False) -> None:
        """Finish the ``queue`` span opened when ``packet`` was submitted."""
        tracer = self.obs.tracer
        if tracer is None:
            return
        key = report_key(packet.report)
        spans = self._open_queue_spans.get(key)
        if not spans:
            return
        span = spans.popleft()
        if not spans:
            del self._open_queue_spans[key]
        if dropped:
            span.attrs["dropped"] = True
        tracer.finish(span)

    def flush(self) -> int:
        """Process until the queue is empty; returns packets processed."""
        total = 0
        while True:
            processed = self.process_batch()
            if processed == 0:
                return total
            total += processed

    def verdict(self) -> TracebackVerdict:
        """Flush, then return the sink's aggregate verdict."""
        self.flush()
        return self.sink.verdict()

    # Lifecycle ---------------------------------------------------------------

    def close(self, drain: bool = True) -> int:
        """Shut the pipeline down.

        Args:
            drain: process everything still queued first (default); when
                False, queued packets are discarded and counted as taken.

        Returns:
            Packets processed during the final drain.
        """
        if self._closed:
            return 0
        drained = self.flush() if drain else 0
        if not drain:
            for packet, _ in self.queue.take():
                self._close_queue_span(packet, dropped=True)
        tracer = self.obs.tracer
        if tracer is not None:
            # A submit racing this close can open a span after its packet
            # was taken; finish every span still open so none is lost.
            for key in sorted(self._open_queue_spans):
                for span in self._open_queue_spans[key]:
                    span.attrs["dropped"] = True
                    tracer.finish(span)
            self._open_queue_spans.clear()
        self.queue.close()
        self._closed = True
        return drained

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SinkIngestService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close(drain=exc_type is None)

    def invalidate_node(self, node_id: int) -> None:
        """Purge cached resolver state derived from ``node_id``.

        Two callers: key revocation (:mod:`repro.isolation`, via the
        subscribed revocation log) and node death (the fault injector,
        :mod:`repro.faults` -- a crashed node's packets stop mid-stream
        and its memoized tables, hot-set slot and last-hop entry must not
        linger).  The node's precedence edges stay, but no search set
        offers it again until it verifies anew.
        """
        self.cache.invalidate_node(node_id)

    def invalidate_all(self) -> None:
        """Purge every memoized table, the hot-set and the last hops.

        The rebalance-scale form of :meth:`invalidate_node`: when a
        cluster shard's key range changes (a peer died or joined), the
        routes it will see shift wholesale and per-node purges would have
        to enumerate the world.  The next packet searches exhaustively.
        Verification correctness never depends on the cache, so the only
        cost is re-warming.
        """
        self.cache.clear()

    # Observability -----------------------------------------------------------

    def _on_revoked(self, record: RevocationRecord) -> None:
        self.invalidate_node(record.node_id)

    def stats(self) -> ServiceStats:
        """A consistent observability snapshot of the whole pipeline."""
        queue_stats = self.queue.stats()
        return ServiceStats(
            submitted=queue_stats["offered"],
            accepted=queue_stats["accepted"],
            dropped=queue_stats["dropped"],
            processed=self.processed,
            batches=self.batches,
            queue=queue_stats,
            cache=self.cache.stats(),
            verify_latency=self.verify_latency.as_dict(),
        )

    def __repr__(self) -> str:
        return (
            f"SinkIngestService(queue={self.queue.depth}/{self.queue.capacity}, "
            f"processed={self.processed})"
        )
