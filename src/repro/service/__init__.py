"""Sink ingest service: the production front end of the traceback sink.

The paper's feasibility argument (Section 4.2) is throughput arithmetic:
millions of hashes per second against tens of suspicious packets per
second.  This package turns that arithmetic into an actual service in
front of :class:`~repro.traceback.sink.TracebackSink`:

* :class:`IngestQueue` -- bounded intake that sheds whole offers past its
  capacity (tail drop), with exact backpressure counters;
* :class:`ResolverCache` / :class:`CachingResolver` -- memoized resolution
  tables plus a search along the route the sink's precedence graph has
  learned, filtered by a hot-set of recent markers, collapsing the
  exhaustive ``O(N)``-hash search to about one hash per mark on steady
  traffic;
* :class:`ServiceStats` -- counters, the verify-latency histogram, cache
  hit rates and queue depth;
* :class:`SinkIngestService` -- the pipeline tying them together: serial,
  cache-accelerated verification with verdicts identical to serial
  ``sink.receive`` processing.

See ``docs/service.md`` for the architecture and contracts.
"""

from repro.service.cache import CachingResolver, ResolverCache
from repro.service.ingest import SinkIngestService
from repro.service.queue import IngestQueue
from repro.service.stats import ServiceStats

__all__ = [
    "SinkIngestService",
    "IngestQueue",
    "ResolverCache",
    "CachingResolver",
    "ServiceStats",
]
