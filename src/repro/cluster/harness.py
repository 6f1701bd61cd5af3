"""``LocalCluster``: N shard servers, one router, churn-safe journaling.

The cluster-scale analogue of :mod:`repro.wire.loopback`: every shard is
a real :class:`~repro.wire.server.SinkServer` (own
:class:`~repro.service.SinkIngestService`, own sink, own slice of the
brute-force key table work) on an ephemeral loopback port, and one
:class:`~repro.cluster.router.ShardRouter` feeds them over the real wire
protocol.

**Exactly-once under churn.**  The harness journals every acknowledged
sub-batch against the shard that acknowledged it.  When a shard dies --
the router discovers it through a connection failure, or a probe does --
the dead shard's *evidence is discarded whole* (its sink dies with it)
and its journal replays through the updated ring to the survivors.  Each
packet is therefore counted by exactly one *surviving* shard: the dead
shard's copy is never merged, and the replay re-ingests exactly what it
had acknowledged.  Merged verdicts stay byte-identical to a single sink
fed the same stream, which is what ``tests/test_cluster`` pins under a
kill-and-replace churn schedule.

**Journal retention is O(total acknowledged traffic).**  Replay safety
requires the journal to reference every packet a shard has acknowledged
since the last compaction, so between compactions the journal grows with
traffic volume and a shard death replays its whole retained history.
Callers running long or unbounded streams should call
:meth:`LocalCluster.checkpoint` whenever they have durably collected the
cluster's evidence (e.g. after a :meth:`LocalCluster.collect` whose
result they persist): it drops the retained journal, bounding both
memory and worst-case replay to one checkpoint interval.

**Churn schedules.**  Shard churn reuses :class:`repro.faults.FaultSchedule`
verbatim: ``node`` is the shard ID and ``time`` is the batch index the
event applies before.  Only ``crash`` and ``recover`` kinds make sense
for shards; anything else is rejected up front.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.ring import DEFAULT_VNODES, ShardRing, report_shard_key
from repro.cluster.router import ShardReply, ShardRouter
from repro.faults.schedule import FaultEvent, FaultSchedule
from typing import Any

from repro.net.topology import Topology
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import SpanContext
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.service.ingest import SinkIngestService
from repro.traceback.sink import SinkEvidence, TracebackSink, TracebackVerdict
from repro.wire.client import SinkClient
from repro.wire.errors import ConnectError
from repro.wire.loopback import Batch
from repro.wire.server import SinkServer

__all__ = [
    "ShardHandle",
    "LocalCluster",
    "ClusterResult",
    "JournalEntry",
    "run_cluster",
]

#: One journaled acknowledgment: the sub-batch, its delivering node, and
#: the trace context it was sent under (``None`` for untraced sends), so
#: churn replays stay inside the original trace.
JournalEntry = tuple[list[MarkedPacket], int, SpanContext | None]

#: The only fault kinds meaningful for shard churn.
_SHARD_FAULT_KINDS = ("crash", "recover")


@dataclass
class ShardHandle:
    """One live shard: its pipeline, server, and the router's client."""

    shard_id: int
    service: SinkIngestService
    server: SinkServer
    client: SinkClient


class LocalCluster:
    """A loopback shard cluster with journal-replay rebalancing.

    Args:
        sink_factory: builds a fresh :class:`TracebackSink` per shard
            (and per replacement shard); sinks must share scheme, keys
            and topology or the shards disagree on verification.
        fmt: the deployment mark layout.
        shard_ids: initial shard IDs.
        shard_key: ring key extractor (default: uniform report digest).
        vnodes: ring points per shard.
        service_kwargs: forwarded to every shard's
            :class:`SinkIngestService` (``capacity``, ``hot_capacity``).
        obs: observability provider; the cluster (``cluster_*``) and its
            router (``cluster_router_*``) register their counts there.
        shard_obs_factory: builds one observability provider per shard id
            (fresh registry/tracer per shard, and per replacement after a
            recover) -- the provider each shard's sink, service and
            server report into, and therefore what the shard serves over
            the TELEMETRY frame.  ``None`` leaves shards on the NOOP
            provider (empty telemetry snapshots).
    """

    def __init__(
        self,
        sink_factory: Callable[[], TracebackSink],
        fmt: MarkFormat,
        shard_ids: Iterable[int],
        shard_key: Callable[[MarkedPacket], bytes] = report_shard_key,
        vnodes: int = DEFAULT_VNODES,
        service_kwargs: Mapping[str, object] | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
        shard_obs_factory: (
            Callable[[int], ObsProvider | NoopObsProvider] | None
        ) = None,
    ):
        ids = sorted(shard_ids)
        if not ids:
            raise ValueError("a cluster needs at least one shard")
        self.sink_factory = sink_factory
        self.fmt = fmt
        self.shard_key = shard_key
        self.service_kwargs = dict(service_kwargs or {})
        self.obs = resolve_provider(obs)
        self.shard_obs_factory = shard_obs_factory
        self.ring = ShardRing(ids, vnodes=vnodes)
        self.handles: dict[int, ShardHandle] = {}
        self.dead: list[ShardHandle] = []
        self.journal: dict[int, list[JournalEntry]] = {}
        self.replayed_batches = 0
        self.shards_lost = 0
        self.shards_recovered = 0
        self._initial_ids = ids
        self.router = ShardRouter(
            self.ring,
            {},
            shard_key,
            fmt,
            on_shard_down=self._on_shard_down,
            obs=self.obs,
        )
        self.obs.register_stats("cluster", self._counts)

    # Lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every initial shard and connect the router to each."""
        for shard_id in self._initial_ids:
            await self._spawn(shard_id)

    async def close(self) -> None:
        """Tear the whole cluster down (idempotent)."""
        for shard_id in sorted(self.handles):
            handle = self.handles[shard_id]
            await handle.client.close()
            await handle.server.close()
            handle.service.close(drain=False)
        self.handles.clear()
        self.router.clients.clear()

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.close()

    async def _spawn(self, shard_id: int) -> ShardHandle:
        """Boot one shard and register it with the router."""
        sink = self.sink_factory()
        kwargs = dict(self.service_kwargs)
        if self.shard_obs_factory is not None and "obs" not in kwargs:
            # The shard's whole pipeline -- sink merge, verification,
            # queue, wire transport -- reports into one per-shard
            # provider; the server (obs=None) inherits the service's.
            provider = self.shard_obs_factory(shard_id)
            sink.obs = provider
            kwargs["obs"] = provider
        service = SinkIngestService(sink, **kwargs)

        def owns(packet: MarkedPacket, sid: int = shard_id) -> bool:
            return self.ring.shard_for(self.shard_key(packet)) == sid

        server = SinkServer(service, self.fmt, owns=owns)
        await server.start()
        client = SinkClient("127.0.0.1", server.port)
        await client.connect()
        handle = ShardHandle(
            shard_id=shard_id, service=service, server=server, client=client
        )
        self.handles[shard_id] = handle
        self.router.clients[shard_id] = client
        return handle

    # Churn --------------------------------------------------------------------

    async def crash_shard(self, shard_id: int) -> None:
        """Kill a shard the way a crash looks from outside.

        Only the server dies (transports aborted mid-stream, listener
        closed).  The ring and the router's client map are *not* touched:
        the router must discover the failure through a connection error
        or a failed probe, exactly as with a remote peer.
        """
        handle = self.handles.get(shard_id)
        if handle is None:
            raise ValueError(f"shard {shard_id} is not live")
        await handle.server.abort()

    async def recover_shard(self, shard_id: int) -> None:
        """Replace a dead shard: fresh sink, fresh server, same ID.

        If the crash was never discovered (no send or probe touched the
        shard since), discovery is forced first so the dead instance's
        journal replays before the replacement takes over the ID.
        Survivors' resolver caches purge (:meth:`SinkIngestService.
        invalidate_all`) because the ring change shifts their key ranges.
        """
        if shard_id in self.router.clients:
            await self.router.mark_down(
                shard_id, ConnectError(f"shard {shard_id} is being replaced")
            )
        if shard_id in self.ring:
            raise ValueError(f"shard {shard_id} is still on the ring")
        await self._spawn(shard_id)
        self.ring.add_shard(shard_id)
        self.shards_recovered += 1
        for sid in sorted(self.handles):
            if sid != shard_id:
                self.handles[sid].service.invalidate_all()

    async def _on_shard_down(self, shard_id: int) -> None:
        """Router failover hook: discard the dead shard, replay its journal.

        By the time this runs the router has already removed the shard
        from the ring and closed its client, so every resend below routes
        through the updated ownership map.
        """
        self.shards_lost += 1
        handle = self.handles.pop(shard_id, None)
        if handle is not None:
            self.dead.append(handle)
            await handle.server.abort()
            handle.service.close(drain=False)
        for sid in sorted(self.handles):
            self.handles[sid].service.invalidate_all()
        entries = self.journal.pop(shard_id, [])
        for packets, delivering_node, trace in entries:
            self.replayed_batches += 1
            replies = await self.router.send_batch(
                packets, delivering_node, trace=trace
            )
            self._journal_replies(replies, delivering_node, trace)

    # Traffic --------------------------------------------------------------------

    def _journal_replies(
        self,
        replies: list[ShardReply],
        delivering_node: int,
        trace: SpanContext | None = None,
    ) -> None:
        for reply in replies:
            self.journal.setdefault(reply.shard_id, []).append(
                (list(reply.packets), delivering_node, trace)
            )

    async def send(
        self,
        packets: list[MarkedPacket],
        delivering_node: int,
        trace: SpanContext | None = None,
    ) -> list[ShardReply]:
        """Route one batch and journal every acknowledged sub-batch.

        The trace context is journaled alongside the packets, so a churn
        replay of this batch stays inside the original trace.
        """
        replies = await self.router.send_batch(
            packets, delivering_node, trace=trace
        )
        self._journal_replies(replies, delivering_node, trace)
        return replies

    def checkpoint(self) -> int:
        """Compact the replay journal: drop every retained sub-batch.

        The journal exists so a dead shard's acknowledged-but-unmerged
        packets can replay to survivors; it necessarily retains every
        ack since the last compaction (see the module docstring).  Call
        this *only after* durably collecting the cluster's evidence --
        a shard that dies afterwards replays nothing from before the
        checkpoint, so its pre-checkpoint contribution survives only in
        whatever the caller persisted.

        Returns:
            The number of journaled sub-batches dropped.
        """
        dropped = self.journal_batches
        self.journal.clear()
        self.obs.inc("cluster_journal_checkpoints_total")
        return dropped

    async def run_schedule(
        self,
        batches: list[Batch],
        churn: FaultSchedule | None = None,
        traces: list[SpanContext | None] | None = None,
    ) -> list[ShardReply]:
        """Send ``batches`` in order, applying shard churn between them.

        A churn event with ``time <= i`` fires before batch ``i`` is
        sent; events past the last batch fire after the final send.
        ``traces`` optionally supplies one trace context per batch.

        Raises:
            ValueError: on churn kinds other than crash/recover, a
                missing target shard ID, or a ``traces`` list whose
                length disagrees with ``batches``.
        """
        events = list(churn.events) if churn is not None else []
        for event in events:
            if event.kind not in _SHARD_FAULT_KINDS:
                raise ValueError(
                    f"shard churn supports kinds {_SHARD_FAULT_KINDS}, "
                    f"got {event.kind!r}"
                )
            if event.node is None:
                raise ValueError("shard churn events need a shard ID in .node")
        if traces is not None and len(traces) != len(batches):
            raise ValueError(
                f"traces length {len(traces)} != batches length {len(batches)}"
            )
        replies: list[ShardReply] = []
        cursor = 0
        for index, (packets, delivering_node) in enumerate(batches):
            while cursor < len(events) and events[cursor].time <= index:
                await self._apply_churn(events[cursor])
                cursor += 1
            replies.extend(
                await self.send(
                    packets,
                    delivering_node,
                    trace=traces[index] if traces is not None else None,
                )
            )
        while cursor < len(events):
            await self._apply_churn(events[cursor])
            cursor += 1
        return replies

    async def _apply_churn(self, event: FaultEvent) -> None:
        assert event.node is not None  # validated by run_schedule
        if event.kind == "crash":
            await self.crash_shard(event.node)
        else:
            await self.recover_shard(event.node)

    # Results ------------------------------------------------------------------

    async def collect(self) -> dict[int, SinkEvidence]:
        """Fetch every live shard's evidence summary, keyed by shard ID.

        Undiscovered dead shards are evicted first (probe -> failover ->
        journal replay), so the union of the returned summaries always
        covers every acknowledged packet exactly once.
        """
        health = await self.router.probe()
        down = sorted(sid for sid in health if not health[sid])
        for shard_id in down:
            await self.router.mark_down(
                shard_id, ConnectError(f"shard {shard_id} failed its probe")
            )
        summaries: dict[int, SinkEvidence] = {}
        for shard_id in sorted(self.router.clients):
            summaries[shard_id] = await self.router.clients[
                shard_id
            ].fetch_summary()
        return summaries

    async def fetch_telemetry(self) -> dict[int, dict[str, Any]]:
        """Poll every live shard's registry snapshot (TELEMETRY frame).

        A pure read of the shards' obs side -- no sink or service state
        changes, so polling telemetry can never perturb a verdict.
        Shards running without observability answer ``{"metrics": []}``.
        """
        snapshots: dict[int, dict[str, Any]] = {}
        for shard_id in sorted(self.router.clients):
            snapshots[shard_id] = await self.router.clients[
                shard_id
            ].fetch_telemetry()
        return snapshots

    @property
    def journal_batches(self) -> int:
        """Sub-batches the journal retains for replay."""
        return sum(len(self.journal[sid]) for sid in sorted(self.journal))

    def _counts(self) -> dict[str, object]:
        """:meth:`stats` plus the levels ``shards_live``/``journal_batches``."""
        return {
            **self.stats(),
            "shards_live": len(self.handles),
            "journal_batches": self.journal_batches,
        }

    def stats(self) -> dict[str, object]:
        """Routing, churn, and per-shard transport counters."""
        return {
            "router": self.router.stats(),
            "shards_lost": self.shards_lost,
            "shards_recovered": self.shards_recovered,
            "replayed_batches": self.replayed_batches,
            "shards": {
                shard_id: self.handles[shard_id].server.stats()
                for shard_id in sorted(self.handles)
            },
        }

    def __repr__(self) -> str:
        return (
            f"LocalCluster(live={sorted(self.handles)}, "
            f"lost={self.shards_lost}, recovered={self.shards_recovered})"
        )


@dataclass
class ClusterResult:
    """Everything a cluster run produced.

    Attributes:
        summaries: per-shard evidence at the end of the run.
        evidence: the coordinator's merged global evidence.
        verdict: the global verdict over the merged evidence.
        replies: every acknowledged sub-batch, in ack order.
        stats: router/churn/shard counters at shutdown.
        telemetry: per-shard registry snapshots polled at the end of the
            run (empty unless the cluster ran with ``shard_obs_factory``);
            feed them to :func:`repro.obs.telemetry.federate_snapshots`.
    """

    summaries: dict[int, SinkEvidence]
    evidence: SinkEvidence
    verdict: TracebackVerdict
    replies: list[ShardReply] = field(default_factory=list)
    stats: dict[str, object] = field(default_factory=dict)
    telemetry: dict[int, dict[str, Any]] = field(default_factory=dict)


def run_cluster(
    sink_factory: Callable[[], TracebackSink],
    fmt: MarkFormat,
    topology: Topology,
    batches: list[Batch],
    shard_ids: Iterable[int],
    shard_key: Callable[[MarkedPacket], bytes] = report_shard_key,
    churn: FaultSchedule | None = None,
    service_kwargs: Mapping[str, object] | None = None,
    obs: ObsProvider | NoopObsProvider | None = None,
    shard_obs_factory: (
        Callable[[int], ObsProvider | NoopObsProvider] | None
    ) = None,
) -> ClusterResult:
    """Run a batch schedule through a fresh loopback cluster.

    The cluster analogue of :func:`repro.wire.loopback.run_loopback`:
    start shards, stream the schedule (with optional churn), collect and
    merge evidence, and tear everything down.  With ``shard_obs_factory``
    each shard reports into its own provider and the result carries the
    final per-shard telemetry snapshots; the packet/verdict path is
    untouched either way.
    """

    async def drive() -> ClusterResult:
        coordinator = ClusterCoordinator(topology, obs=obs)
        cluster = LocalCluster(
            sink_factory,
            fmt,
            shard_ids,
            shard_key=shard_key,
            service_kwargs=service_kwargs,
            obs=obs,
            shard_obs_factory=shard_obs_factory,
        )
        async with cluster:
            replies = await cluster.run_schedule(batches, churn=churn)
            summaries = await cluster.collect()
            telemetry = (
                await cluster.fetch_telemetry()
                if shard_obs_factory is not None
                else {}
            )
            stats = cluster.stats()
        evidence = coordinator.merge(summaries)
        return ClusterResult(
            summaries=summaries,
            evidence=evidence,
            verdict=coordinator.verdict(evidence),
            replies=replies,
            stats=stats,
            telemetry=telemetry,
        )

    return asyncio.run(drive())
