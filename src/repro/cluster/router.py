"""``ShardRouter``: batch fan-out with backpressure retry and failover.

The router owns the client side of the cluster: it splits each incoming
batch by ring ownership, sends every sub-batch to its shard over the
plain :class:`~repro.wire.client.SinkClient` protocol, and reacts to the
three ways a shard can refuse:

* **Backpressure** -- the shard's queue refused the sub-batch whole
  (all-or-nothing admission, so nothing was ingested); the router honors
  the server's ``retry_after_ms`` hint (an injected delay, never a
  wall-clock read -- RL006) a bounded number of times.
* **Stale routing** -- the shard answered ``WRONG_SHARD``; the router
  re-derives ownership from its *current* ring and resends, a bounded
  number of times per sub-batch.  The batch itself was never partially
  ingested (servers reject before submitting anything), so the resend
  cannot double-count; the bound turns a *persistent* ring/ownership
  disagreement (a misconfigured deployment, a partitioned view) into a
  raised :class:`~repro.wire.errors.WrongShardError` instead of a
  livelock resending the same sub-batch forever.
* **Shard death** -- a connection-level failure.  The router removes the
  shard from the ring, hands the event to the owner's ``on_shard_down``
  hook (the harness replays the dead shard's journal there), and
  re-routes the in-flight sub-batch through the updated ring.

Liveness probing rides the PING frame via
:meth:`~repro.wire.client.SinkClient.health_check`.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable

from repro.cluster.ring import ShardRing
from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import SpanContext
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.wire.client import SinkClient
from repro.wire.errors import (
    BackpressureError,
    ConnectError,
    PingTimeoutError,
    RemoteError,
    TruncatedError,
    WireError,
    WrongShardError,
)
from repro.wire.messages import WireVerdict

__all__ = ["ShardRouter", "ShardReply", "ShardDownError"]

#: Connection-level failures that mean "this shard is gone", as opposed
#: to a typed refusal from a live shard.
_DOWN_ERRORS = (ConnectError, TruncatedError, ConnectionError, OSError)


class ShardDownError(WireError):
    """A shard became unreachable and no failover hook was installed."""

    def __init__(self, shard_id: int, cause: Exception):
        super().__init__(f"shard {shard_id} is down: {cause}")
        self.shard_id = shard_id
        self.cause = cause


class ShardReply:
    """One acknowledged sub-batch: which shard took which packets."""

    __slots__ = ("shard_id", "packets", "verdict")

    def __init__(
        self,
        shard_id: int,
        packets: tuple[MarkedPacket, ...],
        verdict: WireVerdict,
    ):
        self.shard_id = shard_id
        self.packets = packets
        self.verdict = verdict

    def __repr__(self) -> str:
        return (
            f"ShardReply(shard={self.shard_id}, packets={len(self.packets)})"
        )


class ShardRouter:
    """Route batches across a shard ring of sink servers.

    Args:
        ring: shared ownership view.  The router mutates it on failover
            (removing dead shards), so servers handed the same object see
            ownership changes immediately.
        clients: shard ID -> connected client.  The router adopts the
            mapping (it pops dead shards' clients and closes them).
        shard_key: key extractor (see :mod:`repro.cluster.ring`).
        fmt: the deployment mark layout.
        max_backpressure_retries: per sub-batch send; exhausting them
            re-raises the last :class:`BackpressureError`.
        max_wrong_shard_reroutes: ``WRONG_SHARD`` re-splits allowed per
            sub-batch before the router gives up and re-raises the
            :class:`WrongShardError` -- the router's ring and the shard's
            ownership view disagree persistently, which retrying cannot
            fix.  Failover re-splits do not count against this bound.
        on_shard_down: async hook awaited after a dead shard has been
            removed from the ring and its client closed; the cluster
            harness replays the shard's journal here.  Without a hook a
            dead shard raises :class:`ShardDownError`.
        obs: observability provider (:meth:`stats` as ``cluster_router_*``).
    """

    def __init__(
        self,
        ring: ShardRing,
        clients: dict[int, SinkClient],
        shard_key: Callable[[MarkedPacket], bytes],
        fmt: MarkFormat,
        max_backpressure_retries: int = 8,
        max_wrong_shard_reroutes: int = 8,
        on_shard_down: Callable[[int], Awaitable[None]] | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        if max_backpressure_retries < 0:
            raise ValueError(
                "max_backpressure_retries must be >= 0, got "
                f"{max_backpressure_retries}"
            )
        if max_wrong_shard_reroutes < 0:
            raise ValueError(
                "max_wrong_shard_reroutes must be >= 0, got "
                f"{max_wrong_shard_reroutes}"
            )
        self.ring = ring
        self.clients = clients
        self.shard_key = shard_key
        self.fmt = fmt
        self.max_backpressure_retries = max_backpressure_retries
        self.max_wrong_shard_reroutes = max_wrong_shard_reroutes
        self.on_shard_down = on_shard_down
        self.obs = resolve_provider(obs)
        self.batches_routed = 0
        self.backpressure_retries = 0
        self.wrong_shard_reroutes = 0
        self.failovers = 0
        self.obs.register_stats("cluster_router", self.stats)

    # Partitioning ----------------------------------------------------------

    def split(
        self, packets: list[MarkedPacket] | tuple[MarkedPacket, ...]
    ) -> list[tuple[int, tuple[MarkedPacket, ...]]]:
        """Partition ``packets`` by current ring ownership.

        Returns ``(shard_id, sub_batch)`` pairs in ascending shard order;
        each sub-batch preserves the packets' relative order.
        """
        by_shard: dict[int, list[MarkedPacket]] = {}
        for packet in packets:
            shard_id = self.ring.shard_for(self.shard_key(packet))
            by_shard.setdefault(shard_id, []).append(packet)
        return [
            (shard_id, tuple(by_shard[shard_id]))
            for shard_id in sorted(by_shard)
        ]

    # Sending ----------------------------------------------------------------

    def _trace_event(
        self, trace: SpanContext | None, name: str, **attrs: object
    ) -> None:
        """Record a routing decision as a child span of ``trace``."""
        tracer = self.obs.tracer
        if tracer is None or trace is None:
            return
        tracer.finish(tracer.start(name, parent=trace, **attrs))

    async def send_batch(
        self,
        packets: list[MarkedPacket] | tuple[MarkedPacket, ...],
        delivering_node: int,
        trace: SpanContext | None = None,
    ) -> list[ShardReply]:
        """Deliver one batch, splitting, retrying and failing over as needed.

        With ``trace``, every sub-batch frame carries the context and the
        routing detours a caller cannot see from the replies -- WRONG_SHARD
        reroutes and shard failovers -- are recorded as child spans of it.

        Returns:
            One :class:`ShardReply` per acknowledged sub-batch, in the
            order acknowledgments happened (ascending shard ID unless a
            failover re-routed part of the batch).
        """
        replies: list[ShardReply] = []
        pending = [
            (shard_id, sub_batch, 0)
            for shard_id, sub_batch in self.split(packets)
        ]
        while pending:
            shard_id, sub_batch, reroutes = pending.pop(0)
            try:
                verdict = await self._send_to_shard(
                    shard_id, sub_batch, delivering_node, trace
                )
            except WrongShardError:
                # Our ring view went stale between split and send (a
                # concurrent membership change); re-derive and resend --
                # but only so many times.  A reroute that keeps landing
                # on a refusing shard means the ring and the shard's
                # ownership view disagree persistently, and resending
                # would loop forever.
                if reroutes >= self.max_wrong_shard_reroutes:
                    raise
                self.wrong_shard_reroutes += 1
                self._trace_event(
                    trace,
                    "wrong_shard_reroute",
                    shard=shard_id,
                    packets=len(sub_batch),
                    reroutes=reroutes + 1,
                )
                pending.extend(
                    (sid, sub, reroutes + 1)
                    for sid, sub in self.split(sub_batch)
                )
                continue
            except _DOWN_ERRORS as exc:
                self._trace_event(
                    trace,
                    "shard_failover",
                    shard=shard_id,
                    packets=len(sub_batch),
                    cause=type(exc).__name__,
                )
                await self.mark_down(shard_id, exc)
                # A failover re-split is not a ring disagreement; the
                # reroute budget carries over unchanged.
                pending.extend(
                    (sid, sub, reroutes)
                    for sid, sub in self.split(sub_batch)
                )
                continue
            replies.append(ShardReply(shard_id, sub_batch, verdict))
        self.batches_routed += 1
        return replies

    async def _send_to_shard(
        self,
        shard_id: int,
        packets: tuple[MarkedPacket, ...],
        delivering_node: int,
        trace: SpanContext | None = None,
    ) -> WireVerdict:
        """One sub-batch to one shard, absorbing backpressure."""
        client = self._client(shard_id)
        attempt = 0
        while True:
            try:
                return await client.send_batch(
                    packets, delivering_node, self.fmt, trace=trace
                )
            except BackpressureError as exc:
                if attempt >= self.max_backpressure_retries:
                    raise
                attempt += 1
                self.backpressure_retries += 1
                await asyncio.sleep(exc.retry_after_ms / 1000.0)

    def _client(self, shard_id: int) -> SinkClient:
        try:
            return self.clients[shard_id]
        except KeyError:
            raise ConnectError(
                f"no client for shard {shard_id} (ring and client map "
                "out of sync)"
            ) from None

    async def mark_down(self, shard_id: int, cause: Exception) -> None:
        """Remove a dead shard from the ring and notify the owner.

        The send path calls this on connection failures; owners call it
        directly when an external signal (a failed probe, an operator
        decision) declares a shard dead.

        Raises:
            ShardDownError: when the last shard died, or no
                ``on_shard_down`` hook is installed to absorb the event.
        """
        self.failovers += 1
        if shard_id in self.ring:
            self.ring.remove_shard(shard_id)
        client = self.clients.pop(shard_id, None)
        if client is not None:
            await client.close()
        if len(self.ring) == 0:
            raise ShardDownError(shard_id, cause)
        if self.on_shard_down is None:
            raise ShardDownError(shard_id, cause)
        await self.on_shard_down(shard_id)

    # Liveness -----------------------------------------------------------------

    async def probe(self, timeout: float = 1.0) -> dict[int, bool]:
        """Health-check every shard; shards in ascending order.

        A shard is "up" when its PING echo returns within ``timeout``.
        Probing never mutates the ring -- callers decide what a failed
        probe means (the harness crashes the shard through the same
        failover path a send error takes).  A timed-out probe leaves the
        shard's client *disconnected* (:meth:`SinkClient.health_check`
        closes it so a late echo cannot mis-pair with a later request);
        a caller that deems the shard up-but-slow must reconnect it, and
        a send through the closed client surfaces as a connection error
        on the normal failover path.
        """
        health: dict[int, bool] = {}
        for shard_id in sorted(self.clients):
            client = self.clients[shard_id]
            try:
                await client.health_check(timeout=timeout)
            except (PingTimeoutError, RemoteError, *_DOWN_ERRORS):
                health[shard_id] = False
            else:
                health[shard_id] = True
            self.obs.set_gauge(
                "cluster_shard_up", 1.0 if health[shard_id] else 0.0,
                shard=shard_id,
            )
        return health

    def stats(self) -> dict[str, int]:
        """JSON-ready routing counters."""
        return {
            "shards": len(self.ring),
            "batches_routed": self.batches_routed,
            "backpressure_retries": self.backpressure_retries,
            "wrong_shard_reroutes": self.wrong_shard_reroutes,
            "failovers": self.failovers,
        }

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={self.ring.shard_ids}, "
            f"routed={self.batches_routed}, failovers={self.failovers})"
        )
