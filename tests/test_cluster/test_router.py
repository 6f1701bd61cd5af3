"""ShardRouter behavior: backpressure, stale-ring reroutes, failover."""

import asyncio

import pytest

from repro.cluster.harness import LocalCluster
from repro.cluster.ring import ShardRing, region_shard_key
from repro.cluster.router import ShardDownError, ShardRouter
from repro.crypto.mac import KeyedHashProvider
from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.marking.pnm import PNMMarking
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.client import SinkClient
from repro.wire.errors import (
    BackpressureError,
    ErrorCode,
    RemoteError,
    WrongShardError,
)
from repro.wire.server import SinkServer

GRID_SIDE = 10
PACKETS = 16
SOURCES = 4
FMT = PNMMarking(mark_prob=1.0).fmt
REGION_KEY = region_shard_key(cell_size=1.0)


@pytest.fixture(scope="module")
def workload():
    return build_cluster_workload(GRID_SIDE, PACKETS, sources=SOURCES)


def all_packets(workload):
    _topology, _keystore, batches, _sources = workload
    return [packet for chunk, _ in batches for packet in chunk]


def make_sink(workload) -> TracebackSink:
    topology, keystore, _batches, _sources = workload
    return TracebackSink(
        PNMMarking(mark_prob=1.0), keystore, KeyedHashProvider(), topology
    )


class TestSplit:
    def test_split_partitions_by_ring_in_shard_order(self, workload):
        packets = all_packets(workload)
        ring = ShardRing([0, 1])
        router = ShardRouter(ring, {}, REGION_KEY, FMT)
        parts = router.split(packets)
        shard_ids = [shard_id for shard_id, _ in parts]
        assert shard_ids == sorted(shard_ids)
        assert sum(len(sub) for _, sub in parts) == len(packets)
        for shard_id, sub in parts:
            for packet in sub:
                assert ring.shard_for(REGION_KEY(packet)) == shard_id

    def test_split_preserves_relative_order(self, workload):
        packets = all_packets(workload)
        router = ShardRouter(ShardRing([0, 1]), {}, REGION_KEY, FMT)
        for _shard_id, sub in router.split(packets):
            indices = [packets.index(p) for p in sub]
            assert indices == sorted(indices)


class TestBackpressure:
    def test_retries_then_reraises(self, workload):
        packets = all_packets(workload)

        async def scenario():
            sink = make_sink(workload)
            # One slot stays occupied and nothing drains: every send is
            # shed, so the router must exhaust its retries and surface
            # the error.
            with SinkIngestService(sink, capacity=len(packets)) as service:
                service.submit(packets[0], 1)
                async with SinkServer(
                    service, FMT, retry_after_ms=1
                ) as server:
                    client = SinkClient("127.0.0.1", server.port)
                    await client.connect()
                    router = ShardRouter(
                        ShardRing([0]),
                        {0: client},
                        REGION_KEY,
                        FMT,
                        max_backpressure_retries=2,
                    )
                    try:
                        with pytest.raises(BackpressureError):
                            await router.send_batch(packets, 1)
                    finally:
                        await client.close()
                    service.flush()
                    return router.stats(), sink.packets_received

        stats, received = asyncio.run(scenario())
        assert stats["backpressure_retries"] == 2
        # Atomic admission: every rejected attempt ingested nothing, so
        # the retries did not double-count an accepted prefix; only the
        # packet that occupied the slot was ingested.
        assert received == 1

    def test_oversized_batch_fails_fast_without_retries(self):
        """A batch larger than the shard's whole queue can never be
        admitted, so the shard answers OVERSIZED and the router raises it
        at once instead of sleeping through its backpressure retries."""
        topology, keystore, batches, _sources = build_cluster_workload(
            8, 16, sources=1, batch_size=16
        )
        packets, delivering = batches[0]
        assert len(packets) == 16

        async def scenario():
            async with LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                [0],
                service_kwargs={"capacity": 8},
            ) as cluster:
                with pytest.raises(RemoteError) as excinfo:
                    await cluster.router.send_batch(packets, delivering)
                handle = cluster.handles[0]
                return (
                    excinfo.value,
                    cluster.router.backpressure_retries,
                    handle.server.stats(),
                    handle.service.stats(),
                )

        error, retries, server_stats, service_stats = asyncio.run(scenario())
        assert error.error_code is ErrorCode.OVERSIZED
        assert not isinstance(error, BackpressureError)
        assert retries == 0
        assert server_stats["batches_rejected"] == 1
        assert server_stats["packets_shed"] == 0
        assert service_stats.submitted == 0

    def test_retry_after_drain_ingests_exactly_once(self, workload):
        """The double-ingest regression the atomic admission fix closes.

        One queue slot is pre-occupied so the first send is rejected;
        the queue drains while the router sleeps on the retry hint, and
        the retried batch must then count each packet exactly once.
        Before the fix, the rejected first attempt left its accepted
        prefix queued and the retry re-ingested it.
        """
        packets = all_packets(workload)

        async def scenario():
            sink = make_sink(workload)
            with SinkIngestService(sink, capacity=len(packets)) as service:
                service.submit(packets[0], 1)  # occupy one slot
                async with SinkServer(
                    service, FMT, retry_after_ms=20
                ) as server:
                    client = SinkClient("127.0.0.1", server.port)
                    await client.connect()
                    router = ShardRouter(
                        ShardRing([0]),
                        {0: client},
                        REGION_KEY,
                        FMT,
                        max_backpressure_retries=4,
                    )

                    async def drain_soon():
                        await asyncio.sleep(0.005)
                        service.flush()

                    drainer = asyncio.ensure_future(drain_soon())
                    try:
                        replies = await router.send_batch(packets, 1)
                    finally:
                        await drainer
                        await client.close()
                    service.flush()
                    return replies, router.stats(), sink.packets_received

        replies, stats, received = asyncio.run(scenario())
        assert stats["backpressure_retries"] >= 1
        assert sum(len(r.packets) for r in replies) == len(packets)
        # The pre-filled packet plus the batch, each exactly once.
        assert received == len(packets) + 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_backpressure_retries"):
            ShardRouter(
                ShardRing([0]),
                {},
                REGION_KEY,
                FMT,
                max_backpressure_retries=-1,
            )


def key_owned_by(ring: ShardRing, shard_id: int) -> bytes:
    """Deterministically find a key the ring assigns to ``shard_id``."""
    for i in range(10_000):
        key = f"probe-{i}".encode()
        if ring.shard_for(key) == shard_id:
            return key
    raise AssertionError(f"no probe key lands on shard {shard_id}")


class TestWrongShardReroute:
    def test_stale_split_reroutes_to_current_owner(self, workload):
        """A WRONG_SHARD reply makes the router re-derive ownership.

        Simulates a membership change landing between the router's split
        and the server's ownership check: shard 0's ``owns`` rejects the
        batch (it no longer owns those keys) and the shared key view
        flips, so the router's re-split sends everything to shard 1 --
        exactly once, because the rejecting server never submitted a
        packet.
        """
        packets = all_packets(workload)
        ring = ShardRing([0, 1])
        old_key = key_owned_by(ring, 0)
        new_key = key_owned_by(ring, 1)
        view = {"stale": True}

        def shifting_key(packet):
            # One key for the whole stream; its owner changes mid-flight.
            return old_key if view["stale"] else new_key

        def owns_0(packet):
            view["stale"] = False  # the membership change "lands"
            return False

        async def scenario():
            sink0, sink1 = make_sink(workload), make_sink(workload)
            with SinkIngestService(sink0, capacity=64) as service0:
                with SinkIngestService(sink1, capacity=64) as service1:
                    async with SinkServer(service0, FMT, owns=owns_0) as s0:
                        async with SinkServer(
                            service1, FMT, owns=lambda p: True
                        ) as s1:
                            c0 = SinkClient("127.0.0.1", s0.port)
                            c1 = SinkClient("127.0.0.1", s1.port)
                            await c0.connect()
                            await c1.connect()
                            router = ShardRouter(
                                ring, {0: c0, 1: c1}, shifting_key, FMT
                            )
                            try:
                                replies = await router.send_batch(packets, 1)
                            finally:
                                await c0.close()
                                await c1.close()
                            await s0.wait_idle()
                            await s1.wait_idle()
                            stats0 = s0.stats()
                    service0.flush()
                    service1.flush()
                    return (
                        replies,
                        router.stats(),
                        stats0,
                        sink0.packets_received,
                        sink1.packets_received,
                    )

        replies, stats, stats0, got0, got1 = asyncio.run(scenario())
        assert stats["wrong_shard_reroutes"] == 1
        assert stats0["batches_wrong_shard"] == 1
        # Every packet landed exactly once, all on the new owner.
        assert got0 == 0
        assert got1 == len(packets)
        assert sum(len(r.packets) for r in replies) == len(packets)

    def test_persistent_disagreement_raises_instead_of_livelocking(
        self, workload
    ):
        """A bounded reroute budget turns a ring/ownership split-brain
        into a typed error.

        The shard's ``owns`` always refuses while the router's ring keeps
        assigning it the same keys — the re-split lands on the same shard
        every time, so without a cap ``send_batch`` would resend forever.
        """
        packets = all_packets(workload)

        async def scenario():
            sink = make_sink(workload)
            with SinkIngestService(sink, capacity=64) as service:
                async with SinkServer(
                    service, FMT, owns=lambda packet: False
                ) as server:
                    client = SinkClient("127.0.0.1", server.port)
                    await client.connect()
                    router = ShardRouter(
                        ShardRing([0]),
                        {0: client},
                        REGION_KEY,
                        FMT,
                        max_wrong_shard_reroutes=3,
                    )
                    try:
                        with pytest.raises(WrongShardError):
                            await router.send_batch(packets, 1)
                    finally:
                        await client.close()
                service.flush()
                return router.stats(), sink.packets_received

        stats, received = asyncio.run(scenario())
        assert stats["wrong_shard_reroutes"] == 3
        assert received == 0  # WRONG_SHARD rejects before submitting

    def test_negative_reroute_budget_rejected(self):
        with pytest.raises(ValueError, match="max_wrong_shard_reroutes"):
            ShardRouter(
                ShardRing([0]),
                {},
                REGION_KEY,
                FMT,
                max_wrong_shard_reroutes=-1,
            )


class TestFailover:
    def test_crash_discovered_on_send_and_journal_replayed(self, workload):
        topology, keystore, batches, _sources = workload

        async def scenario():
            cluster = LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                shard_ids=[0, 1],
                shard_key=REGION_KEY,
            )
            async with cluster:
                half = len(batches) // 2
                for chunk, delivering in batches[:half]:
                    await cluster.send(chunk, delivering)
                # Kill whichever shard acked traffic so the replay path
                # actually has journal entries to move.
                victim = max(
                    cluster.journal, key=lambda sid: len(cluster.journal[sid])
                )
                await cluster.crash_shard(victim)
                for chunk, delivering in batches[half:]:
                    await cluster.send(chunk, delivering)
                summaries = await cluster.collect()
                stats = cluster.stats()
            return victim, summaries, stats

        victim, summaries, stats = asyncio.run(scenario())
        assert victim not in summaries
        assert stats["shards_lost"] == 1
        assert stats["router"]["failovers"] == 1
        assert stats["replayed_batches"] > 0
        # Exactly-once: the survivors hold every acknowledged packet.
        assert (
            sum(s.packets_received for s in summaries.values()) == PACKETS
        )

    def test_last_shard_down_raises(self, workload):
        topology, keystore, batches, _sources = workload

        async def scenario():
            cluster = LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                shard_ids=[0],
                shard_key=REGION_KEY,
            )
            async with cluster:
                await cluster.crash_shard(0)
                chunk, delivering = batches[0]
                with pytest.raises(ShardDownError):
                    await cluster.send(chunk, delivering)

        asyncio.run(scenario())


class TestCheckpoint:
    def test_checkpoint_drops_journal_and_skips_replay(self, workload):
        """After a checkpoint, a shard death replays nothing older.

        The checkpoint contract: the caller has durably collected the
        cluster's evidence, so the journal may be dropped — and a shard
        that dies afterwards loses its pre-checkpoint contribution from
        future merges (it lives only in what the caller persisted).
        """
        topology, keystore, batches, _sources = workload

        async def scenario():
            cluster = LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                shard_ids=[0, 1],
                shard_key=REGION_KEY,
            )
            async with cluster:
                for chunk, delivering in batches:
                    await cluster.send(chunk, delivering)
                victim = max(
                    cluster.journal, key=lambda sid: len(cluster.journal[sid])
                )
                victim_acked = sum(
                    len(chunk) for chunk, _, _ in cluster.journal[victim]
                )
                dropped = cluster.checkpoint()
                remaining = sum(
                    len(entries) for entries in cluster.journal.values()
                )
                await cluster.crash_shard(victim)
                summaries = await cluster.collect()
                stats = cluster.stats()
            return dropped, remaining, victim_acked, summaries, stats

        dropped, remaining, victim_acked, summaries, stats = asyncio.run(
            scenario()
        )
        assert dropped > 0
        assert remaining == 0
        assert victim_acked > 0
        # Nothing replays: the journal was compacted away.
        assert stats["replayed_batches"] == 0
        # The survivors hold exactly the packets the victim never acked.
        assert (
            sum(s.packets_received for s in summaries.values())
            == PACKETS - victim_acked
        )


class TestProbe:
    def test_probe_reports_liveness_without_mutating_ring(self, workload):
        topology, keystore, _batches, _sources = workload

        async def scenario():
            cluster = LocalCluster(
                make_sink_factory(topology, keystore),
                FMT,
                shard_ids=[0, 1],
                shard_key=REGION_KEY,
            )
            async with cluster:
                await cluster.crash_shard(0)
                health = await cluster.router.probe(timeout=0.5)
                ring_after = cluster.ring.shard_ids
            return health, ring_after

        health, ring_after = asyncio.run(scenario())
        assert health == {0: False, 1: True}
        assert ring_after == [0, 1]  # probing never mutates the ring
