"""One metrics store, two exact scopes.

Components keep their counts in their own attributes and register their
``stats()`` with their obs provider once; the registry reads them there.
Pinned here:

* per provider, every ``<prefix>_<key>`` gauge is the sum of that key
  over every component registered with the provider -- two ingest
  services sharing one provider add up instead of the last one winning;
* per shard, a cluster built with ``shard_obs_factory`` serves each
  shard's own counts over the TELEMETRY frame;
* per instance, ``stats()`` reads the same with or without a live
  provider.
"""

import asyncio

from repro.cluster.harness import LocalCluster
from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.marking.pnm import PNMMarking
from repro.obs import NOOP, MetricsRegistry, ObsProvider
from repro.service import SinkIngestService

FMT = PNMMarking(mark_prob=1.0).fmt


def int_series(prefix: str, stats: dict) -> dict[str, int]:
    """The gauges a registered ``stats()`` dict exports."""
    return {
        f"{prefix}_{key}": value
        for key, value in stats.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def service_series(service: SinkIngestService) -> dict[str, int]:
    return {
        **int_series("ingest", vars(service.stats())),
        **int_series("ingest_queue", service.queue.stats()),
        **int_series("resolver_cache", service.cache.stats()),
    }


def gauges(snapshot: dict) -> dict[str, float]:
    """Unlabeled gauge values of a registry snapshot, by name."""
    return {
        entry["name"]: entry["series"][0]["value"]
        for entry in snapshot["metrics"]
        if entry["kind"] == "gauge" and not entry["label_names"]
    }


def instance_stats(service: SinkIngestService) -> dict:
    """Everything ``stats()`` reports except wall-clock latency."""
    stats = vars(service.stats()).copy()
    del stats["verify_latency"]
    return stats


def drive_two_services(obs) -> tuple[SinkIngestService, SinkIngestService]:
    """Two services on ``obs``: one drains everything, one sheds a batch."""
    topology, keystore, batches, _ = build_cluster_workload(
        8, 12, sources=2, batch_size=3
    )
    factory = make_sink_factory(topology, keystore)
    roomy = SinkIngestService(factory(), obs=obs)
    tight = SinkIngestService(factory(), capacity=4, obs=obs)
    for packets, delivering in batches:
        roomy.submit_batch(packets, delivering)
        roomy.process_batch()
    for packets, delivering in batches[:2]:
        tight.submit_batch(packets, delivering)  # the second one is shed
    tight.process_batch(max_packets=2)
    return roomy, tight


class TestProviderScope:
    def test_two_services_sum_on_one_provider(self):
        provider = ObsProvider()
        roomy, tight = drive_two_services(provider)
        assert tight.stats().dropped == 3
        assert tight.queue.depth == 1

        read = gauges(provider.registry.snapshot())
        first, second = service_series(roomy), service_series(tight)
        assert first.keys() == second.keys()
        assert any(name.startswith("ingest_queue_") for name in first)
        assert any(name.startswith("resolver_cache_") for name in first)
        for name in sorted(first):
            assert read[name] == first[name] + second[name], name

    def test_each_instance_reads_as_without_a_provider(self):
        observed = drive_two_services(ObsProvider())
        bare = drive_two_services(NOOP)
        for live, plain in zip(observed, bare):
            assert instance_stats(live) == instance_stats(plain)

    def test_every_read_sees_the_current_counts(self):
        registry = MetricsRegistry()
        counts = {"hits": 1, "rate": 0.5, "open": True}
        registry.register_stats("demo", lambda: counts)
        registry.register_stats("demo", lambda: {"hits": 2})
        assert registry.get("demo_hits").get() == 3
        counts["hits"] = 10
        assert registry.gauge("demo_hits").get() == 12
        # Floats and bools are not exported.
        assert registry.names() == ["demo_hits"]

    def test_registering_one_source_twice_counts_it_once(self):
        registry = MetricsRegistry()
        source = {"hits": 4}
        registry.register_stats("demo", source.copy)
        registry.register_stats("demo", source.copy)
        assert registry.get("demo_hits").get() == 4


def run_cluster_scope(shard_obs_factory, obs=None):
    topology, keystore, batches, _ = build_cluster_workload(8, 16, sources=4)

    async def scenario():
        async with LocalCluster(
            make_sink_factory(topology, keystore),
            FMT,
            [0, 1],
            obs=obs,
            shard_obs_factory=shard_obs_factory,
        ) as cluster:
            await cluster.run_schedule(batches)
            telemetry = await cluster.fetch_telemetry()
            shards = {
                sid: (
                    service_series(handle.service),
                    int_series("wire_server", handle.server.stats()),
                    instance_stats(handle.service),
                    handle.server.stats(),
                )
                for sid, handle in sorted(cluster.handles.items())
            }
            cluster_read = gauges(cluster.obs.registry.snapshot()) if obs else {}
            expected_cluster = {
                **int_series("cluster_router", cluster.router.stats()),
                "cluster_shards_live": len(cluster.handles),
                "cluster_journal_batches": cluster.journal_batches,
            }
            return telemetry, shards, cluster_read, expected_cluster

    return asyncio.run(scenario())


class TestShardScope:
    def test_each_shard_serves_its_own_counts(self):
        telemetry, shards, cluster_read, expected_cluster = run_cluster_scope(
            lambda _sid: ObsProvider(), obs=ObsProvider()
        )
        assert sorted(telemetry) == [0, 1]
        for sid, (service_counts, server_counts, _, _) in shards.items():
            read = gauges(telemetry[sid])
            expected = {**service_counts, **server_counts}
            assert expected["ingest_processed"] > 0
            assert {name: read[name] for name in expected} == expected
        assert expected_cluster["cluster_journal_batches"] > 0
        assert {name: cluster_read[name] for name in expected_cluster} == (
            expected_cluster
        )

    def test_shard_stats_read_as_without_providers(self):
        _, observed, _, _ = run_cluster_scope(lambda _sid: ObsProvider())
        _, bare, _, _ = run_cluster_scope(None)
        for sid in sorted(bare):
            assert observed[sid][2:] == bare[sid][2:]
