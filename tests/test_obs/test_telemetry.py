"""Telemetry federation and paper-metric SLO derivation.

Two contracts pinned here:

* federation is *lossless and deterministic* -- per-shard registry
  snapshots merge under a leading ``shard`` label with every value
  (including histogram buckets) intact, in sorted shard order, so equal
  inputs always export equal bytes;
* the SLO layer is a *pure function* of the federated registry plus the
  coordinator-side inputs -- no clocks, no I/O, no registry mutation.
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs.exporters import to_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    SHARD_LABEL,
    compute_cluster_slo,
    federate_snapshots,
    format_status,
)


def shard_registry(ingested: int = 0, queue: int = 0) -> MetricsRegistry:
    registry = MetricsRegistry()
    if ingested:
        registry.counter("sink_packets_ingested_total").inc(ingested)
    registry.gauge("ingest_queue_depth").set(queue)
    return registry


def slo_snapshot(
    *,
    ingested: int,
    queue: int = 0,
    verdicts: int = 0,
    errors: int = 0,
    shed: int = 0,
    wrong: int = 0,
    bytes_rx: int = 0,
) -> dict:
    """A registry snapshot with the series the SLO layer reads."""
    registry = shard_registry(ingested, queue)
    frames = registry.counter("wire_frames_tx_total", label_names=("frame",))
    if verdicts:
        frames.inc(verdicts, frame="VERDICT")
    if errors:
        frames.inc(errors, frame="ERROR")
    if shed:
        registry.gauge("wire_server_batches_shed").set(shed)
    if wrong:
        registry.gauge("wire_server_batches_wrong_shard").set(wrong)
    if bytes_rx:
        registry.counter(
            "wire_bytes_rx_total", label_names=("frame",)
        ).inc(bytes_rx, frame="BATCH")
    return registry.snapshot()


def canonical(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


class TestFederateSnapshots:
    def test_counter_and_gauge_values_survive_per_shard(self):
        federated = federate_snapshots(
            {
                0: shard_registry(ingested=7, queue=2).snapshot(),
                1: shard_registry(ingested=11, queue=5).snapshot(),
            }
        )
        counter = federated.get("sink_packets_ingested_total")
        assert counter.get(shard="0") == 7
        assert counter.get(shard="1") == 11
        gauge = federated.get("ingest_queue_depth")
        assert gauge.get(shard="0") == 2
        assert gauge.get(shard="1") == 5

    def test_labeled_series_keep_their_labels_behind_shard(self):
        registry = MetricsRegistry()
        frames = registry.counter("frames_total", label_names=("frame",))
        frames.inc(3, frame="BATCH")
        frames.inc(1, frame="PING")
        federated = federate_snapshots({9: registry.snapshot()})
        instrument = federated.get("frames_total")
        assert instrument.label_names == (SHARD_LABEL, "frame")
        assert instrument.get(shard="9", frame="BATCH") == 3
        assert instrument.get(shard="9", frame="PING") == 1

    def test_histogram_buckets_round_trip_losslessly(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("verify_seconds", "latency")
        for value in (1e-6, 3e-4, 0.002, 0.002, 1.5):
            histogram.observe(value)
        original = registry.snapshot()["metrics"][0]["series"][0]

        federated = federate_snapshots({0: registry.snapshot()})
        entry = next(
            e
            for e in federated.snapshot()["metrics"]
            if e["name"] == "verify_seconds"
        )
        assert entry["label_names"][0] == SHARD_LABEL
        series = entry["series"][0]
        assert series["labels"][0] == "0"
        for field in ("bucket_counts", "count", "total", "min", "max"):
            assert series[field] == original[field]

    def test_every_instrument_leads_with_the_shard_label(self):
        federated = federate_snapshots(
            {
                0: slo_snapshot(ingested=3, verdicts=2, shed=1),
                1: slo_snapshot(ingested=5, verdicts=4, bytes_rx=64),
            }
        )
        for entry in federated.snapshot()["metrics"]:
            assert entry["label_names"][0] == SHARD_LABEL
            for series in entry["series"]:
                assert series["labels"][0] in {"0", "1"}

    def test_deterministic_regardless_of_mapping_order(self):
        a = shard_registry(ingested=7).snapshot()
        b = shard_registry(ingested=11).snapshot()
        forward = federate_snapshots({0: a, 1: b})
        backward = federate_snapshots({1: b, 0: a})
        assert canonical(forward.snapshot()) == canonical(backward.snapshot())
        assert to_prometheus_text(forward) == to_prometheus_text(backward)

    def test_rejects_snapshots_already_carrying_a_shard_label(self):
        registry = MetricsRegistry()
        registry.counter("x_total", label_names=(SHARD_LABEL,)).inc(1, shard="0")
        with pytest.raises(ValueError, match="already carries"):
            federate_snapshots({0: registry.snapshot()})

    def test_rejects_unknown_instrument_kinds(self):
        snapshot = {"metrics": [{"name": "x", "kind": "summary", "series": []}]}
        with pytest.raises(ValueError, match="unknown instrument kind"):
            federate_snapshots({0: snapshot})

    @pytest.mark.parametrize(
        ("make_other", "message"),
        [
            (lambda r: r.gauge("x_total"), "already registered as a counter"),
            (lambda r: r.counter("x_total", label_names=("frame",)), "with labels"),
        ],
        ids=["kind", "label-names"],
    )
    def test_rejects_shards_that_disagree(self, make_other, message):
        first = MetricsRegistry()
        first.counter("x_total").inc(1)
        other = MetricsRegistry()
        make_other(other)
        with pytest.raises(ValueError, match=message):
            federate_snapshots({0: first.snapshot(), 1: other.snapshot()})

    def test_empty_input_federates_to_an_empty_registry(self):
        federated = federate_snapshots({})
        assert len(federated) == 0
        assert to_prometheus_text(federated) == ""

    def test_federated_snapshot_is_loadable(self):
        federated = federate_snapshots(
            {0: slo_snapshot(ingested=3, verdicts=2, bytes_rx=10)}
        )
        snapshot = federated.snapshot()
        restored = MetricsRegistry.load_snapshot(snapshot)
        assert restored.snapshot() == snapshot


class TestComputeClusterSlo:
    def federated(self) -> MetricsRegistry:
        return federate_snapshots(
            {
                0: slo_snapshot(
                    ingested=10,
                    queue=2,
                    verdicts=4,
                    errors=3,
                    shed=1,
                    wrong=1,
                    bytes_rx=256,
                ),
                1: slo_snapshot(ingested=6, verdicts=6, bytes_rx=128),
            }
        )

    def test_per_shard_rows_read_off_the_registry(self):
        slo = compute_cluster_slo(self.federated())
        assert [s.shard_id for s in slo.shards] == ["0", "1"]
        shard0 = slo.shards[0]
        assert shard0.packets_ingested == 10
        assert shard0.queue_depth == 2
        # Acked batches count only VERDICT frames, never ERROR replies.
        assert shard0.batches_ok == 4
        assert shard0.batches_shed == 1
        assert shard0.batches_wrong_shard == 1
        assert shard0.backpressure_rate == pytest.approx(1 / 6)
        assert shard0.bytes_rx == 256
        shard1 = slo.shards[1]
        assert shard1.batches_ok == 6
        assert shard1.backpressure_rate == 0.0

    def test_router_stats_and_verdict_fold_in(self):
        slo = compute_cluster_slo(
            self.federated(),
            verdict=SimpleNamespace(identified=True, packets_used=42),
            router_stats={
                "batches_routed": 8,
                "wrong_shard_reroutes": 2,
                "backpressure_retries": 3,
                "failovers": 1,
            },
            accusation_fusion_latency=5.5,
            extra={"note": "x"},
        )
        assert slo.packets_to_conviction == 42
        assert slo.accusation_fusion_latency == 5.5
        assert slo.wrong_shard_reroutes == 2
        assert slo.backpressure_retries == 3
        assert slo.failovers == 1
        assert slo.reroute_rate == pytest.approx(0.25)
        payload = slo.as_dict()
        assert payload["extra"] == {"note": "x"}
        assert json.dumps(payload)  # JSON-ready

    def test_unidentified_verdict_yields_no_conviction_count(self):
        slo = compute_cluster_slo(
            self.federated(),
            verdict=SimpleNamespace(identified=False, packets_used=99),
        )
        assert slo.packets_to_conviction is None

    def test_is_a_pure_read_of_the_registry(self):
        federated = self.federated()
        before = canonical(federated.snapshot())
        compute_cluster_slo(federated)
        assert canonical(federated.snapshot()) == before


class TestFormatStatus:
    def test_renders_shard_rows_and_placeholders(self):
        slo = compute_cluster_slo(
            federate_snapshots({0: slo_snapshot(ingested=10, verdicts=4)})
        )
        text = format_status(slo)
        assert "packets_to_conviction: -" in text
        assert "accusation_fusion_latency: -" in text
        assert "shard" in text  # table header
        assert any(line.split()[:2] == ["0", "10"] for line in text.splitlines())

    def test_renders_conviction_when_identified(self):
        slo = compute_cluster_slo(
            federate_snapshots({}),
            verdict=SimpleNamespace(identified=True, packets_used=17),
        )
        text = format_status(slo)
        assert "packets_to_conviction: 17" in text
        assert "shards: none reporting" in text
