"""Metrics federation: per-shard registry snapshots into one registry.

Each shard serves its own :class:`~repro.obs.registry.MetricsRegistry`
over the TELEMETRY wire frame
(:func:`~repro.wire.messages.encode_telemetry`); the polling side
(``pnm-cluster``, ``cluster-sweep``) merges the snapshots here by
*prepending a ``shard`` label* to every series, so
nothing is summed away -- a federated registry holds exactly the union
of the shards' series, distinguishable per shard and still exportable
through the ordinary Prometheus/JSON exporters.

Federation is lossless and deterministic: shard ids are processed in
sorted order, snapshots are the registry's own canonical form, and
federating the same snapshots twice yields byte-identical exports.  It
is also a pure read path -- snapshots are consumed, never written back
to a shard -- which is what keeps telemetry observation-only.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.obs.registry import MetricsRegistry

__all__ = ["SHARD_LABEL", "federate_snapshots"]

#: The label federation prepends to every series to name its shard.
SHARD_LABEL = "shard"


def federate_snapshots(
    per_shard: Mapping[int | str, dict[str, Any]],
) -> MetricsRegistry:
    """Merge per-shard registry snapshots into one shard-labeled registry.

    Each shard's entries are relabeled (``shard`` first) and the lot is
    loaded through :meth:`~repro.obs.registry.MetricsRegistry.load_snapshot`,
    whose get-or-create on a repeated name is what merges the shards.

    Args:
        per_shard: shard id -> the shard's
            :meth:`~repro.obs.registry.MetricsRegistry.snapshot` dict.

    Returns:
        A registry in which every instrument carries the shards' label
        names with :data:`SHARD_LABEL` prepended, and every series the
        originating shard id (as a string) as its first label value.

    Raises:
        ValueError: when two shards disagree about an instrument's kind
            or label names (a version-skewed deployment), or a snapshot
            names :data:`SHARD_LABEL` itself.
    """
    metrics = []
    for shard_id in sorted(per_shard, key=str):
        shard_value = str(shard_id)
        for entry in per_shard[shard_id].get("metrics", []):
            labels = entry.get("label_names", [])
            if SHARD_LABEL in labels:
                raise ValueError(
                    f"metric {entry['name']!r} from shard {shard_value} "
                    f"already carries a {SHARD_LABEL!r} label; federation "
                    "cannot disambiguate it"
                )
            series = [
                {**row, "labels": [shard_value, *row["labels"]]}
                for row in entry.get("series", [])
            ]
            metrics.append(
                {**entry, "label_names": [SHARD_LABEL, *labels], "series": series}
            )
    return MetricsRegistry.load_snapshot({"metrics": metrics})
