"""Sharded sink cluster: consistent-hash routing plus exact verdict merge.

The paper's sink brute-forces anonymous IDs per report (Section 4.2);
one process cannot do that for the ROADMAP's million-node deployments.
This package scales the networked sink of :mod:`repro.wire` horizontally
without weakening any correctness property:

* :class:`~repro.cluster.ring.ShardRing` -- deterministic consistent
  hashing of report keys across shards, so each shard's resolver only
  ever works a slice of the key table (partitioning the brute-force
  work instead of duplicating it);
* :class:`~repro.cluster.router.ShardRouter` -- the client side:
  splits batches by ownership, absorbs backpressure via server retry
  hints, re-routes on stale-ring rejections, and fails over when a
  shard dies;
* :class:`~repro.cluster.coordinator.ClusterCoordinator` -- merges the
  shards' raw evidence (never their partial verdicts) and runs the
  *single-sink* verdict function over the union, which is why the
  merged answer is byte-identical to one big sink's;
* :class:`~repro.cluster.harness.LocalCluster` -- a loopback cluster
  with journal-replay rebalancing driven by :mod:`repro.faults` churn
  schedules, backing the equivalence tests, the ``cluster-sweep``
  experiment and the ``pnm-cluster`` CLI.

See docs/cluster.md for the ring layout, the rebalance protocol, and
the failure-semantics argument.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    merge_evidence,
    report_json,
    verdict_json,
)
from repro.cluster.harness import (
    ClusterResult,
    JournalEntry,
    LocalCluster,
    ShardHandle,
    run_cluster,
)
from repro.cluster.ring import (
    DEFAULT_VNODES,
    ShardRing,
    region_shard_key,
    report_shard_key,
)
from repro.cluster.router import ShardDownError, ShardReply, ShardRouter

__all__ = [
    "ShardRing",
    "DEFAULT_VNODES",
    "report_shard_key",
    "region_shard_key",
    "ShardRouter",
    "ShardReply",
    "ShardDownError",
    "ClusterCoordinator",
    "merge_evidence",
    "verdict_json",
    "report_json",
    "ShardHandle",
    "JournalEntry",
    "LocalCluster",
    "ClusterResult",
    "run_cluster",
]
