"""``pnm-cluster``: serve, smoke-test or poll the sharded sink cluster.

Examples::

    pnm-cluster serve --shards 4 --port 7450 --grid-side 16
    pnm-cluster serve --shards 1       # the single-sink server
    pnm-cluster smoke                  # loopback clusters vs single sink
    pnm-cluster status --port 7450 --shards 4

``serve`` builds one PNM deployment (grid topology, keys derived from
``--master-secret``) and serves ``--shards`` sink shards on consecutive
TCP ports, each owning its :class:`~repro.cluster.ring.ShardRing` slice,
until interrupted.  ``smoke`` proves the networked tier in one process:
it drives the same interleaved multi-source stream through a bare
loopback cluster, a cluster with per-shard telemetry, and a plain
in-process :class:`~repro.traceback.sink.TracebackSink`, and exits 0 iff
both clusters' merged verdict and accusation report are byte-identical
to the single sink's (canonical JSON), the federated snapshot carries
every shard label, and no shard was failed over.  ``status`` polls a
live cluster's TELEMETRY frames, federates the snapshots and prints the
paper-metric SLO view (docs/observability.md).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections.abc import Callable

from repro.cluster.coordinator import report_json, verdict_json
from repro.cluster.harness import ClusterResult, run_cluster
from repro.cluster.ring import ShardRing, region_shard_key, report_shard_key
from repro.core.build import deploy
from repro.experiments.cluster_sweep import (
    build_cluster_workload,
    make_sink_factory,
)
from repro.faults.attribution import DropAttribution, accusation_report
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology
from repro.obs.profiling import ObsProvider
from repro.obs.spans import Tracer
from repro.obs.telemetry import (
    compute_cluster_slo,
    federate_snapshots,
    format_status,
)
from repro.service.ingest import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.client import SinkClient
from repro.wire.errors import WireError
from repro.wire.server import SinkServer

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnm-cluster",
        description="Serve the PNM traceback sink as a sharded cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="run N sink shards on consecutive ports"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7450, help="first shard's port"
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--grid-side", type=int, default=16)
    serve.add_argument("--mark-prob", type=float, default=1.0)
    serve.add_argument(
        "--master-secret",
        default="pnm-cluster",
        help="master secret the per-node keys derive from",
    )
    serve.add_argument("--capacity", type=int, default=1024)

    smoke = sub.add_parser(
        "smoke",
        help=(
            "bare and telemetry-attached loopback clusters vs one sink; "
            "exit 0 iff byte-identical, every shard reports, no failover"
        ),
    )
    # Grid 10 with 4 source regions splits traffic 16/16 across the two
    # default shards (sha256 placement is deterministic), so the smoke
    # exercises routing, not just one shard's ingest path.
    smoke.add_argument("--grid-side", type=int, default=10)
    smoke.add_argument("--packets", type=int, default=32)
    smoke.add_argument("--shards", type=int, default=2)

    status = sub.add_parser(
        "status",
        help="poll a live cluster's TELEMETRY frames; print the SLO view",
    )
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument(
        "--port", type=int, default=7450, help="first shard's port"
    )
    status.add_argument("--shards", type=int, default=2)
    status.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the SLO payload as canonical JSON",
    )

    return parser


async def _serve(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("pnm-cluster: --shards must be >= 1", file=sys.stderr)
        return 2
    scheme = PNMMarking(mark_prob=args.mark_prob)
    topology = grid_topology(args.grid_side, args.grid_side)
    dep = deploy(topology, args.master_secret.encode("utf-8"), "cluster")
    ring = ShardRing(range(args.shards))
    shard_key = report_shard_key

    servers: list[SinkServer] = []
    services: list[SinkIngestService] = []
    try:
        for shard_id in range(args.shards):
            # Each shard reports into its own registry so a TELEMETRY
            # poll (``pnm-cluster status``) sees per-shard health.
            provider = ObsProvider()
            sink = TracebackSink(
                scheme, dep.keystore, dep.provider, topology, obs=provider
            )
            service = SinkIngestService(
                sink, capacity=args.capacity, obs=provider
            )

            def owns(packet, sid=shard_id):
                return ring.shard_for(shard_key(packet)) == sid

            server = SinkServer(
                service,
                scheme.fmt,
                host=args.host,
                port=args.port + shard_id,
                owns=owns,
            )
            await server.start()
            services.append(service)
            servers.append(server)
            print(
                f"pnm-cluster: shard {shard_id} listening on "
                f"{args.host}:{server.port}"
            )
        print(
            f"pnm-cluster: {args.shards} shards up "
            f"({args.grid_side}x{args.grid_side} grid)"
        )
        await asyncio.gather(
            *(server.serve_forever() for server in servers)
        )
    except asyncio.CancelledError:
        pass
    finally:
        for server in servers:
            await server.close()
        for service in services:
            service.close(drain=False)
    return 0


def _smoke(args: argparse.Namespace) -> int:
    topology, keystore, batches, _sources = build_cluster_workload(
        args.grid_side, args.packets, sources=4
    )
    sink_factory = make_sink_factory(topology, keystore)
    attribution = DropAttribution()

    # Reference: one plain in-process sink fed the identical stream.
    reference = sink_factory()
    for chunk, delivering in batches:
        for packet in chunk:
            reference.receive(packet, delivering)
    expected = (
        verdict_json(reference.verdict()),
        report_json(accusation_report(reference.evidence(), topology, attribution)),
    )

    def cluster(
        shard_obs_factory: Callable[[int], ObsProvider] | None = None,
    ) -> ClusterResult:
        return run_cluster(
            sink_factory,
            PNMMarking(mark_prob=1.0).fmt,
            topology,
            batches,
            shard_ids=range(args.shards),
            shard_key=region_shard_key(cell_size=1.0),
            shard_obs_factory=shard_obs_factory,
        )

    # Same schedule twice: bare, then with a per-shard provider (own
    # registry, own tracer with a shard-unique span-id prefix).
    runs = {
        "bare": cluster(),
        "observed": cluster(
            lambda sid: ObsProvider(tracer=Tracer(id_prefix=f"sh{sid}-"))
        ),
    }
    failures = []
    for name, result in runs.items():
        got = (
            verdict_json(result.verdict),
            report_json(accusation_report(result.evidence, topology, attribution)),
        )
        if got != expected:
            failures.append(
                f"{name} cluster diverged from the single sink: "
                f"verdict {got[0]} vs {expected[0]}, "
                f"report {got[1]} vs {expected[1]}"
            )
        # collect() PINGs every shard; a shard that missed it was failed
        # over and its journal replayed, which still merges to the right
        # verdict, so only these counters show it.
        churn = {
            "failovers": result.stats["router"]["failovers"],
            "shards_lost": result.stats["shards_lost"],
            "replayed_batches": result.stats["replayed_batches"],
        }
        if any(churn.values()):
            failures.append(f"{name} cluster failed a shard over: {churn}")

    observed = runs["observed"]
    slo = compute_cluster_slo(
        federate_snapshots(observed.telemetry),
        verdict=observed.verdict,
        router_stats=observed.stats["router"],
    )
    print(format_status(slo))
    missing = {str(sid) for sid in range(args.shards)} - {
        shard.shard_id for shard in slo.shards
    }
    if missing:
        failures.append(
            f"federated snapshot misses shard labels {sorted(missing)}"
        )

    total = sum(len(chunk) for chunk, _ in batches)
    print(
        f"smoke: {'FAIL' if failures else 'OK'} -- {total} packets over "
        f"{args.shards} shards, bare and observed clusters vs one sink"
    )
    for failure in failures:
        print(f"smoke: {failure}", file=sys.stderr)
    return 1 if failures else 0


async def _status(args: argparse.Namespace) -> int:
    """Poll every shard's TELEMETRY frame; federate and print the SLOs.

    Exit 0 only when every expected shard answered -- a partial view is
    still printed (the reachable shards' rows), but flagged non-zero so
    monitoring catches the hole.
    """
    snapshots: dict[int, dict] = {}
    health: dict[int, bool] = {}
    for shard_id in range(args.shards):
        client = SinkClient(args.host, args.port + shard_id)
        try:
            await client.connect()
            await client.health_check()
            snapshots[shard_id] = await client.fetch_telemetry()
            health[shard_id] = True
        except (WireError, ConnectionError, OSError) as exc:
            health[shard_id] = False
            print(
                f"pnm-cluster: shard {shard_id} "
                f"({args.host}:{args.port + shard_id}) unreachable: {exc}",
                file=sys.stderr,
            )
        finally:
            await client.close()
    if not snapshots:
        print("pnm-cluster: no shards reachable", file=sys.stderr)
        return 1
    federated = federate_snapshots(snapshots)
    slo = compute_cluster_slo(federated)
    if args.as_json:
        payload = slo.as_dict()
        payload["shards_up"] = {
            str(shard_id): up for shard_id, up in sorted(health.items())
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(format_status(slo))
        down = sorted(sid for sid, up in health.items() if not up)
        if down:
            print(f"  unreachable shards: {down}")
    return 0 if all(health.values()) else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve(args))
    if args.command == "status":
        return asyncio.run(_status(args))
    return _smoke(args)


if __name__ == "__main__":
    sys.exit(main())
