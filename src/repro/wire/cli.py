"""``pnm-serve``: run (or smoke-test) the networked traceback sink.

Examples::

    pnm-serve serve --grid-side 16 --port 7440
    pnm-serve smoke                   # loopback end-to-end check (CI)

``serve`` builds a PNM deployment (grid topology, per-node keys derived
from ``--master-secret``), wraps the sink in the ingest pipeline, and
serves it over TCP until interrupted.  ``smoke`` proves the whole path in
one process: it starts a server on an ephemeral loopback port, pushes a
marked-packet batch through a :class:`~repro.wire.client.SinkClient`,
and asserts the wire verdict matches feeding the same packets to a
:class:`~repro.traceback.sink.TracebackSink` in-process.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.marking.pnm import PNMMarking
from repro.net.topology import grid_topology
from repro.service.ingest import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.loopback import run_loopback
from repro.wire.server import DEFAULT_RETRY_AFTER_MS, SinkServer

__all__ = ["main", "build_deployment"]


def build_deployment(
    grid_side: int,
    master_secret: bytes,
    mark_prob: float = 1.0,
    capacity: int = 1024,
) -> tuple[SinkIngestService, PNMMarking]:
    """A PNM grid deployment wrapped in an ingest service.

    Returns:
        ``(service, scheme)``; the scheme's ``fmt`` is what the server
        must advertise.
    """
    scheme = PNMMarking(mark_prob=mark_prob)
    topology = grid_topology(grid_side, grid_side)
    keystore = KeyStore.from_master_secret(master_secret, topology.sensor_nodes())
    sink = TracebackSink(scheme, keystore, HmacProvider(), topology)
    service = SinkIngestService(sink, capacity=capacity)
    return service, scheme


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnm-serve",
        description="Serve the PNM traceback sink over the binary wire protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a sink server until interrupted")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7440)
    serve.add_argument("--grid-side", type=int, default=16)
    serve.add_argument("--mark-prob", type=float, default=1.0)
    serve.add_argument(
        "--master-secret",
        default="pnm-serve",
        help="master secret the per-node keys derive from",
    )
    serve.add_argument("--capacity", type=int, default=1024)
    serve.add_argument(
        "--retry-after-ms", type=int, default=DEFAULT_RETRY_AFTER_MS
    )

    smoke = sub.add_parser(
        "smoke", help="loopback end-to-end check; exit 0 iff verdicts match"
    )
    smoke.add_argument("--grid-side", type=int, default=8)
    smoke.add_argument("--packets", type=int, default=24)
    return parser


async def _serve(args: argparse.Namespace) -> int:
    service, scheme = build_deployment(
        args.grid_side,
        args.master_secret.encode("utf-8"),
        mark_prob=args.mark_prob,
        capacity=args.capacity,
    )
    server = SinkServer(
        service,
        scheme.fmt,
        host=args.host,
        port=args.port,
        retry_after_ms=args.retry_after_ms,
    )
    await server.start()
    print(
        f"pnm-serve: listening on {args.host}:{server.port} "
        f"({args.grid_side}x{args.grid_side} grid)"
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
        service.close(drain=False)
    return 0


def _smoke(args: argparse.Namespace) -> int:
    # Local import: experiments depend on wire (wire_sweep), so the CLI
    # pulls the workload builder lazily to keep imports acyclic.
    from repro.experiments.service_sweep import build_workload

    topology, keystore, stream, delivering = build_workload(
        args.grid_side, args.packets
    )
    scheme = PNMMarking(mark_prob=1.0)
    provider = HmacProvider()

    reference = TracebackSink(scheme, keystore, provider, topology)
    for packet in stream:
        reference.receive(packet, delivering)
    expected = reference.verdict()

    sink = TracebackSink(scheme, keystore, provider, topology)
    service = SinkIngestService(sink, capacity=len(stream))
    try:
        result = run_loopback(
            service, scheme.fmt, [(stream, delivering)], ping=True
        )
    finally:
        service.close(drain=False)

    wire_verdict = result.final_verdict
    expected_suspect = expected.suspect
    ok = (
        result.ping_echo == b"pnm"
        and wire_verdict.identified == expected.identified
        and wire_verdict.packets_used == expected.packets_used
        and wire_verdict.suspect_neighborhood() == expected_suspect
    )
    status = "OK" if ok else "MISMATCH"
    suspect = wire_verdict.suspect_center
    print(
        f"serve-smoke: {status} -- {len(stream)} packets over loopback, "
        f"identified={wire_verdict.identified}, suspect center={suspect}, "
        f"server stats={result.server_stats}"
    )
    if not ok:
        print(
            f"serve-smoke: expected identified={expected.identified}, "
            f"suspect={expected_suspect}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve(args))
    return _smoke(args)


if __name__ == "__main__":
    sys.exit(main())
