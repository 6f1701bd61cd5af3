"""``SinkServer``: the networked front door of the ingest pipeline.

An asyncio TCP server that reads frames (:mod:`repro.wire.frames`), feeds
decoded batches into an existing
:class:`~repro.service.SinkIngestService`, and answers each batch with
the sink's current verdict.  The transport adds no verification logic of
its own: a batch that reaches the service is byte-for-byte the packets
the client encoded, so the server's verdicts are identical to feeding
the same packets to the sink in-process (the loopback parity test pins
this).

Backpressure is the service's queue, surfaced on the wire: when the
queue cannot take a batch whole, the reply is an ERROR frame with code
``BACKPRESSURE`` and the server's retry-after hint instead of a verdict.
Admission is all-or-nothing (:meth:`SinkIngestService.submit_batch`):
a BACKPRESSURE reply guarantees *nothing* from the batch was ingested,
so clients may safely resend the batch verbatim -- the same
reject-before-submit contract ``WRONG_SHARD`` rejections follow.  A
batch larger than the queue's whole capacity could never be admitted, so
it is answered ``OVERSIZED`` instead -- also before anything is
submitted, and not worth retrying.

Verification runs inline in the event loop, one batch at a time.  That
is deliberate: the short keyed hashes hold the GIL, and the sink's merge
step is serial by contract anyway, so a second thread would buy nothing
but reordering hazards.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import SpanContext, report_key
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.service.ingest import SinkIngestService
from repro.wire.errors import ErrorCode, WireError
from repro.wire.frames import Frame, FrameType
from repro.wire.messages import (
    WireBatch,
    WireErrorInfo,
    WireVerdict,
    decode_batch,
    encode_error,
    encode_summary,
    encode_telemetry,
    encode_verdict,
)
from repro.wire.stream import FrameStream

__all__ = ["SinkServer", "DEFAULT_RETRY_AFTER_MS"]

#: Retry hint sent with BACKPRESSURE errors unless overridden.
DEFAULT_RETRY_AFTER_MS = 50


class SinkServer:
    """Serve a :class:`~repro.service.SinkIngestService` over TCP.

    Args:
        service: the ingest pipeline to feed; its queue provides the
            backpressure semantics, its sink provides the verdicts.
        fmt: the deployment's mark layout.  Batches declaring any other
            layout are rejected with a single clean error instead of
            misparsing every mark boundary.
        host / port: bind address; port 0 picks a free port (see
            :attr:`port` after :meth:`start`).
        retry_after_ms: hint carried by BACKPRESSURE error replies.
        owns: optional ownership predicate for cluster shards.  When set,
            a batch containing any packet for which ``owns(packet)`` is
            False is rejected whole with a ``WRONG_SHARD`` error *before*
            anything is submitted -- the sender's ring view is stale and
            must re-route the entire batch, so partial ingest would
            double-count packets after the resend.
        obs: observability provider; ``None`` inherits the service's, so
            wire counters land in the same registry as ingest counters.
            Registers :meth:`stats` (``wire_server_*``); adds
            ``wire_frames_rx/tx_total`` (labeled by frame type), byte
            counters, a ``wire_decode_seconds`` histogram, and -- when
            tracing -- a ``wire_rx`` span per packet chained into the
            packet's existing trace via its report key.
    """

    def __init__(
        self,
        service: SinkIngestService,
        fmt: MarkFormat,
        host: str = "127.0.0.1",
        port: int = 0,
        retry_after_ms: int = DEFAULT_RETRY_AFTER_MS,
        owns: Callable[[MarkedPacket], bool] | None = None,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        self.service = service
        self.fmt = fmt
        self.host = host
        self._requested_port = port
        self.retry_after_ms = retry_after_ms
        self.owns = owns
        self.obs = service.obs if obs is None else resolve_provider(obs)
        self._server: asyncio.base_events.Server | None = None
        self._conn_seq = 0
        self._conn_writers: dict[int, asyncio.StreamWriter] = {}
        self.connections_active = 0
        self.connections_total = 0
        self.batches_ok = 0
        self.batches_rejected = 0
        self.batches_wrong_shard = 0
        self.batches_shed = 0
        self.packets_shed = 0
        self.decode_errors = 0
        self.obs.register_stats("wire_server", self.stats)

    # Lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("SinkServer already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0)."""
        if self._server is None:
            raise RuntimeError("SinkServer not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def wait_idle(self, polls: int = 1000) -> bool:
        """Yield until every connection handler has finished.

        Returns:
            True when idle; False if handlers were still live after
            ``polls`` scheduling turns (shutdown proceeds regardless).
        """
        for _ in range(polls):
            if self.connections_active == 0:
                return True
            await asyncio.sleep(0.001)
        return self.connections_active == 0

    async def close(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self.wait_idle()
            await self._server.wait_closed()
            self._server = None

    async def abort(self) -> None:
        """Crash-stop: sever every live connection, then close.

        Unlike :meth:`close` -- which stops *accepting* but lets handlers
        drain -- this abruptly aborts each connection's transport, the
        way a crashed shard would look to its peers: mid-stream resets,
        no farewell frames.  The cluster churn harness uses it to make a
        shard failure observable to routers as a connection error.
        """
        for conn_id in sorted(self._conn_writers):
            writer = self._conn_writers.get(conn_id)
            if writer is None:
                continue
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._server is not None:
            self._server.close()
            await self.wait_idle()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "SinkServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.close()

    # Connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        conn_id = self._conn_seq
        self._conn_writers[conn_id] = writer
        self.connections_total += 1
        self.connections_active += 1
        tracer = self.obs.tracer
        conn_span = (
            tracer.start("wire_connection", conn=conn_id)
            if tracer is not None
            else None
        )
        stream = FrameStream(reader, writer, self.obs)
        try:
            while (frame := await stream.read()) is not None:
                if not await self._dispatch(frame, stream, conn_id):
                    return
        except WireError as exc:
            self.decode_errors += 1
            self.obs.inc("wire_decode_errors_total", kind=type(exc).__name__)
            await self._reply_error(
                stream, WireErrorInfo(code=exc.code, message=str(exc))
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            self._conn_writers.pop(conn_id, None)
            self.connections_active -= 1
            if tracer is not None and conn_span is not None:
                tracer.finish(conn_span)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Shutdown may cancel the handler while the transport
                # drains; the connection is going away either way.
                pass

    async def _dispatch(
        self, frame: Frame, stream: FrameStream, conn_id: int
    ) -> bool:
        """Handle one frame; returns False when the connection must close."""
        if frame.frame_type is FrameType.PING:
            await stream.send(FrameType.PING, frame.payload)
            return True
        if frame.frame_type is FrameType.BATCH:
            with self.obs.timer("wire_decode_seconds"):
                batch = decode_batch(frame.payload)
            trace = (
                SpanContext(
                    trace_id=frame.trace.trace_id, span_id=frame.trace.span_id
                )
                if frame.trace is not None
                else None
            )
            await self._ingest_batch(batch, stream, conn_id, trace=trace)
            return True
        if frame.frame_type is FrameType.SUMMARY:
            # Evidence snapshot: flush so the summary covers every batch
            # acknowledged on this connection, then encode the sink state.
            self.service.flush()
            evidence = self.service.sink.evidence()
            await stream.send(FrameType.SUMMARY, encode_summary(evidence))
            return True
        if frame.frame_type is FrameType.TELEMETRY:
            # Metrics snapshot: ship the registry (an empty snapshot
            # when observability is off).  A pure read of the obs side
            # and the counters it reads -- never touches sink state.
            registry = self.obs.registry
            snapshot = (
                registry.snapshot()
                if registry is not None
                else {"metrics": []}
            )
            await stream.send(FrameType.TELEMETRY, encode_telemetry(snapshot))
            return True
        # VERDICT and ERROR only flow sink -> client; anything else a
        # client sends is a protocol violation.
        self.obs.inc("wire_protocol_violations_total")
        await self._reply_error(
            stream,
            WireErrorInfo(
                code=ErrorCode.BAD_FRAME,
                message=f"unexpected {frame.frame_type.name} frame from client",
            ),
        )
        return False

    async def _ingest_batch(
        self,
        batch: WireBatch,
        stream: FrameStream,
        conn_id: int,
        trace: SpanContext | None = None,
    ) -> None:
        if batch.fmt != self.fmt:
            return await self._reject(
                stream,
                ErrorCode.BAD_FRAME,
                f"mark format mismatch: batch declares {batch.fmt}, "
                f"deployment uses {self.fmt}",
            )
        if self.owns is not None:
            foreign = sum(
                1 for packet in batch.packets if not self.owns(packet)
            )
            if foreign:
                self.batches_wrong_shard += 1
                return await self._reject(
                    stream,
                    ErrorCode.WRONG_SHARD,
                    f"{foreign} of {len(batch.packets)} packets "
                    "belong to another shard; re-route the batch",
                )
        if len(batch.packets) > self.service.queue.capacity:
            return await self._reject(
                stream,
                ErrorCode.OVERSIZED,
                f"batch of {len(batch.packets)} packets exceeds the "
                f"ingest queue capacity {self.service.queue.capacity}; "
                "split it",
            )
        tracer = self.obs.tracer
        if tracer is not None:
            for packet in batch.packets:
                key = report_key(packet.report)
                # A frame-borne context adopts the sender's trace: bind
                # it under the report key first, so the wire_rx event --
                # and every downstream queue/verify/verdict span chained
                # on the same key -- joins the client's trace id.
                if trace is not None:
                    tracer.bind(key, trace)
                tracer.event(key, "wire_rx", conn=conn_id)
        # All-or-nothing admission: a BACKPRESSURE reply must guarantee
        # the queue took nothing, because clients retry the whole batch
        # verbatim -- any accepted prefix left queued here would be
        # ingested a second time by the resend.
        if not self.service.submit_batch(batch.packets, batch.delivering_node):
            self.batches_shed += 1
            self.packets_shed += len(batch.packets)
            return await self._reject(
                stream,
                ErrorCode.BACKPRESSURE,
                f"queue shed all {len(batch.packets)} packets; "
                "retry the whole batch",
                retry_after_ms=self.retry_after_ms,
            )
        self.service.flush()
        verdict = WireVerdict.from_verdict(self.service.sink.verdict())
        self.batches_ok += 1
        await stream.send(FrameType.VERDICT, encode_verdict(verdict))

    # Replies -----------------------------------------------------------------

    async def _reject(
        self,
        stream: FrameStream,
        code: ErrorCode,
        message: str,
        retry_after_ms: int = 0,
    ) -> None:
        """Answer a batch with an ERROR; nothing from it was submitted."""
        self.batches_rejected += 1
        await self._reply_error(
            stream,
            WireErrorInfo(
                code=code, retry_after_ms=retry_after_ms, message=message
            ),
        )

    async def _reply_error(self, stream: FrameStream, info: WireErrorInfo) -> None:
        try:
            await stream.send(FrameType.ERROR, encode_error(info))
        except (ConnectionError, OSError):
            pass  # best effort: the peer may already be gone

    def stats(self) -> dict[str, int]:
        """JSON-ready transport counters (service stats live on the service)."""
        return {
            "connections_total": self.connections_total,
            "connections_active": self.connections_active,
            "batches_ok": self.batches_ok,
            "batches_rejected": self.batches_rejected,
            "batches_wrong_shard": self.batches_wrong_shard,
            "batches_shed": self.batches_shed,
            "packets_shed": self.packets_shed,
            "decode_errors": self.decode_errors,
        }

    def __repr__(self) -> str:
        state = "stopped" if self._server is None else f"port {self.port}"
        return (
            f"SinkServer({state}, conns={self.connections_active}, "
            f"batches={self.batches_ok})"
        )
