"""``SinkClient``: the sink's network peer on a sensor gateway.

Asyncio client for :class:`~repro.wire.server.SinkServer` with the three
behaviors a deployed gateway needs:

* **Bounded connect**: every connection attempt has a timeout, failed
  attempts back off exponentially (deterministically -- no jitter, so
  test runs are repeatable), and exhaustion raises a typed
  :class:`~repro.wire.errors.ConnectError` instead of looping forever;
* **Typed failures**: an ERROR reply surfaces as
  :class:`~repro.wire.errors.BackpressureError` (with the server's
  retry-after hint) or :class:`~repro.wire.errors.RemoteError` -- the
  caller never parses message strings;
* **Pipelining**: :meth:`send_batches` writes every batch frame before
  reading any reply, hiding the round-trip latency that would otherwise
  dominate a ping-pong exchange on anything but loopback.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.obs.profiling import NoopObsProvider, ObsProvider, resolve_provider
from repro.obs.spans import SpanContext
from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.traceback.sink import SinkEvidence
from repro.wire.errors import (
    BackpressureError,
    BadFrameError,
    ConnectError,
    ErrorCode,
    PingTimeoutError,
    RemoteError,
    TruncatedError,
    WrongShardError,
)
from repro.wire.frames import FrameType, WireTraceContext
from repro.wire.messages import (
    WireErrorInfo,
    WireVerdict,
    decode_error,
    decode_summary,
    decode_telemetry,
    decode_verdict,
    encode_batch,
)
from repro.wire.stream import FrameStream

__all__ = ["SinkClient"]


class SinkClient:
    """Connects to a :class:`~repro.wire.server.SinkServer` and streams batches.

    Args:
        host / port: the server address.
        connect_timeout: seconds allowed per connection attempt.
        retries: additional attempts after the first failure.
        backoff_base: first retry delay in seconds; doubles per attempt.
        backoff_max: delay ceiling.
        obs: observability provider (``wire_frames_tx/rx_total`` and byte
            counters from the client's side).
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        obs: ObsProvider | NoopObsProvider | None = None,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.obs = resolve_provider(obs)
        self._stream: FrameStream | None = None
        self.connect_attempts = 0

    # Connection --------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._stream is not None

    def _backoff_delay(self, attempt: int) -> float:
        """Deterministic exponential backoff for retry ``attempt`` (0-based)."""
        return min(self.backoff_base * (2**attempt), self.backoff_max)

    async def connect(self) -> None:
        """Open the connection, retrying with exponential backoff.

        Raises:
            ConnectError: after ``retries + 1`` failed attempts.
        """
        if self.connected:
            return
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            self.connect_attempts += 1
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    timeout=self.connect_timeout,
                )
                self._stream = FrameStream(reader, writer, self.obs)
                self.obs.inc("wire_client_connects_total")
                return
            except (OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                self.obs.inc("wire_client_connect_failures_total")
                if attempt < self.retries:
                    await asyncio.sleep(self._backoff_delay(attempt))
        raise ConnectError(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.writer.close()
            try:
                await stream.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "SinkClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.close()

    # Frame I/O ---------------------------------------------------------------

    def _connection(self) -> FrameStream:
        if self._stream is None:
            raise ConnectError("client is not connected")
        return self._stream

    async def _send(
        self,
        frame_type: FrameType,
        payload: bytes,
        trace: SpanContext | None = None,
    ) -> None:
        stream = self._connection()
        wire_trace = None
        if trace is not None:
            wire_trace = WireTraceContext(
                trace_id=trace.trace_id, span_id=trace.span_id
            )
            tracer = self.obs.tracer
            if tracer is not None:
                tracer.finish(
                    tracer.start(
                        "wire_tx",
                        parent=trace,
                        frame=frame_type.name,
                        peer=f"{self.host}:{self.port}",
                    )
                )
        await stream.send(frame_type, payload, trace=wire_trace)

    async def _reply(self, expected: FrameType) -> bytes | WireErrorInfo:
        """Read one reply: its payload, or the server's ERROR as info.

        Raises:
            BadFrameError: when the reply is neither ``expected`` nor ERROR.
            TruncatedError: when the server closed before replying.
        """
        frame = await self._connection().read()
        if frame is None:
            raise TruncatedError("server closed before a complete reply")
        if frame.frame_type is FrameType.ERROR:
            return decode_error(frame.payload)
        if frame.frame_type is not expected:
            raise BadFrameError(
                f"expected {expected.name} or ERROR, got {frame.frame_type.name}"
            )
        return frame.payload

    async def _request(
        self,
        frame_type: FrameType,
        payload: bytes,
        expected: FrameType | None = None,
        trace: SpanContext | None = None,
    ) -> bytes:
        """One round trip; returns the reply payload.

        ``expected`` is the reply type (default: ``frame_type`` itself).

        Raises:
            RemoteError: on an ERROR reply (:class:`BackpressureError` and
                :class:`WrongShardError` for their codes).
            BadFrameError: on any other unexpected reply type.
        """
        await self._send(frame_type, payload, trace)
        reply = await self._reply(expected or frame_type)
        if isinstance(reply, WireErrorInfo):
            raise _remote_error(reply)
        return reply

    # Requests ----------------------------------------------------------------

    async def ping(self, payload: bytes = b"pnm") -> bytes:
        """Version/liveness probe; returns the server's echoed payload.

        A successful round trip proves both endpoints speak
        :data:`~repro.wire.frames.PROTOCOL_VERSION` -- each side rejects
        any other version byte before looking at the payload.
        """
        return await self._request(FrameType.PING, payload)

    async def health_check(
        self, timeout: float = 1.0, payload: bytes = b"pnm"
    ) -> bytes:
        """A :meth:`ping` with a deadline: the liveness probe form.

        A timeout abandons the in-flight PING, but its echo may still
        arrive later -- and this client is strict request-response, so a
        late echo left in the stream would be read as the *next*
        request's reply (a silent mis-pairing at worst, a
        :class:`BadFrameError` at best).  The connection is therefore
        closed before the timeout is raised; callers that decide the
        peer is merely slow must :meth:`connect` again before reusing
        this client.

        Returns:
            the echoed payload when the peer answered in time.

        Raises:
            PingTimeoutError: when no echo arrived within ``timeout``
                seconds.  The connection has been closed.
            RemoteError: when the peer answered with an ERROR frame.
        """
        try:
            return await asyncio.wait_for(self.ping(payload), timeout=timeout)
        except asyncio.TimeoutError:
            await self.close()
            raise PingTimeoutError(
                f"no PING echo from {self.host}:{self.port} within "
                f"{timeout:g}s"
            ) from None

    async def fetch_summary(self) -> SinkEvidence:
        """Request the sink's evidence snapshot (SUMMARY round trip).

        The server flushes its ingest queue first, so the snapshot covers
        every batch this client has had acknowledged.
        """
        return decode_summary(await self._request(FrameType.SUMMARY, b""))

    async def fetch_telemetry(self) -> dict[str, Any]:
        """Request the server's metrics-registry snapshot (TELEMETRY).

        Returns the snapshot dict
        (:meth:`~repro.obs.registry.MetricsRegistry.snapshot` shape); a
        server running without observability answers with an empty
        snapshot (``{"metrics": []}``).
        """
        return decode_telemetry(await self._request(FrameType.TELEMETRY, b""))

    async def send_batch(
        self,
        packets: list[MarkedPacket] | tuple[MarkedPacket, ...],
        delivering_node: int,
        fmt: MarkFormat,
        trace: SpanContext | None = None,
    ) -> WireVerdict:
        """Submit one batch; returns the sink's updated verdict.

        A single report is a batch of one.  With ``trace``, the BATCH
        frame carries the context so the server's spans join the
        caller's trace.

        Raises:
            BackpressureError: when the server's queue shed packets (the
                exception carries the server's retry-after hint).
            RemoteError: on any other server-side rejection.
        """
        return decode_verdict(
            await self._request(
                FrameType.BATCH,
                encode_batch(packets, delivering_node, fmt),
                expected=FrameType.VERDICT,
                trace=trace,
            )
        )

    async def send_batches(
        self,
        batches: list[tuple[list[MarkedPacket], int]],
        fmt: MarkFormat,
        traces: list[SpanContext | None] | None = None,
    ) -> list[WireVerdict | WireErrorInfo]:
        """Pipeline many batches: write them all, then read all replies.

        Unlike :meth:`send_batch`, per-batch rejections are *returned*
        (as :class:`WireErrorInfo`) rather than raised, so one shed batch
        does not discard the verdicts of the batches pipelined behind it.
        ``traces`` optionally supplies one context per batch (``None``
        entries send context-free frames).
        """
        if traces is not None and len(traces) != len(batches):
            raise ValueError(
                f"traces length {len(traces)} != batches length {len(batches)}"
            )
        for index, (packets, delivering_node) in enumerate(batches):
            await self._send(
                FrameType.BATCH,
                encode_batch(packets, delivering_node, fmt),
                trace=traces[index] if traces is not None else None,
            )
        replies: list[WireVerdict | WireErrorInfo] = []
        for _ in batches:
            reply = await self._reply(FrameType.VERDICT)
            replies.append(
                reply
                if isinstance(reply, WireErrorInfo)
                else decode_verdict(reply)
            )
        return replies

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"SinkClient({self.host}:{self.port}, {state})"


def _remote_error(info: WireErrorInfo) -> RemoteError:
    """The typed exception for a server's ERROR reply."""
    if info.code is ErrorCode.BACKPRESSURE:
        return BackpressureError(info.message, info.retry_after_ms)
    if info.code is ErrorCode.WRONG_SHARD:
        return WrongShardError(info.message, info.retry_after_ms)
    return RemoteError(info.code, info.message, info.retry_after_ms)
