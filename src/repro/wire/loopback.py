"""Loopback driver: a server and client paired in one event loop.

The shared harness behind the ``wire-sweep`` experiment, the throughput
benchmark and the integration tests: start a
:class:`~repro.wire.server.SinkServer` on an ephemeral loopback port,
drive a :class:`~repro.wire.client.SinkClient` through a batch schedule,
and return every reply.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.service.ingest import SinkIngestService
from repro.wire.client import SinkClient
from repro.wire.messages import WireErrorInfo, WireVerdict
from repro.wire.server import SinkServer

__all__ = ["Batch", "LoopbackResult", "run_loopback"]

#: One scheduled send: ``(packets, delivering_node)``.
Batch = tuple[list[MarkedPacket], int]


@dataclass
class LoopbackResult:
    """Everything a loopback run produced.

    Attributes:
        replies: one entry per batch, in order: the verdict, or the
            server's error info for batches it rejected.
        ping_echo: the PING echo payload (``None`` when pinging was off).
    """

    replies: list[WireVerdict | WireErrorInfo] = field(default_factory=list)
    ping_echo: bytes | None = None

    @property
    def verdicts(self) -> list[WireVerdict]:
        """The successful replies only."""
        return [r for r in self.replies if isinstance(r, WireVerdict)]

    @property
    def final_verdict(self) -> WireVerdict:
        """The last successful reply.

        Raises:
            ValueError: when every batch was rejected.
        """
        verdicts = self.verdicts
        if not verdicts:
            raise ValueError("loopback run produced no verdicts")
        return verdicts[-1]


def run_loopback(
    service: SinkIngestService,
    fmt: MarkFormat,
    batches: list[Batch],
    ping: bool = True,
) -> LoopbackResult:
    """Run the batch schedule through a fresh loopback server/client pair.

    The client pipelines every batch (:meth:`SinkClient.send_batches`:
    all writes before any read); a rejected batch comes back as its
    :class:`WireErrorInfo` in ``replies``.

    Args:
        service: the ingest pipeline the server feeds (caller owns its
            lifecycle; it is *not* closed here).
        fmt: the deployment mark layout.
        batches: the send schedule.
        ping: probe the server once before sending (version handshake).
    """

    async def drive() -> LoopbackResult:
        result = LoopbackResult()
        async with SinkServer(service, fmt) as server:
            async with SinkClient("127.0.0.1", server.port) as client:
                if ping:
                    result.ping_echo = await client.ping()
                result.replies = await client.send_batches(batches, fmt)
            await server.wait_idle()
        return result

    return asyncio.run(drive())
