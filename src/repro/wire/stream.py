"""``FrameStream``: one connection's frame I/O, shared by both endpoints.

:class:`~repro.wire.client.SinkClient` and
:class:`~repro.wire.server.SinkServer` send and read every frame through
this class, so the wire counters -- ``wire_frames_{tx,rx}_total`` and
``wire_bytes_{tx,rx}_total``, labelled by frame type -- are incremented
here and nowhere else.  A frame is counted exactly once: when it is
encoded for sending, or when the stream decoder yields it -- every frame
a read completes, however many arrive together.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.obs.profiling import NoopObsProvider, ObsProvider
from repro.wire.frames import (
    Frame,
    FrameDecoder,
    FrameType,
    WireTraceContext,
    encode_frame,
)

__all__ = ["FrameStream"]

_READ_CHUNK = 64 * 1024


class FrameStream:
    """Frames over one asyncio stream pair, counted in ``obs``."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        obs: ObsProvider | NoopObsProvider,
    ):
        self.reader = reader
        self.writer = writer
        self.obs = obs
        self._decoder = FrameDecoder()
        self._frames: deque[Frame] = deque()

    async def send(
        self,
        frame_type: FrameType,
        payload: bytes,
        trace: WireTraceContext | None = None,
    ) -> None:
        """Encode, count and write one frame, then drain the writer."""
        data = encode_frame(frame_type, payload, trace=trace)
        self.obs.inc("wire_frames_tx_total", frame=frame_type.name)
        self.obs.inc("wire_bytes_tx_total", len(data), frame=frame_type.name)
        self.writer.write(data)
        await self.writer.drain()

    async def read(self) -> Frame | None:
        """The next frame, or ``None`` when the peer closed between frames.

        Raises:
            WireError: on undecodable bytes, and
                :class:`~repro.wire.errors.TruncatedError` when the peer
                closed inside a frame.
        """
        while not self._frames:
            chunk = await self.reader.read(_READ_CHUNK)
            if not chunk:
                self._decoder.finish()
                return None
            for frame in self._decoder.feed(chunk):
                name = frame.frame_type.name
                self.obs.inc("wire_frames_rx_total", frame=name)
                self.obs.inc("wire_bytes_rx_total", frame.wire_len, frame=name)
                self._frames.append(frame)
        return self._frames.popleft()
