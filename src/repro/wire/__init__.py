"""The binary wire protocol and networked sink endpoints.

This package turns the in-process reproduction into a deployable
service: a versioned binary codec for marked packets (docs/wire.md has
the byte grammar), CRC-guarded frames with a strict
:class:`~repro.wire.errors.WireError` taxonomy, and asyncio TCP
endpoints -- :class:`~repro.wire.server.SinkServer` feeding the
:class:`~repro.service.SinkIngestService` pipeline, and
:class:`~repro.wire.client.SinkClient` with bounded retry, connect
timeouts, and pipelined batch sends.

Codec paths here must never unpickle anything (lint rule RL007) and
every decoder failure is typed: corrupt bytes raise a
:class:`~repro.wire.errors.WireError` subclass, never ``struct.error``.
"""

from repro.wire.client import SinkClient
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.errors import (
    BackpressureError,
    BadCrcError,
    BadFrameError,
    BadVersionError,
    ConnectError,
    ErrorCode,
    OversizedError,
    PingTimeoutError,
    RemoteError,
    TrailingBytesError,
    TruncatedError,
    WireError,
    WrongShardError,
)
from repro.wire.frames import (
    MAX_PAYLOAD_LEN,
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameType,
    decode_frame,
    encode_frame,
)
from repro.wire.loopback import LoopbackResult, run_loopback
from repro.wire.messages import (
    WireBatch,
    WireErrorInfo,
    WireVerdict,
    decode_batch,
    decode_error,
    decode_summary,
    decode_verdict,
    encode_batch,
    encode_error,
    encode_summary,
    encode_verdict,
)
from repro.wire.server import SinkServer

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD_LEN",
    "WireError",
    "TruncatedError",
    "BadCrcError",
    "BadVersionError",
    "OversizedError",
    "BadFrameError",
    "TrailingBytesError",
    "ConnectError",
    "PingTimeoutError",
    "RemoteError",
    "BackpressureError",
    "WrongShardError",
    "ErrorCode",
    "Frame",
    "FrameType",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "encode_packet",
    "decode_packet",
    "WireBatch",
    "WireVerdict",
    "WireErrorInfo",
    "encode_batch",
    "decode_batch",
    "encode_verdict",
    "decode_verdict",
    "encode_error",
    "decode_error",
    "encode_summary",
    "decode_summary",
    "SinkServer",
    "SinkClient",
    "LoopbackResult",
    "run_loopback",
]
