"""Frames: the unit of exchange on a sink connection.

Wire grammar (all integers big-endian unless they are varints)::

    frame   := version type length payload crc
    version := u8                      -- PROTOCOL_VERSION (currently 1)
    type    := u8                      -- FrameType member
    length  := varint                  -- payload byte count
    payload := length bytes            -- grammar depends on type
    crc     := u32be                   -- CRC32 over version|type|length|payload

The CRC covers the header too, so a flipped type byte or a corrupted
length is caught like corrupted payload bytes.  The version byte is
checked *before* the CRC: a peer speaking a future version may legally
use a different trailer, so the only thing this endpoint asserts about
such a frame is that it cannot parse it
(:class:`~repro.wire.errors.BadVersionError`).

Version 2 is the *trace-context* extension: a v2 frame is a v1 frame
whose payload is prefixed with a :class:`WireTraceContext` block
(``varint(len) trace_id utf8 | varint(len) span_id utf8``), carrying the
distributed-tracing identity of the request so one trace id can follow a
report across process hops (client -> shard -> coordinator).  The
extension is optional end to end: context-free frames always encode as
byte-identical v1, so a v1-only decoder interoperates with any peer that
simply never attaches context, and a v2 decoder accepts both versions.

:class:`FrameDecoder` is the incremental form the asyncio endpoints use
(through :class:`~repro.wire.stream.FrameStream`): feed it whatever the
socket produced, take whole frames out, and call
:meth:`FrameDecoder.finish` at EOF so a mid-frame disconnect surfaces as
a :class:`~repro.wire.errors.TruncatedError` instead of silence.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

from repro.wire.codec import MAX_VARINT_BYTES, read_varint, write_varint
from repro.wire.errors import (
    BadCrcError,
    BadFrameError,
    BadVersionError,
    OversizedError,
    TruncatedError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "TRACE_PROTOCOL_VERSION",
    "MAX_PAYLOAD_LEN",
    "MAX_TRACE_ID_LEN",
    "FrameType",
    "Frame",
    "WireTraceContext",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
]

#: The base protocol version this implementation speaks (see docs/wire.md).
PROTOCOL_VERSION = 1

#: The trace-context extension: v1 framing with a trace block prefixed to
#: the payload.  Only emitted when a frame actually carries context.
TRACE_PROTOCOL_VERSION = 2

#: Hard cap on a frame's payload; larger declarations are rejected before
#: any buffering happens, so a hostile length cannot balloon memory.
MAX_PAYLOAD_LEN = 4 * 1024 * 1024

#: Cap on each trace/span id string in a v2 trace block.  Real ids are a
#: dozen bytes; the cap only exists so a hostile block cannot smuggle an
#: arbitrary blob past payload accounting.
MAX_TRACE_ID_LEN = 128

_CRC = struct.Struct(">I")


class FrameType(enum.IntEnum):
    """The frame types of the wire protocol."""

    # Type 1 was REPORT, a one-packet frame; a single report now travels
    # as a BATCH of one.  1 is retired: it decodes as an unknown type and
    # must never be reused.
    BATCH = 2  #: many marked packets sharing one delivering node
    VERDICT = 3  #: the sink's current traceback verdict
    PING = 4  #: liveness + version probe; echoed verbatim by the peer
    ERROR = 5  #: typed rejection (``code | retry_after_ms | message``)
    SUMMARY = 6  #: evidence snapshot request/reply (cluster verdict merge)
    TELEMETRY = 7  #: metrics-registry snapshot request/reply (federation)


@dataclass(frozen=True)
class WireTraceContext:
    """Distributed-tracing identity carried by a v2 frame.

    ``trace_id`` names the end-to-end trace a request belongs to and
    ``span_id`` the sender-side span that caused this frame, so the
    receiver can attach its own spans as children.  Both are short,
    non-empty UTF-8 strings (:data:`MAX_TRACE_ID_LEN` bytes each, max).
    """

    trace_id: str
    span_id: str

    def __post_init__(self) -> None:
        for label, value in (("trace_id", self.trace_id), ("span_id", self.span_id)):
            if not value:
                raise ValueError(f"trace context {label} must be non-empty")
            if len(value.encode("utf-8")) > MAX_TRACE_ID_LEN:
                raise ValueError(
                    f"trace context {label} exceeds {MAX_TRACE_ID_LEN} bytes"
                )

    def encode(self) -> bytes:
        """Serialize as ``varint(len) trace_id | varint(len) span_id``."""
        tid = self.trace_id.encode("utf-8")
        sid = self.span_id.encode("utf-8")
        return (
            write_varint(len(tid)) + tid + write_varint(len(sid)) + sid
        )


def _decode_trace_block(payload: bytes) -> tuple[WireTraceContext, bytes]:
    """Split a v2 payload into its trace context and the classic payload.

    Raises:
        BadFrameError: if the trace block is malformed.  Never raises
            TruncatedError -- the frame is already complete at this
            point, so a short block is corruption, not pending input.
    """
    try:
        offset = 0
        ids: list[str] = []
        for label in ("trace_id", "span_id"):
            length, offset = read_varint(payload, offset)
            if length == 0 or length > MAX_TRACE_ID_LEN:
                raise BadFrameError(
                    f"trace context {label} length {length} outside "
                    f"[1, {MAX_TRACE_ID_LEN}]"
                )
            if len(payload) - offset < length:
                raise BadFrameError(
                    f"trace block ends inside {label} "
                    f"(need {length} bytes, have {len(payload) - offset})"
                )
            ids.append(payload[offset : offset + length].decode("utf-8"))
            offset += length
    except BadFrameError:
        raise
    except (TruncatedError, UnicodeDecodeError, ValueError) as exc:
        raise BadFrameError(f"malformed trace block: {exc}") from exc
    return WireTraceContext(trace_id=ids[0], span_id=ids[1]), payload[offset:]


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its type, raw payload bytes, and (for v2
    frames) the trace context the sender attached."""

    frame_type: FrameType
    payload: bytes
    trace: WireTraceContext | None = None

    @property
    def wire_len(self) -> int:
        """Encoded size of this frame in bytes."""
        body_len = len(self.payload)
        if self.trace is not None:
            body_len += len(self.trace.encode())
        return 2 + len(write_varint(body_len)) + body_len + _CRC.size


def encode_frame(
    frame_type: FrameType,
    payload: bytes,
    trace: WireTraceContext | None = None,
) -> bytes:
    """Serialize one frame, CRC trailer included.

    Without ``trace`` the output is a byte-identical v1 frame; with it
    the frame is emitted as v2 with the trace block prefixed to
    ``payload``.

    Raises:
        OversizedError: if the (trace block +) payload exceeds
            :data:`MAX_PAYLOAD_LEN`.
    """
    version = PROTOCOL_VERSION
    body_payload = payload
    if trace is not None:
        version = TRACE_PROTOCOL_VERSION
        body_payload = trace.encode() + payload
    if len(body_payload) > MAX_PAYLOAD_LEN:
        raise OversizedError(
            f"payload of {len(body_payload)} bytes exceeds limit "
            f"{MAX_PAYLOAD_LEN}"
        )
    body = (
        bytes((version, int(frame_type)))
        + write_varint(len(body_payload))
        + body_payload
    )
    return body + _CRC.pack(zlib.crc32(body))


def decode_frame(data: bytes, offset: int = 0) -> tuple[Frame, int]:
    """Decode one frame from ``data`` at ``offset``.

    Accepts v1 (context-free) and v2 (trace-context) frames; the
    returned frame's ``trace`` is ``None`` for v1.

    Returns:
        ``(frame, new_offset)``; bytes past the frame are left for the
        caller (the stream decoder loops; one-shot callers should check
        ``new_offset == len(data)`` and reject leftovers).

    Raises:
        TruncatedError: if the buffer ends inside the frame.
        BadVersionError: on a version byte this endpoint cannot parse.
        OversizedError: on a declared payload over :data:`MAX_PAYLOAD_LEN`.
        BadFrameError: on an unknown frame type or malformed trace block.
        BadCrcError: when the trailer does not match.
    """
    start = offset
    if len(data) - offset < 2:
        raise TruncatedError("buffer too short for a frame header")
    version = data[offset]
    if version not in (PROTOCOL_VERSION, TRACE_PROTOCOL_VERSION):
        raise BadVersionError(
            f"frame version {version}, this endpoint speaks "
            f"{PROTOCOL_VERSION}-{TRACE_PROTOCOL_VERSION}"
        )
    type_byte = data[offset + 1]
    payload_len, offset = read_varint(data, offset + 2)
    if payload_len > MAX_PAYLOAD_LEN:
        raise OversizedError(
            f"declared payload of {payload_len} bytes exceeds limit "
            f"{MAX_PAYLOAD_LEN}"
        )
    if len(data) - offset < payload_len + _CRC.size:
        raise TruncatedError(
            f"buffer ended inside a frame: need {payload_len + _CRC.size} "
            f"more bytes, have {len(data) - offset}"
        )
    payload = bytes(data[offset : offset + payload_len])
    offset += payload_len
    (crc,) = _CRC.unpack_from(data, offset)
    offset += _CRC.size
    if crc != zlib.crc32(data[start : offset - _CRC.size]):
        raise BadCrcError("frame CRC mismatch")
    # Type is validated after the CRC: a garbled type byte is corruption
    # (BadCrc) first, an honest-but-unknown type (BadFrame) second.
    try:
        frame_type = FrameType(type_byte)
    except ValueError:
        raise BadFrameError(f"unknown frame type {type_byte}") from None
    trace: WireTraceContext | None = None
    if version == TRACE_PROTOCOL_VERSION:
        trace, payload = _decode_trace_block(payload)
    return Frame(frame_type=frame_type, payload=payload, trace=trace), offset


#: Upper bound on an undecodable-yet-valid header prefix, used by the
#: incremental decoder to distinguish "need more bytes" from "stuck".
_MAX_HEADER_LEN = 2 + MAX_VARINT_BYTES


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Usage::

        decoder = FrameDecoder()
        for frame in decoder.feed(chunk):   # any chunking whatsoever
            ...
        decoder.finish()                    # at EOF

    Decode errors raise out of :meth:`feed` immediately; after an error
    the stream is unrecoverable by design (v1 has no resync marker) and
    further feeding raises the same error.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._error: Exception | None = None

    def feed(self, chunk: bytes) -> list[Frame]:
        """Absorb ``chunk``; return every frame completed by it."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(chunk)
        # Every complete frame decodes from one snapshot; the consumed
        # prefix is dropped once, after the last of them.
        data = bytes(self._buffer)
        frames: list[Frame] = []
        offset = 0
        while offset < len(data):
            try:
                frame, offset = decode_frame(data, offset)
            except TruncatedError as exc:
                # Genuinely incomplete input waits for more bytes -- but a
                # "truncated" header longer than any legal header means the
                # length varint itself is malformed, not short.
                if len(data) - offset > _MAX_HEADER_LEN + MAX_PAYLOAD_LEN + _CRC.size:
                    self._error = exc
                    raise
                break
            except Exception as exc:
                self._error = exc
                raise
            frames.append(frame)
        del self._buffer[:offset]
        return frames

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary.

        Raises:
            TruncatedError: if buffered bytes form only part of a frame.
        """
        if self._error is None and self._buffer:
            raise TruncatedError(
                f"stream ended with {len(self._buffer)} byte(s) of an "
                "incomplete frame"
            )
