"""Payload grammars for each frame type.

Frames carry opaque payload bytes; this module gives each
:class:`~repro.wire.frames.FrameType` its payload structure (docs/wire.md
has the grammar in one place).  Payload decoders are as strict as the
frame decoder: every byte must be consumed, every count must be exact,
and every failure is a typed :class:`~repro.wire.errors.WireError`.

BATCH payloads are self-describing: they open with the deployment's
:class:`~repro.packets.marks.MarkFormat`, so a server can verify the
client and it agree on the mark layout before decoding a single packet
-- a mismatched format would otherwise misparse every mark boundary and
surface as a wall of MAC failures instead of one clean error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.packets.marks import MarkFormat
from repro.packets.packet import MarkedPacket
from repro.traceback.localize import SuspectNeighborhood
from repro.traceback.sink import (
    EVIDENCE_COUNTERS,
    EVIDENCE_FIELDS,
    SinkEvidence,
    TracebackVerdict,
)
from repro.wire.codec import (
    decode_mark_format,
    decode_packet,
    encode_mark_format,
    encode_packet,
    read_varint,
    write_varint,
)
from repro.wire.errors import (
    BadFrameError,
    ErrorCode,
    TrailingBytesError,
    TruncatedError,
)

__all__ = [
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
    "encode_telemetry",
    "decode_telemetry",
]

_MAX_ERROR_MESSAGE_LEN = 4096


def _require_consumed(data: bytes, offset: int, what: str) -> None:
    if offset != len(data):
        raise TrailingBytesError(
            f"{len(data) - offset} trailing byte(s) after {what} payload"
        )


@dataclass(frozen=True)
class WireBatch:
    """A decoded BATCH payload.

    Attributes:
        fmt: the mark layout the packets were encoded with.
        packets: the marked packets, in submission order.
        delivering_node: the sink neighbor that handed every packet over
            (one per batch: a batch models one neighbor's delivery burst).
    """

    fmt: MarkFormat
    packets: tuple[MarkedPacket, ...]
    delivering_node: int


def encode_batch(
    packets: list[MarkedPacket] | tuple[MarkedPacket, ...],
    delivering_node: int,
    fmt: MarkFormat,
) -> bytes:
    """``fmt | varint(delivering) | varint(count) | count x (varint(len) | packet)``."""
    if delivering_node < 0:
        raise ValueError(f"delivering_node must be >= 0, got {delivering_node}")
    parts = [
        encode_mark_format(fmt),
        write_varint(delivering_node),
        write_varint(len(packets)),
    ]
    for packet in packets:
        body = encode_packet(packet)
        parts.append(write_varint(len(body)))
        parts.append(body)
    return b"".join(parts)


def decode_batch(payload: bytes) -> WireBatch:
    """Parse a BATCH payload; the whole payload must be consumed."""
    fmt, offset = decode_mark_format(payload)
    delivering_node, offset = read_varint(payload, offset)
    count, offset = read_varint(payload, offset)
    if count > len(payload):
        raise BadFrameError(
            f"batch count {count} exceeds payload size {len(payload)}"
        )
    packets = []
    for index in range(count):
        length, offset = read_varint(payload, offset)
        if len(payload) - offset < length:
            raise TruncatedError(
                f"payload ended inside packet {index}: need {length} bytes, "
                f"have {len(payload) - offset}"
            )
        packets.append(decode_packet(payload[offset : offset + length], fmt))
        offset += length
    _require_consumed(payload, offset, "BATCH")
    return WireBatch(
        fmt=fmt, packets=tuple(packets), delivering_node=delivering_node
    )


@dataclass(frozen=True)
class WireVerdict:
    """The transportable subset of a sink verdict.

    Mirrors :class:`~repro.traceback.sink.TracebackVerdict` minus the
    route-analysis diagnostics (which stay server-side): identification
    flag, the suspect neighborhood, and the evidence counters a client
    needs to decide whether to keep streaming.
    """

    identified: bool
    packets_used: int
    loop_detected: bool
    suspect_center: int | None = None
    suspect_members: tuple[int, ...] = ()
    via_loop: bool = False

    @classmethod
    def from_verdict(cls, verdict: TracebackVerdict) -> "WireVerdict":
        suspect = verdict.suspect
        return cls(
            identified=verdict.identified,
            packets_used=verdict.packets_used,
            loop_detected=verdict.loop_detected,
            suspect_center=None if suspect is None else suspect.center,
            suspect_members=(
                () if suspect is None else tuple(sorted(suspect.members))
            ),
            via_loop=False if suspect is None else suspect.via_loop,
        )

    def suspect_neighborhood(self) -> SuspectNeighborhood | None:
        """Rebuild the suspect as the sink-side type (``None`` if absent)."""
        if self.suspect_center is None:
            return None
        return SuspectNeighborhood(
            center=self.suspect_center,
            members=frozenset(self.suspect_members),
            via_loop=self.via_loop,
        )


_VERDICT_FLAG_IDENTIFIED = 0x01
_VERDICT_FLAG_LOOP = 0x02
_VERDICT_FLAG_SUSPECT = 0x04
_VERDICT_FLAG_VIA_LOOP = 0x08
_VERDICT_KNOWN_FLAGS = 0x0F


def encode_verdict(verdict: WireVerdict) -> bytes:
    """``flags u8 | varint(packets_used) [| varint(center) | varint(n) | members]``."""
    flags = 0
    if verdict.identified:
        flags |= _VERDICT_FLAG_IDENTIFIED
    if verdict.loop_detected:
        flags |= _VERDICT_FLAG_LOOP
    if verdict.suspect_center is not None:
        flags |= _VERDICT_FLAG_SUSPECT
    if verdict.via_loop:
        flags |= _VERDICT_FLAG_VIA_LOOP
    parts = [bytes((flags,)), write_varint(verdict.packets_used)]
    if verdict.suspect_center is not None:
        members = sorted(verdict.suspect_members)
        parts.append(write_varint(verdict.suspect_center))
        parts.append(write_varint(len(members)))
        parts.extend(write_varint(member) for member in members)
    return b"".join(parts)


def decode_verdict(payload: bytes) -> WireVerdict:
    """Parse a VERDICT payload; the whole payload must be consumed."""
    if not payload:
        raise TruncatedError("empty VERDICT payload")
    flags = payload[0]
    if flags & ~_VERDICT_KNOWN_FLAGS:
        raise BadFrameError(f"unknown verdict flag bits: {flags:#04x}")
    packets_used, offset = read_varint(payload, 1)
    center: int | None = None
    members: tuple[int, ...] = ()
    if flags & _VERDICT_FLAG_SUSPECT:
        center, offset = read_varint(payload, offset)
        count, offset = read_varint(payload, offset)
        if count > len(payload):
            raise BadFrameError(
                f"member count {count} exceeds payload size {len(payload)}"
            )
        decoded = []
        for _ in range(count):
            member, offset = read_varint(payload, offset)
            decoded.append(member)
        members = tuple(decoded)
    elif flags & _VERDICT_FLAG_VIA_LOOP:
        raise BadFrameError("via_loop flag set without a suspect")
    _require_consumed(payload, offset, "VERDICT")
    return WireVerdict(
        identified=bool(flags & _VERDICT_FLAG_IDENTIFIED),
        packets_used=packets_used,
        loop_detected=bool(flags & _VERDICT_FLAG_LOOP),
        suspect_center=center,
        suspect_members=members,
        via_loop=bool(flags & _VERDICT_FLAG_VIA_LOOP),
    )


@dataclass(frozen=True)
class WireErrorInfo:
    """A decoded ERROR payload: code, retry hint, human-readable message."""

    code: ErrorCode
    retry_after_ms: int = 0
    message: str = ""


def encode_error(info: WireErrorInfo) -> bytes:
    """``code u8 | varint(retry_after_ms) | varint(len) | message utf8``."""
    message = info.message.encode("utf-8")[:_MAX_ERROR_MESSAGE_LEN]
    return (
        bytes((int(info.code),))
        + write_varint(info.retry_after_ms)
        + write_varint(len(message))
        + message
    )


_SUMMARY_FLAG_DELIVERING = 0x01
_SUMMARY_KNOWN_FLAGS = _SUMMARY_FLAG_DELIVERING | sum(
    field.flag for field in EVIDENCE_FIELDS
)


def encode_summary(evidence: SinkEvidence) -> bytes:
    """Serialize a :class:`~repro.traceback.sink.SinkEvidence` snapshot.

    Grammar (every integer a varint unless noted)::

        summary := counters flags [delivering] nodes edges stops
                   [algebraic] [claims]
        counters := packets_received tampered_packets chains_with_marks
                    fallback_searches
        flags   := u8                      -- bit 0: delivering present
                                           -- bit 1: algebraic section present
                                           -- bit 2: claims section present
        nodes   := count count x node
        edges   := count count x (upstream downstream)
        stops   := count count x (node stop_count)
        algebraic := count count x (timestamp point hops value delivering
                                    last_hop_plus1)
        claims  := count count x (accused claim_count)

    The sections follow :data:`~repro.traceback.sink.EVIDENCE_FIELDS`:
    each is written in the canonical order
    :meth:`~repro.traceback.sink.TracebackSink.evidence` produces, so two
    shards with identical evidence encode identical bytes.  An optional
    section is present exactly when its field is non-empty, so evidence
    without it encodes byte-identically to the grammar before it existed.
    """
    present = [
        field
        for field in EVIDENCE_FIELDS
        if not field.flag or getattr(evidence, field.name)
    ]
    flags = sum(field.flag for field in present)
    if evidence.delivering_node is not None:
        flags |= _SUMMARY_FLAG_DELIVERING
    parts = [write_varint(getattr(evidence, name)) for name in EVIDENCE_COUNTERS]
    parts.append(bytes((flags,)))
    if evidence.delivering_node is not None:
        parts.append(write_varint(evidence.delivering_node))
    for field in present:
        entries = getattr(evidence, field.name)
        parts.append(write_varint(len(entries)))
        for entry in entries:
            values = (entry,) if field.arity == 1 else entry
            if len(values) != field.arity:
                raise ValueError(
                    f"{field.name} entry has {len(values)} fields, "
                    f"expected {field.arity}"
                )
            parts.extend(write_varint(value) for value in values)
    return b"".join(parts)


def decode_summary(payload: bytes) -> SinkEvidence:
    """Parse a SUMMARY payload; the whole payload must be consumed.

    Every section must be in its canonical order (sorted; no repeated
    node, edge, stop or claim; no zero count), because the verdict reads
    an unmerged record as it stands.
    """
    counters: dict[str, Any] = {}
    offset = 0
    for name in EVIDENCE_COUNTERS:
        counters[name], offset = read_varint(payload, offset)
    if len(payload) - offset < 1:
        raise TruncatedError("SUMMARY payload ended before its flags byte")
    flags = payload[offset]
    offset += 1
    if flags & ~_SUMMARY_KNOWN_FLAGS:
        raise BadFrameError(f"unknown summary flag bits: {flags:#04x}")
    delivering_node: int | None = None
    if flags & _SUMMARY_FLAG_DELIVERING:
        delivering_node, offset = read_varint(payload, offset)
    sections: dict[str, Any] = {}
    for field in EVIDENCE_FIELDS:
        if field.flag and not flags & field.flag:
            continue
        count, offset = read_varint(payload, offset)
        if count > len(payload):
            raise BadFrameError(
                f"{field.name} count {count} exceeds payload size "
                f"{len(payload)}"
            )
        if field.flag and count == 0:
            raise BadFrameError(f"{field.name} flag set with zero entries")
        entries: list[Any] = []
        for _ in range(count):
            values = []
            for _ in range(field.arity):
                value, offset = read_varint(payload, offset)
                values.append(value)
            entries.append(values[0] if field.arity == 1 else tuple(values))
        if not field.canonical(entries):
            raise BadFrameError(
                f"{field.name} section is not in canonical order "
                f"({field.merge})"
            )
        sections[field.name] = tuple(entries)
    _require_consumed(payload, offset, "SUMMARY")
    return SinkEvidence(
        **counters, **sections, delivering_node=delivering_node
    )


def encode_telemetry(snapshot: dict[str, Any]) -> bytes:
    """Serialize a :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.

    TELEMETRY is a request/reply pair: the request is an *empty* payload
    (poll), the reply is the shard's registry snapshot as canonical JSON
    (sorted keys, no whitespace) so identical registries encode
    identical bytes.  JSON rather than a bespoke binary grammar because
    snapshots are structural (nested labels, histogram buckets) and the
    federation path is off the packet hot path.
    """
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_telemetry(payload: bytes) -> dict[str, Any]:
    """Parse a TELEMETRY reply payload into a registry snapshot dict."""
    if not payload:
        raise TruncatedError("empty TELEMETRY payload")
    try:
        snapshot = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadFrameError(f"malformed TELEMETRY payload: {exc}") from exc
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise BadFrameError(
            "TELEMETRY payload is not a registry snapshot object"
        )
    if not isinstance(snapshot["metrics"], list):
        raise BadFrameError("TELEMETRY snapshot 'metrics' is not a list")
    return snapshot


def decode_error(payload: bytes) -> WireErrorInfo:
    """Parse an ERROR payload; the whole payload must be consumed."""
    if not payload:
        raise TruncatedError("empty ERROR payload")
    try:
        code = ErrorCode(payload[0])
    except ValueError:
        raise BadFrameError(f"unknown error code {payload[0]}") from None
    retry_after_ms, offset = read_varint(payload, 1)
    length, offset = read_varint(payload, offset)
    if length > _MAX_ERROR_MESSAGE_LEN:
        raise BadFrameError(f"error message of {length} bytes exceeds limit")
    if len(payload) - offset < length:
        raise TruncatedError("payload ended inside the error message")
    message = payload[offset : offset + length].decode("utf-8", "replace")
    offset += length
    _require_consumed(payload, offset, "ERROR")
    return WireErrorInfo(code=code, retry_after_ms=retry_after_ms, message=message)
