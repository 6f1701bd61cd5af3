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
from repro.traceback.sink import SinkEvidence, TracebackVerdict
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
_SUMMARY_FLAG_ALGEBRAIC = 0x02
_SUMMARY_KNOWN_FLAGS = 0x03

#: Fields per algebraic observation tuple (see
#: :meth:`repro.algebraic.solver.AlgebraicObservation.as_tuple`).
_OBSERVATION_FIELDS = 6


def encode_summary(evidence: SinkEvidence) -> bytes:
    """Serialize a :class:`~repro.traceback.sink.SinkEvidence` snapshot.

    Grammar (every integer a varint unless noted)::

        summary := counters flags [delivering] nodes edges stops [algebraic]
        counters := packets_received tampered_packets chains_with_marks
                    fallback_searches
        flags   := u8                      -- bit 0: delivering present
                                           -- bit 1: algebraic section present
        nodes   := count count x node
        edges   := count count x (upstream downstream)
        stops   := count count x (node stop_count)
        algebraic := count count x (timestamp point hops value delivering
                                    last_hop_plus1)

    Nodes, edges, stops and algebraic observations are written in the
    canonical sorted order
    :meth:`~repro.traceback.sink.TracebackSink.evidence` produces, so two
    shards with identical evidence encode identical bytes.  Evidence with
    no algebraic observations encodes byte-identically to the pre-algebraic
    grammar (the section and its flag bit are simply absent).
    """
    flags = 0
    if evidence.delivering_node is not None:
        flags |= _SUMMARY_FLAG_DELIVERING
    if evidence.algebraic:
        flags |= _SUMMARY_FLAG_ALGEBRAIC
    parts = [
        write_varint(evidence.packets_received),
        write_varint(evidence.tampered_packets),
        write_varint(evidence.chains_with_marks),
        write_varint(evidence.fallback_searches),
        bytes((flags,)),
    ]
    if evidence.delivering_node is not None:
        parts.append(write_varint(evidence.delivering_node))
    parts.append(write_varint(len(evidence.nodes)))
    parts.extend(write_varint(node) for node in evidence.nodes)
    parts.append(write_varint(len(evidence.edges)))
    for upstream, downstream in evidence.edges:
        parts.append(write_varint(upstream))
        parts.append(write_varint(downstream))
    parts.append(write_varint(len(evidence.tamper_stops)))
    for node, stop_count in evidence.tamper_stops:
        parts.append(write_varint(node))
        parts.append(write_varint(stop_count))
    if evidence.algebraic:
        parts.append(write_varint(len(evidence.algebraic)))
        for observation in evidence.algebraic:
            if len(observation) != _OBSERVATION_FIELDS:
                raise ValueError(
                    f"algebraic observation has {len(observation)} fields, "
                    f"expected {_OBSERVATION_FIELDS}"
                )
            parts.extend(write_varint(value) for value in observation)
    return b"".join(parts)


def decode_summary(payload: bytes) -> SinkEvidence:
    """Parse a SUMMARY payload; the whole payload must be consumed."""
    packets_received, offset = read_varint(payload, 0)
    tampered_packets, offset = read_varint(payload, offset)
    chains_with_marks, offset = read_varint(payload, offset)
    fallback_searches, offset = read_varint(payload, offset)
    if len(payload) - offset < 1:
        raise TruncatedError("SUMMARY payload ended before its flags byte")
    flags = payload[offset]
    offset += 1
    if flags & ~_SUMMARY_KNOWN_FLAGS:
        raise BadFrameError(f"unknown summary flag bits: {flags:#04x}")
    delivering_node: int | None = None
    if flags & _SUMMARY_FLAG_DELIVERING:
        delivering_node, offset = read_varint(payload, offset)
    node_count, offset = read_varint(payload, offset)
    if node_count > len(payload):
        raise BadFrameError(
            f"node count {node_count} exceeds payload size {len(payload)}"
        )
    nodes = []
    for _ in range(node_count):
        node, offset = read_varint(payload, offset)
        nodes.append(node)
    edge_count, offset = read_varint(payload, offset)
    if edge_count > len(payload):
        raise BadFrameError(
            f"edge count {edge_count} exceeds payload size {len(payload)}"
        )
    edges = []
    for _ in range(edge_count):
        upstream, offset = read_varint(payload, offset)
        downstream, offset = read_varint(payload, offset)
        edges.append((upstream, downstream))
    stop_count, offset = read_varint(payload, offset)
    if stop_count > len(payload):
        raise BadFrameError(
            f"stop count {stop_count} exceeds payload size {len(payload)}"
        )
    stops = []
    for _ in range(stop_count):
        node, offset = read_varint(payload, offset)
        hits, offset = read_varint(payload, offset)
        stops.append((node, hits))
    observations = []
    if flags & _SUMMARY_FLAG_ALGEBRAIC:
        observation_count, offset = read_varint(payload, offset)
        if observation_count > len(payload):
            raise BadFrameError(
                f"algebraic observation count {observation_count} exceeds "
                f"payload size {len(payload)}"
            )
        if observation_count == 0:
            raise BadFrameError(
                "algebraic flag set with zero observations"
            )
        for _ in range(observation_count):
            fields = []
            for _ in range(_OBSERVATION_FIELDS):
                value, offset = read_varint(payload, offset)
                fields.append(value)
            observations.append(tuple(fields))
    _require_consumed(payload, offset, "SUMMARY")
    return SinkEvidence(
        nodes=tuple(nodes),
        edges=tuple(edges),
        tamper_stops=tuple(stops),
        packets_received=packets_received,
        tampered_packets=tampered_packets,
        chains_with_marks=chains_with_marks,
        fallback_searches=fallback_searches,
        delivering_node=delivering_node,
        algebraic=tuple(observations),
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
