"""Wire behavior of the algebraic extension: formats, frames, SUMMARY.

The accumulator scheme rides the existing grammars through two additions:
the ``algebraic`` mark-format flag (``0x02``) and the SUMMARY algebraic
observation section (flag ``0x02`` + varint-count + six varints per
observation).  These tests pin the compatibility contract: evidence with
no algebraic observations encodes byte-identically to the pre-algebraic
grammar, illegal flag combinations are :class:`BadFrameError`, and
garbled accumulator bytes inside complete CRC-valid frames decode (marks
are opaque on the wire) or fail typed -- the decoder never stalls waiting
for bytes that are not coming.
"""

import dataclasses

import pytest

from repro.algebraic.marking import ACCUMULATOR_LEN, AlgebraicMarking, pack_accumulator
from repro.algebraic.sink import AlgebraicTracebackSink
from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.net.topology import linear_path_topology
from repro.packets.marks import Mark
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.wire.codec import (
    decode_mark_format,
    encode_mark_format,
    write_varint,
)
from repro.wire.errors import BadFrameError, TruncatedError, WireError
from repro.wire.frames import (
    FrameType,
    WireTraceContext,
    decode_frame,
    encode_frame,
)
from repro.wire.messages import (
    decode_batch,
    decode_summary,
    encode_batch,
    encode_summary,
)
from repro.traceback.sink import SinkEvidence

ALG_FMT = AlgebraicMarking().fmt


def algebraic_packet() -> MarkedPacket:
    report = Report(event=b"alg-wire", location=(2.0, 3.0), timestamp=12)
    return MarkedPacket(report=report, origin=4).with_marks(
        (Mark(id_field=pack_accumulator(3, 123456), mac=b"\xaa" * 4),)
    )


class TestMarkFormatFlags:
    def test_algebraic_format_round_trips(self):
        decoded, consumed = decode_mark_format(encode_mark_format(ALG_FMT))
        assert decoded == ALG_FMT
        assert decoded.algebraic and not decoded.anonymous
        assert consumed == 3

    def test_flag_byte_is_0x02(self):
        assert encode_mark_format(ALG_FMT)[2] == 0x02

    def test_both_flag_bits_rejected(self):
        # 0x03 = anonymous | algebraic: representable on the wire, illegal
        # as a format -- must be BadFrameError, not a constructor crash.
        with pytest.raises(BadFrameError, match="anonymous and algebraic"):
            decode_mark_format(bytes((5, 4, 0x03)))

    def test_unknown_flag_bits_rejected(self):
        with pytest.raises(BadFrameError, match="flag"):
            decode_mark_format(bytes((5, 4, 0x06)))


class TestAlgebraicFramesEndToEnd:
    def test_report_payload_round_trips(self):
        packet = algebraic_packet()
        batch = decode_batch(encode_batch([packet], 3, ALG_FMT))
        assert batch.fmt == ALG_FMT
        assert batch.fmt.algebraic
        assert batch.packets == (packet,)

    def test_v2_trace_context_frame_round_trips(self):
        packet = algebraic_packet()
        trace = WireTraceContext(trace_id="alg-trace", span_id="alg-span")
        encoded = encode_frame(
            FrameType.BATCH, encode_batch([packet], 3, ALG_FMT), trace=trace
        )
        frame, consumed = decode_frame(encoded)
        assert consumed == len(encoded)
        assert frame.trace == trace
        batch = decode_batch(frame.payload)
        assert batch.fmt.algebraic
        assert batch.packets == (packet,)

    def test_garbled_accumulator_bytes_still_decode(self):
        """Accumulator bytes are opaque on the wire: a mole's garbage
        travels as-is and is the *sink's* problem (restart/no-observation),
        never the codec's."""
        payload = bytearray(encode_batch([algebraic_packet()], 3, ALG_FMT))
        # The mark is the trailing id+mac bytes of the payload.
        mark_len = ACCUMULATOR_LEN + 4
        for i in range(len(payload) - mark_len, len(payload) - 4):
            payload[i] = 0xFF
        batch = decode_batch(bytes(payload))
        (decoded,) = batch.packets
        assert decoded.marks[0].id_field == b"\xff" * ACCUMULATOR_LEN

        topology, _source = linear_path_topology(3)
        keystore = KeyStore.from_master_secret(b"wire-test", topology.sensor_nodes())
        sink = AlgebraicTracebackSink(
            AlgebraicMarking(), keystore, KeyedHashProvider(), topology
        )
        sink.receive(decoded, delivering_node=3)
        assert sink.packets_received == 1

    def test_truncated_marks_in_complete_frame_fail_typed(self):
        payload = encode_batch([algebraic_packet()], 3, ALG_FMT)
        for cut in range(1, ACCUMULATOR_LEN + 4):
            with pytest.raises(WireError):
                decode_batch(payload[:-cut])


def algebraic_evidence() -> SinkEvidence:
    return SinkEvidence(
        nodes=(1, 2, 3),
        edges=((1, 2), (2, 3)),
        tamper_stops=(),
        packets_received=4,
        tampered_packets=0,
        chains_with_marks=4,
        fallback_searches=0,
        delivering_node=3,
        algebraic=(
            (0, 17, 3, 999, 3, 4),
            (1, 19, 3, 998, 3, 0),  # unanchored (last_hop wire 0 = None)
            (2, 23, 2, 45, 2, 3),
        ),
    )


class TestSummaryAlgebraicSection:
    def test_round_trip(self):
        evidence = algebraic_evidence()
        assert decode_summary(encode_summary(evidence)) == evidence

    def test_empty_algebraic_is_byte_identical_to_pre_algebraic_grammar(self):
        evidence = dataclasses.replace(algebraic_evidence(), algebraic=())
        payload = encode_summary(evidence)
        # Flags byte (after the four one-byte counter varints) carries
        # only the delivering bit -- the algebraic section is absent, not
        # empty, so pre-algebraic peers decode this unchanged.
        assert payload[4] == 0x01
        decoded = decode_summary(payload)
        assert decoded == evidence
        assert decoded.algebraic == ()

    def test_zero_count_with_flag_rejected(self):
        evidence = dataclasses.replace(
            algebraic_evidence(), algebraic=(), delivering_node=None
        )
        payload = bytearray(encode_summary(evidence))
        assert payload[4] == 0x00
        payload[4] = 0x02  # claim an algebraic section...
        payload.extend(write_varint(0))  # ...holding zero observations
        with pytest.raises(BadFrameError, match="zero"):
            decode_summary(bytes(payload))

    def test_absurd_observation_count_rejected(self):
        evidence = dataclasses.replace(
            algebraic_evidence(), algebraic=(), delivering_node=None
        )
        payload = bytearray(encode_summary(evidence))
        payload[4] = 0x02
        payload.extend(b"\xff\xff\xff\xff\x7f")  # varint for ~34 billion
        with pytest.raises(BadFrameError, match="count"):
            decode_summary(bytes(payload))

    def test_truncation_every_prefix_raises_cleanly(self):
        payload = encode_summary(algebraic_evidence())
        for cut in range(len(payload)):
            with pytest.raises((TruncatedError, BadFrameError)):
                decode_summary(payload[:cut])

    def test_wrong_arity_observation_rejected_at_encode(self):
        evidence = dataclasses.replace(
            algebraic_evidence(), algebraic=((1, 2, 3),)
        )
        with pytest.raises(ValueError, match="fields"):
            encode_summary(evidence)

    def test_sink_evidence_round_trips_through_summary(self):
        topology, _source = linear_path_topology(3)
        keystore = KeyStore.from_master_secret(b"wire-test", topology.sensor_nodes())
        provider = KeyedHashProvider()
        scheme = AlgebraicMarking()
        sink = AlgebraicTracebackSink(scheme, keystore, provider, topology)
        packet = algebraic_packet()
        sink.receive(packet, delivering_node=3)
        evidence = sink.evidence()
        assert evidence.algebraic  # the observation made it into evidence
        assert decode_summary(encode_summary(evidence)) == evidence
