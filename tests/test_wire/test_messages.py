"""Payload grammars: every byte accounted for, every failure typed."""

import pytest

from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.wire.errors import (
    BadFrameError,
    ErrorCode,
    TrailingBytesError,
    TruncatedError,
    WireError,
)
from repro.wire.messages import (
    WireErrorInfo,
    WireVerdict,
    decode_batch,
    decode_error,
    decode_verdict,
    encode_batch,
    encode_error,
    encode_verdict,
)

FMT = MarkFormat(id_len=2, mac_len=4)


def make_packet(num_marks: int = 2, timestamp: int = 1) -> MarkedPacket:
    report = Report(event=b"ev", location=(0.5, -0.5), timestamp=timestamp)
    marks = tuple(
        Mark(id_field=i.to_bytes(2, "big"), mac=bytes([i] * 4))
        for i in range(num_marks)
    )
    return MarkedPacket(report=report, marks=marks)


class TestBatch:
    def test_round_trip(self):
        packets = [make_packet(timestamp=t) for t in range(3)]
        batch = decode_batch(encode_batch(packets, 42, FMT))
        assert batch.fmt == FMT
        assert batch.delivering_node == 42
        assert list(batch.packets) == packets

    def test_empty_batch(self):
        batch = decode_batch(encode_batch([], 7, FMT))
        assert batch.packets == ()

    def test_negative_delivering_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_batch([make_packet()], -1, FMT)

    def test_trailing_bytes_rejected(self):
        payload = encode_batch([make_packet()], 1, FMT)
        with pytest.raises(TrailingBytesError):
            decode_batch(payload + b"\x00")

    def test_absurd_count_rejected(self):
        # fmt | delivering=0 | count=2**32 with no packets behind it.
        from repro.wire.codec import encode_mark_format, write_varint

        payload = encode_mark_format(FMT) + write_varint(0) + write_varint(2**32)
        with pytest.raises(BadFrameError):
            decode_batch(payload)

    def test_truncated_inside_packet(self):
        payload = encode_batch([make_packet()], 1, FMT)
        with pytest.raises(WireError):
            decode_batch(payload[:-3])

    def test_every_truncation_typed(self):
        payload = encode_batch([make_packet(timestamp=t) for t in range(2)], 9, FMT)
        for cut in range(len(payload)):
            with pytest.raises(WireError):
                decode_batch(payload[:cut])


class TestReport:
    """A single report travels as a BATCH of one."""

    def test_round_trip(self):
        packet = make_packet()
        batch = decode_batch(encode_batch([packet], 5, FMT))
        assert batch.packets == (packet,)
        assert batch.delivering_node == 5

    def test_trailing_bytes_rejected(self):
        payload = encode_batch([make_packet()], 5, FMT)
        with pytest.raises(WireError):
            decode_batch(payload + b"\xee" * FMT.mark_len)

    def test_negative_delivering_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_batch([make_packet()], -3, FMT)


class TestVerdict:
    def test_round_trip_with_suspect(self):
        verdict = WireVerdict(
            identified=True,
            packets_used=17,
            loop_detected=True,
            suspect_center=4,
            suspect_members=(1, 4, 9),
            via_loop=True,
        )
        assert decode_verdict(encode_verdict(verdict)) == verdict
        neighborhood = verdict.suspect_neighborhood()
        assert neighborhood is not None
        assert neighborhood.center == 4
        assert neighborhood.members == frozenset({1, 4, 9})
        assert neighborhood.via_loop is True

    def test_round_trip_without_suspect(self):
        verdict = WireVerdict(identified=False, packets_used=0, loop_detected=False)
        assert decode_verdict(encode_verdict(verdict)) == verdict
        assert verdict.suspect_neighborhood() is None

    def test_members_canonically_sorted(self):
        a = WireVerdict(
            identified=True,
            packets_used=1,
            loop_detected=False,
            suspect_center=2,
            suspect_members=(3, 1, 2),
        )
        b = WireVerdict(
            identified=True,
            packets_used=1,
            loop_detected=False,
            suspect_center=2,
            suspect_members=(1, 2, 3),
        )
        assert encode_verdict(a) == encode_verdict(b)

    def test_empty_payload(self):
        with pytest.raises(TruncatedError):
            decode_verdict(b"")

    def test_unknown_flag_bits(self):
        with pytest.raises(BadFrameError):
            decode_verdict(b"\x80\x00")

    def test_via_loop_without_suspect_rejected(self):
        # flags = VIA_LOOP only; a suspect-less via_loop is unconstructible
        # server-side, so on the wire it can only be corruption or forgery.
        with pytest.raises(BadFrameError):
            decode_verdict(b"\x08\x00")

    def test_trailing_bytes_rejected(self):
        payload = encode_verdict(
            WireVerdict(identified=False, packets_used=1, loop_detected=False)
        )
        with pytest.raises(TrailingBytesError):
            decode_verdict(payload + b"\x00")


class TestError:
    def test_round_trip(self):
        info = WireErrorInfo(
            code=ErrorCode.BACKPRESSURE, retry_after_ms=75, message="queue full"
        )
        assert decode_error(encode_error(info)) == info

    def test_empty_message(self):
        info = WireErrorInfo(code=ErrorCode.INTERNAL)
        decoded = decode_error(encode_error(info))
        assert decoded.message == ""
        assert decoded.retry_after_ms == 0

    def test_long_message_truncated_at_encode(self):
        info = WireErrorInfo(code=ErrorCode.BAD_FRAME, message="x" * 10_000)
        assert len(decode_error(encode_error(info)).message) == 4096

    def test_unknown_code_rejected(self):
        with pytest.raises(BadFrameError):
            decode_error(b"\xee\x00\x00")

    def test_empty_payload(self):
        with pytest.raises(TruncatedError):
            decode_error(b"")

    def test_trailing_bytes_rejected(self):
        payload = encode_error(WireErrorInfo(code=ErrorCode.INTERNAL))
        with pytest.raises(TrailingBytesError):
            decode_error(payload + b"!")
