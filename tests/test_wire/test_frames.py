"""Frame grammar: version gate, CRC trailer, and the stream decoder."""

import struct
import zlib

import pytest

from repro.wire.errors import (
    BadCrcError,
    BadFrameError,
    BadVersionError,
    OversizedError,
    TruncatedError,
)
from repro.wire.frames import (
    MAX_PAYLOAD_LEN,
    MAX_TRACE_ID_LEN,
    PROTOCOL_VERSION,
    TRACE_PROTOCOL_VERSION,
    FrameDecoder,
    FrameType,
    WireTraceContext,
    decode_frame,
    encode_frame,
)


def valid_frame(payload: bytes = b"hello") -> bytes:
    return encode_frame(FrameType.PING, payload)


def reframe(body: bytes) -> bytes:
    """Attach a correct CRC to hand-built header+payload bytes."""
    return body + struct.pack(">I", zlib.crc32(body))


class TestDecodeFrame:
    def test_round_trip(self):
        frame, consumed = decode_frame(valid_frame())
        assert frame.frame_type is FrameType.PING
        assert frame.payload == b"hello"
        assert consumed == len(valid_frame())

    def test_empty_payload(self):
        frame, _ = decode_frame(encode_frame(FrameType.VERDICT, b""))
        assert frame.payload == b""

    def test_trailing_bytes_left_to_caller(self):
        data = valid_frame() + b"extra"
        frame, consumed = decode_frame(data)
        assert consumed == len(data) - 5

    def test_truncation_every_cut(self):
        data = valid_frame()
        for cut in range(len(data)):
            with pytest.raises(TruncatedError):
                decode_frame(data[:cut])

    def test_bad_version_checked_before_crc(self):
        # Byte 0 is the version; a future version may use a different
        # trailer entirely, so the version error must win over BadCrc.
        data = bytearray(valid_frame())
        data[0] = TRACE_PROTOCOL_VERSION + 1
        with pytest.raises(BadVersionError):
            decode_frame(bytes(data))

    def test_version_zero_rejected(self):
        data = bytearray(valid_frame())
        data[0] = 0
        with pytest.raises(BadVersionError):
            decode_frame(bytes(data))

    def test_corrupted_payload_is_bad_crc(self):
        data = bytearray(valid_frame())
        data[-5] ^= 0xFF  # last payload byte
        with pytest.raises(BadCrcError):
            decode_frame(bytes(data))

    def test_corrupted_type_byte_is_bad_crc(self):
        # Corruption is BadCrc first; only a CRC-valid unknown type is
        # BadFrame (the peer honestly speaks a newer grammar).
        data = bytearray(valid_frame())
        data[1] = 0xEE
        with pytest.raises(BadCrcError):
            decode_frame(bytes(data))

    def test_unknown_type_with_valid_crc_is_bad_frame(self):
        body = bytes((PROTOCOL_VERSION, 0xEE)) + b"\x00"
        with pytest.raises(BadFrameError):
            decode_frame(reframe(body))

    def test_retired_report_type_is_bad_frame(self):
        # Type 1 was REPORT; it is retired, never reused, and decodes as
        # an unknown type even with a valid CRC.
        assert 1 not in {int(t) for t in FrameType}
        body = bytes((PROTOCOL_VERSION, 1)) + b"\x00"
        with pytest.raises(BadFrameError, match="unknown frame type 1"):
            decode_frame(reframe(body))

    def test_declared_oversize_rejected_before_buffering(self):
        body = bytes((PROTOCOL_VERSION, int(FrameType.BATCH)))
        # Declare a payload far over the cap; no payload bytes follow.
        from repro.wire.codec import write_varint

        with pytest.raises(OversizedError):
            decode_frame(body + write_varint(MAX_PAYLOAD_LEN + 1))

    def test_encode_oversize_rejected(self):
        with pytest.raises(OversizedError):
            encode_frame(FrameType.BATCH, b"\x00" * (MAX_PAYLOAD_LEN + 1))


class TestTraceContext:
    """The v2 trace-context extension (optional, backward compatible)."""

    TRACE = WireTraceContext(trace_id="t0000042", span_id="gw-s0000007")

    def test_context_free_encoding_is_byte_identical_v1(self):
        assert encode_frame(FrameType.BATCH, b"x") == encode_frame(
            FrameType.BATCH, b"x", trace=None
        )
        assert encode_frame(FrameType.BATCH, b"x")[0] == PROTOCOL_VERSION

    def test_traced_round_trip(self):
        data = encode_frame(FrameType.BATCH, b"payload", trace=self.TRACE)
        assert data[0] == TRACE_PROTOCOL_VERSION
        frame, consumed = decode_frame(data)
        assert consumed == len(data)
        assert frame.frame_type is FrameType.BATCH
        assert frame.payload == b"payload"
        assert frame.trace == self.TRACE
        assert frame.wire_len == len(data)

    def test_v1_frames_still_decode_with_no_trace(self):
        frame, _ = decode_frame(encode_frame(FrameType.BATCH, b"p"))
        assert frame.trace is None

    def test_traced_empty_payload(self):
        frame, _ = decode_frame(
            encode_frame(FrameType.SUMMARY, b"", trace=self.TRACE)
        )
        assert frame.payload == b""
        assert frame.trace == self.TRACE

    def test_traced_truncation_every_cut(self):
        data = encode_frame(FrameType.BATCH, b"hi", trace=self.TRACE)
        for cut in range(len(data)):
            with pytest.raises(TruncatedError):
                decode_frame(data[:cut])

    def test_empty_ids_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WireTraceContext(trace_id="", span_id="s1")
        with pytest.raises(ValueError):
            WireTraceContext(trace_id="t1", span_id="")

    def test_oversized_ids_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WireTraceContext(
                trace_id="x" * (MAX_TRACE_ID_LEN + 1), span_id="s1"
            )

    def test_short_trace_block_is_bad_frame_not_truncated(self):
        # A complete v2 frame whose trace block ends early is corruption:
        # raising TruncatedError here would stall the stream decoder
        # waiting for bytes that will never come.
        from repro.wire.codec import write_varint

        body = (
            bytes((TRACE_PROTOCOL_VERSION, int(FrameType.BATCH)))
            + write_varint(2)
            + write_varint(40)  # claims a 40-byte trace id; 0 bytes follow
            + b"z"
        )
        with pytest.raises(BadFrameError):
            decode_frame(reframe(body))

    def test_zero_length_trace_id_is_bad_frame(self):
        from repro.wire.codec import write_varint

        block = write_varint(0) + write_varint(1) + b"s"
        body = (
            bytes((TRACE_PROTOCOL_VERSION, int(FrameType.BATCH)))
            + write_varint(len(block))
            + block
        )
        with pytest.raises(BadFrameError):
            decode_frame(reframe(body))

    def test_non_utf8_trace_id_is_bad_frame(self):
        from repro.wire.codec import write_varint

        block = write_varint(2) + b"\xff\xfe" + write_varint(1) + b"s"
        body = (
            bytes((TRACE_PROTOCOL_VERSION, int(FrameType.BATCH)))
            + write_varint(len(block))
            + block
        )
        with pytest.raises(BadFrameError):
            decode_frame(reframe(body))

    def test_decoder_recovers_nothing_after_trace_corruption(self):
        # Sticky-error contract holds for trace-block corruption too.
        from repro.wire.codec import write_varint

        body = (
            bytes((TRACE_PROTOCOL_VERSION, int(FrameType.BATCH)))
            + write_varint(1)
            + write_varint(60)
        )
        decoder = FrameDecoder()
        with pytest.raises(BadFrameError):
            decoder.feed(reframe(body))
        with pytest.raises(BadFrameError):
            decoder.feed(valid_frame())

    def test_stream_mixes_v1_and_v2(self):
        stream = (
            valid_frame(b"a")
            + encode_frame(FrameType.BATCH, b"b", trace=self.TRACE)
            + valid_frame(b"c")
        )
        decoder = FrameDecoder()
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i : i + 1]))
        decoder.finish()
        assert [f.payload for f in frames] == [b"a", b"b", b"c"]
        assert [f.trace for f in frames] == [None, self.TRACE, None]


class TestFrameDecoder:
    def test_byte_at_a_time(self):
        stream = valid_frame(b"a") + valid_frame(b"b")
        decoder = FrameDecoder()
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i : i + 1]))
        decoder.finish()
        assert [f.payload for f in frames] == [b"a", b"b"]

    def test_error_is_sticky(self):
        data = bytearray(valid_frame())
        data[-1] ^= 0x01
        decoder = FrameDecoder()
        with pytest.raises(BadCrcError):
            decoder.feed(bytes(data))
        with pytest.raises(BadCrcError):
            decoder.feed(valid_frame())

    def test_finish_flags_partial_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(valid_frame()[:3]) == []
        with pytest.raises(TruncatedError):
            decoder.finish()

    def test_finish_clean_on_boundary(self):
        decoder = FrameDecoder()
        decoder.feed(valid_frame())
        decoder.finish()

    def test_bad_version_surfaces_from_feed(self):
        data = bytearray(valid_frame())
        data[0] = 9
        decoder = FrameDecoder()
        with pytest.raises(BadVersionError):
            decoder.feed(bytes(data))
