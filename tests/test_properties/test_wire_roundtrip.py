"""Round-trip and fuzzing properties shared by the packet and wire codecs.

Three layers, one contract each:

* ``Report``/``MarkedPacket``: every value the constructors accept
  round-trips byte-identically, including the boundary cases the struct
  layout makes dangerous (negative fixed-point coordinates, the
  ``MAX_EVENT_LEN`` limit, u32-timestamp extremes);
* the :mod:`repro.wire` codec: packets, varints, mark formats, frames,
  and whole payload grammars round-trip exactly;
* adversarial bytes: truncations and mutations of valid frames decode to
  a typed :class:`~repro.wire.errors.WireError` or (for mutations the
  CRC cannot see, which do not exist) a valid frame -- never a bare
  ``struct.error``, ``IndexError``, or silent acceptance;
* the v2 trace-context extension: traced frames round-trip their
  context, context-free frames stay byte-identical v1, v1/v2 streams
  interleave through the stream decoder, and a malformed trace block
  inside a complete CRC-valid frame is :class:`BadFrameError` -- never
  :class:`TruncatedError`, so the decoder cannot stall on it.
"""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packets.marks import Mark, MarkFormat
from repro.packets.packet import MarkedPacket
from repro.packets.report import MAX_EVENT_LEN, Report
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
    BadVersionError,
    TruncatedError,
    WireError,
)
from repro.wire.frames import (
    MAX_TRACE_ID_LEN,
    PROTOCOL_VERSION,
    TRACE_PROTOCOL_VERSION,
    FrameDecoder,
    FrameType,
    WireTraceContext,
    decode_frame,
    encode_frame,
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
from repro.wire.errors import ErrorCode

# Coordinates must survive the fixed-point millimetre encoding exactly:
# thousandths within the i32-mm range.
coords = st.integers(min_value=-(2**31) + 1, max_value=2**31 - 1).map(
    lambda mm: mm / 1000
)

reports = st.builds(
    Report,
    event=st.one_of(
        st.binary(max_size=64),
        # Exercise the u16 length-prefix boundary without paying 64KiB
        # per example every time.
        st.just(b"\xff" * MAX_EVENT_LEN),
        st.just(b""),
    ),
    location=st.tuples(coords, coords),
    timestamp=st.one_of(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.sampled_from([0, 1, 0xFFFFFFFE, 0xFFFFFFFF]),
    ),
)

# One kind per format: anonymous and algebraic are mutually exclusive by
# construction (MarkFormat rejects the combination), so the strategy
# samples the kind rather than two independent booleans.
mark_formats = st.builds(
    lambda id_len, mac_len, kind: MarkFormat(
        id_len=id_len,
        mac_len=mac_len,
        anonymous=kind == "anonymous",
        algebraic=kind == "algebraic",
    ),
    id_len=st.integers(min_value=1, max_value=8),
    mac_len=st.integers(min_value=0, max_value=8),
    kind=st.sampled_from(["plain", "anonymous", "algebraic"]),
)


@st.composite
def packets_with_format(draw):
    fmt = draw(mark_formats)
    marks = tuple(
        Mark(
            id_field=draw(st.binary(min_size=fmt.id_len, max_size=fmt.id_len)),
            mac=draw(st.binary(min_size=fmt.mac_len, max_size=fmt.mac_len)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    )
    report = draw(reports)
    return MarkedPacket(report=report, marks=marks), fmt


class TestReportRoundTrip:
    @given(report=reports)
    @settings(max_examples=300)
    def test_encode_decode_identity(self, report):
        encoded = report.encode()
        assert len(encoded) == report.wire_len
        decoded = Report.decode(encoded)
        assert decoded == report
        assert decoded.encode() == encoded

    @given(report=reports, garbage=st.binary(min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_trailing_garbage_rejected(self, report, garbage):
        try:
            Report.decode(report.encode() + garbage)
        except ValueError:
            return
        raise AssertionError("trailing bytes silently accepted")


class TestPacketRoundTrip:
    @given(packet_fmt=packets_with_format())
    @settings(max_examples=300)
    def test_wire_codec_identity(self, packet_fmt):
        packet, fmt = packet_fmt
        body = encode_packet(packet)
        decoded = decode_packet(body, fmt)
        assert decoded.report == packet.report
        assert decoded.marks == packet.marks
        assert encode_packet(decoded) == body

    @given(
        packet_fmt=packets_with_format(),
        garbage=st.binary(min_size=1, max_size=16),
    )
    @settings(max_examples=200)
    def test_codec_rejects_trailing_garbage(self, packet_fmt, garbage):
        packet, fmt = packet_fmt
        try:
            decode_packet(encode_packet(packet) + garbage, fmt)
        except WireError:
            return
        raise AssertionError("trailing bytes silently accepted")


class TestVarint:
    @given(value=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=300)
    def test_round_trip(self, value):
        encoded = write_varint(value)
        decoded, consumed = read_varint(encoded)
        assert decoded == value
        assert consumed == len(encoded)

    @given(data=st.binary(max_size=12))
    @settings(max_examples=300)
    def test_decode_total(self, data):
        try:
            value, consumed = read_varint(data)
        except WireError:
            return
        # Canonical encodings are unique: re-encoding reproduces the input.
        assert write_varint(value) == data[:consumed]


class TestMarkFormatRoundTrip:
    @given(fmt=mark_formats)
    def test_round_trip(self, fmt):
        decoded, consumed = decode_mark_format(encode_mark_format(fmt))
        assert decoded == fmt
        assert consumed == 3


class TestFrameRoundTrip:
    @given(
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.binary(max_size=256),
    )
    @settings(max_examples=300)
    def test_round_trip(self, frame_type, payload):
        encoded = encode_frame(frame_type, payload)
        frame, consumed = decode_frame(encoded)
        assert consumed == len(encoded)
        assert frame.frame_type is frame_type
        assert frame.payload == payload
        assert frame.wire_len == len(encoded)

    @given(
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.binary(max_size=64),
        cut=st.integers(min_value=1, max_value=80),
        flip_at=st.integers(min_value=0, max_value=200),
        flip_bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=400)
    def test_corruption_always_typed(
        self, frame_type, payload, cut, flip_at, flip_bit
    ):
        """Truncate and bit-flip valid frames: WireError or nothing."""
        encoded = encode_frame(frame_type, payload)

        truncated = encoded[: max(0, len(encoded) - cut)]
        try:
            frame, consumed = decode_frame(truncated)
            assert consumed <= len(truncated)
        except WireError:
            pass

        mutated = bytearray(encoded)
        mutated[flip_at % len(mutated)] ^= 1 << flip_bit
        try:
            frame, consumed = decode_frame(bytes(mutated))
            # A surviving decode means the flip cancelled out -- impossible
            # for a single bit under CRC32 -- or hit nothing the decoder
            # reads.  Either way the bytes must equal the original.
            assert bytes(mutated) == encoded
        except WireError:
            pass

    @given(data=st.binary(max_size=300))
    @settings(max_examples=400)
    def test_random_bytes_never_crash(self, data):
        try:
            decode_frame(data)
        except WireError:
            pass

    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(list(FrameType)), st.binary(max_size=40)
            ),
            max_size=5,
        ),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_stream_decoder_any_chunking(self, frames, chunk_size):
        stream = b"".join(encode_frame(t, p) for t, p in frames)
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(stream), chunk_size):
            out.extend(decoder.feed(stream[start : start + chunk_size]))
        decoder.finish()
        assert [(f.frame_type, f.payload) for f in out] == frames


trace_ids = st.text(min_size=1, max_size=32).filter(
    lambda s: 0 < len(s.encode("utf-8")) <= MAX_TRACE_ID_LEN
)

trace_contexts = st.builds(
    WireTraceContext, trace_id=trace_ids, span_id=trace_ids
)


def raw_frame(version: int, type_byte: int, payload: bytes) -> bytes:
    """A CRC-valid frame with an arbitrary version/type/payload."""
    body = bytes((version, type_byte)) + write_varint(len(payload)) + payload
    return body + zlib.crc32(body).to_bytes(4, "big")


class TestTraceFrameRoundTrip:
    @given(
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.binary(max_size=256),
        trace=trace_contexts,
    )
    @settings(max_examples=300)
    def test_v2_round_trip(self, frame_type, payload, trace):
        encoded = encode_frame(frame_type, payload, trace=trace)
        assert encoded[0] == TRACE_PROTOCOL_VERSION
        frame, consumed = decode_frame(encoded)
        assert consumed == len(encoded)
        assert frame.frame_type is frame_type
        assert frame.payload == payload
        assert frame.trace == trace
        assert frame.wire_len == len(encoded)

    @given(
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.binary(max_size=256),
    )
    @settings(max_examples=200)
    def test_context_free_frames_stay_byte_identical_v1(
        self, frame_type, payload
    ):
        encoded = encode_frame(frame_type, payload)
        assert encoded[0] == PROTOCOL_VERSION
        assert encoded == encode_frame(frame_type, payload, trace=None)

    @given(
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.binary(max_size=64),
        trace=trace_contexts,
        cut=st.integers(min_value=1, max_value=80),
        flip_at=st.integers(min_value=0, max_value=400),
        flip_bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=400)
    def test_v2_corruption_always_typed(
        self, frame_type, payload, trace, cut, flip_at, flip_bit
    ):
        encoded = encode_frame(frame_type, payload, trace=trace)

        truncated = encoded[: max(0, len(encoded) - cut)]
        try:
            frame, consumed = decode_frame(truncated)
            assert consumed <= len(truncated)
        except WireError:
            pass

        mutated = bytearray(encoded)
        mutated[flip_at % len(mutated)] ^= 1 << flip_bit
        try:
            decode_frame(bytes(mutated))
            assert bytes(mutated) == encoded
        except WireError:
            pass

    @given(
        frame_type=st.sampled_from(list(FrameType)),
        body=st.binary(max_size=128),
    )
    @settings(max_examples=400)
    def test_malformed_trace_block_never_stalls_the_decoder(
        self, frame_type, body
    ):
        """Arbitrary bytes as a v2 body: the whole frame arrived, so a
        trace block the decoder cannot parse must be ``BadFrameError``,
        never ``TruncatedError`` -- the stream decoder would otherwise
        wait forever for bytes that are not coming.
        """
        encoded = raw_frame(TRACE_PROTOCOL_VERSION, int(frame_type), body)
        try:
            frame, consumed = decode_frame(encoded)
            assert consumed == len(encoded)
            # A surviving decode means the body really opened with a
            # well-formed trace block.
            assert frame.trace is not None
            assert encode_frame(
                frame_type, frame.payload, trace=frame.trace
            ) == encoded
        except TruncatedError:
            raise AssertionError(
                "complete CRC-valid v2 frame reported as truncated"
            )
        except BadFrameError:
            pass

    def test_truncated_trace_block_is_bad_frame(self):
        # Declares a 127-byte trace id but the payload ends immediately.
        encoded = raw_frame(TRACE_PROTOCOL_VERSION, int(FrameType.PING), b"\x7f")
        try:
            decode_frame(encoded)
        except BadFrameError:
            return
        raise AssertionError("truncated trace block not rejected as BadFrame")

    @given(
        frame_type=st.sampled_from(list(FrameType)),
        payload=st.binary(max_size=64),
        version=st.integers(min_value=3, max_value=255),
    )
    @settings(max_examples=200)
    def test_versions_past_the_trace_extension_are_rejected(
        self, frame_type, payload, version
    ):
        encoded = raw_frame(version, int(frame_type), payload)
        try:
            decode_frame(encoded)
        except BadVersionError:
            return
        raise AssertionError(f"version {version} not rejected")

    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(list(FrameType)),
                st.binary(max_size=40),
                st.one_of(st.none(), trace_contexts),
            ),
            max_size=5,
        ),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200)
    def test_mixed_version_stream_any_chunking(self, frames, chunk_size):
        stream = b"".join(
            encode_frame(t, p, trace=trace) for t, p, trace in frames
        )
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(stream), chunk_size):
            out.extend(decoder.feed(stream[start : start + chunk_size]))
        decoder.finish()
        assert [(f.frame_type, f.payload, f.trace) for f in out] == frames


class TestPayloadRoundTrip:
    @given(
        packet_fmt=packets_with_format(),
        delivering=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200)
    def test_report_payload(self, packet_fmt, delivering):
        packet, fmt = packet_fmt
        batch = decode_batch(encode_batch([packet], delivering, fmt))
        assert batch.fmt == fmt
        assert batch.delivering_node == delivering
        assert batch.packets == (packet,)

    @given(
        packet_fmt=packets_with_format(),
        extra=st.integers(min_value=0, max_value=3),
        delivering=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200)
    def test_batch_payload(self, packet_fmt, extra, delivering):
        packet, fmt = packet_fmt
        packets = [packet] * (extra + 1)
        payload = encode_batch(packets, delivering, fmt)
        batch = decode_batch(payload)
        assert batch.fmt == fmt
        assert batch.delivering_node == delivering
        assert list(batch.packets) == packets
        assert encode_batch(list(batch.packets), delivering, fmt) == payload

    @given(
        identified=st.booleans(),
        packets_used=st.integers(min_value=0, max_value=2**32),
        loop=st.booleans(),
        suspect=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=2**16),
                st.frozensets(
                    st.integers(min_value=0, max_value=2**16), max_size=8
                ),
                st.booleans(),
            ),
        ),
    )
    @settings(max_examples=200)
    def test_verdict_payload(self, identified, packets_used, loop, suspect):
        verdict = WireVerdict(
            identified=identified,
            packets_used=packets_used,
            loop_detected=loop,
            suspect_center=None if suspect is None else suspect[0],
            suspect_members=() if suspect is None else tuple(sorted(suspect[1])),
            via_loop=False if suspect is None else suspect[2],
        )
        assert decode_verdict(encode_verdict(verdict)) == verdict

    @given(
        code=st.sampled_from(list(ErrorCode)),
        retry=st.integers(min_value=0, max_value=10**6),
        message=st.text(max_size=120),
    )
    @settings(max_examples=200)
    def test_error_payload(self, code, retry, message):
        info = WireErrorInfo(code=code, retry_after_ms=retry, message=message)
        decoded = decode_error(encode_error(info))
        assert decoded.code is code
        assert decoded.retry_after_ms == retry
        assert decoded.message == message

    @given(data=st.binary(max_size=200))
    @settings(max_examples=400)
    def test_payload_decoders_total(self, data):
        for decoder in (decode_batch, decode_verdict, decode_error):
            try:
                decoder(data)
            except WireError:
                pass
