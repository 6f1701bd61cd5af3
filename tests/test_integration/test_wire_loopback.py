"""Acceptance: the wire adds a transport, not a verdict.

Two pinned properties from the issue:

* **Parity** — a report stream pushed through ``SinkClient`` ->
  loopback TCP -> ``SinkServer`` -> ``SinkIngestService`` yields the
  *identical* verdict (same suspect center, same member set, same
  stopping evidence) as handing the same packets to a
  :class:`~repro.traceback.sink.TracebackSink` in-process;
* **Totality under attack** — any fuzzed, truncated, or bit-flipped
  frame surfaces as a typed :class:`~repro.wire.errors.WireError`
  (or an on-wire ERROR reply), never a crash and never a silently
  accepted packet.
"""

import asyncio
import random

import pytest

from repro.experiments.cluster_sweep import build_cluster_workload, make_sink_factory
from repro.marking.pnm import PNMMarking
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.errors import WireError
from repro.wire.frames import FrameDecoder, FrameType, encode_frame
from repro.wire.loopback import run_loopback
from repro.wire.messages import (
    WireVerdict,
    decode_batch,
    decode_error,
    encode_batch,
)
from repro.wire.server import SinkServer

GRID_SIDE = 8
PACKETS = 24

FMT = PNMMarking(mark_prob=1.0).fmt


@pytest.fixture(scope="module")
def workload():
    topology, keystore, [(stream, delivering)], _ = build_cluster_workload(
        GRID_SIDE,
        PACKETS,
        sources=1,
        batch_size=PACKETS,
        master_secret=b"service-sweep",
    )
    return topology, keystore, stream, delivering


def make_sink(workload) -> TracebackSink:
    topology, keystore, _stream, _delivering = workload
    return make_sink_factory(topology, keystore)()


def in_process_verdict(workload):
    _topology, _keystore, stream, delivering = workload
    sink = make_sink(workload)
    for packet in stream:
        sink.receive(packet, delivering)
    return sink.verdict()


class TestVerdictParity:
    def test_loopback_verdict_identical_to_in_process(self, workload):
        _topology, _keystore, stream, delivering = workload
        expected = in_process_verdict(workload)

        sink = make_sink(workload)
        with SinkIngestService(sink, capacity=len(stream)) as service:
            result = run_loopback(
                service, FMT, [(stream, delivering)], ping=True
            )

        assert result.ping_echo == b"pnm"
        wire_verdict = result.final_verdict
        assert wire_verdict is not None
        # Same identification, same evidence count, same suspect set: the
        # transport reproduced the serial sink's decision exactly.
        assert wire_verdict.identified == expected.identified
        assert wire_verdict.packets_used == expected.packets_used
        assert wire_verdict.suspect_neighborhood() == expected.suspect
        # And the server-side sink converged to the same verdict object.
        served = sink.verdict()
        assert served.identified == expected.identified
        assert served.suspect == expected.suspect
        assert served.packets_used == expected.packets_used
        assert served.loop_detected == expected.loop_detected

    def test_batched_and_single_shot_agree(self, workload):
        _topology, _keystore, stream, delivering = workload
        expected = in_process_verdict(workload)

        sink = make_sink(workload)
        batches = [(stream[i : i + 6], delivering) for i in range(0, PACKETS, 6)]
        with SinkIngestService(sink, capacity=len(stream)) as service:
            result = run_loopback(service, FMT, batches)

        verdicts = result.verdicts
        assert len(verdicts) == len(batches)
        # Interim verdicts count monotonically toward the final one.
        assert [v.packets_used for v in verdicts] == [6, 12, 18, 24]
        assert verdicts[-1].suspect_neighborhood() == expected.suspect

    def test_byte_level_batch_round_trip(self, workload):
        # The payload the client sends is bit-for-bit what the server
        # decodes: encode -> decode -> re-encode is the identity.
        _topology, _keystore, stream, delivering = workload
        payload = encode_batch(stream, delivering, FMT)
        batch = decode_batch(payload)
        assert list(batch.packets) == stream
        assert encode_batch(list(batch.packets), batch.delivering_node, batch.fmt) == payload


class TestAdversarialBytes:
    def test_fuzzed_frames_never_crash_decoder(self, workload):
        _topology, _keystore, stream, delivering = workload
        valid = encode_frame(
            FrameType.BATCH, encode_batch(stream[:3], delivering, FMT)
        )
        rng = random.Random("wire-fuzz")
        for _ in range(300):
            data = bytearray(valid)
            for _ in range(rng.randint(1, 8)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            chop = rng.randint(0, len(data))
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(bytes(data[:chop]))
                decoder.finish()
            except WireError:
                continue
            for frame in frames:
                # Anything that survives framing must also payload-decode
                # to the original bytes or fail typed -- CRC32 makes a
                # silently-corrupted accept effectively impossible.
                try:
                    decode_batch(frame.payload)
                except WireError:
                    continue

    def test_server_survives_garbage_connections(self, workload):
        """Garbage in: one typed ERROR out, zero packets ingested."""
        rng = random.Random("wire-garbage")
        payloads = [
            bytes(rng.randrange(256) for _ in range(rng.randint(1, 200)))
            for _ in range(20)
        ]

        async def scenario():
            sink = make_sink(workload)
            with SinkIngestService(sink, capacity=64) as service:
                async with SinkServer(service, FMT) as server:
                    replies = []
                    for payload in payloads:
                        reader, writer = await asyncio.open_connection(
                            "127.0.0.1", server.port
                        )
                        writer.write(payload)
                        writer.write_eof()
                        replies.append(await reader.read(64 * 1024))
                        writer.close()
                        await writer.wait_closed()
                    await server.wait_idle()
                    stats = server.stats()
            return replies, stats, sink.packets_received

        replies, stats, ingested = asyncio.run(scenario())
        assert ingested == 0
        assert stats["batches_ok"] == 0
        # Every non-empty reply is a well-formed ERROR frame.
        for raw in replies:
            if not raw:
                continue
            frames = FrameDecoder().feed(raw)
            assert [f.frame_type for f in frames] == [FrameType.ERROR]
            decode_error(frames[0].payload)  # must parse cleanly

    def test_truncated_batch_is_rejected_not_partially_ingested(self, workload):
        """A frame cut mid-payload must not feed any packets to the sink."""
        _topology, _keystore, stream, delivering = workload
        frame = encode_frame(
            FrameType.BATCH, encode_batch(stream, delivering, FMT)
        )

        async def scenario():
            sink = make_sink(workload)
            with SinkIngestService(sink, capacity=len(stream)) as service:
                async with SinkServer(service, FMT) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(frame[: len(frame) // 2])
                    writer.write_eof()
                    raw = await reader.read(64 * 1024)
                    writer.close()
                    await writer.wait_closed()
                    await server.wait_idle()
            return raw, sink.packets_received

        raw, ingested = asyncio.run(scenario())
        assert ingested == 0
        frames = FrameDecoder().feed(raw)
        assert [f.frame_type for f in frames] == [FrameType.ERROR]

    def test_verdict_survives_interleaved_garbage_connections(self, workload):
        """Hostile connections cannot poison an honest client's verdict."""
        _topology, _keystore, stream, delivering = workload
        expected = in_process_verdict(workload)

        async def scenario():
            sink = make_sink(workload)
            with SinkIngestService(sink, capacity=len(stream)) as service:
                async with SinkServer(service, FMT) as server:
                    # A hostile peer throws garbage first...
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(b"\xde\xad\xbe\xef" * 16)
                    writer.write_eof()
                    await reader.read(64 * 1024)
                    writer.close()
                    await writer.wait_closed()
                    # ...then the honest gateway delivers its batches.
                    from repro.wire.client import SinkClient

                    async with SinkClient("127.0.0.1", server.port) as client:
                        verdict = await client.send_batch(stream, delivering, FMT)
                    await server.wait_idle()
            return verdict

        verdict = asyncio.run(scenario())
        assert isinstance(verdict, WireVerdict)
        assert verdict.identified == expected.identified
        assert verdict.suspect_neighborhood() == expected.suspect
