"""Property: the ingest service is observationally identical to the sink.

For any packet stream — arbitrary path lengths, arbitrary per-packet mark
tampering — feeding the packets through ``SinkIngestService`` (with its
resolver cache) must produce byte-identical results to calling
``TracebackSink.receive`` serially: same ``TracebackVerdict``, same
precedence edge set, same per-packet accounting.  This is the contract
that makes the service a drop-in replacement rather than an
approximation.

Under backpressure the contract narrows to what was admitted: a queue
smaller than the stream sheds whole batches, and the service must equal
a serial sink fed exactly the accepted batches, with every shed packet
counted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyStore
from repro.crypto.mac import KeyedHashProvider
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from tests.conftest import mark_through_path

PROVIDER = KeyedHashProvider()
SCHEME = PNMMarking(mark_prob=1.0)


def tampered(packet: MarkedPacket, mark_index: int) -> MarkedPacket:
    """Corrupt one mark's MAC, as a forwarding mole would."""
    marks = list(packet.marks)
    mark = marks[mark_index]
    marks[mark_index] = mark.__class__(
        id_field=mark.id_field,
        mac=bytes([mark.mac[0] ^ 0x5A]) + mark.mac[1:],
    )
    return packet.with_marks(tuple(marks))


@st.composite
def packet_streams(draw):
    """A linear deployment plus a stream of (possibly tampered) packets."""
    n_forwarders = draw(st.integers(min_value=2, max_value=5))
    topology, _source = linear_path_topology(n_forwarders)
    store = KeyStore.from_master_secret(b"prop-svc", topology.sensor_nodes())
    forwarders = list(range(1, n_forwarders + 1))

    count = draw(st.integers(min_value=1, max_value=8))
    packets = []
    for t in range(count):
        packet = MarkedPacket(
            report=Report(event=b"prop", location=(5.0, 5.0), timestamp=t)
        )
        packet = mark_through_path(SCHEME, store, PROVIDER, forwarders, packet)
        tamper_at = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=n_forwarders - 1),
            )
        )
        if tamper_at is not None:
            packet = tampered(packet, tamper_at)
        packets.append(packet)
    return topology, store, packets, n_forwarders


@st.composite
def backpressured_schedules(draw):
    """A stream cut into batches, a queue smaller than the stream, and
    how many packets to process after each batch (``None``: all)."""
    topology, store, packets, n_forwarders = draw(packet_streams())
    capacity = draw(st.integers(min_value=1, max_value=max(1, len(packets) - 1)))
    batches = []
    start = 0
    while start < len(packets):
        size = draw(st.integers(min_value=1, max_value=len(packets) - start))
        batches.append(packets[start : start + size])
        start += size
    drains = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=capacity)),
            min_size=len(batches),
            max_size=len(batches),
        )
    )
    return topology, store, batches, drains, capacity, n_forwarders


class TestServiceEquivalence:
    @given(scenario=packet_streams())
    @settings(max_examples=25, deadline=None)
    def test_service_matches_serial_sink(self, scenario):
        topology, store, packets, n_forwarders = scenario
        delivering = n_forwarders

        serial = TracebackSink(SCHEME, store, PROVIDER, topology)
        for packet in packets:
            serial.receive(packet, delivering)

        sink = TracebackSink(SCHEME, store, PROVIDER, topology)
        service = SinkIngestService(sink, capacity=len(packets))
        try:
            for packet in packets:
                assert service.submit(packet, delivering)
            verdict = service.verdict()
        finally:
            service.close()

        assert verdict == serial.verdict()
        assert set(sink.precedence.edges()) == set(serial.precedence.edges())
        assert sink.packets_received == serial.packets_received
        assert sink.tampered_packets == serial.tampered_packets
        assert sink.chains_with_marks == serial.chains_with_marks
        assert service.stats().processed == len(packets)

    @given(schedule=backpressured_schedules())
    @settings(max_examples=25, deadline=None)
    def test_backpressure_matches_sink_fed_accepted_batches(self, schedule):
        topology, store, batches, drains, capacity, delivering = schedule

        sink = TracebackSink(SCHEME, store, PROVIDER, topology)
        service = SinkIngestService(sink, capacity=capacity)
        accepted = []
        rejected = 0
        try:
            for batch, drain in zip(batches, drains, strict=True):
                if service.submit_batch(batch, delivering):
                    accepted.append(batch)
                else:
                    rejected += len(batch)
                service.process_batch(drain)
            verdict = service.verdict()
        finally:
            service.close()

        serial = TracebackSink(SCHEME, store, PROVIDER, topology)
        for batch in accepted:
            for packet in batch:
                serial.receive(packet, delivering)

        assert verdict == serial.verdict()
        assert set(sink.precedence.edges()) == set(serial.precedence.edges())
        assert sink.packets_received == serial.packets_received
        assert sink.tampered_packets == serial.tampered_packets
        stats = service.stats()
        assert stats.dropped == rejected
        assert stats.processed == sum(len(batch) for batch in accepted)
