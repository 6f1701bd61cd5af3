"""End-to-end replay attack vs the Section 7 countermeasures.

A mole captures legitimate marked packets and replays them verbatim
(re-stamping would invalidate the captured marks).  Naive traceback on the
replayed traffic would chase the original, innocent route; duplicate
suppression and one-time sequence numbers kill the traffic instead.
"""

import random

import pytest

from repro.adversary.moles import ReplayingSource
from repro.filtering.seqnum import OneTimeSequenceFilter
from repro.filtering.suppression import DuplicateSuppressor
from repro.marking.nested import NestedMarking
from repro.sim.behaviors import HonestForwarder
from repro.sim.sources import HonestReportSource
from tests.conftest import ctx_for, mark_through_path


@pytest.fixture
def captured_traffic(keystore, provider):
    """Legitimate marked packets as overheard near the original path."""
    scheme = NestedMarking()
    source = HonestReportSource(9, (5.0, 5.0), random.Random(3))
    packets = []
    for t in range(10):
        packet = source.next_packet(timestamp=100 + t)
        packets.append(
            mark_through_path(scheme, keystore, provider, [1, 2, 3], packet)
        )
    return packets


class TestReplayAttack:
    def test_replayed_marks_still_verify(self, captured_traffic, keystore, provider):
        # The danger: replayed packets carry perfectly valid stale marks
        # pointing at the ORIGINAL (innocent) path.
        from repro.traceback.verify import PacketVerifier

        replayer = ReplayingSource(7, captured_traffic, random.Random(0))
        replay = replayer.next_packet(timestamp=999)
        result = PacketVerifier(NestedMarking(), keystore, provider).verify(replay)
        assert result.chain_ids == [1, 2, 3]  # innocent nodes implicated

    def test_duplicate_suppression_stops_replays(
        self, captured_traffic, keystore, provider
    ):
        forwarder = HonestForwarder(
            ctx_for(5, keystore, provider),
            NestedMarking(),
            suppressor=DuplicateSuppressor(capacity=64),
        )
        # Live traffic passes once...
        for packet in captured_traffic:
            assert forwarder.forward(packet) is not None
        # ...replays of any captured packet die at the first honest hop.
        replayer = ReplayingSource(7, captured_traffic, random.Random(0))
        dropped = sum(
            forwarder.forward(replayer.next_packet(timestamp=999)) is None
            for _ in range(20)
        )
        assert dropped == 20

    def test_one_time_filter_stops_replays_after_eviction(
        self, captured_traffic
    ):
        # Bounded LRU suppression forgets; the sink-side one-time filter
        # also rejects *stale* replays arriving long after capture.
        gate = OneTimeSequenceFilter(window=50)
        for packet in captured_traffic:
            assert gate.accept(packet.report)
        # Network time moves far beyond the capture window...
        from repro.packets.report import Report

        gate.accept(Report(event=b"live", location=(0, 0), timestamp=500))
        replayer = ReplayingSource(7, captured_traffic, random.Random(0))
        for _ in range(10):
            assert not gate.accept(replayer.next_packet(timestamp=999).report)
        assert gate.rejected_stale == 10

    def test_defenses_do_not_harm_live_traffic(self, keystore, provider):
        scheme = NestedMarking()
        source = HonestReportSource(9, (5.0, 5.0), random.Random(4))
        forwarder = HonestForwarder(
            ctx_for(5, keystore, provider),
            scheme,
            suppressor=DuplicateSuppressor(capacity=64),
        )
        gate = OneTimeSequenceFilter(window=1000)
        for t in range(50):
            packet = source.next_packet(timestamp=200 + t)
            assert forwarder.forward(packet) is not None
            assert gate.accept(packet.report)
