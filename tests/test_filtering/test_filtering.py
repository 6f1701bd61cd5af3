"""Duplicate suppression, freshness, and SEF."""

import random

import pytest

from repro.crypto.mac import KeyedHashProvider
from repro.filtering.seqnum import OneTimeSequenceFilter
from repro.filtering.sef import (
    Endorsement,
    KeyPool,
    SefFilterForwarder,
    attach_endorsements,
    endorse,
    extract_endorsements,
)
from repro.filtering.suppression import DuplicateSuppressor
from repro.packets.report import Report


class TestDuplicateSuppressor:
    def r(self, tag: int) -> Report:
        return Report(event=bytes([tag]), location=(0, 0), timestamp=tag)

    def test_first_sighting_passes(self):
        s = DuplicateSuppressor()
        assert not s.is_duplicate(self.r(1))

    def test_repeat_is_duplicate(self):
        s = DuplicateSuppressor()
        s.is_duplicate(self.r(1))
        assert s.is_duplicate(self.r(1))
        assert s.duplicates_dropped == 1

    def test_distinct_reports_pass(self):
        s = DuplicateSuppressor()
        assert not s.is_duplicate(self.r(1))
        assert not s.is_duplicate(self.r(2))

    def test_lru_eviction(self):
        s = DuplicateSuppressor(capacity=2)
        s.is_duplicate(self.r(1))
        s.is_duplicate(self.r(2))
        s.is_duplicate(self.r(3))  # evicts 1
        assert not s.is_duplicate(self.r(1))  # forgotten: passes again

    def test_hit_refreshes_recency(self):
        s = DuplicateSuppressor(capacity=2)
        s.is_duplicate(self.r(1))
        s.is_duplicate(self.r(2))
        s.is_duplicate(self.r(1))  # refresh 1
        s.is_duplicate(self.r(3))  # evicts 2, not 1
        assert s.is_duplicate(self.r(1))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DuplicateSuppressor(capacity=0)


class TestFreshnessFilter:
    """The stale-timestamp rule of the one-time filter."""

    def r(self, ts: int) -> Report:
        return Report(event=b"e", location=(0, 0), timestamp=ts)

    def test_first_report_fresh(self):
        f = OneTimeSequenceFilter(window=10)
        assert f.accept(self.r(100))

    def test_stale_replay_rejected(self):
        f = OneTimeSequenceFilter(window=10)
        f.accept(self.r(100))
        assert not f.accept(self.r(80))
        assert f.rejected_stale == 1

    def test_within_window_accepted(self):
        f = OneTimeSequenceFilter(window=10)
        f.accept(self.r(100))
        assert f.accept(self.r(95))

    def test_freshest_tracks_max(self):
        f = OneTimeSequenceFilter(window=10)
        f.accept(self.r(100))
        f.accept(self.r(95))
        # The horizon follows the maximum seen (100), not the latest (95).
        assert not f.accept(self.r(89))
        assert f.accept(self.r(90))
        assert f.rejected_stale == 1

    def test_defeats_replaying_source(self):
        # A replayed capture keeps its original timestamp; once live
        # traffic has advanced the clock, replays fall out of the window.
        f = OneTimeSequenceFilter(window=5)
        assert f.accept(self.r(10))  # original
        f.accept(self.r(50))  # live traffic
        assert not f.accept(self.r(10))  # replay rejected
        assert f.rejected_stale == 1


class TestKeyPool:
    def test_partitioning(self):
        pool = KeyPool(b"m", pool_size=100, partitions=10, keys_per_node=5)
        assert pool.partition_size == 10
        assert pool.partition_of(0) == 0
        assert pool.partition_of(99) == 9

    def test_node_keys_single_partition(self):
        pool = KeyPool(b"m", pool_size=100, partitions=10, keys_per_node=5)
        keys = pool.assign_node_keys(3, random.Random(0))
        partitions = {pool.partition_of(i) for i in keys}
        assert len(partitions) == 1
        assert len(keys) == 5

    def test_deterministic_keys(self):
        a = KeyPool(b"m", 100, 10, 5)
        b = KeyPool(b"m", 100, 10, 5)
        assert a.key(42) == b.key(42)
        assert a.key(1) != a.key(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyPool(b"m", pool_size=10, partitions=3)  # not divisible
        with pytest.raises(ValueError):
            KeyPool(b"m", pool_size=10, partitions=20)
        with pytest.raises(ValueError):
            KeyPool(b"m", pool_size=100, partitions=10, keys_per_node=11)


class TestEndorsements:
    def test_attach_extract_roundtrip(self):
        r = Report(event=b"payload", location=(1, 2), timestamp=3)
        endos = [Endorsement(5, b"aaaa"), Endorsement(17, b"bbbb")]
        packed = attach_endorsements(r, endos)
        bare, out = extract_endorsements(packed)
        assert bare == r
        assert out == endos

    def test_empty_endorsements_roundtrip(self):
        r = Report(event=b"", location=(0, 0), timestamp=0)
        bare, out = extract_endorsements(attach_endorsements(r, []))
        assert bare == r and out == []

    def test_malformed_rejected(self):
        r = Report(event=b"\x00\xff", location=(0, 0), timestamp=0)
        with pytest.raises(ValueError):
            extract_endorsements(r)


class _PassThrough:
    node_id = 4

    def forward(self, packet):
        return packet


class TestSefFilterForwarder:
    def setup_method(self):
        self.pool = KeyPool(b"m", 100, 10, 5)
        self.provider = KeyedHashProvider()
        self.witnesses = [(0, self.pool.key(0)), (10, self.pool.key(10)), (20, self.pool.key(20))]

    def legit_packet(self):
        from repro.packets.packet import MarkedPacket

        r = Report(event=b"real-event", location=(1, 1), timestamp=5)
        return MarkedPacket(report=endorse(r, self.witnesses, self.provider))

    def make_filter(self, node_keys):
        return SefFilterForwarder(
            inner=_PassThrough(),
            node_keys=node_keys,
            provider=self.provider,
            threshold=3,
            pool=self.pool,
        )

    def test_legit_passes_any_checker(self):
        f = self.make_filter({0: self.pool.key(0)})
        assert f.forward(self.legit_packet()) is not None

    def test_forged_caught_by_key_holder(self):
        from repro.packets.packet import MarkedPacket

        r = Report(event=b"bogus", location=(1, 1), timestamp=5)
        claims = [(0, self.pool.key(0)), (10, b"\x00" * 32), (20, b"\x00" * 32)]
        packet = MarkedPacket(report=endorse(r, claims, self.provider))
        holder = self.make_filter({10: self.pool.key(10)})
        assert holder.forward(packet) is None
        assert holder.forged_dropped == 1

    def test_forged_passes_non_holder(self):
        from repro.packets.packet import MarkedPacket

        r = Report(event=b"bogus", location=(1, 1), timestamp=5)
        claims = [(0, self.pool.key(0)), (10, b"\x00" * 32), (20, b"\x00" * 32)]
        packet = MarkedPacket(report=endorse(r, claims, self.provider))
        bystander = self.make_filter({55: self.pool.key(55)})
        assert bystander.forward(packet) is not None

    def test_too_few_endorsements_dropped(self):
        from repro.packets.packet import MarkedPacket

        r = Report(event=b"thin", location=(1, 1), timestamp=5)
        packet = MarkedPacket(
            report=endorse(r, self.witnesses[:2], self.provider)
        )
        f = self.make_filter({})
        assert f.forward(packet) is None

    def test_same_partition_endorsements_rejected(self):
        from repro.packets.packet import MarkedPacket

        r = Report(event=b"dup-partition", location=(1, 1), timestamp=5)
        claims = [(0, self.pool.key(0)), (1, self.pool.key(1)), (2, self.pool.key(2))]
        packet = MarkedPacket(report=endorse(r, claims, self.provider))
        f = self.make_filter({})
        assert f.forward(packet) is None

    def test_unendorsed_malformed_dropped(self, packet):
        f = self.make_filter({})
        assert f.forward(packet) is None
        assert f.malformed_dropped == 1
