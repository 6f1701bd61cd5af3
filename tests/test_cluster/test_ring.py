"""ShardRing properties: determinism, balance, minimal movement, memo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import (
    DEFAULT_VNODES,
    LOOKUP_MEMO_CAP,
    ShardRing,
    region_shard_key,
    report_shard_key,
)
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report


def uniform_keys(count: int) -> list[bytes]:
    return [f"key-{i}".encode() for i in range(count)]


class TestDeterminism:
    def test_same_shards_same_ownership(self):
        a = ShardRing([0, 1, 2, 3])
        b = ShardRing([0, 1, 2, 3])
        for key in uniform_keys(500):
            assert a.shard_for(key) == b.shard_for(key)

    def test_insertion_order_irrelevant(self):
        a = ShardRing([3, 0, 2, 1])
        b = ShardRing([0, 1, 2, 3])
        for key in uniform_keys(500):
            assert a.shard_for(key) == b.shard_for(key)

    def test_incremental_add_equals_bulk_construction(self):
        bulk = ShardRing([0, 1, 2])
        grown = ShardRing([0])
        grown.add_shard(2)
        grown.add_shard(1)
        for key in uniform_keys(500):
            assert bulk.shard_for(key) == grown.shard_for(key)


class TestBalance:
    def test_default_vnodes_spread_uniform_keys(self):
        ring = ShardRing([0, 1, 2, 3])
        counts = ring.ownership(uniform_keys(4000))
        assert sum(counts.values()) == 4000
        # 64 vnodes/shard keeps the spread coarse but bounded; a shard
        # owning under 10% (or over 45%) would break the bench premise.
        for shard_id, count in counts.items():
            assert 400 <= count <= 1800, (shard_id, counts)

    def test_more_vnodes_tighten_the_spread(self):
        coarse = ShardRing([0, 1, 2, 3], vnodes=8)
        fine = ShardRing([0, 1, 2, 3], vnodes=256)
        keys = uniform_keys(4000)

        def imbalance(ring):
            counts = ring.ownership(keys)
            return max(counts.values()) - min(counts.values())

        assert imbalance(fine) <= imbalance(coarse)


class TestMinimalMovement:
    def test_remove_moves_only_the_dead_shards_keys(self):
        ring = ShardRing([0, 1, 2, 3])
        keys = uniform_keys(1000)
        before = {key: ring.shard_for(key) for key in keys}
        ring.remove_shard(2)
        for key in keys:
            if before[key] != 2:
                assert ring.shard_for(key) == before[key]
            else:
                assert ring.shard_for(key) != 2

    def test_add_only_steals_for_the_new_shard(self):
        ring = ShardRing([0, 1, 2])
        keys = uniform_keys(1000)
        before = {key: ring.shard_for(key) for key in keys}
        ring.add_shard(3)
        moved = 0
        for key in keys:
            after = ring.shard_for(key)
            if after != before[key]:
                assert after == 3
                moved += 1
        # Roughly 1/4 of the keyspace should move, never none, never all.
        assert 0 < moved < len(keys) // 2

    def test_remove_then_add_restores_the_exact_mapping(self):
        ring = ShardRing([0, 1, 2, 3])
        keys = uniform_keys(1000)
        before = {key: ring.shard_for(key) for key in keys}
        ring.remove_shard(1)
        ring.add_shard(1)
        assert {key: ring.shard_for(key) for key in keys} == before


class TestMembership:
    def test_len_and_contains(self):
        ring = ShardRing([4, 7])
        assert len(ring) == 2
        assert 4 in ring and 7 in ring and 5 not in ring
        assert ring.shard_ids == [4, 7]

    def test_duplicate_add_rejected(self):
        ring = ShardRing([0])
        with pytest.raises(ValueError, match="already"):
            ring.add_shard(0)

    def test_remove_missing_rejected(self):
        with pytest.raises(ValueError, match="not on the ring"):
            ShardRing([0]).remove_shard(9)

    def test_empty_ring_cannot_route(self):
        with pytest.raises(LookupError, match="empty ring"):
            ShardRing().shard_for(b"anything")

    def test_vnodes_validated(self):
        with pytest.raises(ValueError, match="vnodes"):
            ShardRing([0], vnodes=0)

    def test_default_vnodes_constant(self):
        assert ShardRing([0]).vnodes == DEFAULT_VNODES


class TestLookupMemo:
    """``shard_for`` remembers answers without ever changing one."""

    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.sets(st.integers(0, 7), min_size=1, max_size=4),
        steps=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.lists(st.integers(0, 40), max_size=8),
            ),
            max_size=10,
        ),
        probes=st.lists(st.integers(0, 40), min_size=1, max_size=20),
    )
    def test_matches_a_fresh_ring_after_churn(self, initial, steps, probes):
        ring = ShardRing(initial)
        for shard_id, lookups in steps:
            # Toggle membership, never emptying the ring, with lookups
            # in between so the memo holds answers across every change.
            if shard_id in ring and len(ring) > 1:
                ring.remove_shard(shard_id)
            elif shard_id not in ring:
                ring.add_shard(shard_id)
            for key in lookups:
                ring.shard_for(b"k%d" % key)
        fresh = ShardRing(ring.shard_ids)
        for key in probes:
            assert ring.shard_for(b"k%d" % key) == fresh.shard_for(b"k%d" % key)

    def test_ownership_is_unchanged_by_a_warm_memo(self):
        keys = uniform_keys(2000)
        warm = ShardRing([0, 1, 2, 3])
        for key in keys[::3]:
            warm.shard_for(key)
        warm.remove_shard(2)
        for key in keys[::5]:
            warm.shard_for(key)
        fresh = ShardRing([0, 1, 3])
        expected = {0: 0, 1: 0, 3: 0}
        for key in keys:
            expected[fresh.shard_for(key)] += 1
        assert warm.ownership(keys) == expected

    def test_memo_never_grows_past_its_cap(self):
        ring = ShardRing([0, 1])
        reference = ShardRing([0, 1])
        largest = 0
        for index in range(LOOKUP_MEMO_CAP + 500):
            key = b"distinct-%d" % index
            ring.shard_for(key)
            largest = max(largest, len(ring._memo))
        assert largest == LOOKUP_MEMO_CAP
        for index in range(0, LOOKUP_MEMO_CAP + 500, 97):
            key = b"distinct-%d" % index
            assert ring.shard_for(key) == reference.shard_for(key)

    def test_membership_changes_clear_the_memo(self):
        ring = ShardRing([0, 1])
        ring.shard_for(b"a")
        ring.add_shard(2)
        assert not ring._memo
        ring.shard_for(b"a")
        ring.remove_shard(2)
        assert not ring._memo


def packet_at(location, event=b"e") -> MarkedPacket:
    return MarkedPacket(
        report=Report(event=event, location=location, timestamp=0)
    )


class TestShardKeys:
    def test_region_key_quantizes_by_cell(self):
        key = region_shard_key(cell_size=8.0)
        assert key(packet_at((0.0, 0.0))) == key(packet_at((7.9, 7.9)))
        assert key(packet_at((0.0, 0.0))) != key(packet_at((8.0, 0.0)))

    def test_region_key_ignores_event_payload(self):
        key = region_shard_key(cell_size=8.0)
        assert key(packet_at((3.0, 3.0), b"a")) == key(
            packet_at((3.0, 3.0), b"b")
        )

    def test_region_key_validates_cell_size(self):
        with pytest.raises(ValueError, match="cell_size"):
            region_shard_key(cell_size=0.0)

    def test_report_key_distinguishes_reports(self):
        assert report_shard_key(
            packet_at((0.0, 0.0), b"a")
        ) != report_shard_key(packet_at((0.0, 0.0), b"b"))

    def test_report_key_is_stable(self):
        assert report_shard_key(
            packet_at((1.0, 2.0), b"same")
        ) == report_shard_key(packet_at((1.0, 2.0), b"same"))
