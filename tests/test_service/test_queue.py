"""IngestQueue: bounded capacity, all-or-nothing tail drop, exact counters."""

import pytest

from repro.service import IngestQueue


class TestBasics:
    def test_fifo_order(self):
        queue = IngestQueue(capacity=10)
        for item in ["a", "b", "c"]:
            assert queue.offer_all([item])
        assert queue.take() == ["a", "b", "c"]

    def test_take_max_items(self):
        queue = IngestQueue(capacity=10)
        for item in range(5):
            queue.offer_all([item])
        assert queue.take(2) == [0, 1]
        assert queue.depth == 3
        assert queue.take() == [2, 3, 4]

    def test_take_empty(self):
        assert IngestQueue(capacity=1).take() == []

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IngestQueue(capacity=0)

    def test_invalid_take(self):
        with pytest.raises(ValueError):
            IngestQueue(capacity=1).take(-1)


class TestDropNewest:
    """Tail drop: a full queue sheds the incoming offer, never its head."""

    def test_full_queue_rejects_offer(self):
        queue = IngestQueue(capacity=4)
        results = [queue.offer_all([i]) for i in range(10)]
        assert results == [True] * 4 + [False] * 6
        # The oldest four survive.
        assert queue.take() == [0, 1, 2, 3]

    def test_exact_counters(self):
        queue = IngestQueue(capacity=4)
        for i in range(10):
            queue.offer_all([i])
        assert queue.offered == 10
        assert queue.accepted == 4
        assert queue.dropped == 6
        assert queue.depth == 4
        assert queue.high_water == 4

    def test_drains_then_accepts_again(self):
        queue = IngestQueue(capacity=2)
        queue.offer_all([1])
        queue.offer_all([2])
        assert not queue.offer_all([3])
        queue.take()
        assert queue.offer_all([4])
        assert queue.take() == [4]


class TestOfferAll:
    def test_drop_newest_is_all_or_nothing(self):
        queue = IngestQueue(capacity=4)
        assert queue.offer_all([0, 1, 2])
        # Room for one more item, but not for the whole batch: nothing
        # from the batch may enter, or a retrying sender double-counts
        # the accepted prefix.
        assert not queue.offer_all([3, 4])
        assert queue.take() == [0, 1, 2]
        assert queue.offer_all([3, 4])
        assert queue.take() == [3, 4]

    def test_drop_newest_rejection_counts_whole_batch(self):
        queue = IngestQueue(capacity=2)
        queue.offer_all([0])
        assert not queue.offer_all([1, 2, 3])
        assert queue.offered == 4
        assert queue.accepted == 1
        assert queue.dropped == 3
        assert queue.depth == 1

    def test_empty_batch_is_a_noop(self):
        queue = IngestQueue(capacity=1)
        assert queue.offer_all([])
        assert queue.depth == 0
        assert queue.offered == 0

    def test_closed_queue_raises(self):
        queue = IngestQueue(capacity=4)
        queue.close()
        with pytest.raises(RuntimeError):
            queue.offer_all([1])

    def test_high_water_updates(self):
        queue = IngestQueue(capacity=10)
        queue.offer_all(list(range(6)))
        queue.take()
        assert queue.high_water == 6


class TestLifecycle:
    def test_close_rejects_offers_but_allows_take(self):
        queue = IngestQueue(capacity=4)
        queue.offer_all(["x"])
        queue.close()
        assert queue.closed
        with pytest.raises(RuntimeError):
            queue.offer_all(["y"])
        assert queue.take() == ["x"]

    def test_high_water_tracks_peak_not_current(self):
        queue = IngestQueue(capacity=10)
        for i in range(7):
            queue.offer_all([i])
        queue.take()
        assert queue.depth == 0
        assert queue.high_water == 7

    def test_stats_dict(self):
        queue = IngestQueue(capacity=3)
        queue.offer_all([1])
        assert not queue.offer_all([2, 3, 4])
        stats = queue.stats()
        assert stats["capacity"] == 3
        assert stats["depth"] == 1
        assert stats["offered"] == 4
        assert stats["dropped"] == 3
        assert not stats["closed"]
