"""One-time sequence-number filter (Section 7 replay countermeasure)."""

import pytest

from repro.filtering.seqnum import OneTimeSequenceFilter
from repro.packets.report import Report


def r(ts: int, tag: int = 0) -> Report:
    return Report(event=bytes([tag]), location=(0, 0), timestamp=ts)


class TestOneTimeSequenceFilter:
    def test_fresh_report_accepted_once(self):
        f = OneTimeSequenceFilter(window=100)
        assert f.accept(r(10))
        assert not f.accept(r(10))  # byte-identical replay
        assert f.rejected_reused == 1

    def test_distinct_reports_same_timestamp(self):
        f = OneTimeSequenceFilter(window=100)
        assert f.accept(r(10, tag=1))
        assert f.accept(r(10, tag=2))

    def test_stale_rejected(self):
        f = OneTimeSequenceFilter(window=10)
        f.accept(r(100))
        assert f.accept(r(95))  # behind the freshest, inside the window
        assert not f.accept(r(80))
        # Stale against the maximum seen (100), not the latest accepted (95).
        assert not f.accept(r(85))
        assert f.rejected_stale == 2

    def test_replay_attack_scenario(self):
        # The mole captures a legitimate report, waits, then replays it:
        # rejected both as reused (inside window) and stale (outside).
        f = OneTimeSequenceFilter(window=50)
        captured = r(10, tag=7)
        assert f.accept(captured)
        f.accept(r(30))
        assert not f.accept(captured)  # reuse
        f.accept(r(200))  # clock moves on
        assert not f.accept(captured)  # now stale too
        assert f.rejected_reused >= 1
        assert f.rejected_stale >= 1

    def test_memory_bounded_by_window(self):
        f = OneTimeSequenceFilter(window=10)
        for ts in range(0, 500):
            f.accept(r(ts, tag=ts % 251))
        # Entries older than freshest - window are pruned.
        assert f.tracked <= 12

    def test_pruned_entry_reaccepted_only_if_fresh(self):
        f = OneTimeSequenceFilter(window=10)
        f.accept(r(1))
        f.accept(r(100))
        # r(1) was pruned but is stale now: still rejected.
        assert not f.accept(r(1))

    def test_out_of_order_within_window(self):
        f = OneTimeSequenceFilter(window=100)
        assert f.accept(r(50))
        assert f.accept(r(20))  # older but inside the window
        assert f.accept(r(70))

    def test_validation(self):
        with pytest.raises(ValueError):
            OneTimeSequenceFilter(window=-1)
