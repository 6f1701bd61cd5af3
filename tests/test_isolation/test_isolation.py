"""Revocation and quarantine."""

import pytest

from repro.isolation.quarantine import QuarantineManager, QuarantinePolicy
from repro.isolation.revocation import RevocationList
from repro.traceback.localize import SuspectNeighborhood


class TestRevocationList:
    def test_revoke_and_query(self):
        rl = RevocationList()
        rl.revoke(5, reason="test evidence", revoked_at=1.5)
        assert rl.is_revoked(5)
        assert 5 in rl
        assert not rl.is_revoked(6)
        assert rl.record(5).reason == "test evidence"
        assert rl.record(5).revoked_at == 1.5

    def test_first_record_wins(self):
        rl = RevocationList()
        rl.revoke(5, reason="first", revoked_at=1.0)
        rl.revoke(5, reason="second", revoked_at=2.0)
        assert rl.record(5).reason == "first"

    def test_revoked_ids(self):
        rl = RevocationList()
        rl.revoke(2, "a")
        rl.revoke(7, "b")
        assert 2 in rl and 7 in rl and 3 not in rl
        assert len(rl) == 2

    def test_unknown_record_raises(self):
        with pytest.raises(KeyError):
            RevocationList().record(9)

    def test_raising_listener_does_not_block_others(self):
        rl = RevocationList()
        seen: list[int] = []

        def bad(record):
            raise RuntimeError("listener boom")

        rl.subscribe(bad)
        rl.subscribe(lambda record: seen.append(record.node_id))
        with pytest.raises(RuntimeError, match="listener boom"):
            rl.revoke(5, reason="evidence")
        # The record landed and the later listener still fired.
        assert rl.is_revoked(5)
        assert seen == [5]

    def test_first_listener_error_wins(self):
        rl = RevocationList()
        rl.subscribe(lambda record: (_ for _ in ()).throw(RuntimeError("first")))
        rl.subscribe(lambda record: (_ for _ in ()).throw(ValueError("second")))
        with pytest.raises(RuntimeError, match="first"):
            rl.revoke(3, reason="evidence")


class TestQuarantineManager:
    def suspect(self):
        return SuspectNeighborhood(center=5, members=frozenset({4, 5, 6}))

    def test_full_neighborhood(self):
        qm = QuarantineManager(policy=QuarantinePolicy.FULL_NEIGHBORHOOD)
        newly = qm.apply(self.suspect(), at=3.0)
        assert newly == {4, 5, 6}
        assert qm.revocations.is_revoked(4)

    def test_center_only(self):
        qm = QuarantineManager(policy=QuarantinePolicy.CENTER_ONLY)
        assert qm.apply(self.suspect()) == {5}
        assert not qm.revocations.is_revoked(4)

    def test_protected_nodes_spared(self):
        qm = QuarantineManager(protect={4})
        assert qm.apply(self.suspect()) == {5, 6}

    def test_idempotent(self):
        qm = QuarantineManager()
        first = qm.apply(self.suspect())
        second = qm.apply(self.suspect())
        assert first == {4, 5, 6}
        assert second == set()

    def test_evidence_recorded(self):
        qm = QuarantineManager()
        qm.apply(self.suspect(), at=9.0, evidence="PNM trace, 62 packets")
        assert qm.revocations.record(5).reason == "PNM trace, 62 packets"

    def test_default_evidence_mentions_center_and_loop(self):
        qm = QuarantineManager()
        loopy = SuspectNeighborhood(
            center=5, members=frozenset({5}), via_loop=True
        )
        qm.apply(loopy)
        assert "loop" in qm.revocations.record(5).reason
