"""Declarative fault schedules: builders, ordering, validation."""

import random

import pytest

from repro.faults.schedule import FAULT_KINDS, FaultEvent, FaultSchedule
from repro.net.links import LinkModel
from repro.net.topology import grid_topology


class TestFaultEvent:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=0.0, kind="meteor", node=1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(time=-1.0, kind="crash", node=1)

    def test_node_kinds_need_node(self):
        for kind in ("crash", "recover"):
            with pytest.raises(ValueError, match="needs a node"):
                FaultEvent(time=0.0, kind=kind)

    def test_link_kinds_need_edge(self):
        with pytest.raises(ValueError, match="needs an edge"):
            FaultEvent(time=0.0, kind="restore-link")
        with pytest.raises(ValueError, match="self-loop"):
            FaultEvent(time=0.0, kind="restore-link", edge=(3, 3))

    def test_degrade_needs_model(self):
        with pytest.raises(ValueError, match="LinkModel"):
            FaultEvent(time=0.0, kind="degrade-link", edge=(1, 2))

    def test_deplete_needs_positive_budget(self):
        with pytest.raises(ValueError, match="budget"):
            FaultEvent(time=0.0, kind="deplete", node=1)
        with pytest.raises(ValueError, match="budget"):
            FaultEvent(time=0.0, kind="deplete", node=1, budget_joules=-0.5)

    def test_region_outage_fields(self):
        with pytest.raises(ValueError, match="center and radius"):
            FaultEvent(time=0.0, kind="region-outage")
        with pytest.raises(ValueError, match="radius"):
            FaultEvent(time=0.0, kind="region-outage", center=(0, 0), radius=0.0)
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(
                time=0.0,
                kind="region-outage",
                center=(0, 0),
                radius=1.0,
                duration=-2.0,
            )


class TestScheduleBuilders:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule().crash(5.0, 3).crash(1.0, 2).recover(3.0, 2)
        assert [e.time for e in schedule] == [1.0, 3.0, 5.0]

    def test_recover_precedes_crash_at_same_instant(self):
        schedule = FaultSchedule().crash(2.0, 4).recover(2.0, 4)
        kinds = [e.kind for e in schedule]
        assert kinds == ["recover", "crash"]
        assert FAULT_KINDS.index("recover") < FAULT_KINDS.index("crash")

    def test_symmetric_link_builders(self):
        model = LinkModel(loss_prob=0.5)
        schedule = (
            FaultSchedule()
            .degrade_link(1.0, 1, 2, model, symmetric=True)
            .add(FaultEvent(time=2.0, kind="restore-link", edge=(1, 2)))
        )
        edges = sorted(e.edge for e in schedule)
        assert edges == [(1, 2), (1, 2), (2, 1)]

    def test_merge_combines_and_sorts(self):
        a = FaultSchedule().crash(3.0, 1)
        b = FaultSchedule().crash(1.0, 2)
        merged = a.merge(b)
        assert len(merged) == 2
        assert [e.time for e in merged] == [1.0, 3.0]
        assert len(a) == 1 and len(b) == 1  # originals untouched

    def test_repr_counts_kinds(self):
        schedule = FaultSchedule().crash(1.0, 1).crash(2.0, 2).recover(3.0, 1)
        assert "crash=2" in repr(schedule)
        assert "recover=1" in repr(schedule)


class TestValidation:
    def test_sink_target_rejected(self):
        topo = grid_topology(3, 3, sink_at="corner")
        schedule = FaultSchedule().crash(1.0, topo.sink)
        with pytest.raises(ValueError, match="sink"):
            schedule.validate(topo)

    def test_unknown_node_rejected(self):
        topo = grid_topology(3, 3)
        with pytest.raises(ValueError, match="unknown node"):
            FaultSchedule().crash(1.0, 999).validate(topo)

    def test_non_edge_rejected(self):
        topo = grid_topology(3, 3)
        # Nodes 0 and 8 sit at opposite grid corners: not radio neighbors.
        schedule = FaultSchedule().add(
            FaultEvent(time=1.0, kind="restore-link", edge=(0, 8))
        )
        with pytest.raises(ValueError, match="non-edge"):
            schedule.validate(topo)

    def test_valid_schedule_passes(self):
        topo = grid_topology(3, 3)
        schedule = (
            FaultSchedule()
            .crash(1.0, 4)
            .recover(2.0, 4)
            .degrade_link(1.0, 1, 2, LinkModel(loss_prob=0.9))
        )
        schedule.validate(topo)  # no raise


class TestRandomChurn:
    def test_deterministic_for_equal_seeds(self):
        topo = grid_topology(4, 4)
        a = FaultSchedule.random_churn(topo, 0.2, 5.0, random.Random(11))
        b = FaultSchedule.random_churn(topo, 0.2, 5.0, random.Random(11))
        assert a.events == b.events

    def test_protected_nodes_never_crash(self):
        topo = grid_topology(4, 4)
        protected = {15, 14}
        schedule = FaultSchedule.random_churn(
            topo, 0.5, 10.0, random.Random(3), protect=protected
        )
        assert len(schedule) > 0
        assert not {e.node for e in schedule} & protected

    def test_every_crash_gets_a_recovery(self):
        topo = grid_topology(4, 4)
        schedule = FaultSchedule.random_churn(topo, 0.3, 8.0, random.Random(5))
        crashes = sum(1 for e in schedule if e.kind == "crash")
        recoveries = sum(1 for e in schedule if e.kind == "recover")
        assert crashes == recoveries

    def test_zero_rate_is_empty(self):
        topo = grid_topology(3, 3)
        schedule = FaultSchedule.random_churn(topo, 0.0, 5.0, random.Random(1))
        assert len(schedule) == 0

    def test_parameter_validation(self):
        topo = grid_topology(3, 3)
        rng = random.Random(0)
        with pytest.raises(ValueError, match="rate"):
            FaultSchedule.random_churn(topo, -0.1, 5.0, rng)
        with pytest.raises(ValueError, match="duration"):
            FaultSchedule.random_churn(topo, 0.1, 0.0, rng)
        with pytest.raises(ValueError, match="mean_downtime"):
            FaultSchedule.random_churn(topo, 0.1, 5.0, rng, mean_downtime=0.0)
