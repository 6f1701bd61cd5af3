"""Fault injector: applying schedules to a live simulation."""

import random

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.net.links import LinkModel
from repro.sim.sources import HonestReportSource
from tests.test_faults.conftest import make_grid_sim


def far_source(sim, topo, seed=2):
    source_id = max(topo.sensor_nodes())
    return HonestReportSource(
        source_id, topo.position(source_id), random.Random(seed)
    ), source_id


class TestArming:
    def test_arm_counts_events(self):
        sim, topo, *_ = make_grid_sim()
        injector = FaultInjector(sim, FaultSchedule().crash(1.0, 5).recover(2.0, 5))
        assert injector.arm() == 2

    def test_double_arm_raises(self):
        sim, topo, *_ = make_grid_sim()
        injector = FaultInjector(sim, FaultSchedule())
        injector.arm()
        with pytest.raises(RuntimeError, match="armed"):
            injector.arm()

    def test_schedule_validated_against_topology(self):
        sim, topo, *_ = make_grid_sim()
        with pytest.raises(ValueError, match="unknown node"):
            FaultInjector(sim, FaultSchedule().crash(1.0, 999))


class TestCrashRecover:
    def test_crash_and_recover_at_virtual_times(self):
        sim, topo, *_ = make_grid_sim()
        injector = FaultInjector(sim, FaultSchedule().crash(1.0, 5).recover(2.0, 5))
        injector.arm()
        observed = {}
        sim.sim.schedule_at(0.5, lambda: observed.update(before=sim.node_is_down(5)))
        sim.sim.schedule_at(1.5, lambda: observed.update(during=sim.node_is_down(5)))
        sim.sim.schedule_at(2.5, lambda: observed.update(after=sim.node_is_down(5)))
        sim.run()
        assert observed == {"before": False, "during": True, "after": False}
        assert injector.counts() == {"crash": 1, "recover": 1}

    def test_intervals_recorded_for_attribution(self):
        sim, topo, *_ = make_grid_sim()
        injector = FaultInjector(sim, FaultSchedule().crash(1.0, 5).recover(2.0, 5))
        injector.arm()
        sim.run()
        assert injector.node_was_down(5, 1.0)
        assert injector.node_was_down(5, 1.5)
        assert not injector.node_was_down(5, 0.5)
        assert not injector.node_was_down(5, 2.5)
        assert injector.node_was_down(5, 2.1, slack=0.2)

    def test_crashed_forwarder_reroutes_traffic(self):
        sim, topo, routing, *_ = make_grid_sim()
        source, source_id = far_source(sim, topo)
        hop = routing.next_hop(source_id)
        injector = FaultInjector(sim, FaultSchedule().crash(0.2, hop))
        injector.arm()
        sim.add_periodic_source(source, interval=0.05, count=30)
        sim.run()
        # Everything injected either delivered or died to the fault; the
        # repairing table routed around the dead hop for the rest.
        m = sim.metrics
        assert m.packets_delivered + m.packets_faulted == m.packets_injected
        assert m.packets_delivered > 20
        assert routing.repairs >= 1
        assert m.route_repairs >= 1

    def test_crashed_source_skips_injections(self):
        sim, topo, *_ = make_grid_sim()
        source, source_id = far_source(sim, topo)
        injector = FaultInjector(sim, FaultSchedule().crash(0.0, source_id))
        injector.arm()
        sim.add_periodic_source(source, interval=0.1, count=5, start=0.1)
        sim.run()
        assert sim.metrics.packets_injected == 0
        assert sim.metrics.packets_delivered == 0


class TestRegionOutage:
    def test_region_crashes_and_recovers(self):
        sim, topo, *_ = make_grid_sim(side=4)
        # Around node 5 (position (1,1) on the grid): radius 0.5 hits it alone.
        center = topo.position(5)
        schedule = FaultSchedule().add(
            FaultEvent(
                time=1.0, kind="region-outage", center=center, radius=0.5, duration=1.0
            )
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()
        during, after = {}, {}
        sim.sim.schedule_at(1.5, lambda: during.update(down=set(sim.down_nodes)))
        sim.sim.schedule_at(2.5, lambda: after.update(down=set(sim.down_nodes)))
        sim.run()
        assert during["down"] == {5}
        assert after["down"] == set()

    def test_wide_region_spares_the_sink(self):
        sim, topo, *_ = make_grid_sim(side=3)
        schedule = FaultSchedule().add(
            FaultEvent(time=0.5, kind="region-outage", center=(0.0, 0.0), radius=50.0)
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()
        sim.run()
        assert set(sim.down_nodes) == set(topo.sensor_nodes())
        assert not sim.node_is_down(topo.sink)


class TestLinkDegradation:
    def test_override_installed_and_reverted(self):
        sim, topo, *_ = make_grid_sim()
        lossy = LinkModel(base_delay=0.001, loss_prob=0.99)
        schedule = (
            FaultSchedule()
            .degrade_link(1.0, 5, 1, lossy)
            .add(FaultEvent(time=2.0, kind="restore-link", edge=(5, 1)))
        )
        injector = FaultInjector(sim, schedule)
        injector.arm()
        seen = {}
        sim.sim.schedule_at(1.5, lambda: seen.update(mid=sim.links.model_for(5, 1)))
        sim.sim.schedule_at(2.5, lambda: seen.update(end=sim.links.model_for(5, 1)))
        sim.run()
        assert seen["mid"] is lossy
        assert seen["end"] is sim.links.default
        assert injector.link_was_degraded(5, 1, 1.5)
        assert not injector.link_was_degraded(5, 1, 2.5)
        assert not injector.link_was_degraded(1, 5, 1.5)  # directed

    def test_lossy_override_drops_traffic_on_that_link(self):
        sim, topo, routing, *_ = make_grid_sim()
        source, source_id = far_source(sim, topo)
        hop = routing.next_hop(source_id)
        lossy = LinkModel(base_delay=0.001, loss_prob=0.99)
        injector = FaultInjector(
            sim, FaultSchedule().degrade_link(0.0, source_id, hop, lossy)
        )
        injector.arm()
        sim.add_periodic_source(source, interval=0.05, count=20)
        sim.run()
        m = sim.metrics
        assert m.packets_lost + m.packets_delivered == 20
        assert m.packets_lost >= 15


class TestEnergyDepletion:
    def test_node_crashes_when_budget_exhausted(self):
        sim, topo, routing, *_ = make_grid_sim()
        source, source_id = far_source(sim, topo)
        hop = routing.next_hop(source_id)
        # Budget covers only a few transmissions through the first hop.
        model = sim.metrics.energy_model
        per_packet = model.joules_per_packet + model.joules_per_byte * 60
        injector = FaultInjector(
            sim, FaultSchedule().deplete(0.0, hop, budget_joules=3 * per_packet)
        )
        injector.arm()
        sim.add_periodic_source(source, interval=0.05, count=40)
        sim.run()
        assert injector.counts().get("deplete-crash") == 1
        assert injector.node_was_down(hop, sim.sim.now)
        # Traffic continued via repair after the depletion crash.
        assert sim.metrics.packets_delivered > 0
        assert routing.repairs >= 1

    def test_generous_budget_never_crashes(self):
        sim, topo, routing, *_ = make_grid_sim()
        source, source_id = far_source(sim, topo)
        hop = routing.next_hop(source_id)
        injector = FaultInjector(
            sim, FaultSchedule().deplete(0.0, hop, budget_joules=1e6)
        )
        injector.arm()
        sim.add_periodic_source(source, interval=0.05, count=20)
        sim.run()
        assert "deplete-crash" not in injector.counts()
        assert sim.metrics.packets_delivered == 20


class TestServiceHook:
    def test_crash_invalidates_ingest_cache(self):
        class StubIngest:
            def __init__(self):
                self.invalidated = []

            def submit(self, packet, delivering_node):
                raise AssertionError("no traffic in this test")

            def invalidate_node(self, node_id):
                self.invalidated.append(node_id)

        stub = StubIngest()
        sim, topo, *_ = make_grid_sim(ingest=stub)
        injector = FaultInjector(sim, FaultSchedule().crash(1.0, 5).crash(1.5, 6))
        injector.arm()
        sim.run()
        assert stub.invalidated == [5, 6]
