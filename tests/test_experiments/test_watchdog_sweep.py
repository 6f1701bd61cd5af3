"""The watchdog-sweep experiment: fused vs PNM-only detection and safety."""

import pytest

from repro.experiments import watchdog_sweep
from repro.experiments.cli import _SINGLE_RUNNERS
from repro.experiments.presets import CI


@pytest.fixture(scope="module")
def rows():
    result = watchdog_sweep.run(CI)
    assert result.figure_id == "watchdog-sweep"
    return result.as_dicts()


def scenario_rows(rows, scenario):
    selected = [row for row in rows if row["scenario"] == scenario]
    assert selected, f"no {scenario} rows"
    return selected


class TestWatchdogSweep:
    def test_registered_in_cli(self):
        assert _SINGLE_RUNNERS["watchdog-sweep"] is watchdog_sweep.run

    def test_every_scenario_is_swept(self, rows):
        assert {row["scenario"] for row in rows} == set(watchdog_sweep.SCENARIOS)

    def test_fusion_beats_pnm_only_on_every_mole_row(self, rows):
        for row in scenario_rows(rows, "mole"):
            assert row["fused_detect"] < row["pnm_detect"], row

    def test_framing_rejected(self, rows):
        # An honest data plane gives no tamper evidence to corroborate a
        # lying watcher: nothing is confirmed and nobody is accused.
        for row in scenario_rows(rows, "framing"):
            assert row["fused_false_rate"] == 0.0, row
            assert row["wd_confirmed"] == 0, row

    def test_collusion_suppresses_accusations(self, rows):
        for row in scenario_rows(rows, "collusion"):
            assert row["wd_suppressed"] > 0, row

    def test_watchdog_adds_no_false_accusation(self, rows):
        for row in rows:
            assert row["wd_added_false"] == 0.0, row
