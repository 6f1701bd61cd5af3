"""Presets, tables, CLI, sink-cost experiment, and the headline claim."""

import numpy as np
import pytest

from repro.experiments import ablations, sink_cost
from repro.experiments.fastpath import identification_times, simulate_first_times
from repro.experiments.presets import CI, FULL, QUICK, preset_by_name
from repro.experiments.tables import FigureResult, format_table


class TestPresets:
    def test_full_matches_paper(self):
        assert FULL.runs_fig5 == 5000
        assert FULL.runs_fig6 == 100
        assert FULL.runs_fig7 == 5000
        assert FULL.budget == 800

    def test_lookup(self):
        assert preset_by_name("quick") is QUICK
        assert preset_by_name("ci") is CI
        with pytest.raises(KeyError, match="unknown preset"):
            preset_by_name("enormous")

    def test_validation(self):
        from repro.experiments.presets import Preset

        with pytest.raises(ValueError):
            Preset("bad", runs_fig5=0, runs_fig6=1, runs_fig7=1)


class TestTables:
    def test_format_alignment(self):
        out = format_table(["a", "long_header"], [[1, 2.5], [33, 4.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_figure_result_helpers(self):
        fr = FigureResult(
            figure_id="x",
            title="t",
            columns=["a", "b"],
            rows=[[1, 2], [3, 4]],
            notes=["hello"],
        )
        assert fr.column("b") == [2, 4]
        assert fr.as_dicts() == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        rendered = fr.render()
        assert "== x: t ==" in rendered
        assert "note: hello" in rendered

    def test_unknown_column(self):
        fr = FigureResult("x", "t", ["a"], [[1]])
        with pytest.raises(ValueError):
            fr.column("zz")


class TestCli:
    def test_single_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig4", "--preset", "ci"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "P_all_n10" in out

    def test_rejects_unknown_experiment(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_ablation_via_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["ablation-anonymity", "--preset", "ci"]) == 0
        assert "selective dropping" in capsys.readouterr().out.lower()

    def test_failed_check_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments import cli

        def runner(preset):
            return FigureResult(
                "x", "t", ["a"], [[1]], checks={"held": True, "claim": False}
            )

        monkeypatch.setitem(cli._SINGLE_RUNNERS, "fig4", runner)
        assert cli.main(["fig4", "--preset", "ci"]) == 1
        captured = capsys.readouterr()
        assert "== x: t ==" in captured.out
        assert captured.err.splitlines() == [
            "pnm-experiment: fig4: check failed: claim"
        ]

    def test_sweep_checks_hold(self, capsys):
        from repro.experiments.cli import main

        assert main(["faults-sweep", "--preset", "ci"]) == 0
        assert capsys.readouterr().err == ""


class TestSinkCost:
    def test_table_shape_and_feasibility(self):
        result = sink_cost.run(CI)
        sizes = result.column("network_size")
        assert sizes == sorted(sizes)
        # The paper's claim on modern hardware: even 5000 nodes keep up.
        assert all(result.column("keeps_up_with_radio"))

    def test_measured_build_time_scales(self):
        result = sink_cost.run(CI)
        measured = result.column("measured_table_ms")
        assert measured[-1] > measured[0]

    def test_hash_rate_positive(self):
        assert sink_cost.measure_hash_rate(duration=0.05) > 10_000


class TestAblations:
    def test_mark_prob_tradeoff(self):
        result = ablations.marking_probability_sweep(CI, n=10)
        ident = result.column("avg_packets_to_identify")
        overhead = result.column("mark_bytes_per_packet")
        # More marks per packet: faster identification, more bytes.
        assert ident[0] > ident[-1]
        assert overhead == sorted(overhead)

    def test_anonymity_ablation_claims(self):
        result = ablations.anonymity_ablation(CI)
        outcomes = dict(zip(result.column("scheme"), result.column("outcome")))
        assert outcomes["naive-pnm"] == "framed"
        assert outcomes["pnm"] == "caught"
        drops = dict(zip(result.column("scheme"), result.column("dropped")))
        assert drops["naive-pnm"] > 0
        assert drops["pnm"] == 0  # cannot read anonymous IDs: drops nothing

    def test_nesting_ablation_theorem3(self):
        result = ablations.nesting_ablation(CI)
        outcome = {
            (row[0], row[2]): row[3] for row in result.rows
        }
        assert outcome[("nested", "unprotected-alter")] == "caught"
        assert outcome[("partial-nested", "unprotected-alter")] == "framed"
        assert outcome[("ams", "remove-targeted")] == "framed"
        assert outcome[("nested", "remove-targeted")] == "caught"

    def test_resolver_ablation_outcomes_identical(self):
        result = ablations.resolver_ablation(CI, n=10)
        assert set(result.column("outcome")) == {"caught"}
        fallbacks = dict(
            zip(
                zip(result.column("resolver"), result.column("radius")),
                result.column("exhaustive_fallbacks"),
            )
        )
        assert fallbacks[("exhaustive", "-")] == 0
        assert fallbacks[("bounded", 1)] > fallbacks[("bounded", 8)]

    def test_mark_length_ablation_all_caught(self):
        result = ablations.mark_length_ablation(CI)
        assert set(result.column("outcome")) == {"caught"}

    def test_route_dynamics_order_preserving_catches(self):
        result = ablations.route_dynamics_ablation(CI)
        by_churn = dict(zip(result.column("churn"), result.column("outcome")))
        assert by_churn["order-preserving"] == "caught"


class TestHeadlineClaim:
    """Abstract: 'within about 50 packets, it can track down a mole up to
    20 hops away from the sink'."""

    def test_fifty_packets_twenty_hops(self):
        ft = simulate_first_times(n=20, p=3 / 20, packets=800, runs=2000, seed=777)
        times = identification_times(ft)
        mean = float(np.nanmean(times))
        # The paper rounds to "about 50"; Figure 7 reads ~55.
        assert 40 <= mean <= 70

    def test_median_under_fifty(self):
        ft = simulate_first_times(n=20, p=3 / 20, packets=800, runs=2000, seed=778)
        times = identification_times(ft)
        assert float(np.nanmedian(times)) <= 60


class TestMolePlacementAblation:
    def test_pnm_position_independent(self):
        from repro.experiments import ablations

        result = ablations.mole_placement_ablation(CI, n=8)
        assert set(result.column("pnm_outcome")) == {"caught"}

    def test_naive_framed_when_mole_downstream_of_target(self):
        from repro.experiments import ablations

        result = ablations.mole_placement_ablation(CI, n=8)
        by_pos = {r[0]: r[3] for r in result.rows}
        # Once the dropper sits strictly downstream of the framed region,
        # the plaintext variant is framed.
        assert all(by_pos[pos] == "framed" for pos in range(4, 9))
