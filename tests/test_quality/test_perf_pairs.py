"""The paired-timing summary of ``benchmarks/perf_pairs.py`` on canned runs."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "packets_per_s", "unit": "1/s", "better": "higher"},
    {"name": "batch_ms_p50", "unit": "ms", "better": "lower"},
]


def run_output(packets_per_s, batch_ms, correct=True, failed=0):
    """A perfbench run's stdout: a table, then the JSON result line."""
    result = {
        "attempted": 100,
        "correct": correct,
        "failed": failed,
        "metrics": {
            "packets_per_s": {"unit": "1/s", "value": packets_per_s},
            "batch_ms_p50": {"unit": "ms", "value": batch_ms},
        },
    }
    return "== cluster-stream\n   packets_per_s  1 1/s\n" + json.dumps(result) + "\n"


def pairs_of(rows):
    return [
        {
            "base": perf_pairs.last_result(run_output(*base)),
            "change": perf_pairs.last_result(run_output(*change)),
        }
        for base, change in rows
    ]


def gain_lines(rows):
    lines = perf_pairs.summarize(pairs_of(rows), METRICS)
    return [line for line in lines if "change/base" in line]


class TestSummary:
    def test_last_result_reads_the_final_json_line(self):
        assert perf_pairs.last_result(run_output(5.0, 1.0))["metrics"]["packets_per_s"] == {
            "unit": "1/s",
            "value": 5.0,
        }
        assert perf_pairs.last_result("no json here\n") is None

    def test_quartiles(self):
        assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_a_clear_gain_is_claimable_in_both_directions(self):
        rows = [((100 + i, 4.0 + i / 100), (110 + i, 3.8 + i / 100)) for i in range(10)]
        lines = perf_pairs.summarize(pairs_of(rows), METRICS)
        assert lines[0] == "10 complete pairs"
        assert "packets_per_s    base   median        104.5 quartiles 102.25-106.75 1/s" in lines
        gain = [line for line in lines if "change/base" in line]
        assert "better in 10/10 pairs" in gain[0] and gain[0].endswith("gain claimable")
        assert "better in 10/10 pairs" in gain[1] and gain[1].endswith("gain claimable")
        assert "no claimable" not in "\n".join(lines)

    def test_eight_wins_of_ten_is_not_a_claim(self):
        rows = [((100.0, 4.0), (120.0, 4.0)) for _ in range(8)]
        rows += [((100.0, 4.0), (90.0, 4.0)) for _ in range(2)]
        gain = gain_lines(rows)
        assert "better in 8/10 pairs" in gain[0]
        assert gain[0].endswith("no claimable gain")
        # Ties count for neither side.
        assert "better in 0/10 pairs" in gain[1]

    def test_a_gap_inside_the_base_spread_is_not_a_claim(self):
        rows = [((100.0 + 10 * (i % 2), 4.0), (106.0 + 10 * (i % 2), 4.0)) for i in range(10)]
        gain = gain_lines(rows)
        assert "better in 10/10 pairs" in gain[0]
        assert gain[0].endswith("no claimable gain")

    @pytest.mark.parametrize(
        "change, flagged",
        [
            ((110.0, 3.9, False, 0), "pair 1 change: correct False, failed 0 of 100"),
            ((110.0, 3.9, True, 2), "pair 1 change: correct True, failed 2 of 100"),
        ],
    )
    def test_incorrect_or_failing_runs_are_flagged(self, change, flagged):
        pairs = [
            {
                "base": perf_pairs.last_result(run_output(100.0, 4.0)),
                "change": perf_pairs.last_result(run_output(*change)),
            }
        ]
        assert perf_pairs.problems(pairs) == [flagged]

    def test_a_run_without_a_result_is_flagged_and_left_out(self):
        pairs = pairs_of([((100.0, 4.0), (110.0, 3.9))])
        pairs.append({"base": None, "change": perf_pairs.last_result(run_output(1.0, 1.0))})
        assert perf_pairs.problems(pairs) == ["pair 2 base: no result line"]
        assert perf_pairs.summarize(pairs, METRICS)[0] == "1 complete pairs"
        assert perf_pairs.problems(pairs_of([((100.0, 4.0), (110.0, 3.9))])) == []
