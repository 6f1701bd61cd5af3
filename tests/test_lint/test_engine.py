"""Engine behavior: suppressions, baseline round-trip, CLI, and self-lint."""

import json
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.cli import main
from repro.lint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
SHIPPED_SRC = Path(__file__).parents[2] / "src" / "repro"

_RL001_VIOLATION = (
    "def verify(expected_mac: bytes, received_mac: bytes) -> bool:\n"
    "    return expected_mac == received_mac{comment}\n"
)


def _write_violation(tmp_path: Path, comment: str = "") -> Path:
    target = tmp_path / "sample.py"
    target.write_text(_RL001_VIOLATION.format(comment=comment))
    return target


class TestSuppressions:
    def test_unsuppressed_violation_found(self, tmp_path):
        result = lint_paths([_write_violation(tmp_path)])
        assert [f.rule_id for f in result.findings] == ["RL001"]

    def test_inline_disable_silences_the_rule(self, tmp_path):
        target = _write_violation(tmp_path, "  # lint: disable=RL001")
        assert lint_paths([target]).findings == []

    def test_bare_disable_silences_everything(self, tmp_path):
        target = _write_violation(tmp_path, "  # lint: disable")
        assert lint_paths([target]).findings == []

    def test_disabling_another_rule_keeps_the_finding(self, tmp_path):
        target = _write_violation(tmp_path, "  # lint: disable=RL004")
        assert [f.rule_id for f in lint_paths([target]).findings] == ["RL001"]


class TestBaselineRoundTrip:
    def test_write_then_filter(self, tmp_path):
        target = _write_violation(tmp_path)
        baseline_path = tmp_path / "baseline.json"

        rc = main([str(target), "--baseline", str(baseline_path), "--write-baseline"])
        assert rc == 0
        baseline = Baseline.load(baseline_path)
        assert len(baseline) == 1

        # Grandfathered: the violation is still detected but not reported.
        result = lint_paths([target], baseline=baseline)
        assert result.findings == []
        assert [f.rule_id for f in result.all_findings] == ["RL001"]

        # A *second* identical violation is new debt and must surface.
        target.write_text(
            _RL001_VIOLATION.format(comment="")
            + "\n\n"
            + _RL001_VIOLATION.format(comment="").replace("verify", "verify_again")
        )
        result = lint_paths([target], baseline=baseline)
        assert len(result.all_findings) == 2
        assert len(result.findings) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_malformed_baseline_is_usage_error(self, tmp_path):
        target = _write_violation(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main([str(target), "--baseline", str(bad)]) == 2


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main([str(clean), "--no-baseline"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_with_json_report(self, tmp_path, capsys):
        target = _write_violation(tmp_path)
        assert main([str(target), "--format", "json", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["total"] == 1
        assert payload["counts_by_rule"] == {"RL001": 1}
        finding = payload["findings"][0]
        assert finding["rule_id"] == "RL001"
        assert finding["line"] == 2

    def test_select_runs_only_named_rules(self, tmp_path):
        target = _write_violation(tmp_path)
        assert main([str(target), "--select", "RL004", "--no-baseline"]) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path):
        target = _write_violation(tmp_path)
        assert main([str(target), "--select", "RL999"]) == 2

    def test_unparseable_file_fails_the_run(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert main([str(broken), "--no-baseline"]) == 1
        assert "error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008",
        ):
            assert rule_id in out


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        """The acceptance bar: ``python -m repro.lint src/repro`` exits 0."""
        result = lint_paths([SHIPPED_SRC])
        assert result.errors == []
        assert result.findings == [], "\n".join(
            f"{f.anchor}: {f.rule_id} {f.message}" for f in result.findings
        )
        assert result.files_scanned > 100
