"""Each rule must flag its positive fixture and stay quiet on its negative.

The fixtures under ``fixtures/`` are minimal self-contained modules; the
path-scoped rules (RL002/RL003/RL004/RL006) opt in via ``# lint: module=``
directives, exactly as documented in ``docs/lint.md``.
"""

from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.registry import all_rules

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008"]


def _lint_fixture(name: str):
    result = lint_paths([FIXTURES / name])
    assert result.errors == []
    assert result.files_scanned == 1
    return result


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        assert [rule.rule_id for rule in all_rules()] == RULE_IDS


class TestFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_fixture_flagged(self, rule_id):
        result = _lint_fixture(f"{rule_id.lower()}_pos.py")
        assert result.findings, f"{rule_id} positive fixture produced no findings"
        assert {f.rule_id for f in result.findings} == {rule_id}
        for finding in result.findings:
            assert finding.line > 0
            assert finding.anchor.startswith(finding.path)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_negative_fixture_clean(self, rule_id):
        result = _lint_fixture(f"{rule_id.lower()}_neg.py")
        assert result.findings == [], (
            f"{rule_id} negative fixture flagged: "
            + "; ".join(f"{f.anchor} {f.rule_id}" for f in result.findings)
        )

    def test_positive_fixtures_count_both_sites(self):
        # Each positive fixture deliberately contains two violations, so a
        # rule that stops after its first hit would still pass the test
        # above; pin the count here.
        for rule_id in RULE_IDS:
            result = _lint_fixture(f"{rule_id.lower()}_pos.py")
            assert len(result.findings) == 2, (
                f"{rule_id}: expected 2 findings, got "
                f"{[f.anchor for f in result.findings]}"
            )


class TestKeyedHashFixtures:
    """RL008 also covers the provider's own primitive, keyed BLAKE2."""

    def test_keyed_blake2_call_and_import_flagged(self):
        result = _lint_fixture("rl008_keyed_pos.py")
        assert [(f.rule_id, f.line) for f in result.findings] == [
            ("RL008", 5),
            ("RL008", 9),
        ]

    def test_unkeyed_digests_clean(self):
        assert _lint_fixture("rl008_keyed_neg.py").findings == []
