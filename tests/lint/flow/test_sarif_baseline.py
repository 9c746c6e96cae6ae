"""SARIF 2.1.0 export."""

from __future__ import annotations

import json

from repro.lint.findings import Finding, Severity
from repro.lint.sarif import render_sarif, to_sarif


def make_finding(path="src/repro/a.py", line=3, col=4, rule="RL011", msg="boom"):
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id=rule,
        rule_name="rng-provenance",
        severity=Severity.ERROR,
        message=msg,
    )


class TestSarif:
    def test_log_shape(self):
        log = to_sarif([make_finding()])
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == 1
        result = run["results"][0]
        assert result["ruleId"] == "RL011"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/a.py"
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        # SARIF columns are 1-based; Finding cols are 0-based.
        assert loc["region"] == {"startLine": 3, "startColumn": 5}

    def test_rule_metadata_included(self):
        log = to_sarif([make_finding(rule="RL011"), make_finding(rule="RL014")])
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["RL011", "RL014"]
        assert all("shortDescription" in r for r in rules)
        # ruleIndex points into the sorted rules array
        for result in log["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_results_sorted_and_render_deterministic(self):
        findings = [
            make_finding(path="src/z.py", line=9),
            make_finding(path="src/a.py", line=1),
        ]
        log = to_sarif(findings)
        uris = [
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in log["runs"][0]["results"]
        ]
        assert uris == sorted(uris)
        assert render_sarif(findings) == render_sarif(list(reversed(findings)))
        # canonical text: valid JSON, newline-terminated, no timestamps
        text = render_sarif(findings)
        assert text.endswith("\n")
        assert "time" not in json.dumps(json.loads(text))

    def test_empty_findings_valid_log(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []
