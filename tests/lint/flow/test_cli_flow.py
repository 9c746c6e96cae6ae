"""CLI surface of the flow analyzer: --flow, --stats, --quiet, --sarif,
and whole-program answers after an edit."""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main

CLEAN_FILES = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/rng.py": """
        def make_rng(seed=0):
            return ("rng", seed)
    """,
    "repro/sim/engine.py": """
        def advance(rng, steps):
            return (rng, steps)
    """,
    "repro/driver.py": """
        from repro.sim.rng import make_rng
        from repro.sim.engine import advance

        def run():
            return advance(make_rng(7), 3)
    """,
}

BUGGY_FILES = dict(CLEAN_FILES)
BUGGY_FILES["repro/driver.py"] = """
    import numpy as np

    from repro.sim.engine import advance

    def run():
        return advance(np.random.default_rng(), 3)
"""


@pytest.fixture
def clean_root(tree_factory):
    return tree_factory(CLEAN_FILES)


@pytest.fixture
def buggy_root(tree_factory):
    return tree_factory(BUGGY_FILES)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestExitCodesAndText:
    def test_clean_tree_exits_zero(self, clean_root, capsys):
        code, out = run_cli(capsys, clean_root, "--flow", "--no-config")
        assert code == 0
        assert "clean: 0 findings" in out

    def test_findings_exit_one(self, buggy_root, capsys):
        code, out = run_cli(capsys, buggy_root, "--flow", "--no-config")
        assert code == 1
        assert "RL011" in out

    def test_quiet_clean_prints_nothing(self, clean_root, capsys):
        code, out = run_cli(
            capsys, clean_root, "--flow", "--no-config", "--quiet"
        )
        assert code == 0
        assert out == ""

    def test_quiet_still_prints_findings(self, buggy_root, capsys):
        _, out = run_cli(
            capsys, buggy_root, "--flow", "--no-config", "--quiet"
        )
        assert "RL011" in out
        assert "finding(s) in" not in out  # summary suppressed

    def test_quiet_suppresses_stats(self, buggy_root, capsys):
        _, out = run_cli(
            capsys, buggy_root, "--flow", "--no-config",
            "--quiet", "--stats",
        )
        assert "-- lint stats --" not in out


class TestStats:
    def test_text_stats_block(self, buggy_root, capsys):
        _, out = run_cli(capsys, buggy_root, "--flow", "--no-config", "--stats")
        assert "-- lint stats --" in out
        assert "files:           5" in out
        assert "findings:        2" in out
        assert "RL001: 1" in out
        assert "RL011: 1" in out

    def test_json_stats_payload(self, clean_root, capsys):
        _, out = run_cli(
            capsys, clean_root, "--flow", "--no-config", "--format", "json", "--stats"
        )
        payload = json.loads(out)
        assert payload["version"] == 3
        assert payload["summary"] == {"files": 5, "findings": 0, "by_rule": {}}
        assert "stats" not in payload

    def test_json_without_stats_flag_has_no_stats_key(self, clean_root, capsys):
        _, out = run_cli(
            capsys, clean_root, "--flow", "--no-config", "--format", "json",
        )
        assert "stats" not in json.loads(out)


class TestSarifOutput:
    def test_sarif_file_written(self, buggy_root, tmp_path, capsys):
        sarif = tmp_path / "lint.sarif"
        run_cli(
            capsys, buggy_root, "--flow", "--no-config",
            "--sarif", sarif,
        )
        log = json.loads(sarif.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "RL011" for r in log["runs"][0]["results"]
        )


STALE_STATE_FILES = {
    "pyproject.toml": """
        [tool.repro-lint]
        flow-memo-functions = ["A.solve"]
        flow-memo-state-allowed = ["memo", "_shared"]
    """,
    "repro/__init__.py": "",
    "repro/a.py": """
        class A:
            def __init__(self):
                self.memo = {}

            def solve(self, demands):
                key = tuple(demands)
                if key in self.memo:
                    return self.memo[key]
                result = list(demands)
                self.memo[key] = result
                return result
    """,
    "repro/b.py": """
        class B:
            def __init__(self):
                self._shared = {}
    """,
}


class TestWholeProgramAnswers:
    def test_edit_in_unimported_file_changes_finding_elsewhere(
        self, tree_factory, capsys, monkeypatch, tmp_path
    ):
        # RL013's stale-entry check spans the tree: renaming the only
        # self._shared in b.py leaves the allow-list entry stale, and the
        # finding lands on a.py although a.py does not import b.py.
        monkeypatch.chdir(tmp_path)
        root = tree_factory(STALE_STATE_FILES)
        code, out = run_cli(capsys, root, "--flow")
        assert code == 0, out
        b = root / "repro/b.py"
        b.write_text(b.read_text(encoding="utf-8").replace("_shared", "_renamed"))
        code, out = run_cli(capsys, root, "--flow")
        assert code == 1
        assert "repro/a.py" in out
        assert "RL013" in out
        assert "'_shared' is assigned as self._shared by no class" in out

    def test_unparsable_file_reported(self, clean_root, capsys):
        (clean_root / "repro/broken.py").write_text("def oops(:\n", encoding="utf-8")
        code, out = run_cli(capsys, clean_root, "--flow", "--no-config")
        assert code == 1
        assert "broken.py" in out
        assert "RL000" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unparsable_file_counted_like_per_file_path(
        self, tree_factory, capsys, fmt
    ):
        root = tree_factory(
            {"repro/good.py": "X = 1\n", "repro/broken.py": "def oops(:\n"}
        )
        _, flow = run_cli(capsys, root, "--flow", "--no-config", "--format", fmt)
        _, per_file = run_cli(capsys, root, "--no-config", "--format", fmt)
        if fmt == "json":
            flow = json.loads(flow)["summary"]
            per_file = json.loads(per_file)["summary"]
            assert flow["files"] == per_file["files"] == 2
        else:
            assert "1 finding(s) in 2 files" in flow
        assert flow == per_file


class TestListRules:
    def test_flow_rules_listed_with_scope(self, capsys):
        code, out = run_cli(capsys, "--list-rules")
        assert code == 0
        for rule_id in ("RL011", "RL012", "RL013", "RL014", "RL015", "RL016"):
            assert rule_id in out
        assert "[flow]" in out
        assert "[file]" in out
