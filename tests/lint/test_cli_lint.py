"""CLI surface: ``python -m repro lint`` routing, formats, exit codes."""

import json

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import JSON_SCHEMA_VERSION, main as lint_main


@pytest.fixture
def violating_tree(tmp_path):
    """A mini source tree with one seeded-RNG violation and one clean file."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import numpy as np\nr = np.random.default_rng(3)\n")
    (pkg / "good.py").write_text("from repro.sim.rng import make_rng\nr = make_rng(3)\n")
    return tmp_path


class TestExitCodes:
    def test_violation_exits_nonzero(self, violating_tree, capsys):
        rc = lint_main([str(violating_tree), "--no-config"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "bad.py" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = lint_main([str(tmp_path), "--no-config"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        rc = lint_main([str(tmp_path / "missing"), "--no-config"])
        assert rc == 2

    def test_repro_cli_routes_lint(self, violating_tree, capsys):
        rc = repro_main(["lint", str(violating_tree), "--no-config"])
        assert rc == 1
        assert "RL001" in capsys.readouterr().out


class TestJsonOutput:
    def test_schema(self, violating_tree, capsys):
        rc = lint_main([str(violating_tree), "--no-config", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["files"] == 2
        assert payload["summary"]["by_rule"] == {"RL001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path", "line", "col", "rule_id", "rule_name", "severity", "message",
        }
        assert finding["rule_id"] == "RL001"
        assert finding["severity"] == "error"
        assert finding["line"] == 2

    def test_clean_json(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = lint_main([str(tmp_path), "--no-config", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["summary"]["findings"] == 0


class TestOptions:
    def test_disable_flag(self, violating_tree, capsys):
        rc = lint_main([str(violating_tree), "--no-config", "--disable", "RL001"])
        assert rc == 0

    def test_config_table_respected(self, violating_tree, capsys):
        (violating_tree / "pyproject.toml").write_text(
            "[tool.repro-lint]\ndisable = ['RL001']\n"
        )
        rc = lint_main([str(violating_tree)])
        assert rc == 0

    def test_bad_config_exits_two(self, violating_tree, capsys):
        (violating_tree / "pyproject.toml").write_text(
            "[tool.repro-lint]\nnot-a-key = ['x']\n"
        )
        rc = lint_main([str(violating_tree)])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = lint_main(["--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule_id in [f"RL00{i}" for i in range(1, 9)]:
            assert rule_id in out
