"""HPAS-style command-line front end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_anomalies_accepted(self):
        parser = build_parser()
        args, extra = parser.parse_known_args(["cpuoccupy", "-u", "50"])
        assert args.anomaly == "cpuoccupy"
        assert extra == ["-u", "50"]

    def test_unknown_anomaly_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fanspin"])


class TestMain:
    def test_basic_run(self, capsys):
        rc = main(["cpuoccupy", "-u", "80", "--horizon", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ran cpuoccupy on node0:c0" in out

    def test_report_prints_metrics(self, capsys):
        rc = main(["membw", "--horizon", "10", "--report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "user::procstat" in out
        assert "LLC_MISSES::spapiHASW" in out

    def test_with_app(self, capsys):
        rc = main(
            ["cachecopy", "-c", "L2", "--horizon", "30", "--with-app", "CoMD"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "co-ran CoMD" in out

    def test_anomaly_knobs_forwarded(self, capsys):
        rc = main(["cpuoccupy", "-u", "25", "-d", "5", "--horizon", "10"])
        assert rc == 0
        assert "state: killed" in capsys.readouterr().out

    def test_custom_placement(self, capsys):
        rc = main(["memleak", "--node", "node1", "--core", "3", "--horizon", "5"])
        assert rc == 0
        assert "node1:c3" in capsys.readouterr().out

    def test_profile_prints_engine_counters(self, capsys):
        rc = main(["cpuoccupy", "-u", "80", "--horizon", "10", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "events_dispatched" in out
        assert "resolves" in out


class TestVarbenchSubcommand:
    def test_varbench_runs_and_reports(self, capsys):
        rc = main(
            [
                "varbench", "miniMD",
                "--anomaly", "membw",
                "--reps", "3",
                "--iterations", "6",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "miniMD" in out
        assert "membw" in out

    def test_varbench_jobs_flag_matches_serial(self, capsys):
        argv = ["varbench", "miniMD", "--reps", "3", "--iterations", "6"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_varbench_rejects_unknown_anomaly(self):
        with pytest.raises(SystemExit):
            main(["varbench", "miniMD", "--anomaly", "fanspin"])


class _StubResult:
    def render(self):
        return "stub table"


def _register_stub(monkeypatch, runner):
    from repro.experiments.registry import EXPERIMENT_REGISTRY, ExperimentSpec

    spec = ExperimentSpec("stub_exp", "a test stub", runner, "StubResult")
    monkeypatch.setitem(EXPERIMENT_REGISTRY, "stub_exp", spec)
    return spec


class TestExperimentSubcommand:
    def test_list_enumerates_registry(self, capsys):
        from repro.experiments.registry import EXPERIMENT_REGISTRY

        rc = main(["experiment", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_REGISTRY:
            assert name in out

    def test_run_renders_and_archives(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        rc = main(["experiment", "stub_exp", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stub table" in out
        assert (tmp_path / "StubResult.txt").read_text() == "stub table\n"
        assert (tmp_path / "StubResult.manifest.json").exists()

    def test_no_persist_skips_archiving(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        rc = main(
            ["experiment", "stub_exp", "--out", str(tmp_path), "--no-persist"]
        )
        assert rc == 0
        assert not (tmp_path / "StubResult.txt").exists()

    def test_seed_rejected_for_seedless_experiment(self, monkeypatch):
        from repro.errors import ConfigError

        _register_stub(monkeypatch, lambda: _StubResult())
        with pytest.raises(ConfigError, match="does not take a seed"):
            main(["experiment", "stub_exp", "--seed", "3", "--no-persist"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_bare_experiment_name_is_not_a_subcommand(self, capsys, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        with pytest.raises(SystemExit) as exc:
            main(["stub_exp", "--no-persist"])
        assert exc.value.code == 2
        assert "invalid choice: 'stub_exp'" in capsys.readouterr().err
        # the one spelling that runs an experiment is unchanged
        rc = main(["experiment", "stub_exp", "--no-persist"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == "stub table\n"
        assert captured.err == ""

    def test_quiet_suppresses_archive_line(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        rc = main(
            ["experiment", "stub_exp", "--out", str(tmp_path), "--quiet"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stub table" in out
        assert "archived" not in out
        # quiet silences the narration, not the archiving itself
        assert (tmp_path / "StubResult.txt").exists()


class TestTrace:
    def test_list_enumerates_scenarios(self, capsys):
        rc = main(["trace", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("faults", "loadbalance", "mixed"):
            assert name in out
        assert "GreedyRefineLB" in out  # descriptions, not just names

    def test_bare_trace_lists_too(self, capsys):
        rc = main(["trace"])
        assert rc == 0
        assert "mixed" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "nope"])

    def test_stream_writes_run_directory(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        rc = main(
            [
                "trace",
                "loadbalance",
                "--horizon",
                "30",
                "--stream",
                str(run_dir),
                "--out",
                str(tmp_path / "trace.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamed scenario 'loadbalance'" in out
        assert (run_dir / "trace.jsonl").is_file()
        assert (run_dir / "trace.json").is_file()
        assert (run_dir / "counters.json").is_file()
        assert (run_dir / "metrics" / "node0.jsonl").is_file()


class TestDiff:
    def test_identical_directories_exit_zero(self, capsys, tmp_path):
        import shutil

        run_dir = tmp_path / "a"
        main(
            [
                "trace",
                "loadbalance",
                "--horizon",
                "30",
                "--stream",
                str(run_dir),
                "--out",
                str(tmp_path / "trace.json"),
            ]
        )
        shutil.copytree(run_dir, tmp_path / "b")
        capsys.readouterr()
        rc = main(["diff", str(run_dir), str(tmp_path / "b")])
        assert rc == 0
        assert "0 differences" in capsys.readouterr().out

        # Any byte drift must flip the exit status.
        counters = tmp_path / "b" / "counters.jsonl"
        counters.write_text(counters.read_text().replace("0", "1", 1))
        rc = main(["diff", str(run_dir), str(tmp_path / "b")])
        assert rc == 1
        assert "differs: counters.jsonl" in capsys.readouterr().out

    def test_missing_directory_raises(self, tmp_path):
        from repro.errors import ObservabilityError

        (tmp_path / "a").mkdir()
        with pytest.raises(ObservabilityError, match="not a directory"):
            main(["diff", str(tmp_path / "a"), str(tmp_path / "nope")])


class TestReport:
    def test_scenario_report_renders(self, capsys):
        rc = main(
            ["report", "loadbalance", "--horizon", "30", "--no-wallclock"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "run report: scenario 'loadbalance'" in out
        assert "wall-clock" not in out

    def test_markdown_output(self, capsys, tmp_path):
        md = tmp_path / "report.md"
        rc = main(
            [
                "report",
                "loadbalance",
                "--horizon",
                "30",
                "--no-wallclock",
                "--md",
                str(md),
            ]
        )
        assert rc == 0
        assert "# Run report:" in md.read_text()

    def test_scenario_and_run_dir_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "mixed", "--run-dir", str(tmp_path)])

    def test_one_source_required(self):
        with pytest.raises(SystemExit):
            main(["report"])
