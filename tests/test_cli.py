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
    """``varbench`` is a registry job, run through ``repro submit``."""

    ARGV = [
        "submit", "varbench", "-q",
        "--set", "app=miniMD",
        "--set", "reps=3",
        "--set", "iterations=6",
    ]

    def test_varbench_runs_and_reports(self, capsys):
        rc = main(self.ARGV + ["--set", "anomaly=membw"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miniMD" in out
        assert "membw" in out

    def test_varbench_jobs_flag_matches_serial(self, capsys):
        assert main(self.ARGV + ["--set", "jobs=1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGV + ["--set", "jobs=3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_varbench_rejects_unknown_anomaly(self, capsys):
        rc = main(self.ARGV + ["--set", "anomaly=fanspin"])
        assert rc == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert " failed: " in line and "fanspin" in line


class _StubResult:
    def render(self):
        return "stub table"


def _register_stub(monkeypatch, runner):
    from repro.experiments.registry import EXPERIMENT_REGISTRY, ExperimentSpec

    spec = ExperimentSpec("stub_exp", "a test stub", runner, "StubResult")
    monkeypatch.setitem(EXPERIMENT_REGISTRY, "stub_exp", spec)
    return spec


class TestExperimentSubcommand:
    """Running a registered experiment: ``repro submit NAME``."""

    def test_list_enumerates_registry(self, capsys):
        from repro.experiments.registry import EXPERIMENT_REGISTRY

        rc = main(["submit", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "varbench" in EXPERIMENT_REGISTRY
        for name in EXPERIMENT_REGISTRY:
            assert name in out

    def test_run_renders_and_archives(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        rc = main(["submit", "stub_exp", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stub table" in out
        assert (tmp_path / "StubResult.txt").read_text() == "stub table\n"
        assert (tmp_path / "StubResult.manifest.json").exists()

    def test_no_persist_skips_archiving(self, capsys, tmp_path, monkeypatch):
        # without --out nothing is archived, not even into a default dir
        _register_stub(monkeypatch, lambda: _StubResult())
        monkeypatch.chdir(tmp_path)
        rc = main(["submit", "stub_exp"])
        assert rc == 0
        assert "stub table" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_seed_rejected_for_seedless_experiment(self, capsys, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        rc = main(["submit", "stub_exp", "--seed", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro submit: error: experiment 'stub_exp' does not take a seed\n"
        )
        assert captured.out == ""

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["submit", "fig99"]) == 2
        assert "unknown experiment 'fig99'" in capsys.readouterr().err

    def test_bare_experiment_name_is_not_a_subcommand(self, capsys, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        with pytest.raises(SystemExit) as exc:
            main(["stub_exp"])
        assert exc.value.code == 2
        assert "invalid choice: 'stub_exp'" in capsys.readouterr().err
        # the one spelling that runs an experiment
        rc = main(["submit", "stub_exp", "-q"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == "stub table\n"
        assert captured.err == ""

    def test_quiet_suppresses_archive_line(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        rc = main(["submit", "stub_exp", "--out", str(tmp_path), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == "stub table\n"
        # quiet silences the narration, not the archiving itself
        assert (tmp_path / "StubResult.txt").exists()


class TestSubmitSubcommand:
    def test_resubmission_is_served_from_the_cache(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        state = str(tmp_path / "state")
        assert main(["submit", "stub_exp", "--state-dir", state]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert main(["submit", "stub_exp", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "done (cached)" in out and "stub table" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig99"], "unknown experiment 'fig99'"),
            (["fig8", "--set", "bogus=1"], "has no knob 'bogus'"),
            (["table1", "--seed", "3"], "does not take a seed"),
            (["fig8", "--set", "iterations"], "--set expects key=value"),
            (
                ["trace_replay", "--set", "trace={trace}",
                 "--set", "trace_sha256=" + "ab" * 32],
                "does not match the trace",
            ),
        ],
        ids=["unknown-job", "unknown-knob", "seedless-seed", "malformed-set",
             "stale-trace-pin"],
    )
    def test_bad_input_is_one_error_line(self, capsys, tmp_path, argv, message):
        from repro.traces import dump_trace, generate_trace

        trace = tmp_path / "ai.jsonl"
        dump_trace(generate_trace("ai_training", seed=0, ranks=3, steps=2), trace)
        out_dir = tmp_path / "out"
        argv = [arg.format(trace=trace) for arg in argv]
        rc = main(["submit", *argv, "--out", str(out_dir)])
        assert rc == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro submit: error: ")
        assert message in line
        assert captured.out == ""
        assert not out_dir.exists()

    def test_edited_store_entry_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        _register_stub(monkeypatch, lambda: _StubResult())
        state = tmp_path / "state"
        assert main(["submit", "stub_exp", "--state-dir", str(state)]) == 0
        capsys.readouterr()
        (result,) = state.glob("store/*/*/result.txt")
        with result.open("a") as handle:
            handle.write("x")
        out_dir = tmp_path / "out"
        rc = main(
            ["submit", "stub_exp", "--state-dir", str(state), "--out", str(out_dir)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("repro submit: error: damaged store entry")
        assert "result.txt" in line
        assert "stub table" not in captured.out
        assert not out_dir.exists()


class TestTrace:
    def test_list_enumerates_scenarios(self, capsys):
        # The traceable jobs are registry entries: `repro submit --list`
        # names them, and says which ones `repro trace` takes.
        rc = main(["submit", "--list"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        traceable = {line.split()[0] for line in lines if "traceable" in line}
        assert traceable == {"mixed", "fault_recovery", "trace_replay"}

    def test_bare_trace_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace"])
        assert exc.value.code == 2
        assert "name" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        rc = main(["trace", "nope"])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro trace: error: unknown experiment 'nope'")

    def test_stream_writes_run_directory(self, capsys, tmp_path):
        run_dir = tmp_path / "run"
        rc = main(
            [
                "trace",
                "mixed",
                "--set",
                "horizon=30",
                "--stream",
                str(run_dir),
                "--out",
                str(tmp_path / "trace.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamed job 'mixed'" in out
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
                "mixed",
                "--set",
                "horizon=30",
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
            ["report", "mixed", "--seed", "2", "--set", "horizon=30", "--no-wallclock"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "run report: job 'mixed' (seed 2)" in out
        assert "wall-clock" not in out

    def test_markdown_output(self, capsys, tmp_path):
        md = tmp_path / "report.md"
        rc = main(
            [
                "report",
                "mixed",
                "--set",
                "horizon=30",
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

    def test_job_knobs_do_not_apply_to_a_run_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--run-dir", str(tmp_path), "--set", "horizon=30"])

    def test_one_source_required(self):
        with pytest.raises(SystemExit):
            main(["report"])
