"""``repro report``: run summaries and wall-clock self-profiling."""

import pytest

from repro.errors import ConfigError, ObservabilityError
from repro.obs.observability import trace_job
from repro.obs.report import (
    SUBSYSTEM_TIMERS,
    report_job,
    report_run_dir,
    wallclock_attribution,
)

HORIZON = 60.0
KNOBS = {"horizon": HORIZON}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("report") / "run"
    _, obs = trace_job(
        "mixed",
        overrides=KNOBS,
        on_obs=lambda obs: obs.stream_to(directory, chrome=False),
    )
    obs.close_streams()
    return directory


class TestWallclockAttribution:
    def test_rows_follow_the_timer_map(self):
        timings = {"accrue": 0.5, "resolve": 1.0, "node": 0.3, "network": 0.2}
        rows = {label: secs for label, secs, _ in wallclock_attribution(timings)}
        assert rows["engine.accrue"] == 0.5
        assert rows["engine.resolve"] == 1.0
        assert rows["rate_model"] == 0.3
        assert rows["flow_solver"] == 0.2

    def test_resolve_self_is_derived(self):
        timings = {"resolve": 1.0, "node": 0.3, "network": 0.2, "storage": 0.1}
        rows = dict(
            (label, secs) for label, secs, _ in wallclock_attribution(timings)
        )
        assert rows["engine.resolve (self)"] == pytest.approx(0.4)

    def test_resolve_self_never_negative(self):
        rows = dict(
            (label, secs)
            for label, secs, _ in wallclock_attribution(
                {"resolve": 0.1, "node": 0.3}
            )
        )
        assert rows["engine.resolve (self)"] == 0.0

    def test_unknown_timers_survive_verbatim(self):
        rows = wallclock_attribution({"mystery": 0.7})
        assert ("mystery", 0.7, "unattributed timer") in rows

    def test_timer_map_names_every_bucket(self):
        labels = {label for label, _ in SUBSYSTEM_TIMERS.values()}
        assert {"engine.resolve", "rate_model", "monitoring", "obs"} <= labels


class TestScenarioReports:
    def test_no_wallclock_report_is_deterministic(self):
        render = lambda: report_job(  # noqa: E731
            "mixed", overrides=KNOBS, wallclock=False
        ).render()
        first = render()
        assert first == render()
        assert "wall-clock attribution" not in first

    def test_wallclock_report_attributes_subsystems(self):
        report = report_job("mixed", overrides=KNOBS)
        assert report.timings
        text = report.render()
        assert "wall-clock attribution (not deterministic):" in text
        assert "engine.resolve (self)" in text

    def test_sections_are_populated(self):
        report = report_job("mixed", overrides=KNOBS, wallclock=False)
        assert report.categories
        assert report.horizon > 0
        assert report.utilization
        assert report.critical_path
        assert report.counters
        assert report.samples

    def test_markdown_mirrors_terminal_sections(self):
        report = report_job("mixed", overrides=KNOBS, wallclock=False)
        md = report.render_markdown()
        assert "# Run report:" in md
        assert "## Timeline" in md
        assert "## Utilization (engine spans)" in md
        assert "## Critical path" in md
        assert "Wall-clock" not in md


class TestRunDirReports:
    def test_run_dir_report_reads_streamed_artefacts(self, run_dir):
        report = report_run_dir(run_dir)
        assert report.source == str(run_dir)
        assert report.categories
        assert report.counters
        assert list(report.samples) == [f"node{i}" for i in range(6)]

    def test_run_dir_never_fakes_wallclock(self, run_dir):
        # Streamed artefacts carry no timer snapshot; asking for wallclock
        # must not invent one.
        report = report_run_dir(run_dir, wallclock=True)
        assert report.timings == {}
        assert "wall-clock" not in report.render()

    def test_run_dir_matches_live_scenario_sections(self, run_dir):
        live = report_job("mixed", overrides=KNOBS, wallclock=False)
        streamed = report_run_dir(run_dir)
        assert streamed.categories == live.categories
        assert streamed.critical_path == live.critical_path
        assert streamed.counters == live.counters
        assert streamed.samples == live.samples

    def test_missing_trace_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError, match="trace.jsonl"):
            report_run_dir(tmp_path)


class TestJobReports:
    def test_untraceable_job_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot be traced"):
            report_job("fig9")

    def test_title_names_the_job_and_its_seed(self):
        report = report_job("trace_replay", seed=4, wallclock=False)
        assert report.title == "job 'trace_replay' (seed 4)"
        assert report.source == "job:trace_replay"
        assert report.samples == {}  # spans only: the replay samples nothing
