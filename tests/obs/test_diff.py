"""``repro diff``: artefact comparison and divergence localization."""

import json
import math
import shutil

import pytest

from repro.obs.diff import diff_runs
from repro.obs.observability import trace_job

HORIZON = 60.0


def _stream_run(directory, seed=0):
    _, obs = trace_job(
        "mixed",
        seed=seed,
        overrides={"horizon": HORIZON},
        on_obs=lambda obs: obs.stream_to(directory, chrome=True),
    )
    obs.close_streams()
    return obs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("diff")
    _stream_run(root / "a")
    _stream_run(root / "b")
    return root / "a", root / "b"


class TestIdenticalRuns:
    def test_same_seed_runs_are_identical(self, runs):
        dir_a, dir_b = runs
        report = diff_runs(dir_a, dir_b)
        assert report.is_identical
        assert not report.series
        # trace.jsonl, trace.json, metrics/*, counters.jsonl, counters.json
        assert len(report.identical) >= 5

    def test_identical_render_and_exit_contract(self, runs):
        report = diff_runs(*runs)
        assert "0 differences" in report.render()


class TestSeriesLocalization:
    def test_one_ulp_bump_is_localized(self, runs, tmp_path):
        dir_a, dir_b = runs
        mutated = tmp_path / "mutated"
        shutil.copytree(dir_b, mutated)
        path = mutated / "metrics" / "node0.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        target = 17
        metric = next(
            k for k in sorted(records[target]) if k not in ("time", "node")
        )
        records[target][metric] = math.nextafter(
            records[target][metric], math.inf
        )
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )

        report = diff_runs(dir_a, mutated)
        assert not report.is_identical
        assert len(report.series) == 1
        div = report.series[0]
        assert div.file == "metrics/node0.jsonl"
        assert div.node == "node0"
        assert div.index == target
        assert div.metric == metric
        assert div.value_a != div.value_b
        assert div.value_b == math.nextafter(div.value_a, math.inf)

    def test_divergence_names_the_enclosing_span(self, runs, tmp_path):
        dir_a, dir_b = runs
        mutated = tmp_path / "mutated"
        shutil.copytree(dir_b, mutated)
        path = mutated / "metrics" / "node0.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[10])
        metric = next(k for k in sorted(record) if k not in ("time", "node"))
        record[metric] = record[metric] + 1.0
        lines[10] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        report = diff_runs(dir_a, mutated)
        div = report.series[0]
        assert div.span is not None
        assert div.span.group == "node0"
        assert div.span.start <= div.time <= div.span.end
        rendered = report.render()
        assert "first divergence at sample 10" in rendered
        assert "enclosing span:" in rendered
        assert float(div.value_a).hex() in rendered


class TestStructuralDiffs:
    def test_missing_artefact_is_reported(self, runs, tmp_path):
        dir_a, dir_b = runs
        pruned = tmp_path / "pruned"
        shutil.copytree(dir_b, pruned)
        (pruned / "counters.json").unlink()
        report = diff_runs(dir_a, pruned)
        assert not report.is_identical
        assert report.only_in_a == ["counters.json"]
        assert "only in a: counters.json" in report.render()

    def test_manifest_diff_names_the_key_path(self, runs, tmp_path):
        dir_a, dir_b = runs
        copy_a, copy_b = tmp_path / "a", tmp_path / "b"
        shutil.copytree(dir_a, copy_a)
        shutil.copytree(dir_b, copy_b)
        base = {"seed": 0, "config": {"nodes": 2, "app": "stencil"}}
        (copy_a / "manifest.json").write_text(json.dumps(base, sort_keys=True))
        base["config"]["nodes"] = 3
        (copy_b / "manifest.json").write_text(json.dumps(base, sort_keys=True))
        report = diff_runs(copy_a, copy_b)
        assert report.differing["manifest.json"] == "manifest key config.nodes"

    def test_counters_diff_reports_first_line(self, runs, tmp_path):
        dir_a, dir_b = runs
        mutated = tmp_path / "mutated"
        shutil.copytree(dir_b, mutated)
        path = mutated / "counters.json"
        payload = json.loads(path.read_text())
        key = sorted(payload["counters"])[0]
        payload["counters"][key] += 1
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        report = diff_runs(dir_a, mutated)
        assert report.differing["counters.json"].startswith("line ")

    def test_labels_surface_in_render(self, runs):
        report = diff_runs(*runs, label_a="baseline", label_b="candidate")
        assert "baseline" in report.render()
        assert "candidate" in report.render()
