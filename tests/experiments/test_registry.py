"""The experiment registry and its normalized run/persist interface."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.registry import (
    EXPERIMENT_REGISTRY,
    ExperimentSpec,
    get_experiment,
    persist_result,
)


class FakeResult:
    def __init__(self, text, seed=None, config=None):
        self._text = text
        if seed is not None:
            self.seed = seed
        if config is not None:
            self.config = config

    def render(self):
        return self._text


def fake_spec(runner, name="fake"):
    return ExperimentSpec(name, "a test double", runner, "FakeResult")


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        expected = {
            "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11_12", "fig13",
            "ext_dragonfly", "ext_faults", "ext_importance", "ext_jitter",
            "ext_jobstream", "ext_lustre", "ext_online", "ext_variability",
            "mixed", "fault_recovery", "trace_replay", "varbench",
        }
        assert set(EXPERIMENT_REGISTRY) == expected

    def test_keys_match_spec_names(self):
        for key, spec in EXPERIMENT_REGISTRY.items():
            assert key == spec.name

    def test_lookup_case_insensitive(self):
        assert get_experiment("FIG8") is EXPERIMENT_REGISTRY["fig8"]

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            get_experiment("fig99")

    def test_default_seed_only_on_seeded_runners(self):
        for spec in EXPERIMENT_REGISTRY.values():
            if spec.seed is not None:
                assert spec.takes_seed

    def test_result_paths(self):
        spec = EXPERIMENT_REGISTRY["fig8"]
        assert spec.result_path("results").name == "Fig8Result.txt"
        assert spec.manifest_path("results").name == "Fig8Result.manifest.json"


class TestNormalizedRun:
    """``normalize`` then ``run_request``: the one way a spec runs."""

    def test_seed_forwarded_when_accepted(self):
        spec = fake_spec(lambda seed=0: FakeResult(f"seed={seed}"))
        request = spec.normalize(seed=9)
        assert spec.run_request(request).render() == "seed=9"

    def test_seed_rejected_by_seedless_runner(self):
        spec = fake_spec(lambda: FakeResult("x"))
        with pytest.raises(ConfigError, match="does not take a seed"):
            spec.normalize(seed=9)

    def test_overrides_pass_through(self):
        spec = fake_spec(lambda n_jobs=6: FakeResult(str(n_jobs)))
        request = spec.normalize(overrides={"n_jobs": 2})
        assert spec.run_request(request).render() == "2"


class TestPersistResult:
    def test_writes_table_and_manifest(self, tmp_path):
        path = persist_result(FakeResult("hello"), tmp_path)
        assert path == tmp_path / "FakeResult.txt"
        assert path.read_text() == "hello\n"
        manifest = json.loads(
            (tmp_path / "FakeResult.manifest.json").read_text()
        )
        assert manifest["name"] == "FakeResult"
        assert manifest["seed"] is None

    def test_provenance_recorded_when_result_carries_it(self, tmp_path):
        result = FakeResult("hello", seed=3, config={"rates": [8.0]})
        persist_result(result, tmp_path)
        manifest = json.loads(
            (tmp_path / "FakeResult.manifest.json").read_text()
        )
        assert manifest["seed"] == 3
        assert manifest["config"] == {"rates": [8.0]}

    def test_private_class_prefix_stripped(self, tmp_path):
        result = FakeResult("x")
        result.__class__ = type("_Hidden", (FakeResult,), {})
        path = persist_result(result, tmp_path)
        assert path.name == "Hidden.txt"

    def test_byte_identical_across_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for directory in (a, b):
            persist_result(FakeResult("table", seed=1), directory)
        assert (
            (a / "FakeResult.manifest.json").read_bytes()
            == (b / "FakeResult.manifest.json").read_bytes()
        )
