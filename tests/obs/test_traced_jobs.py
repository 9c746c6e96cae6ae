"""Tracing rides the one run path: every registry job either traces
without moving a byte of its result, or is refused in one error line.

Walks :data:`EXPERIMENT_REGISTRY`, so a runner that starts to declare
``on_obs`` is held to the byte-identity contract without a new test.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.registry import EXPERIMENT_REGISTRY, persist_result
from repro.obs import assert_valid_chrome_trace

#: smaller knobs for the traceable jobs, so the walk stays quick
REDUCED = {
    "mixed": {"horizon": 40.0},
    "fault_recovery": {"horizon": 40.0},
    "trace_replay": {"steps": 2},
}


def _persisted(directory, spec, result):
    path = persist_result(result, directory)
    return path.read_bytes(), spec.manifest_path(directory).read_bytes()


@pytest.mark.parametrize("name", sorted(EXPERIMENT_REGISTRY))
def test_registry_job_traces_or_is_refused(name, tmp_path, capsys):
    spec = EXPERIMENT_REGISTRY[name]
    assert ("traceable" in spec.description) == spec.traceable
    if not spec.traceable:
        assert main(["trace", name, "--out", str(tmp_path / "t.json")]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro trace: error: experiment {name!r} cannot be traced")
        assert captured.out == ""
        assert not (tmp_path / "t.json").exists()
        return
    request = spec.normalize(overrides=REDUCED.get(name))
    untraced = _persisted(tmp_path / "untraced", spec, spec.run_request(request))
    run_dir = tmp_path / "run"
    streamers = []
    result = spec.run_request(
        request, on_obs=lambda obs: streamers.append(obs.stream_to(run_dir, chrome=True))
    )
    (streamer,) = streamers
    streamer.close()
    assert _persisted(tmp_path / "traced", spec, result) == untraced
    assert_valid_chrome_trace(json.loads((run_dir / "trace.json").read_text()))
    assert (run_dir / "trace.jsonl").read_text()


@pytest.mark.parametrize("name", ["mixed", "fault_recovery", "trace_replay"])
def test_on_obs_is_not_a_knob(name, capsys):
    with pytest.raises(ConfigError, match="tracing hook, not a knob"):
        EXPERIMENT_REGISTRY[name].normalize(overrides={"on_obs": None})
    assert main(["submit", name, "--set", "on_obs=1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro submit: error: 'on_obs' is a tracing hook")
