"""Trace replay through the service cache: content-addressed fingerprints."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.experiments.registry import EXPERIMENT_REGISTRY, ExperimentSpec
from repro.traces import dump_trace, generate_trace


@pytest.fixture
def trace_file(tmp_path):
    trace = generate_trace("ai_training", seed=6, ranks=3, steps=2)
    path = tmp_path / "a" / "trace.jsonl"
    path.parent.mkdir()
    dump_trace(trace, path)
    return trace, path


def _spec() -> ExperimentSpec:
    return EXPERIMENT_REGISTRY["trace_replay"]


def test_normalize_moves_path_out_of_fingerprint(trace_file):
    trace, path = trace_file
    request = _spec().normalize(overrides={"trace": str(path)})
    assert dict(request.overrides) == {"trace_sha256": trace.sha256}
    assert dict(request.extras) == {"trace": str(path)}


def test_same_bytes_different_paths_fingerprint_equal(trace_file, tmp_path):
    trace, path = trace_file
    other = tmp_path / "b" / "trace.jsonl"
    other.parent.mkdir()
    dump_trace(trace, other)
    first = _spec().normalize(overrides={"trace": str(path)})
    second = _spec().normalize(overrides={"trace": str(other)})
    assert first.overrides == second.overrides
    assert first.extras != second.extras


def test_different_bytes_fingerprint_differently(trace_file, tmp_path):
    _trace, path = trace_file
    other = tmp_path / "c" / "trace.jsonl"
    other.parent.mkdir()
    dump_trace(generate_trace("ai_training", seed=7, ranks=3, steps=2), other)
    first = _spec().normalize(overrides={"trace": str(path)})
    second = _spec().normalize(overrides={"trace": str(other)})
    assert first.overrides != second.overrides


def test_stale_sha_pin_is_typed_error(trace_file):
    _trace, path = trace_file
    with pytest.raises(TraceError, match="does not match"):
        _spec().normalize(
            overrides={"trace": str(path), "trace_sha256": "0" * 64}
        )


def test_runner_verifies_generated_sha_pin():
    from repro.experiments import run_trace_replay

    trace = generate_trace("ai_training", seed=0, ranks=3, steps=2)
    result = run_trace_replay(
        seed=0, ranks=3, steps=2, trace_sha256=trace.sha256
    )
    assert result.sha256 == trace.sha256
    with pytest.raises(TraceError, match="does not match"):
        run_trace_replay(seed=1, ranks=3, steps=2, trace_sha256=trace.sha256)


def test_two_submits_of_same_trace_simulate_once(trace_file, tmp_path):
    """The satellite claim: same trace bytes -> one simulation, one cache
    entry, even when submitted from two different file paths."""
    from repro.api import Client
    from repro.experiments.ext_trace_replay import (
        _canonicalize_trace,
        run_trace_replay,
    )

    trace, path = trace_file
    other = tmp_path / "copy" / "trace.jsonl"
    other.parent.mkdir()
    dump_trace(trace, other)

    calls: list[str] = []

    def counting_runner(seed=0, trace=None, trace_sha256=None):
        calls.append(trace)
        return run_trace_replay(seed=seed, trace=trace, trace_sha256=trace_sha256)

    name = "trace_cache_probe"
    EXPERIMENT_REGISTRY[name] = ExperimentSpec(
        name,
        "test probe: counting trace replay runner",
        counting_runner,
        "TraceReplayResult",
        seed=0,
        canonicalize=_canonicalize_trace,
    )
    try:
        with Client(state_dir=tmp_path / "state") as client:
            first = client.submit(name, overrides={"trace": str(path)})
            second = client.submit(name, overrides={"trace": str(other)})
            client.wait()
            s1 = client.status(first.job_id)
            s2 = client.status(second.job_id)
    finally:
        EXPERIMENT_REGISTRY.pop(name, None)
    assert (s1.state, s2.state) == ("done", "done"), (s1.reason, s2.reason)
    assert len(calls) == 1
    assert not s1.cached and s2.cached


def _respaced_copy(trace, path):
    """The same trace in non-canonical spacing, sealed with its own digest."""
    import hashlib
    import json

    from repro.traces import dumps

    lines = dumps(trace).splitlines()[:-1]
    body = "".join(json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines)
    seal = hashlib.sha256(body.encode()).hexdigest()
    trailer = json.dumps({"records": len(trace.records), "sha256": seal})
    path.write_text(f"{body}{trailer}\n", encoding="utf-8")
    return seal


def test_pinned_canonical_file_renders_once_per_job(trace_file, renders):
    from repro.experiments.ext_trace_replay import run_trace_replay

    trace, path = trace_file
    # submit: the canonical digest is rendered once
    request = _spec().normalize(overrides={"trace": str(path)})
    assert len(renders) == len(trace.records) + 1
    del renders[:]
    # run: the submit's pin equals the file's seal, so nothing is rendered
    pin = dict(request.overrides)["trace_sha256"]
    result = run_trace_replay(trace=str(path), trace_sha256=pin)
    assert renders == []
    assert result.sha256 == trace.sha256
    # a caller's pin at submit is checked against one render
    _spec().normalize(overrides={"trace": str(path), "trace_sha256": trace.sha256})
    assert len(renders) == len(trace.records) + 1


def test_non_canonical_file_pinned_with_its_own_seal_is_refused_at_submit(
    trace_file, tmp_path
):
    trace, _path = trace_file
    copy = tmp_path / "respaced.jsonl"
    seal = _respaced_copy(trace, copy)
    assert seal != trace.sha256
    with pytest.raises(TraceError, match="does not match"):
        _spec().normalize(overrides={"trace": str(copy), "trace_sha256": seal})
    # unpinned, the same file is addressed by its canonical digest
    request = _spec().normalize(overrides={"trace": str(copy)})
    assert dict(request.overrides) == {"trace_sha256": trace.sha256}


def test_non_canonical_file_renders_and_keeps_the_canonical_pin(
    trace_file, tmp_path, renders
):
    from repro.experiments.ext_trace_replay import run_trace_replay

    trace, _path = trace_file
    copy = tmp_path / "respaced.jsonl"
    seal = _respaced_copy(trace, copy)
    assert seal != trace.sha256
    del renders[:]
    result = run_trace_replay(trace=str(copy), trace_sha256=trace.sha256)
    assert len(renders) == len(trace.records) + 1
    assert result.sha256 == trace.sha256


def test_wrong_pin_renders_and_raises(trace_file, renders):
    from repro.experiments.ext_trace_replay import run_trace_replay

    trace, path = trace_file
    with pytest.raises(TraceError, match="does not match"):
        run_trace_replay(trace=str(path), trace_sha256="0" * 64)
    assert len(renders) == len(trace.records) + 1
