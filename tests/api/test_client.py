"""Client façade: submit/status/wait/result/cancel over every experiment."""

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.api import (
    JOB_RECORD_SCHEMA,
    JOB_REQUEST_SCHEMA,
    Client,
    JobResult,
    JobStatus,
)
from repro.errors import ConfigError, QuotaError, ServiceError
from repro.experiments.registry import (
    EXPERIMENT_REGISTRY,
    ExperimentSpec,
    JobRequest,
    ResultArtifacts,
    persist_result,
)


def stub_factory(request: JobRequest) -> ResultArtifacts:
    return ResultArtifacts(request.result_name, f"{request.name} table\n", "{}\n")


@dataclass(frozen=True)
class _TinyResult:
    seed: int

    def render(self) -> str:
        return f"tiny result for seed {self.seed}"


def _run_tiny(seed: int = 0) -> _TinyResult:
    return _TinyResult(seed)


@pytest.fixture
def tiny_experiment(monkeypatch):
    spec = ExperimentSpec(
        "tiny", "client-test probe", _run_tiny, "TinyResult", seed=0
    )
    monkeypatch.setitem(EXPERIMENT_REGISTRY, "tiny", spec)
    return spec


class TestRoundTrip:
    def test_every_registry_experiment_round_trips(self, tmp_path):
        # Submit every registered name through the façade (execution
        # stubbed): normalization, fingerprinting, queueing, result and
        # persistence must work for the whole namespace.
        with Client(state_dir=tmp_path / "state") as client:
            client.pool.factory = stub_factory
            handles = {name: client.submit(name) for name in EXPERIMENT_REGISTRY}
            client.wait()
            fingerprints = set()
            for name, handle in handles.items():
                status = client.status(handle.job_id)
                assert status.state == "done", (name, status.reason)
                result = client.result(handle.job_id)
                assert result.name == name
                assert result.text == f"{name} table\n"
                assert result.render() == f"{name} table"
                fingerprints.add(handle.fingerprint)
            # distinct experiments must never share a cache entry
            assert len(fingerprints) == len(handles)

    def test_real_cache_hit_is_byte_identical(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path / "state") as client:
            first = client.submit("tiny", seed=7)
            second = client.submit("tiny", seed=7)
            client.wait()
            assert client.status(first.job_id).cached is False
            assert client.status(second.job_id).cached is True
            fresh = client.persist(first.job_id, tmp_path / "fresh")
            hit = client.persist(second.job_id, tmp_path / "hit")
        direct = persist_result(_run_tiny(7), tmp_path / "direct")
        assert fresh.read_bytes() == direct.read_bytes()
        assert hit.read_bytes() == direct.read_bytes()
        fresh_manifest = fresh.with_name("TinyResult.manifest.json")
        direct_manifest = direct.with_name("TinyResult.manifest.json")
        assert fresh_manifest.read_bytes() == direct_manifest.read_bytes()

    def test_cache_survives_client_restart(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path / "state") as client:
            handle = client.submit("tiny")
            client.wait(handle.job_id)
        with Client(state_dir=tmp_path / "state") as client:
            handle = client.submit("tiny")
            status = client.wait(handle.job_id)
            assert status.cached is True


class TestValidation:
    def test_unknown_experiment_rejected_at_submit(self, tmp_path):
        with Client(state_dir=tmp_path) as client:
            with pytest.raises(ConfigError, match="unknown experiment"):
                client.submit("not_an_experiment")

    def test_unknown_knob_rejected_at_submit(self, tmp_path):
        with Client(state_dir=tmp_path) as client:
            with pytest.raises(ConfigError, match="no knob"):
                client.submit("fig8", overrides={"bogus": 1})

    def test_seed_for_seedless_experiment_rejected(self, tmp_path):
        with Client(state_dir=tmp_path) as client:
            with pytest.raises(ConfigError, match="does not take a seed"):
                client.submit("table1", seed=3)

    def test_quota_enforced_through_facade(self, tmp_path):
        with Client(state_dir=tmp_path, quota=1) as client:
            client.submit("fig8", client="alice")
            with pytest.raises(QuotaError):
                client.submit("fig8", client="alice")


class TestLifecycle:
    def test_status_and_cancel(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path) as client:
            handle = client.submit("tiny")
            status = handle.status()
            assert isinstance(status, JobStatus)
            assert status.state == "queued" and not status.terminal
            cancelled = handle.cancel()
            assert cancelled.state == "cancelled" and cancelled.terminal
            assert client.wait() is None

    def test_result_of_failed_job_raises_with_reason(self, tmp_path):
        def broken(request):
            raise RuntimeError("injected defect")

        with Client(state_dir=tmp_path) as client:
            client.pool.factory = broken
            handle = client.submit("fig8")
            status = client.wait(handle.job_id)
            assert status.state == "failed"
            with pytest.raises(ServiceError, match="injected defect"):
                client.result(handle.job_id)

    def test_handle_conveniences(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path) as client:
            handle = client.submit("tiny")
            assert handle.wait().state == "done"
            result = handle.result()
            assert isinstance(result, JobResult)
            assert result.render() == "tiny result for seed 0"

    def test_jobs_lists_submission_order(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path) as client:
            a = client.submit("tiny")
            b = client.submit("tiny", seed=1)
            assert [s.job_id for s in client.jobs()] == [a.job_id, b.job_id]

    def test_ephemeral_state_is_cleaned_up(self, tiny_experiment):
        client = Client()
        state_dir = client.state_dir
        handle = client.submit("tiny")
        client.wait(handle.job_id)
        assert state_dir.exists()
        client.close()
        assert not state_dir.exists()

    def test_telemetry_stream(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path / "state") as client:
            client.stream_to(tmp_path / "obs")
            handle = client.submit("tiny")
            client.wait(handle.job_id)
        assert (tmp_path / "obs" / "trace.jsonl").exists()
        assert (tmp_path / "obs" / "metrics" / "service.jsonl").exists()


class TestSchemas:
    def test_job_record_schema_matches_reality(self, tmp_path, tiny_experiment):
        with Client(state_dir=tmp_path) as client:
            handle = client.submit("tiny")
            record = client.queue.job(handle.job_id).to_json()
        required = JOB_RECORD_SCHEMA["required"]
        assert set(required) <= set(record)
        request_required = JOB_REQUEST_SCHEMA["required"]
        assert set(request_required) <= set(record["request"])
        assert record["state"] in JOB_RECORD_SCHEMA["properties"]["state"]["enum"]
