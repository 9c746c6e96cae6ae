"""Content-addressed store: commit marker, byte fidelity, crash safety."""

import hashlib
import json

import pytest

from repro.errors import ServiceError
from repro.experiments.registry import ResultArtifacts
from repro.service import ResultStore
from repro.service._store import MANIFEST_FILE, RECORD_FILE, RESULT_FILE

ARTS = ResultArtifacts("ProbeResult", "row one\nrow two\n", '{"k": 1}\n')
FP = "ab" + "c" * 62


def test_round_trip_preserves_bytes(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS, record={"name": "probe"})
    stored = store.get(FP)
    assert stored.artifacts == ARTS
    assert stored.record["name"] == "probe"
    assert stored.record["fingerprint"] == FP


def test_miss_returns_none_and_counts(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get("ff" * 32) is None
    assert (store.hits, store.misses) == (0, 1)
    store.put(FP, ARTS)
    store.get(FP)
    assert (store.hits, store.misses, store.puts) == (1, 1, 1)


def test_entries_are_sharded_by_prefix(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    assert (tmp_path / FP[:2] / FP / RESULT_FILE).exists()
    assert store.fingerprints() == (FP,)
    assert FP in store


def test_uncommitted_entry_is_invisible(tmp_path):
    # A worker killed between artefact writes and the record write leaves
    # files but no commit marker — the store must treat that as a miss.
    store = ResultStore(tmp_path)
    entry = store.entry_dir(FP)
    entry.mkdir(parents=True)
    (entry / RESULT_FILE).write_text("half-written")
    (entry / MANIFEST_FILE).write_text("{}")
    assert store.get(FP) is None
    assert FP not in store
    # a later successful put overwrites the debris
    store.put(FP, ARTS)
    assert store.get(FP).artifacts == ARTS


def test_record_json_is_the_commit_marker(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    record = json.loads((store.entry_dir(FP) / RECORD_FILE).read_text())
    assert record["result_name"] == "ProbeResult"
    entry = store.entry_dir(FP)
    assert record["sha256"] == {
        name: hashlib.sha256((entry / name).read_bytes()).hexdigest()
        for name in (RESULT_FILE, MANIFEST_FILE)
    }


@pytest.mark.parametrize("name", [RESULT_FILE, MANIFEST_FILE])
def test_artefact_edited_after_commit_raises_naming_it(tmp_path, name):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    with (store.entry_dir(FP) / name).open("a") as handle:
        handle.write(" ")
    # the hit check reads record.json only, so it still sees a commit ...
    assert store.committed(FP)
    # ... and the one artefact read refuses the edited bytes
    with pytest.raises(ServiceError, match=f"damaged store entry: .*{name} has sha256"):
        store.get(FP)


def test_missing_artefact_raises_naming_it(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    (store.entry_dir(FP) / MANIFEST_FILE).unlink()
    with pytest.raises(ServiceError, match=f"{MANIFEST_FILE} is missing"):
        store.get(FP)


def test_record_without_digests_is_not_committed(tmp_path):
    # An entry written before record.json carried digests misses once.
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    record_path = store.entry_dir(FP) / RECORD_FILE
    record = json.loads(record_path.read_text())
    del record["sha256"]
    record_path.write_text(json.dumps(record))
    assert not store.committed(FP)
    assert FP not in store
    assert store.get(FP) is None
    store.put(FP, ARTS)
    assert store.get(FP).artifacts == ARTS


def test_entry_without_digests_is_simulated_again(tmp_path, monkeypatch):
    from repro.api import Client
    from repro.experiments.registry import EXPERIMENT_REGISTRY, ExperimentSpec

    calls = []

    class Probe:
        def render(self):
            return "probe table"

    def run_probe():
        calls.append(1)
        return Probe()

    spec = ExperimentSpec("store_probe", "store-test probe", run_probe, "Probe")
    monkeypatch.setitem(EXPERIMENT_REGISTRY, "store_probe", spec)
    with Client(state_dir=tmp_path) as client:
        first = client.submit("store_probe")
        client.wait(first.job_id)
        record_path = client.store.entry_dir(first.fingerprint) / RECORD_FILE
        record = json.loads(record_path.read_text())
        del record["sha256"]
        record_path.write_text(json.dumps(record))
        second = client.submit("store_probe")
        assert client.wait(second.job_id).cached is False
        assert len(calls) == 2
        assert "sha256" in json.loads(record_path.read_text())
        assert client.result(second.job_id).text == "probe table\n"
        third = client.submit("store_probe")
        assert client.wait(third.job_id).cached is True
        assert len(calls) == 2


def test_persist_to_writes_harness_layout(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put(FP, ARTS)
    path = store.persist_to(FP, tmp_path / "archive")
    assert path.read_text() == ARTS.text
    manifest = tmp_path / "archive" / "ProbeResult.manifest.json"
    assert manifest.read_text() == ARTS.manifest_text


def test_persist_to_missing_entry_raises(tmp_path):
    with pytest.raises(ServiceError):
        ResultStore(tmp_path).persist_to("ee" * 32, tmp_path / "out")


def test_malformed_fingerprint_rejected(tmp_path):
    with pytest.raises(ServiceError):
        ResultStore(tmp_path).entry_dir("ab")


def test_clear_removes_committed_entries(tmp_path):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    assert store.clear() == 1
    assert store.get(FP) is None
    assert store.fingerprints() == ()


@pytest.mark.parametrize(
    "damaged",
    [
        b'{"fingerprint": "ab", "result_na',  # torn: not JSON
        b"\xff\xfe not utf-8",
        b'["result_name", "ProbeResult"]',  # JSON, but not an object
        b'{"fingerprint": "ab"}',  # no result_name
        b'{"result_name": 7}',  # result_name not a string
    ],
    ids=["torn", "not-utf8", "not-object", "no-result-name", "int-result-name"],
)
def test_damaged_record_is_a_typed_error_naming_the_file(tmp_path, damaged):
    store = ResultStore(tmp_path)
    store.put(FP, ARTS)
    (store.entry_dir(FP) / RECORD_FILE).write_bytes(damaged)
    with pytest.raises(ServiceError, match=f"damaged store record .*{RECORD_FILE}"):
        store.get(FP)
    with pytest.raises(ServiceError, match=f"damaged store record .*{RECORD_FILE}"):
        store.committed(FP)
