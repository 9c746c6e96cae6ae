"""Content-addressed store: commit marker, byte fidelity, crash safety."""

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
