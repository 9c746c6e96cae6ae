"""Content-addressed result store (internal).

Entries are keyed by the job fingerprint (:mod:`._fingerprint`) and hold
the exact artefact bytes a fresh run would persist::

    <store>/ab/abcdef.../result.txt       # rendered table + newline
    <store>/ab/abcdef.../manifest.json    # canonical run manifest
    <store>/ab/abcdef.../record.json      # fingerprint key + provenance

Every file is written with temp-file + ``os.replace`` renames, and
``record.json`` is written **last** — its presence is the commit marker.
A worker killed mid-``put`` leaves at worst an uncommitted entry that
:meth:`ResultStore.get` ignores and a later ``put`` overwrites (removing
the dead writer's temp files), so the store can never serve a truncated
artefact as a cache hit (the
``result_cache`` differential oracle in :mod:`repro.check` asserts the
stronger property: a served hit is byte-identical to a fresh run).

``record.json`` also carries the sha256 of ``result.txt`` and
``manifest.json`` (its ``sha256`` field).  :meth:`ResultStore.get`
verifies both and raises :class:`~repro.errors.ServiceError` naming the
file on a mismatch: an artefact edited after its commit is damage to
report, not a miss to paper over.  An entry whose record has no digests
(written before they existed) is not committed: it misses once, is
simulated again, and the new ``put`` overwrites it.

Invalidation is by construction: the fingerprint keys on the package
version, so stale entries are simply never looked up again.  Delete
the store directory to reclaim space.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro._atomic import atomic_write_bytes, atomic_write_text, sweep_dead_temps
from repro.errors import ServiceError
from repro.experiments.registry import ResultArtifacts

#: filenames inside one store entry
RESULT_FILE = "result.txt"
MANIFEST_FILE = "manifest.json"
RECORD_FILE = "record.json"

#: the artefact files whose sha256 ``record.json`` commits to
DIGESTED_FILES = (RESULT_FILE, MANIFEST_FILE)


@dataclass(frozen=True)
class StoredResult:
    """One committed cache entry."""

    fingerprint: str
    artifacts: ResultArtifacts
    record: Mapping[str, object]


class ResultStore:
    """Content-addressed, crash-safe store of whole-run artefacts."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: the record :meth:`committed` last found, for the :meth:`get`
        #: that serves the hit: one ``record.json`` read per cache hit
        self._checked: tuple[str, dict[str, object]] | None = None

    def entry_dir(self, fingerprint: str) -> Path:
        if len(fingerprint) < 3:
            raise ServiceError(f"malformed fingerprint {fingerprint!r}")
        return self.directory / fingerprint[:2] / fingerprint

    def __contains__(self, fingerprint: str) -> bool:
        return self.committed(fingerprint)

    def committed(self, fingerprint: str) -> bool:
        """Whether a committed entry with digests exists.

        Reads ``record.json`` only — the pool's cache-hit check; the
        artefacts are read (and verified) once, by :meth:`get`, which
        reuses the record found here.
        """
        record = self._record(fingerprint)
        self._checked = None if record is None else (fingerprint, record)
        return record is not None

    def get(self, fingerprint: str) -> StoredResult | None:
        """Return the committed entry, or ``None`` when there is none.

        Both artefacts are checked against the digests in
        ``record.json``; a mismatch raises :class:`ServiceError` naming
        the file.
        """
        checked, self._checked = self._checked, None
        if checked is not None and checked[0] == fingerprint:
            record = checked[1]
        else:
            record = self._record(fingerprint)
        if record is None:
            return None
        entry = self.entry_dir(fingerprint)
        digests = record["sha256"]
        text, manifest_text = (
            _read_verified(entry / name, digests[name]) for name in DIGESTED_FILES
        )
        artifacts = ResultArtifacts(record["result_name"], text, manifest_text)
        return StoredResult(fingerprint, artifacts, record)

    def _record(self, fingerprint: str) -> dict[str, object] | None:
        """The entry's ``record.json``, or ``None`` when it is not committed."""
        try:
            record = _read_record(self.entry_dir(fingerprint) / RECORD_FILE)
        except FileNotFoundError:
            return None
        digests = record.get("sha256")
        if not isinstance(digests, dict) or not all(
            isinstance(digests.get(name), str) for name in DIGESTED_FILES
        ):
            return None
        return record

    def put(
        self,
        fingerprint: str,
        artifacts: ResultArtifacts,
        record: Mapping[str, object] | None = None,
    ) -> StoredResult:
        """Commit an entry (idempotent: equal fingerprints, equal bytes)."""
        entry = self.entry_dir(fingerprint)
        sweep_dead_temps(entry)
        digests = {}
        for name, text in zip(
            DIGESTED_FILES, (artifacts.text, artifacts.manifest_text)
        ):
            data = text.encode()
            atomic_write_bytes(entry / name, data)
            digests[name] = hashlib.sha256(data).hexdigest()
        full_record: dict[str, object] = {
            "fingerprint": fingerprint,
            "result_name": artifacts.result_name,
            **(dict(record) if record else {}),
            "sha256": digests,
        }
        # The commit point: readers only trust entries with a record.
        atomic_write_text(
            entry / RECORD_FILE,
            json.dumps(full_record, sort_keys=True, indent=2) + "\n",
        )
        return StoredResult(fingerprint, artifacts, full_record)

    def fingerprints(self) -> tuple[str, ...]:
        """Every fingerprint with a ``record.json``, sorted (entries
        without digests included)."""
        out = []
        for record_path in sorted(self.directory.glob(f"??/*/{RECORD_FILE}")):
            out.append(record_path.parent.name)
        return tuple(sorted(out))


def _read_verified(path: Path, digest: str) -> str:
    """One committed artefact; a missing or edited file is a :class:`ServiceError`."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ServiceError(f"damaged store entry: {path} is missing") from None
    actual = hashlib.sha256(data).hexdigest()
    if actual != digest:
        raise ServiceError(
            f"damaged store entry: {path} has sha256 {actual[:16]}, "
            f"record.json committed {digest[:16]}"
        )
    return data.decode()


def _read_record(path: Path) -> dict[str, object]:
    """A committed ``record.json``; damage is a :class:`ServiceError`."""
    try:
        record = json.loads(path.read_text())
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise ServiceError(f"damaged store record {path}: {err}") from err
    if not isinstance(record, dict):
        raise ServiceError(
            f"damaged store record {path}: not a JSON object "
            f"({type(record).__name__})"
        )
    if not isinstance(record.get("result_name"), str):
        raise ServiceError(
            f"damaged store record {path}: missing or non-string result_name"
        )
    return record
