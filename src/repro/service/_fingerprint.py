"""Content-addressed job fingerprints (internal).

A fingerprint is the sha256 of the canonical JSON of everything that can
change a job's artefact bytes:

* the normalized request — spec name, result name, resolved seed, and
  the semantic overrides (:meth:`ExperimentSpec.normalize` has already
  canonicalized values and dropped non-semantic knobs like ``jobs``);
* the package version — any code change that could move a float ships
  with a version bump, which invalidates every prior entry (the cache
  invalidation rule, see docs/SERVICE.md).

Two requests with equal fingerprints therefore have byte-identical
artefacts, which is what lets the :class:`~repro.service.ResultStore`
serve a cache hit in place of a simulation.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.registry import JobRequest


def fingerprint_key(
    request: "JobRequest", version: str | None = None
) -> dict[str, object]:
    """The canonical key material a fingerprint digests (for inspection)."""
    return {
        "name": request.name,
        "result_name": request.result_name,
        "seed": request.seed,
        "overrides": dict(request.overrides),
        "version": __version__ if version is None else version,
    }


def fingerprint_request(request: "JobRequest", version: str | None = None) -> str:
    """sha256 hex digest of the canonical fingerprint key."""
    key = fingerprint_key(request, version=version)
    text = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
