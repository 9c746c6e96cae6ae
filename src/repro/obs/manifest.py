"""Deterministic run manifests: provenance for every experiment artefact.

A manifest records everything needed to re-derive a result — the seed, the
configuration, the package version, the anomaly injection schedule (the
FINJ-style ground-truth labels), the engine's deterministic counters and
checksums of the produced series/tables — as canonical JSON (sorted keys,
two-space indent, ``\\n``-terminated).  Re-running the same experiment
with the same seed must reproduce the manifest *byte-identically*; that
property is asserted in the test suite and is the contract that makes
``results/`` auditable.

Wall-clock timings (:attr:`SimStats.timings`) and hostnames are
deliberately excluded: they vary run to run and would break the
byte-identity contract.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.obs.stream import _json_safe
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.injector import AnomalyInjector
    from repro.monitoring.service import MetricService
    from repro.sim.stats import SimStats


def text_checksum(text: str) -> str:
    """sha256 of a rendered artefact (a results table, a trace file)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_checksum(values: np.ndarray) -> str:
    """sha256 over the float64 little-endian bytes of one series."""
    data = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def service_checksums(service: "MetricService") -> dict[str, str]:
    """One digest per node over all its collected metric series.

    Metric names are folded into the digest in sorted order, so the
    checksum pins both the values and which metrics were collected.
    """
    out: dict[str, str] = {}
    for node in sorted(service.data):
        digest = hashlib.sha256()
        for metric in sorted(service.data[node]):
            digest.update(metric.encode("utf-8"))
            digest.update(bytes.fromhex(series_checksum(np.asarray(service.data[node][metric]))))
        out[node] = digest.hexdigest()
    return out


def injection_labels(injector: "AnomalyInjector") -> list[dict[str, object]]:
    """The injector's schedule as ground-truth label records.

    Each record carries the anomaly's paper name, placement, window, and
    its Table-1 knob settings (:meth:`~repro.core.anomaly.Anomaly.describe`),
    sorted by ``(start, node, name)`` so the ordering is deterministic
    regardless of how the campaign was assembled.
    """
    records = []
    for injection in injector.injections:
        duration = injection.duration
        records.append(
            {
                "anomaly": injection.anomaly.name,
                "node": str(injection.node),
                "core": injection.core,
                "start": injection.start,
                "duration": duration if math.isfinite(duration) else "inf",
                "knobs": _json_safe(injection.anomaly.describe()),
            }
        )
    records.sort(key=lambda r: (r["start"], r["node"], r["anomaly"]))
    return records


def build_manifest(
    name: str,
    seed: int | None = None,
    config: Mapping[str, object] | None = None,
    stats: "SimStats | None" = None,
    injector: "AnomalyInjector | None" = None,
    service: "MetricService | None" = None,
    results_text: str | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Assemble a manifest dict; every section is optional but ``name``.

    Only deterministic quantities are admitted: from ``stats`` the integer
    counters are included, the wall-clock timings are not.
    """
    manifest: dict[str, object] = {
        "name": name,
        "package": "repro",
        "version": __version__,
        "seed": seed,
    }
    if config is not None:
        manifest["config"] = _json_safe(dict(config))
    if injector is not None:
        manifest["injections"] = injection_labels(injector)
    if stats is not None:
        manifest["counters"] = dict(sorted(stats.counters.items()))
    if service is not None:
        manifest["series_checksums"] = service_checksums(service)
        manifest["samples"] = len(service.times)
    if results_text is not None:
        manifest["results_checksum"] = text_checksum(results_text)
    if extra is not None:
        manifest["extra"] = _json_safe(dict(extra))
    return manifest


def manifest_text(manifest: Mapping[str, object]) -> str:
    """Canonical JSON rendering (sorted keys, indent=2, trailing newline)."""
    return json.dumps(_json_safe(dict(manifest)), sort_keys=True, indent=2) + "\n"


def write_manifest(path: str | Path, manifest: Mapping[str, object]) -> Path:
    """Write a manifest next to its results; returns the path.

    Atomic (temp file + rename, :mod:`repro._atomic`): a crash mid-write
    leaves either the previous manifest or the new one, never a torn
    file that `repro diff` would misread as a divergence.
    """
    from repro._atomic import atomic_write_text

    path = Path(path)
    atomic_write_text(path, manifest_text(manifest))
    return path
