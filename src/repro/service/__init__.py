"""Simulation-as-a-service: async jobs over a content-addressed cache.

The service turns one-shot experiment runs into *jobs*:

* :class:`JobQueue` — a persistent on-disk queue (append-only JSONL
  journal, atomic state transitions) with priorities, per-client quotas,
  and deterministic FIFO tie-breaks; reopening a queue after a crash
  replays the journal and requeues orphaned in-flight jobs;
* :class:`WorkerPool` — sharded spawn-based workers built on
  :class:`repro.parallel.ShardWorker` (graceful shutdown, per-job
  timeout, crash-requeue), or inline in-process execution (``shards=0``);
* :class:`ResultStore` — a content-addressed store keyed on the
  canonical fingerprint of (normalized request, seed, package version);
  an equal fingerprint is served from the cache with
  byte-identical artefacts instead of re-simulating;
* :class:`ServiceTelemetry` — incremental job spans / queue gauges
  streamed through the :class:`repro.obs.stream.ObsSink` protocol.

Most callers should not wire these up by hand —
:class:`repro.api.Client` composes them behind a five-verb façade, and
``repro serve`` / ``repro submit`` expose that on the command line.
Module layout follows the library convention (docs/API.md): everything
public is re-exported here; ``_``-prefixed modules are internal.
"""

from repro.service._exec import execute_request
from repro.service._fingerprint import fingerprint_key, fingerprint_request
from repro.service._journal import JOURNAL_VERSION, Journal
from repro.service._pool import WorkerPool
from repro.service._queue import JobQueue, JobRecord, JobState
from repro.service._store import ResultStore, StoredResult
from repro.service._telemetry import SERVICE_METRICS, SERVICE_NODE, ServiceTelemetry

__all__ = [
    "JOURNAL_VERSION",
    "JobQueue",
    "JobRecord",
    "JobState",
    "Journal",
    "ResultStore",
    "SERVICE_METRICS",
    "SERVICE_NODE",
    "ServiceTelemetry",
    "StoredResult",
    "WorkerPool",
    "execute_request",
    "fingerprint_key",
    "fingerprint_request",
]
