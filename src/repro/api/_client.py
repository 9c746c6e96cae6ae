"""The unified client façade over the job service (internal).

:class:`Client` is the one front door for running experiments — the
``repro submit`` / ``repro serve`` commands and in-process callers all
go through it.  It composes the :mod:`repro.service` pieces (queue,
store, pool, telemetry) behind six verbs::

    with Client() as client:                  # ephemeral state
        handle = client.submit("fig8")        # -> JobHandle
        status = client.status(handle.job_id) # -> JobStatus
        status = client.wait(handle.job_id)   # drive jobs to completion
        result = client.result(handle.job_id) # -> JobResult (artefacts)
        client.stream(some_obs_sink)          # incremental telemetry
        client.cancel(other.job_id)           # queued jobs only

The client is synchronous: :meth:`wait` *drives* the worker pool (there
is no background thread), so with the default inline pool a
``submit``/``wait`` pair behaves exactly like calling the experiment
runner directly — same bytes, same exceptions surfaced as failed jobs —
while a persistent ``state_dir`` adds the journal, the quota ledger and
the content-addressed cache underneath unchanged calling code.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.errors import ServiceError
from repro.experiments.registry import (
    ResultArtifacts,
    get_experiment,
    persist_artifacts,
)
from repro.service import (
    JobQueue,
    JobRecord,
    ResultStore,
    ServiceTelemetry,
    WorkerPool,
    fingerprint_request,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.stream import ObsSink

#: default client identity for submissions that do not name one
DEFAULT_CLIENT = "local"


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job (plain data, safe to keep)."""

    job_id: str
    name: str
    state: str
    fingerprint: str
    priority: int
    client: str
    attempt: int
    cached: bool
    reason: str

    @classmethod
    def from_record(cls, record: JobRecord) -> "JobStatus":
        return cls(
            job_id=record.job_id,
            name=record.request.name,
            state=record.state.value,
            fingerprint=record.fingerprint,
            priority=record.priority,
            client=record.client,
            attempt=record.attempt,
            cached=record.cached,
            reason=record.reason,
        )

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


@dataclass(frozen=True)
class JobResult:
    """A finished job's artefacts (byte-identical fresh or cached)."""

    job_id: str
    name: str
    fingerprint: str
    cached: bool
    artifacts: ResultArtifacts

    @property
    def text(self) -> str:
        """The rendered result table, exactly as persisted (with newline)."""
        return self.artifacts.text

    def render(self) -> str:
        """The table as :meth:`render` on the result object returned it."""
        return self.artifacts.text[:-1]

    def persist(self, directory: str | Path) -> Path:
        """Archive into ``directory``: ``<result_name>.txt`` plus its
        manifest, the bytes the benchmark harness writes."""
        return persist_artifacts(self.artifacts, directory)


@dataclass(frozen=True)
class JobHandle:
    """A submitted job: its identity plus conveniences bound to the client."""

    client: "Client"
    job_id: str
    fingerprint: str

    def status(self) -> JobStatus:
        return self.client.status(self.job_id)

    def wait(self) -> JobStatus:
        return self.client.wait(self.job_id)

    def result(self) -> JobResult:
        return self.client.result(self.job_id)

    def cancel(self) -> JobStatus:
        return self.client.cancel(self.job_id)


class Client:
    """Submit experiments as jobs and collect cached-or-fresh results.

    Parameters
    ----------
    state_dir:
        Service state root (``<dir>/queue`` journal, ``<dir>/store``
        cache).  ``None`` uses an ephemeral temporary directory wiped on
        :meth:`close` — correct for one-shot CLI runs and tests; pass a
        real path to keep the cache and journal across invocations.
    shards:
        Worker processes; ``0`` (default) executes jobs inline in this
        process.
    quota:
        Per-client cap on active jobs, or ``None`` for unlimited.
    timeout:
        Per-job wall-clock limit in seconds (sharded mode only).
    """

    def __init__(
        self,
        state_dir: str | Path | None = None,
        shards: int = 0,
        quota: int | None = None,
        timeout: float | None = None,
    ) -> None:
        self._tmp: tempfile.TemporaryDirectory | None = None
        if state_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
            state_dir = self._tmp.name
        self.state_dir = Path(state_dir)
        self.telemetry = ServiceTelemetry()
        self.queue = JobQueue(
            self.state_dir / "queue",
            quota=quota,
            on_transition=self.telemetry.on_transition,
        )
        self.store = ResultStore(self.state_dir / "store")
        self.pool = WorkerPool(shards=shards, timeout=timeout)
        self._closed = False

    # -- the façade ----------------------------------------------------------

    def submit(
        self,
        name: str,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
        priority: int = 0,
        client: str = DEFAULT_CLIENT,
    ) -> JobHandle:
        """Normalize, fingerprint and enqueue one experiment invocation.

        Validation happens here (unknown name / knob / misdirected seed
        raise :class:`~repro.errors.ConfigError` immediately); execution
        happens in :meth:`wait`.
        """
        request = get_experiment(name).normalize(seed=seed, overrides=overrides)
        fingerprint = fingerprint_request(request)
        record = self.queue.submit(
            request, fingerprint, priority=priority, client=client
        )
        return JobHandle(self, record.job_id, fingerprint)

    def status(self, job_id: str) -> JobStatus:
        """Current state of one job (:class:`~repro.errors.JobNotFound` if unknown)."""
        return JobStatus.from_record(self.queue.job(job_id))

    def wait(self, job_id: str | None = None) -> JobStatus | None:
        """Drive the pool until ``job_id`` settles (or the queue drains).

        Returns the terminal :class:`JobStatus` — or ``None`` when called
        with no ``job_id`` on an already-empty queue.
        """
        while True:
            if job_id is not None:
                status = self.status(job_id)
                if status.terminal:
                    return status
            elif not self.queue.has_pending:
                return None
            settled = self.pool.run(self.queue, self.store)
            if not settled:
                raise ServiceError(
                    f"no progress draining the queue"
                    + (f" (waiting on {job_id})" if job_id else "")
                )

    def result(self, job_id: str) -> JobResult:
        """Artefacts of a finished job, served from the content store."""
        record = self.queue.job(job_id)
        if record.state.value != "done":
            raise ServiceError(
                f"job {job_id} is {record.state.value}"
                + (f": {record.reason}" if record.reason else "")
            )
        stored = self.store.get(record.fingerprint)
        if stored is None:
            raise ServiceError(
                f"job {job_id} finished but its store entry is gone "
                f"(fingerprint {record.fingerprint[:12]}...)"
            )
        return JobResult(
            job_id=record.job_id,
            name=record.request.name,
            fingerprint=record.fingerprint,
            cached=record.cached,
            artifacts=stored.artifacts,
        )

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel a queued job (running/terminal jobs cannot be cancelled)."""
        return JobStatus.from_record(self.queue.cancel(job_id))

    def stream(self, sink: "ObsSink") -> None:
        """Subscribe ``sink`` to incremental job telemetry (spans + gauges)."""
        self.telemetry.subscribe(sink)

    def stream_to(self, directory: str | Path) -> Path:
        """Stream telemetry into ``directory`` (``trace.jsonl`` + metrics)."""
        return self.telemetry.stream_to(directory)

    def jobs(self) -> tuple[JobStatus, ...]:
        """Every known job, in submission order."""
        return tuple(JobStatus.from_record(j) for j in self.queue.jobs())

    def persist(self, job_id: str, directory: str | Path) -> Path:
        """Archive a finished job's artefacts into ``directory``."""
        return self.result(job_id).persist(directory)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down workers, seal telemetry streams, drop ephemeral state."""
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown()
        self.telemetry.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
