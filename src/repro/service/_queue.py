"""Persistent on-disk job queue (internal).

State lives in an append-only JSONL journal (:mod:`._journal`); the
in-memory index is a pure fold over it, so a queue reopened after a
crash — of the service *or* of a worker mid-job — reconstructs exactly
the journalled state.  Jobs that were ``running`` when the journal ends
belonged to a dead worker: reopening the queue requeues them (with a
``recover`` record), which is the crash-recovery path the service CI job
exercises with a SIGKILL.

Scheduling is deterministic: :meth:`JobQueue.claim_next` always returns
the highest-priority job, ties broken by submission sequence (FIFO).
Per-client quotas bound how many jobs one client may have active
(queued + running) at once.

A state directory has a single queue owner at a time (the serving
process); concurrent readers are fine, concurrent writers are not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.errors import JobNotFound, QuotaError, ServiceError
from repro.service._journal import Journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.registry import JobRequest

#: journal filename inside a queue directory
JOURNAL_NAME = "journal.jsonl"

#: what converting a decoded-but-malformed journal value raises
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


class JobState(enum.Enum):
    """Lifecycle of a job; see the transition table in docs/SERVICE.md."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

    @property
    def active(self) -> bool:
        return not self.terminal


@dataclass
class JobRecord:
    """One job as tracked by the queue (journalled on every transition)."""

    job_id: str
    request: "JobRequest"
    fingerprint: str
    priority: int = 0
    client: str = "local"
    seq: int = 0
    state: JobState = JobState.QUEUED
    attempt: int = 0
    cached: bool = False
    reason: str = ""

    def to_json(self) -> dict[str, object]:
        """Stable JSON form (the public job-record schema, docs/SERVICE.md)."""
        return {
            "job_id": self.job_id,
            "request": self.request.to_json(),
            "fingerprint": self.fingerprint,
            "priority": self.priority,
            "client": self.client,
            "seq": self.seq,
            "state": self.state.value,
            "attempt": self.attempt,
            "cached": self.cached,
            "reason": self.reason,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "JobRecord":
        from repro.experiments.registry import JobRequest

        return cls(
            job_id=str(data["job_id"]),
            request=JobRequest.from_json(data["request"]),  # type: ignore[arg-type]
            fingerprint=str(data["fingerprint"]),
            priority=int(data.get("priority", 0)),  # type: ignore[arg-type]
            client=str(data.get("client", "local")),
            seq=int(data.get("seq", 0)),  # type: ignore[arg-type]
            state=JobState(str(data.get("state", "queued"))),
            attempt=int(data.get("attempt", 0)),  # type: ignore[arg-type]
            cached=bool(data.get("cached", False)),
            reason=str(data.get("reason", "")),
        )


class JobQueue:
    """Journal-backed priority queue with per-client quotas.

    Parameters
    ----------
    directory:
        Queue state directory; created if missing.  The journal lives at
        ``<directory>/journal.jsonl``.
    quota:
        Maximum *active* (queued + running) jobs per client, or ``None``
        for unlimited.
    on_transition:
        Optional callback ``(record, event, counts)`` invoked after every
        journalled transition — the telemetry hook
        (:class:`~repro.service.ServiceTelemetry.on_transition`).
    """

    def __init__(
        self,
        directory: str | Path,
        quota: int | None = None,
        on_transition: Callable[[JobRecord, str, Mapping[str, int]], None]
        | None = None,
    ) -> None:
        if quota is not None and quota < 1:
            raise ServiceError(f"quota must be >= 1, got {quota}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quota = quota
        self.on_transition = on_transition
        self.journal = Journal(self.directory / JOURNAL_NAME)
        self._jobs: dict[str, JobRecord] = {}
        self._next_seq = 1
        self._recovered: list[str] = []
        self._replay()

    # -- recovery ------------------------------------------------------------

    def _replay(self) -> None:
        """Fold the journal back into queue state, then requeue orphans."""
        for line, record in enumerate(self.journal.replay(), 1):
            try:
                self._fold(record)
            except ServiceError as err:
                raise ServiceError(f"{self.journal.path}:line {line}: {err}") from err
        # Jobs still RUNNING at the end of the journal were in flight on a
        # worker that never reported back — requeue them durably.
        for job in self._in_order():
            if job.state is JobState.RUNNING:
                job.state = JobState.QUEUED
                job.reason = "recovered: worker died mid-job"
                self._journal_event(
                    job, "recover", reason=job.reason
                )
                self._recovered.append(job.job_id)

    def _fold(self, record: object) -> None:
        """Apply one replayed journal record; a malformed one is a ServiceError."""
        if not isinstance(record, dict):
            raise ServiceError(
                f"journal record is a {type(record).__name__}, not an object"
            )
        event = record.get("event")
        if event == "submit":
            try:
                job = JobRecord.from_json(record["job"])
            except _MALFORMED as err:
                raise ServiceError(
                    f"submit record without a well-formed job: {err!r}"
                ) from err
            self._jobs[job.job_id] = job
            self._next_seq = max(self._next_seq, job.seq + 1)
            return
        job = self._jobs.get(str(record.get("job_id", "")))
        if job is None:
            raise ServiceError(f"{event!r} record references an unknown job")
        if event == "start":
            job.state = JobState.RUNNING
            try:
                job.attempt = int(record.get("attempt", job.attempt + 1))
            except _MALFORMED as err:
                raise ServiceError(
                    f"start record with a malformed attempt: {err!r}"
                ) from err
        elif event == "done":
            job.state = JobState.DONE
            job.cached = bool(record.get("cached", False))
        elif event == "fail":
            job.state = JobState.FAILED
            job.reason = str(record.get("reason", ""))
        elif event == "cancel":
            job.state = JobState.CANCELLED
        elif event in ("requeue", "recover"):
            job.state = JobState.QUEUED
            job.reason = str(record.get("reason", ""))
        else:
            raise ServiceError(f"unknown journal event {event!r}")

    @property
    def recovered(self) -> tuple[str, ...]:
        """Job ids requeued by journal replay (crash recovery)."""
        return tuple(self._recovered)

    # -- journalling ---------------------------------------------------------

    def _journal_event(self, job: JobRecord, event: str, **fields: object) -> None:
        self.journal.append({"event": event, "job_id": job.job_id, **fields})
        self._notify(job, event)

    def _notify(self, job: JobRecord, event: str) -> None:
        if self.on_transition is not None:
            self.on_transition(job, event, self.counts())

    # -- queries -------------------------------------------------------------

    def _in_order(self) -> list[JobRecord]:
        return sorted(self._jobs.values(), key=lambda j: j.seq)

    def job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobNotFound(f"unknown job id {job_id!r}") from None

    def jobs(self) -> tuple[JobRecord, ...]:
        """Every known job, in submission order."""
        return tuple(self._in_order())

    def counts(self) -> dict[str, int]:
        """Job counts per state (every state present, zero or not)."""
        counts = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            counts[job.state.value] += 1
        return counts

    def active_for(self, client: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.client == client and job.state.active
        )

    @property
    def has_pending(self) -> bool:
        return any(j.state is JobState.QUEUED for j in self._jobs.values())

    # -- transitions ---------------------------------------------------------

    def submit(
        self,
        request: "JobRequest",
        fingerprint: str,
        priority: int = 0,
        client: str = "local",
    ) -> JobRecord:
        """Enqueue a normalized request; returns the journalled record."""
        if self.quota is not None and self.active_for(client) >= self.quota:
            raise QuotaError(
                f"client {client!r} already has {self.active_for(client)} "
                f"active jobs (quota {self.quota})"
            )
        seq = self._next_seq
        self._next_seq += 1
        job = JobRecord(
            job_id=f"j{seq:06d}",
            request=request,
            fingerprint=fingerprint,
            priority=priority,
            client=client,
            seq=seq,
        )
        self._jobs[job.job_id] = job
        self.journal.append({"event": "submit", "job": job.to_json()})
        self._notify(job, "submit")
        return job

    def claim_next(
        self, exclude_fingerprints: Iterable[str] = ()
    ) -> JobRecord | None:
        """Claim the next runnable job (highest priority, FIFO ties).

        ``exclude_fingerprints`` leaves jobs whose result is already being
        computed unclaimed, so a duplicate submission waits for its twin
        and is then served from the cache instead of simulating twice.
        """
        excluded = frozenset(exclude_fingerprints)
        candidates = [
            job
            for job in self._jobs.values()
            if job.state is JobState.QUEUED and job.fingerprint not in excluded
        ]
        if not candidates:
            return None
        job = min(candidates, key=lambda j: (-j.priority, j.seq))
        self._transition(job, JobState.QUEUED, JobState.RUNNING)
        job.attempt += 1
        self._journal_event(job, "start", attempt=job.attempt)
        return job

    def complete(self, job_id: str, cached: bool = False) -> JobRecord:
        job = self.job(job_id)
        self._transition(job, JobState.RUNNING, JobState.DONE)
        job.cached = cached
        self._journal_event(job, "done", cached=cached)
        return job

    def fail(self, job_id: str, reason: str) -> JobRecord:
        job = self.job(job_id)
        self._transition(job, JobState.RUNNING, JobState.FAILED)
        job.reason = reason
        self._journal_event(job, "fail", reason=reason)
        return job

    def requeue(self, job_id: str, reason: str) -> JobRecord:
        """Put a running job back in the queue (crashed worker path)."""
        job = self.job(job_id)
        self._transition(job, JobState.RUNNING, JobState.QUEUED)
        job.reason = reason
        self._journal_event(job, "requeue", reason=reason)
        return job

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running jobs cannot be cancelled)."""
        job = self.job(job_id)
        self._transition(job, JobState.QUEUED, JobState.CANCELLED)
        self._journal_event(job, "cancel")
        return job

    def _transition(self, job: JobRecord, expect: JobState, to: JobState) -> None:
        if job.state is not expect:
            raise ServiceError(
                f"job {job.job_id} is {job.state.value}, cannot move "
                f"{expect.value} -> {to.value}"
            )
        job.state = to
