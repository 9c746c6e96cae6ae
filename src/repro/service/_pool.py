"""Sharded worker pool driving the queue against the store (internal).

The pool owns N :class:`repro.parallel.ShardWorker` processes and drains
a :class:`~repro.service.JobQueue` deterministically:

* a job is **assigned to a shard by its fingerprint** (stable hash), so
  re-running a campaign lands every job on the same shard;
* before dispatch the :class:`~repro.service.ResultStore` is consulted —
  a committed entry (:meth:`~repro.service.ResultStore.committed`, which
  reads ``record.json`` only) completes the job as a **cache hit** at
  claim time without touching a worker, and an in-flight twin (equal
  fingerprint) leaves the duplicate queued until the first finishes,
  so the same (spec, seed) figure costs exactly one simulation per
  store lifetime;
* a payload that **raises** fails the job (deterministic simulations
  fail deterministically — retrying would burn a core to learn nothing);
* a **dead worker** (crash, OOM-kill, SIGKILL) requeues its job up to
  ``max_attempts`` and the shard is respawned;
* a job exceeding the **per-job timeout** hard-stops its shard (the only
  way to interrupt a busy worker), fails the job, and respawns.

``shards=0`` selects inline mode: jobs execute in-process (no spawn
cost, no timeout/crash machinery) — the mode the in-process
:class:`repro.api.Client` uses by default and the tests lean on.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.errors import ServiceError
from repro.experiments.registry import ResultArtifacts
from repro.parallel import ShardWorker
from repro.service._exec import execute_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service._queue import JobQueue, JobRecord
    from repro.service._store import ResultStore

#: how long one poll sweep waits on a busy shard before moving on (s)
_POLL_INTERVAL = 0.05


class WorkerPool:
    """Drain a job queue over sharded spawn workers (or inline)."""

    def __init__(
        self,
        factory: Callable[..., ResultArtifacts] | None = None,
        shards: int = 0,
        timeout: float | None = None,
        max_attempts: int = 2,
    ) -> None:
        if shards < 0:
            raise ServiceError(f"shards must be >= 0, got {shards}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        self.factory = factory if factory is not None else execute_request
        self.n_shards = shards
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._shards: list[ShardWorker | None] = [None] * shards
        #: currently running job (and dispatch deadline) per shard
        self._running: dict[int, tuple["JobRecord", float | None]] = {}
        self._closed = False

    # -- shard plumbing ------------------------------------------------------

    @property
    def inline(self) -> bool:
        return self.n_shards == 0

    def shard_for(self, fingerprint: str) -> int:
        """Deterministic fingerprint -> shard assignment."""
        if self.inline:
            return 0
        return int(fingerprint[:8], 16) % self.n_shards

    def _shard(self, index: int) -> ShardWorker:
        worker = self._shards[index]
        if worker is None or not worker.alive:
            worker = ShardWorker(self.factory, name=f"repro-shard-{index}")
            self._shards[index] = worker
        return worker

    def _respawn(self, index: int) -> None:
        worker = self._shards[index]
        if worker is not None:
            worker.kill()
        self._shards[index] = None

    def shutdown(self) -> None:
        """Gracefully stop every shard (idempotent)."""
        self._closed = True
        for index, worker in enumerate(self._shards):
            if worker is not None:
                worker.stop()
                self._shards[index] = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- the drain loop ------------------------------------------------------

    def run(
        self,
        queue: "JobQueue",
        store: "ResultStore | None" = None,
        max_jobs: int | None = None,
    ) -> list["JobRecord"]:
        """Drain the queue; returns the jobs settled by this call, in order.

        Stops when the queue has no runnable work left (or after
        ``max_jobs`` settled jobs), leaving workers alive for the next
        call; :meth:`shutdown` stops them.
        """
        if self._closed:
            raise ServiceError("pool is shut down")
        settled: list["JobRecord"] = []

        def done(job: "JobRecord") -> bool:
            settled.append(job)
            return max_jobs is not None and len(settled) >= max_jobs

        while True:
            # Serve cache hits and dispatch fresh work.
            stop = False
            while not stop:
                job = queue.claim_next(
                    exclude_fingerprints=self._blocked_fingerprints(queue),
                    cached=None if store is None else store.committed,
                )
                if job is None:
                    break
                if job.state.terminal:  # served from the cache at claim
                    stop = done(job)
                    continue
                if self.inline:
                    stop = self._run_inline(queue, store, job, done)
                    continue
                index = self.shard_for(job.fingerprint)
                deadline = (
                    None if self.timeout is None else time.monotonic() + self.timeout
                )
                self._shard(index).submit(job.job_id, job.request)
                self._running[index] = (job, deadline)
            if stop or not self._running:
                if self._running:
                    self._drain_running(queue, store)
                return settled
            self._poll_once(queue, store, done)
            if not queue.has_pending and not self._running:
                return settled

    def _blocked_fingerprints(self, queue: "JobQueue") -> set[str]:
        """Fingerprints :meth:`run` must not claim right now.

        A fingerprint is blocked while its twin is in flight (the
        duplicate waits and is then served from the cache — exactly one
        simulation) or while its home shard is busy (per-shard FIFO:
        the job stays queued, never claim-and-bounced).
        """
        blocked = {job.fingerprint for job, _ in self._running.values()}
        if not self.inline and self._running:
            for job in queue.queued_jobs():
                if self.shard_for(job.fingerprint) in self._running:
                    blocked.add(job.fingerprint)
        return blocked

    # -- inline execution ----------------------------------------------------

    def _run_inline(
        self,
        queue: "JobQueue",
        store: "ResultStore | None",
        job: "JobRecord",
        done: Callable[["JobRecord"], bool],
    ) -> bool:
        try:
            artifacts = self.factory(job.request)
        except Exception as exc:
            queue.fail(job.job_id, f"{type(exc).__name__}: {exc}")
            return done(job)
        self._commit(queue, store, job, artifacts)
        return done(job)

    # -- worker results ------------------------------------------------------

    def _commit(
        self,
        queue: "JobQueue",
        store: "ResultStore | None",
        job: "JobRecord",
        artifacts: ResultArtifacts,
    ) -> None:
        if store is not None:
            store.put(job.fingerprint, artifacts, record=job.request.to_json())
        queue.complete(job.job_id, cached=False)

    def _poll_once(
        self,
        queue: "JobQueue",
        store: "ResultStore | None",
        done: Callable[["JobRecord"], bool],
    ) -> None:
        """One sweep over busy shards: results, crashes, timeouts."""
        for index in list(self._running):
            job, deadline = self._running[index]
            worker = self._shards[index]
            assert worker is not None
            answer = worker.poll(timeout=_POLL_INTERVAL)
            if answer is not None:
                del self._running[index]
                _, ok, value = answer
                if ok:
                    self._commit(queue, store, job, value)
                else:
                    queue.fail(job.job_id, str(value))
                done(job)
            elif not worker.alive:
                del self._running[index]
                self._respawn(index)
                if job.attempt < self.max_attempts:
                    queue.requeue(
                        job.job_id,
                        f"worker died mid-job (attempt {job.attempt})",
                    )
                else:
                    queue.fail(
                        job.job_id,
                        f"worker died {job.attempt} times; giving up",
                    )
                    done(job)
            elif deadline is not None and time.monotonic() > deadline:
                del self._running[index]
                self._respawn(index)
                queue.fail(job.job_id, f"timeout after {self.timeout:g}s")
                done(job)

    def _drain_running(
        self, queue: "JobQueue", store: "ResultStore | None"
    ) -> None:
        """Settle in-flight work after an early ``max_jobs`` stop."""
        while self._running:
            self._poll_once(queue, store, lambda job: False)
