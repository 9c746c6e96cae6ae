"""Queue semantics: priorities, quotas, transitions, crash recovery."""

import pytest

from repro.errors import JobNotFound, QuotaError, ServiceError
from repro.experiments.registry import JobRequest
from repro.service import JobQueue, JobState


def request(name="fig8", seed=None, **overrides):
    return JobRequest(
        name=name,
        result_name="Result",
        seed=seed,
        overrides=tuple(sorted(overrides.items())),
    )


def fp(tag):
    return f"{tag:0>8}" + "0" * 56


class TestScheduling:
    def test_fifo_within_equal_priority(self, tmp_path):
        queue = JobQueue(tmp_path)
        a = queue.submit(request("a"), fp("a"))
        b = queue.submit(request("b"), fp("b"))
        assert queue.claim_next().job_id == a.job_id
        assert queue.claim_next().job_id == b.job_id
        assert queue.claim_next() is None

    def test_higher_priority_wins_over_earlier_submission(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(request("a"), fp("a"), priority=0)
        urgent = queue.submit(request("b"), fp("b"), priority=5)
        assert queue.claim_next().job_id == urgent.job_id

    def test_claim_excludes_in_flight_fingerprints(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(request("a"), fp("dup"))
        twin = queue.submit(request("a"), fp("dup"))
        other = queue.submit(request("b"), fp("b"))
        first = queue.claim_next()
        # The twin must wait for its in-flight fingerprint; b may run.
        assert queue.claim_next(exclude_fingerprints={fp("dup")}).job_id == other.job_id
        assert queue.claim_next(exclude_fingerprints={fp("dup")}) is None
        queue.complete(first.job_id)
        assert queue.claim_next().job_id == twin.job_id


class TestQuota:
    def test_quota_bounds_active_jobs_per_client(self, tmp_path):
        queue = JobQueue(tmp_path, quota=2)
        queue.submit(request("a"), fp("a"), client="alice")
        queue.submit(request("b"), fp("b"), client="alice")
        with pytest.raises(QuotaError):
            queue.submit(request("c"), fp("c"), client="alice")
        # another client is unaffected
        queue.submit(request("c"), fp("c"), client="bob")

    def test_terminal_jobs_release_quota(self, tmp_path):
        queue = JobQueue(tmp_path, quota=1)
        job = queue.submit(request("a"), fp("a"))
        queue.claim_next()
        queue.complete(job.job_id)
        queue.submit(request("b"), fp("b"))


class TestTransitions:
    def test_complete_requires_running(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        with pytest.raises(ServiceError):
            queue.complete(job.job_id)

    def test_cancel_only_queued(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        queue.claim_next()
        with pytest.raises(ServiceError):
            queue.cancel(job.job_id)

    def test_unknown_job_id(self, tmp_path):
        with pytest.raises(JobNotFound):
            JobQueue(tmp_path).job("j999999")

    def test_requeue_preserves_attempt_count(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        queue.claim_next()
        queue.requeue(job.job_id, "worker died")
        assert job.state is JobState.QUEUED
        claimed = queue.claim_next()
        assert claimed.attempt == 2

    def test_counts_cover_every_state(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(request(), fp("a"))
        counts = queue.counts()
        assert counts["queued"] == 1
        assert set(counts) == {s.value for s in JobState}


class TestCrashRecovery:
    def test_reopen_replays_journal_exactly(self, tmp_path):
        queue = JobQueue(tmp_path)
        a = queue.submit(request("a", seed=3, iterations=5), fp("a"), priority=2)
        b = queue.submit(request("b"), fp("b"), client="bob")
        queue.claim_next()
        queue.complete(a.job_id)
        reopened = JobQueue(tmp_path)
        ra, rb = reopened.jobs()
        assert ra.state is JobState.DONE
        assert ra.request == a.request
        assert ra.priority == 2
        assert rb.state is JobState.QUEUED
        assert rb.client == "bob"
        assert reopened.recovered == ()

    def test_running_orphan_is_requeued_on_reopen(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        queue.claim_next()
        # ... the worker is SIGKILLed here; the journal's last word on the
        # job is "start".  A fresh queue must requeue it durably.
        reopened = JobQueue(tmp_path)
        assert reopened.recovered == (job.job_id,)
        assert reopened.job(job.job_id).state is JobState.QUEUED
        # and the recovery itself was journalled: a third open is clean
        third = JobQueue(tmp_path)
        assert third.recovered == ()
        assert third.job(job.job_id).state is JobState.QUEUED

    def test_new_submissions_continue_the_sequence(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(request("a"), fp("a"))
        reopened = JobQueue(tmp_path)
        newer = reopened.submit(request("b"), fp("b"))
        assert newer.job_id == "j000002"

    def test_torn_final_append_loses_only_that_event(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        queue.claim_next()
        queue.complete(job.job_id)
        journal = tmp_path / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        reopened = JobQueue(tmp_path)
        # the torn "done" is gone; the job falls back to the replayed
        # RUNNING state and is recovered like any orphan
        assert reopened.job(job.job_id).state is JobState.QUEUED
        assert reopened.recovered == (job.job_id,)


def _journal_with(tmp_path, damaged_line):
    """A two-job journal whose second line is replaced by ``damaged_line``."""
    queue = JobQueue(tmp_path)
    queue.submit(request("a"), fp("a"))
    queue.submit(request("b"), fp("b"))
    queue.claim_next()
    journal = tmp_path / "journal.jsonl"
    lines = journal.read_text().splitlines()
    lines[1] = damaged_line
    journal.write_text("\n".join(lines) + "\n")


class TestDamagedJournal:
    @pytest.mark.parametrize(
        "damaged_line",
        [
            "[1, 2]",
            '"submit"',
            "null",
            '{"event": "submit", "v": 1}',
            '{"event": "submit", "job": "j000002", "v": 1}',
            '{"event": "submit", "job": {"job_id": "j000002"}, "v": 1}',
            '{"event": "submit", "job": {"job_id": "j000002", "fingerprint": "f",'
            ' "request": [1]}, "v": 1}',
            '{"event": "submit", "job": {"job_id": "j000002", "fingerprint": "f",'
            ' "request": {"name": "b", "result_name": "R"}, "state": "lost"},'
            ' "v": 1}',
            '{"event": "start", "job_id": "j000009", "v": 1}',
            '{"event": "explode", "job_id": "j000001", "v": 1}',
            '{"event": "start", "job_id": "j000001", "attempt": "x", "v": 1}',
            '{"event": "start", "job_id": "j000001", "attempt": Infinity, "v": 1}',
        ],
        ids=[
            "list", "string", "null", "no-job", "job-not-object",
            "job-missing-fields", "request-not-object", "unknown-state",
            "unknown-job", "unknown-event", "non-int-attempt", "inf-attempt",
        ],
    )
    def test_bad_line_is_a_typed_error_naming_it(self, tmp_path, damaged_line):
        _journal_with(tmp_path, damaged_line)
        with pytest.raises(ServiceError, match=r"journal\.jsonl:line 2: "):
            JobQueue(tmp_path)

    def test_undecodable_middle_line_is_a_typed_error(self, tmp_path):
        _journal_with(tmp_path, '{"event": "sub')
        with pytest.raises(ServiceError, match=r"journal\.jsonl:line 2: "):
            JobQueue(tmp_path)

    def test_torn_tail_is_still_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        journal = tmp_path / "journal.jsonl"
        with journal.open("a") as handle:
            handle.write('{"event": "start", "job_')
        assert JobQueue(tmp_path).job(job.job_id).state is JobState.QUEUED


class TestTransitionHook:
    def test_hook_sees_every_journalled_event(self, tmp_path):
        events = []
        queue = JobQueue(
            tmp_path,
            on_transition=lambda job, event, counts: events.append(
                (job.job_id, event, counts["queued"])
            ),
        )
        job = queue.submit(request(), fp("a"))
        queue.claim_next()
        queue.complete(job.job_id)
        assert [e[1] for e in events] == ["submit", "start", "done"]
        assert events[0][2] == 1 and events[-1][2] == 0
