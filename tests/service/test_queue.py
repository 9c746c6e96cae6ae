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


CLIENTS = ("alice", "bob")
QUOTA = 4


def _recount(queue):
    """Counts, pending flag, per-client active counts and the next claim,
    recounted by brute force over every job."""
    jobs = queue.jobs()
    counts = {state.value: 0 for state in JobState}
    for job in jobs:
        counts[job.state.value] += 1
    active = {c: sum(j.client == c and j.state.active for j in jobs) for c in CLIENTS}
    queued = [j for j in jobs if j.state is JobState.QUEUED]
    following = min(queued, key=lambda j: (-j.priority, j.seq)) if queued else None
    return counts, bool(queued), active, following and following.job_id


def _indexed(queue):
    return (
        queue.counts(),
        queue.has_pending,
        {c: queue.active_for(c) for c in CLIENTS},
    )


class TestIndices:
    """The queue's O(1) indices always equal a recount over ``jobs()``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_transitions_match_a_recount(self, tmp_path, seed):
        import shutil

        from repro.sim.rng import make_rng

        rng = make_rng(seed)

        def pick(options):
            return options[int(rng.integers(len(options)))]

        live = JobQueue(tmp_path / "live", quota=QUOTA)
        for step in range(150):
            counts, pending, active, following = _recount(live)
            assert _indexed(live) == (counts, pending, active)
            jobs = live.jobs()
            by_state = {
                state: [j for j in jobs if j.state is state] for state in JobState
            }
            op = pick(
                ("submit", "submit", "claim", "hit", "complete", "fail",
                 "requeue", "cancel")
            )
            if op == "submit":
                client = pick(CLIENTS)
                tag = int(rng.integers(6))
                args = (request(f"r{tag}"), fp(tag))
                kwargs = dict(priority=int(rng.integers(3)), client=client)
                if active[client] >= QUOTA:
                    with pytest.raises(QuotaError):
                        live.submit(*args, **kwargs)
                else:
                    live.submit(*args, **kwargs)
            elif op in ("claim", "hit"):
                claimed = live.claim_next(
                    cached=(lambda f: True) if op == "hit" else None
                )
                assert (claimed and claimed.job_id) == following
                if claimed is not None:
                    want = JobState.DONE if op == "hit" else JobState.RUNNING
                    assert claimed.state is want
                    assert claimed.cached is (op == "hit")
            elif op == "cancel" and by_state[JobState.QUEUED]:
                live.cancel(pick(by_state[JobState.QUEUED]).job_id)
            elif op in ("complete", "fail", "requeue") and by_state[JobState.RUNNING]:
                job_id = pick(by_state[JobState.RUNNING]).job_id
                if op == "complete":
                    live.complete(job_id)
                elif op == "fail":
                    live.fail(job_id, "boom")
                else:
                    live.requeue(job_id, "worker died")
            # Replay a copy of the journal: the fold must rebuild the same
            # indices (running jobs come back requeued, nothing else moves).
            replica = tmp_path / f"replica-{step}"
            replica.mkdir()
            if live.journal.path.exists():
                shutil.copy(live.journal.path, replica)
            reopened = JobQueue(replica, quota=QUOTA)
            assert _indexed(reopened) == _recount(reopened)[:3]
            for before, after in zip(live.jobs(), reopened.jobs()):
                assert before.job_id == after.job_id
                assert after.state is before.state or (
                    before.state is JobState.RUNNING
                    and after.state is JobState.QUEUED
                )
            shutil.rmtree(replica)
        # Drain the reopened queue: every claim follows the recount.
        reopened = JobQueue(tmp_path / "live", quota=QUOTA)
        while True:
            following = _recount(reopened)[3]
            claimed = reopened.claim_next()
            assert (claimed and claimed.job_id) == following
            assert _indexed(reopened) == _recount(reopened)[:3]
            if claimed is None:
                break

    def test_hit_claim_needs_no_complete(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(request(), fp("a"))
        claimed = queue.claim_next(cached=lambda f: f == fp("a"))
        assert claimed is job
        assert (job.state, job.cached, job.attempt) == (JobState.DONE, True, 1)
        with pytest.raises(ServiceError):
            queue.complete(job.job_id)
        assert not queue.has_pending and queue.active_for("local") == 0


class TestGroupedAppend:
    """A cache hit's start and done records share one write + fsync."""

    def test_hit_lines_equal_the_three_append_form(self, tmp_path):
        grouped = JobQueue(tmp_path / "grouped")
        grouped.submit(request(), fp("a"))
        grouped.claim_next(cached=lambda f: True)
        separate = JobQueue(tmp_path / "separate")
        job = separate.submit(request(), fp("a"))
        separate.claim_next()
        separate.complete(job.job_id, cached=True)
        journal = "journal.jsonl"
        lines = (tmp_path / "grouped" / journal).read_bytes()
        assert lines == (tmp_path / "separate" / journal).read_bytes()
        assert len(lines.splitlines()) == 3

    def test_hook_sees_start_then_done_with_their_counts(self, tmp_path):
        events = []
        queue = JobQueue(
            tmp_path,
            on_transition=lambda job, event, counts: events.append(
                (event, job.state.value, dict(counts))
            ),
        )
        queue.submit(request(), fp("a"))
        queue.claim_next(cached=lambda f: True)
        assert [(e, s, c["queued"], c["running"], c["done"]) for e, s, c in events] == [
            ("submit", "queued", 1, 0, 0),
            ("start", "running", 0, 1, 0),
            ("done", "done", 0, 0, 1),
        ]


class _TinyResult:
    def __init__(self, seed):
        self.seed = seed

    def render(self):
        return f"tiny table for seed {self.seed}"


def _run_tiny(seed: int = 0) -> _TinyResult:
    return _TinyResult(seed)


@pytest.fixture
def tiny_client(tmp_path, monkeypatch):
    """A Client over ``tmp_path/state`` with a cheap registered experiment."""
    from repro.api import Client
    from repro.experiments.registry import EXPERIMENT_REGISTRY, ExperimentSpec

    spec = ExperimentSpec("tiny", "queue-test probe", _run_tiny, "TinyResult", seed=0)
    monkeypatch.setitem(EXPERIMENT_REGISTRY, "tiny", spec)
    with Client(state_dir=tmp_path / "state") as client:
        yield client


def _submit_wait_result(client, seed=0):
    handle = client.submit("tiny", seed=seed)
    status = client.wait(handle.job_id)
    return status, client.result(handle.job_id)


class _CountingDict(dict):
    """A dict that counts whole-collection iterations."""

    scans = 0

    def _scan(self):
        type(self).scans += 1

    def __iter__(self):
        self._scan()
        return super().__iter__()

    def values(self):
        self._scan()
        return super().values()

    def items(self):
        self._scan()
        return super().items()

    def keys(self):
        self._scan()
        return super().keys()


class TestCacheHitCost:
    def test_fsyncs_per_job(self, tiny_client, monkeypatch):
        import os

        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        status, _ = _submit_wait_result(tiny_client)
        # submit, start, result.txt, manifest.json, record.json, done
        assert (status.cached, len(calls)) == (False, 6)
        calls.clear()
        status, _ = _submit_wait_result(tiny_client)
        # submit, then start + done in one append
        assert (status.cached, status.attempt, len(calls)) == (True, 1, 2)

    def test_cached_job_does_not_scan_every_job(self, tiny_client):
        _submit_wait_result(tiny_client)
        for _ in range(499):
            tiny_client.submit("tiny")
        tiny_client.wait()
        queue = tiny_client.queue
        assert queue.counts()["done"] == 500
        queue._jobs = _CountingDict(queue._jobs)
        _CountingDict.scans = 0
        status, result = _submit_wait_result(tiny_client)
        assert status.cached and result.text == "tiny table for seed 0\n"
        assert _CountingDict.scans == 0

    def test_torn_grouped_append_recovers_then_hits(self, tiny_client, tmp_path):
        from repro.api import Client

        _, fresh = _submit_wait_result(tiny_client)
        status, _ = _submit_wait_result(tiny_client)
        tiny_client.close()
        journal = tmp_path / "state" / "queue" / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        assert '"event":"start"' in lines[-2] and '"event":"done"' in lines[-1]
        # start line complete, done line torn mid-write
        journal.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with Client(state_dir=tmp_path / "state") as client:
            assert client.queue.recovered == (status.job_id,)
            assert client.status(status.job_id).state == "queued"
            again = client.wait(status.job_id)
            assert (again.state, again.cached) == ("done", True)
            assert client.result(status.job_id).text == fresh.text
