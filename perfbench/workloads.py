"""The benchmark's three workloads: closed loops with one caller.

Each workload turns the benchmark seed into its inputs in :meth:`setup`
and then runs one *iteration* at a time; the next iteration starts only
after the previous one returned.  An iteration is one simulation
(``contended_mix``, ``trace_replay``) or one fixed batch of service jobs
on a fresh state directory (``service_batch``).  Every iteration of a
run sees the same inputs, so every iteration must reproduce the same
digest; for the pinned seeds in :data:`PINNED` it must also equal the
pin.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

from repro.api import Client
from repro.apps import AppJob, get_app
from repro.check.harness import fingerprint_cluster
from repro.cluster import Cluster
from repro.core import CpuOccupy, MemBw, NetOccupy
from repro.obs import Observability
from repro.obs.stream import COUNTERS_JSON, COUNTERS_JSONL
from repro.traces import replay, schema
from repro.traces.generators import generate_trace

#: workload -> seed -> digest of one iteration.  Seed 0 is the default;
#: seed 7 is held out (never used while tuning the benchmark).  Both
#: backends produce these digests.
PINNED: dict[str, dict[int, str]] = {
    "contended_mix": {
        0: "0x1.2295d5fb10c62p+6:ce49360a29632d2f73d5cf18169a652a1e24e09c5b1d2da6214fe593fd1f2ada",
        7: "0x1.2340fa93c25b0p+6:4ea8ffcb1e62113bbb0573b2b6a4ec792e830f21147425ad1b01e96aaf2f6c4d",
    },
    "trace_replay": {
        0: "8f7b42dc3c9ef53f18aa303fc128fae04d30808ef25209ce3f6a16cab9dcbaa9",
        7: "1fd609ea7242ad4fac95868f0024b4b4e1526a0460c715d92a310bc31b23fba3",
    },
    "service_batch": {
        0: "48237d0a6bb431b0cdfc8d96c089f083f89b6773d7ae63e7193de73207c5026f",
        7: "f81b631c29aaac0e1f1e04988aaba57ed0ccf24c507e8833968e0dcc9c47792e",
    },
}


#: opens the caller's span around one timed operation (a no-op untraced)
OpSpan = Callable[[], ContextManager[object]]


def _sha256_tree(root: Path, exclude: frozenset[str] = frozenset()) -> tuple[str, int]:
    """sha256 over (relative path, bytes) of every file; plus total bytes."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in exclude:
            continue
        data = path.read_bytes()
        size += len(data)
        digest.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest(), size


@dataclass
class Outcome:
    """What one iteration did, as the caller saw it."""

    #: host seconds of each operation that ran a simulation
    sim_s: list[float]
    #: host seconds of each operation whose input this run had already run
    repeat_s: list[float]
    #: operations (simulations or jobs) and the loop's host seconds
    ops: int
    seconds: float
    digest: str
    #: operations the digest covers (they fail together if it is wrong)
    digest_ops: int
    failed: int = 0
    hits: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    notes: list[str] = field(default_factory=list)
    #: the caller's host-speed factor for this iteration's times
    scale: float = 1.0


class Workload:
    name = ""

    def setup(self, seed: int, tmp: Path) -> None:
        raise NotImplementedError

    def iteration(self, tmp: Path, index: int, op: OpSpan) -> Outcome:
        """Run one iteration; ``op()`` brackets each timed operation."""
        raise NotImplementedError


class ContendedMix(Workload):
    """miniMD (32 ranks, 4 of 16 Voltrino nodes) under cpuoccupy, 2x membw
    and a netoccupy pair, with telemetry streamed to a run directory."""

    name = "contended_mix"
    iterations = 30

    def setup(self, seed: int, tmp: Path) -> None:
        self.seed = seed

    def iteration(self, tmp: Path, index: int, op: OpSpan) -> Outcome:
        run_dir = tmp / f"run-{index}"
        with op():
            start = time.perf_counter()
            cluster = Cluster.voltrino(num_nodes=16)
            obs = Observability(cluster).attach()
            obs.stream_to(run_dir, chrome=True)
            try:
                app = get_app("miniMD").scaled(iterations=self.iterations)
                job = AppJob(app, cluster, nodes=[0, 1, 2, 3], ranks_per_node=8, seed=self.seed)
                job.launch()
                CpuOccupy(utilization=100).launch(cluster, "node0", core=0)
                MemBw().launch(cluster, "node0", core=4)
                MemBw().launch(cluster, "node0", core=5)
                NetOccupy.launch_pair(cluster, src="node1", dst="node5", ranks=4)
                runtime = job.run(timeout=1e7)
            finally:
                obs.close_streams()
            elapsed = time.perf_counter() - start
        # The counter snapshots record engine work counts, which differ by
        # backend; the simulated outputs are the trace and metric streams.
        tree, size = _sha256_tree(run_dir, frozenset({COUNTERS_JSON, COUNTERS_JSONL}))
        shutil.rmtree(run_dir)
        return Outcome(
            sim_s=[elapsed],
            repeat_s=[elapsed],
            ops=1,
            seconds=elapsed,
            digest=f"{float(runtime).hex()}:{tree}",
            digest_ops=1,
            bytes_written=size,
        )


class TraceReplay(Workload):
    """Load a generated ai_training trace file and replay it, no telemetry."""

    name = "trace_replay"
    ranks, steps = 16, 24

    def setup(self, seed: int, tmp: Path) -> None:
        trace = generate_trace("ai_training", seed=seed, ranks=self.ranks, steps=self.steps)
        self.path = schema.dump_trace(trace, tmp / "ai_training.jsonl")
        self.size = self.path.stat().st_size

    def iteration(self, tmp: Path, index: int, op: OpSpan) -> Outcome:
        with op():
            start = time.perf_counter()
            trace = schema.load_trace(self.path)
            cluster = replay.build_replay_cluster(trace)
            replay.TraceReplayApp(trace, cluster).run()
            elapsed = time.perf_counter() - start
        digest = hashlib.sha256(fingerprint_cluster(cluster).encode()).hexdigest()
        return Outcome(
            sim_s=[elapsed],
            repeat_s=[elapsed],
            ops=1,
            seconds=elapsed,
            digest=digest,
            digest_ops=1,
            bytes_read=self.size,
        )


class ServiceBatch(Workload):
    """A seeded sequence of trace_replay jobs through one in-process Client.

    A fifth of the jobs are new specs (they simulate, write the store and
    append to the journal); the rest resubmit a spec completed earlier in
    the batch and must be served from the result cache.
    """

    name = "service_batch"
    jobs, fresh = 40, 8
    overrides = {"generator": "checkpoint_burst", "ranks": 8, "steps": 8}

    def setup(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        job_seeds = rng.sample(range(1_000_000), self.fresh)
        fresh_at = {0, *rng.sample(range(1, self.jobs), self.fresh - 1)}
        #: (job seed, expected cached flag) in submission order
        self.plan: list[tuple[int, bool]] = []
        done: list[int] = []
        for position in range(self.jobs):
            if position in fresh_at:
                job_seed = job_seeds[len(done)]
                done.append(job_seed)
                self.plan.append((job_seed, False))
            else:
                self.plan.append((rng.choice(done), True))

    def iteration(self, tmp: Path, index: int, op: OpSpan) -> Outcome:
        state = tmp / f"state-{index}"
        client = Client(state_dir=state, shards=0)
        outcome = Outcome([], [], ops=0, seconds=0.0, digest="", digest_ops=self.fresh)
        texts: dict[int, str] = {}
        try:
            start = time.perf_counter()
            for job_seed, cached in self.plan:
                with op():
                    t0 = time.perf_counter()
                    handle = client.submit("trace_replay", seed=job_seed, overrides=self.overrides)
                    status = client.wait(handle.job_id)
                    result = client.result(handle.job_id) if status.state == "done" else None
                    latency = time.perf_counter() - t0
                outcome.ops += 1
                (outcome.repeat_s if cached else outcome.sim_s).append(latency)
                if result is None:
                    outcome.failed += 1
                    outcome.notes.append(f"job {handle.job_id} ended {status.state}")
                    continue
                outcome.hits += result.cached
                if result.cached != cached:
                    outcome.failed += 1
                    outcome.notes.append(f"job {handle.job_id}: cached={result.cached}, planned {cached}")
                elif cached and result.text != texts.get(job_seed):
                    outcome.failed += 1
                    outcome.notes.append(f"job {handle.job_id}: cache hit differs from its fresh result")
                elif not cached:
                    texts[job_seed] = result.text
            outcome.seconds = time.perf_counter() - start
        finally:
            client.close()
            shutil.rmtree(state, ignore_errors=True)
        digest = hashlib.sha256()
        for job_seed, cached in self.plan:
            if not cached:
                digest.update(hashlib.sha256(texts.get(job_seed, "").encode()).digest())
        outcome.digest = digest.hexdigest()
        return outcome


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ContendedMix, TraceReplay, ServiceBatch)
}
