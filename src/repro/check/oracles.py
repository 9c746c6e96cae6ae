"""Differential oracles: paired paths that must agree byte-for-byte.

Every optimisation keeps a reference path alive next to its fast path —
the scalar reference rate model next to the production one, serial
sweeps next to ``--jobs N``, uninterrupted jobs next to
checkpoint/restart, and a live telemetry stream next to its post-run
replay.  Each oracle here runs one seeded scenario through both sides
and reports whether the results are byte-identical; the per-case
reference-model comparison lives in :mod:`repro.check.harness` (it
reuses the case fingerprint), while this module holds the oracles that
need machinery a single case cannot exercise.

All comparisons use ``float.hex()`` / fingerprint equality — "close
enough" is exactly the silent-divergence failure mode this subsystem
exists to catch.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

from repro.apps.base import AppJob, CheckpointStore
from repro.apps.registry import get_app
from repro.check.generators import generate_cases
from repro.cluster.cluster import Cluster
from repro.parallel import run_trials


@dataclass(frozen=True)
class OracleResult:
    """Verdict of one differential oracle."""

    name: str
    ok: bool
    detail: str = ""


# -- parallel vs serial sweep -------------------------------------------------


def oracle_parallel_sweep(seed: int, cases: int = 3, jobs: int = 2) -> OracleResult:
    """``run_trials(jobs=N)`` must merge byte-identically to a serial run."""
    from repro.check.harness import fingerprint_case

    specs = generate_cases(cases, seed)
    serial = [fingerprint_case(spec) for spec in specs]
    parallel = run_trials(fingerprint_case, specs, jobs=jobs)
    if serial == parallel:
        return OracleResult("parallel_sweep", True)
    diverging = [
        spec.case_id for spec, s, p in zip(specs, serial, parallel) if s != p
    ]
    return OracleResult(
        "parallel_sweep",
        False,
        f"jobs={jobs} diverges from serial on cases {diverging}",
    )


# -- checkpoint/restart vs uninterrupted --------------------------------------


class _RecordingStore(CheckpointStore):
    """Checkpoint store that records the simulated instant of each commit.

    All ranks commit right after the barrier releases them, i.e. within
    one simulated instant, so the first commit of an iteration pins the
    exact time the whole BSP step completed.
    """

    def __init__(self, cluster: Cluster) -> None:
        super().__init__()
        self._cluster = cluster
        self.commit_times: dict[int, float] = {}

    def commit(self, iteration: int) -> None:
        super().commit(iteration)
        self.commit_times.setdefault(iteration, self._cluster.sim.now)


def _checkpoint_job(
    cluster: Cluster,
    seed: int,
    iterations: int,
    interval: int | None,
    store: CheckpointStore | None = None,
    start_iteration: int = 0,
    start: float = 0.0,
) -> AppJob:
    app = get_app("miniMD").scaled(iterations=iterations)
    return AppJob(
        app,
        cluster,
        nodes=[0, 1],
        ranks_per_node=2,
        start=start,
        seed=seed,
        checkpoint_interval=interval,
        checkpoint=store,
        start_iteration=start_iteration,
    )


def oracle_checkpoint_restart(
    seed: int, iterations: int = 8, interval: int = 2
) -> OracleResult:
    """A job killed and restarted from its checkpoint must finish at the
    exact simulated instant of the uninterrupted run.

    The uninterrupted run records the instant ``T_k`` at which iteration
    ``k`` globally committed (the barrier releases every rank at one
    timestamp).  Restarting the killed job at ``T_k`` with the same seed
    replays iterations ``k..n`` through identical arithmetic — the rank
    bodies skip their jitter streams forward — so the final event times
    must agree to the last bit.
    """
    name = "checkpoint_restart"
    # Uninterrupted reference run, with commit instants recorded.
    cluster_a = Cluster.voltrino(num_nodes=2)
    store_a = _RecordingStore(cluster_a)
    job_a = _checkpoint_job(cluster_a, seed, iterations, interval, store=store_a)
    job_a.run()
    end_a = max(p.end_time for p in job_a.procs)
    commits = sorted(store_a.commit_times)
    if not commits:
        return OracleResult(name, False, "reference run never committed")
    k = commits[len(commits) // 2]
    t_k = store_a.commit_times[k]
    next_points = [store_a.commit_times[c] for c in commits if c > k]
    t_next = min(next_points) if next_points else end_a
    t_kill = (t_k + t_next) / 2.0

    # Interrupted run: identical job, killed mid-flight after commit k.
    cluster_b = Cluster.voltrino(num_nodes=2)
    job_b = _checkpoint_job(cluster_b, seed, iterations, interval)
    job_b.launch()
    cluster_b.sim.run(until=t_kill)
    for proc in job_b.procs:
        if not proc.state.terminal:
            cluster_b.sim.kill(proc, reason="check: injected crash")
    if job_b.checkpoint.committed != k:
        return OracleResult(
            name,
            False,
            f"kill at t={t_kill!r} left committed="
            f"{job_b.checkpoint.committed}, expected {k}",
        )

    # Restart from the survivor's store at the commit instant.
    cluster_c = Cluster.voltrino(num_nodes=2)
    job_c = AppJob.restart_from(job_b, cluster=cluster_c, start=t_k)
    job_c.run()
    end_c = max(p.end_time for p in job_c.procs)
    if end_a.hex() == end_c.hex():
        return OracleResult(name, True)
    return OracleResult(
        name,
        False,
        f"uninterrupted end {end_a.hex()} != restarted end {end_c.hex()} "
        f"(restarted from iteration {k} at t={t_k!r})",
    )


def oracle_checkpoint_free(
    seed: int, iterations: int = 6, interval: int = 2
) -> OracleResult:
    """Zero-cost checkpointing must be exactly free: same runtime bytes."""
    cluster_plain = Cluster.voltrino(num_nodes=2)
    plain = _checkpoint_job(cluster_plain, seed, iterations, interval=None).run()
    cluster_ckpt = Cluster.voltrino(num_nodes=2)
    ckpt = _checkpoint_job(cluster_ckpt, seed, iterations, interval=interval).run()
    if plain.hex() == ckpt.hex():
        return OracleResult("checkpoint_free", True)
    return OracleResult(
        "checkpoint_free",
        False,
        f"runtime without checkpointing {plain.hex()} != with zero-cost "
        f"checkpointing {ckpt.hex()}",
    )


# -- live stream vs post-run replay ------------------------------------------


def _first_byte_diff(a: str, b: str) -> int:
    """Index of the first differing character (or the shorter length)."""
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            return i
    return min(len(a), len(b))


def _stdlib_rerender(label: str, text: str) -> str | None:
    """Where ``text`` differs from the stdlib's rendering of its own parse.

    The writers build their bytes without ``json.dumps(..., indent=1)``;
    this is the independent reference for that layout: a Chrome trace
    must equal ``json.dumps(parsed, sort_keys=True, indent=1)``, a trace
    JSONL line its compact sorted dump, a metric JSONL line its sorted
    dump with the default separators.
    """
    if label == "chrome":
        expected = json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
        if text == expected:
            return None
        return (
            "chrome layout differs from the stdlib at byte "
            f"{_first_byte_diff(text, expected)}"
        )
    separators = (",", ":") if label == "jsonl" else (", ", ": ")
    for number, line in enumerate(text.splitlines(), 1):
        expected = json.dumps(json.loads(line), sort_keys=True, separators=separators)
        if line != expected:
            return (
                f"{label} line {number} differs from the stdlib at byte "
                f"{_first_byte_diff(line, expected)}"
            )
    return None


def oracle_stream_export(
    seed: int, cases: int = 2, corpus: list | None = None
) -> OracleResult:
    """A live telemetry stream must equal a post-run replay of the run.

    Every case (the pinned corpus plus ``cases`` generated specs) runs
    once with an :class:`~repro.obs.observability.Observability` handle
    attached and in-memory streaming sinks registered — JSONL trace,
    Chrome trace, and one metric stream per node.  After the run, the
    finished collector and the service's stored columns are replayed
    through fresh writers of the same classes (the batch exporters), and
    the bytes are compared.  Both sides share one serialiser, so any
    drift means a record was flushed before its content was final (span
    args mutated after close), or a sink was fed out of completion order
    or fed values other than the ones the service stores.  Because both
    sides share the serialiser, every live stream is also compared with
    the stdlib's rendering of its own parse (:func:`_stdlib_rerender`),
    so a layout bug in a writer cannot pass.
    """
    from repro.check.generators import build_cluster, deploy_case
    from repro.monitoring.export import to_jsonl_text
    from repro.obs.export import replay
    from repro.obs.observability import Observability
    from repro.obs.stream import (
        ChromeStreamWriter,
        JsonlStreamWriter,
        MetricJsonlStreamWriter,
    )

    specs = list(corpus or []) + generate_cases(cases, seed)
    failures: list[str] = []
    for spec in specs:
        cluster = build_cluster(spec)
        obs = Observability(cluster).attach(end=spec.horizon)
        trace_bufs = {"jsonl": io.StringIO(), "chrome": io.StringIO()}
        trace_sinks = {
            "jsonl": JsonlStreamWriter(trace_bufs["jsonl"]),
            "chrome": ChromeStreamWriter(trace_bufs["chrome"]),
        }
        for sink in trace_sinks.values():
            obs.collector.add_sink(sink)
        service = obs.service
        assert service is not None
        metric_bufs: dict[str, io.StringIO] = {}
        for node in sorted(service.data):
            buf = io.StringIO()
            service.add_sink(
                MetricJsonlStreamWriter(buf, node, service.metric_names), node=node
            )
            metric_bufs[node] = buf

        jobs = deploy_case(spec, cluster)
        stop = (lambda: all(job.finished for job in jobs)) if jobs else None
        cluster.sim.run(until=spec.horizon, stop_when=stop)
        obs.collector.finalize()

        for label, live in trace_sinks.items():
            live.close()
            replayed = io.StringIO()
            sink = type(live)(replayed)
            replay(obs.collector, sink)
            sink.close()
            streamed, batch = trace_bufs[label].getvalue(), replayed.getvalue()
            if streamed != batch:
                failures.append(
                    f"{spec.case_id}: {label} drift at byte "
                    f"{_first_byte_diff(streamed, batch)}"
                )
            layout = _stdlib_rerender(label, streamed)
            if layout is not None:
                failures.append(f"{spec.case_id}: {layout}")
        if service.times:
            for node, buf in metric_bufs.items():
                batch = to_jsonl_text(service, node)
                if buf.getvalue() != batch:
                    failures.append(
                        f"{spec.case_id}: metric stream {node} drift at byte "
                        f"{_first_byte_diff(buf.getvalue(), batch)}"
                    )
                layout = _stdlib_rerender(f"metric stream {node}", buf.getvalue())
                if layout is not None:
                    failures.append(f"{spec.case_id}: {layout}")
    if not failures:
        return OracleResult("stream_export", True)
    return OracleResult(
        "stream_export",
        False,
        "live streams diverge from the post-run replay or the stdlib "
        f"layout: {'; '.join(failures)}",
    )


# -- probe experiment ---------------------------------------------------------


@dataclass(frozen=True)
class _ProbeResult:
    """Tiny renderable result for the result-cache probe."""

    runtime: float

    def render(self) -> str:
        return f"check probe runtime {self.runtime.hex()}"


def _run_check_probe(seed: int = 0) -> _ProbeResult:
    cluster = Cluster.voltrino(num_nodes=2)
    job = _checkpoint_job(cluster, seed, iterations=2, interval=None)
    return _ProbeResult(runtime=job.run())


# -- cached vs fresh results --------------------------------------------------


def oracle_result_cache(seed: int = 0) -> OracleResult:
    """Submitting the same (spec, seed) twice must simulate exactly once,
    and the cache-hit artefacts must be byte-identical to a fresh run's."""
    import tempfile
    from pathlib import Path

    from repro.api import Client
    from repro.experiments.registry import (
        EXPERIMENT_REGISTRY,
        ExperimentSpec,
        persist_result,
    )

    calls: list[int] = []

    def probe_runner(seed: int = seed) -> _ProbeResult:
        calls.append(seed)
        return _run_check_probe(seed)

    name = "cache_probe"
    spec = ExperimentSpec(
        name,
        "internal probe for the result-cache oracle",
        probe_runner,
        "CheckProbeResult",
        seed=seed,
    )
    EXPERIMENT_REGISTRY[name] = spec
    try:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            with Client(state_dir=root / "state") as client:
                first = client.submit(name)
                second = client.submit(name)
                client.wait()
                s1 = client.status(first.job_id)
                s2 = client.status(second.job_id)
                if len(calls) != 1:
                    return OracleResult(
                        "result_cache",
                        False,
                        f"two equal submissions ran the simulation "
                        f"{len(calls)} times (want exactly 1)",
                    )
                if s1.state != "done" or s2.state != "done":
                    return OracleResult(
                        "result_cache",
                        False,
                        f"jobs did not finish: {s1.state}/{s2.state} "
                        f"({s1.reason or s2.reason})",
                    )
                if s1.cached or not s2.cached:
                    return OracleResult(
                        "result_cache",
                        False,
                        f"cache flags wrong: first cached={s1.cached} "
                        f"(want False), second cached={s2.cached} (want True)",
                    )
                fresh_txt = client.persist(first.job_id, root / "fresh")
                hit_txt = client.persist(second.job_id, root / "hit")
            direct_txt = persist_result(_run_check_probe(seed), root / "direct")
            for label, archived in (("fresh", fresh_txt), ("cache-hit", hit_txt)):
                for suffix in ("", ".manifest.json"):
                    a = Path(str(archived).replace(".txt", suffix or ".txt"))
                    b = Path(str(direct_txt).replace(".txt", suffix or ".txt"))
                    if a.read_bytes() != b.read_bytes():
                        return OracleResult(
                            "result_cache",
                            False,
                            f"{label} artefact {a.name} differs from a "
                            f"direct run's",
                        )
    finally:
        EXPERIMENT_REGISTRY.pop(name, None)
    return OracleResult("result_cache", True)


# -- trace record/replay vs native execution ----------------------------------


def _mix_workload(cluster: Cluster):
    """A combined network+storage workload with live metric sampling.

    miniGhost ranks exchange halos over the star network while an IOR
    client streams against the NFS appliance — the mixed case whose
    metric series must survive a record/replay round trip bit-for-bit.
    """
    from repro.apps.ior import IORBenchmark
    from repro.monitoring import MetricService

    service = MetricService(cluster)
    service.attach(end=600.0)
    app = get_app("miniGhost").scaled(iterations=6)
    job = AppJob(app, cluster, nodes=[0, 1, 2], ranks_per_node=2, seed=7)
    job.launch()
    IORBenchmark(
        fs="nfs", file_bytes=40_000_000, access_files=50, demand_bw=200_000_000
    ).launch(cluster, "node3", start=1.0)
    return service


def oracle_trace_replay(seed: int) -> OracleResult:
    """Record-then-replay must be byte-identical to native execution.

    Three claims:

    * **transparency** — recording a registry experiment leaves its
      result artefacts byte-identical to an unrecorded run (one
      network-bound experiment, one storage-bound);
    * **replay identity** — replaying a clean recording reproduces the
      recorded cluster's state fingerprint exactly, and the canonical
      JSONL round-trips losslessly on the way;
    * **metric series** — for a mixed workload with a live
      :class:`~repro.monitoring.service.MetricService`, the replay's
      run manifest (which checksums every sampled series) matches the
      native run's byte-for-byte;

    plus the cache claim: two service submissions of the same trace
    bytes from *different paths* are one simulation (the canonicalize
    hook keys the fingerprint on the trace sha256, not the filename).
    """
    import tempfile
    from pathlib import Path

    from repro.api import Client
    from repro.check.harness import fingerprint_cluster
    from repro.experiments.registry import get_experiment, render_artifacts
    from repro.monitoring import MetricService
    from repro.obs.manifest import build_manifest, manifest_text
    from repro.traces import (
        TraceReplayApp,
        build_replay_cluster,
        dump_trace,
        dumps,
        generate_trace,
        loads,
        record_experiment,
        recording_session,
        replay_fingerprint,
    )

    name = "trace_replay"
    failures: list[str] = []

    # Transparency + replay identity on registry experiments.
    experiments = (
        ("table2", {"iterations": 2, "ranks_per_node": 2}),
        ("fig7", {"anomaly_nodes": 1, "instances_per_node": 1, "horizon": 250.0}),
    )
    for exp_name, overrides in experiments:
        spec = get_experiment(exp_name)
        request = spec.normalize(overrides=overrides)
        plain = render_artifacts(spec.run_request(request))
        recorded = record_experiment(exp_name, overrides=overrides)
        taped = render_artifacts(recorded.result)
        if (plain.text, plain.manifest_text) != (taped.text, taped.manifest_text):
            failures.append(f"{exp_name}: recording changed the result artefacts")
        clean = recorded.clean_traces()
        if not clean:
            failures.append(f"{exp_name}: no clean recordings")
            continue
        recording = clean[0]
        if loads(dumps(recording.trace)) != recording.trace:
            failures.append(f"{exp_name}: canonical JSONL round-trip is lossy")
        if replay_fingerprint(recording.trace) != recording.fingerprint:
            failures.append(f"{exp_name}: replay diverges from the recording")

    # Metric-series identity on the mixed workload.
    def mix_manifest(service) -> str:
        fp = fingerprint_cluster(service.cluster)
        return manifest_text(
            build_manifest(name="trace_mix", service=service, results_text=fp)
        )

    with recording_session("mix") as session:
        cluster = Cluster.chameleon(num_nodes=4)
        service = _mix_workload(cluster)
        cluster.sim.run(until=120.0)
    native = mix_manifest(service)
    mixes = session.clean_traces()
    if not mixes:
        taints = [t for rec in session.traces for t in rec.taints]
        failures.append(f"mix: recording tainted ({'; '.join(taints)})")
    else:
        mix = mixes[0]
        replay_cluster = build_replay_cluster(mix.trace)
        replay_service = MetricService(replay_cluster)
        replay_service.attach(end=600.0)
        TraceReplayApp(mix.trace, replay_cluster, tickers=False).run()
        if mix_manifest(replay_service) != native:
            failures.append("mix: replay manifest (metric series) diverges")

    # Content-addressed caching: same trace bytes, different paths.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        trace = generate_trace("ai_training", seed=seed, ranks=3, steps=2)
        path_a, path_b = root / "a" / "t.jsonl", root / "b" / "t.jsonl"
        for path in (path_a, path_b):
            path.parent.mkdir()
            dump_trace(trace, path)
        with Client(state_dir=root / "state") as client:
            first = client.submit("trace_replay", overrides={"trace": str(path_a)})
            second = client.submit("trace_replay", overrides={"trace": str(path_b)})
            client.wait()
            s1, s2 = client.status(first.job_id), client.status(second.job_id)
            if s1.state != "done" or s2.state != "done":
                failures.append(
                    f"cache: jobs did not finish ({s1.state}/{s2.state}: "
                    f"{s1.reason or s2.reason})"
                )
            elif s1.cached or not s2.cached:
                failures.append(
                    f"cache: same trace bytes at two paths simulated twice "
                    f"(first cached={s1.cached}, second cached={s2.cached})"
                )

    if not failures:
        return OracleResult(name, True)
    return OracleResult(name, False, "; ".join(failures))


def run_global_oracles(seed: int, corpus: list | None = None) -> list[OracleResult]:
    """The oracles a fuzz run always executes once, in a fixed order.

    ``corpus`` (pinned :class:`CaseSpec` list, when the fuzz run has one)
    is replayed through the stream-export oracle so telemetry equivalence
    is pinned on exactly the cases CI replays.
    """
    return [
        oracle_parallel_sweep(seed),
        oracle_checkpoint_restart(seed),
        oracle_checkpoint_free(seed),
        oracle_result_cache(seed),
        oracle_stream_export(seed, corpus=corpus),
        oracle_trace_replay(seed),
    ]
