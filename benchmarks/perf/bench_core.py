#!/usr/bin/env python
"""Core performance microbenchmarks (``make bench-core``).

Seven benchmarks exercise the engine's hot paths and write their numbers
to ``BENCH_core.json`` (committed at the repo root as the regression
baseline):

``engine_throughput``
    Raw event-dispatch rate: many short segments under the trivial
    :class:`~repro.sim.engine.UnitRateModel`, reported as events/s.

``resolve_heavy``
    The contention scenario the incremental resolver targets: miniMD at
    8 ranks/node on 4 of 16 Voltrino nodes with CPU, memory-bandwidth
    and network anomalies plus 1 Hz monitoring.  Run twice — on the
    scalar reference rate model, then on the production model —
    asserting identical simulated results and non-trivial reuse counters
    for the production run.  The gate metric (``runs_per_s``) tracks the
    production model; ``reference_runs_per_s`` and ``speedup`` put the
    reference alongside it.

``waterfill_wide``
    The public max-min share solver on wide oversubscribed demand lists
    (4096 demands, far past the 1-16 a socket produces), reported as
    solves/s.

``flow_solve``
    Whole network solves (adaptive path split, re-balance, two
    water-filling passes) for 256 seeded flows on a 64-node Voltrino
    fabric with k=4 candidate paths, reported as solves/s.  One solve is
    first checked against the scalar reference flow solver.

``same_timestamp_burst``
    The event queue under the engine's batched-dispatch access pattern:
    bursts of equal-timestamp events pushed and drained through
    ``peek_time``/``pop_at``, reported as events/s.

``figure_end_to_end``
    One small end-to-end figure (the Varbench-style variability
    extension) timing the full stack: apps, anomalies, sweep runner,
    report rendering.

``obs_overhead``
    The cost of observability in its three states on one fixed workload:
    never attached, attached-then-**detached** (must be free — the
    pay-for-what-you-use contract), and attached with **buffered** spans
    vs **streaming** sinks writing to disk.  All four must simulate
    byte-identical results.  The detached state is gated hard at
    ``--max-obs-overhead`` (default 1%): a detach that leaves residual
    hooks behind is a correctness bug, not drift.  The streaming state
    has a looser ceiling, ``MAX_STREAMING_OVERHEAD_PCT``, so the cost of
    writing telemetry cannot quietly grow back.  The gate measures the
    telemetry layer's *own* timers (``monitoring``/``obs``) as a fraction
    of the detached runs' wall time — exactly zero after a correct
    detach, so host noise cannot trip it.

Compare mode (the CI gate)::

    python benchmarks/perf/bench_core.py --baseline BENCH_core.json \
        --max-regression 2.0

fails with exit 1 if any benchmark's throughput metric regressed by more
than the given factor against the baseline file.  Timings move with host
load, so the gate is deliberately loose — it catches algorithmic
regressions (the O(n^2) kind), not percent-level drift.  The one tight
gate is the obs ``disabled_overhead_pct`` above, which is measured from
the run's own subsystem timers and so is immune to host effects.

This is host-facing measurement code, so wall-clock reads are expected
here (``benchmarks/`` is outside the linter's simulation packages).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

# Metric per benchmark used by the regression gate: higher is better.
THROUGHPUT_METRICS = {
    "engine_throughput": "events_per_s",
    "resolve_heavy": "runs_per_s",
    "waterfill_wide": "solves_per_s",
    "flow_solve": "solves_per_s",
    "same_timestamp_burst": "events_per_s",
    "figure_end_to_end": "runs_per_s",
    "obs_overhead": "runs_per_s",
}

#: hard ceiling on the detached-observability overhead (percent)
MAX_OBS_OVERHEAD_PCT = 1.0

#: ceiling on the streaming-observability overhead (percent): the paired
#: wall-clock ratio of streaming vs never-attached runs, so it carries
#: host noise and sits well above the measured value (docs/PERFORMANCE.md)
MAX_STREAMING_OVERHEAD_PCT = 125.0

SCHEMA = 1


def bench_engine_throughput(repeat: int) -> dict:
    """Event-dispatch rate for rate-trivial workloads (best of ``repeat``)."""
    from repro.sim.engine import Simulator, UnitRateModel
    from repro.sim.process import Segment, SimProcess

    n_procs, n_segments = 50, 200

    def body(proc):
        for i in range(n_segments):
            yield Segment(work=1.0 + (i % 7) * 0.25)

    best = None
    events = 0
    for _ in range(repeat):
        sim = Simulator(UnitRateModel())
        for p in range(n_procs):
            sim.spawn(
                SimProcess(
                    name=f"p{p}", body=body, node=f"node{p % 8}", core=p % 16
                )
            )
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        events = sim.stats.counters["events_dispatched"]
        best = elapsed if best is None else min(best, elapsed)
    return {
        "events": events,
        "seconds": round(best, 4),
        "events_per_s": round(events / best, 1),
    }


def _resolve_heavy_run(reference: bool) -> tuple[float, float, dict]:
    """One contention run; returns (wall seconds, app runtime, counters).

    ``reference`` swaps the scalar reference rate model onto the cluster.
    """
    from repro.apps import AppJob, get_app
    from repro.check import use_reference_model
    from repro.cluster import Cluster
    from repro.core import CpuOccupy, MemBw, NetOccupy
    from repro.monitoring import MetricService

    cluster = Cluster.voltrino(num_nodes=16)
    if reference:
        use_reference_model(cluster)
    service = MetricService(cluster)
    service.attach(end=1e6)
    app = get_app("miniMD").scaled(iterations=60)
    job = AppJob(app, cluster, nodes=[0, 1, 2, 3], ranks_per_node=8, seed=7)
    job.launch()
    CpuOccupy(utilization=100).launch(cluster, "node0", core=0)
    MemBw().launch(cluster, "node0", core=4)
    MemBw().launch(cluster, "node0", core=5)
    NetOccupy.launch_pair(cluster, src="node1", dst="node5", ranks=4)
    t0 = time.perf_counter()
    runtime = job.run(timeout=1e7)
    elapsed = time.perf_counter() - t0
    return elapsed, runtime, dict(cluster.sim.stats.as_dict())


def bench_resolve_heavy(repeat: int) -> dict:
    """Production rate model vs the reference on the mixed-anomaly
    scenario.  Both must simulate byte-identical results."""
    reference_s = production_s = None
    for _ in range(repeat):
        elapsed_ref, runtime_ref, _ = _resolve_heavy_run(reference=True)
        elapsed, runtime, counters = _resolve_heavy_run(reference=False)
        if runtime != runtime_ref:
            raise AssertionError(
                "production model changed simulated results: "
                f"{runtime!r} != reference {runtime_ref!r}"
            )
        reference_s = (
            elapsed_ref if reference_s is None else min(reference_s, elapsed_ref)
        )
        production_s = elapsed if production_s is None else min(production_s, elapsed)
    for counter in (
        "flow_waterfills",
        "stage1_memo_hits",
        "network_memo_hits",
        "nodes_reused",
        "batched_events",
        "reschedules_skipped",
    ):
        if counters.get(counter, 0) <= 0:
            raise AssertionError(
                f"production model did no work-avoidance: {counter} == 0"
            )
    return {
        "app_runtime_simulated_s": runtime,
        "seconds": round(production_s, 4),
        "seconds_reference": round(reference_s, 4),
        "speedup": round(reference_s / production_s, 2),
        "runs_per_s": round(1.0 / production_s, 3),
        "reference_runs_per_s": round(1.0 / reference_s, 3),
        "counters": {
            key: value
            for key, value in sorted(counters.items())
            if not key.startswith("t_")
        },
    }


def bench_waterfill_wide(repeat: int) -> dict:
    """Max-min share solves on wide oversubscribed demand lists.

    Times the public :func:`max_min_fair_share` (validation included) on
    width-4096 lists, far wider than the 1-16 demands a socket or a
    filesystem pool hands it in a run, so an accidentally quadratic
    solver shows up here first.  One case is checked against the numpy
    reference before timing (a fast-but-wrong solver must not post a
    score).
    """
    import numpy as np

    from repro.resources.fairshare import (
        max_min_fair_share,
        max_min_fair_share_reference,
    )
    from repro.sim.rng import spawn_rng

    n, solves = 4096, 120
    rng = spawn_rng(7, "bench:waterfill-wide")
    demands = rng.uniform(0.0, 10.0, size=n)
    capacity = 0.35 * float(demands.sum())
    if max_min_fair_share(capacity, demands.tolist()) != (
        max_min_fair_share_reference(capacity, demands.tolist())
    ):
        raise AssertionError("max_min_fair_share diverged from the reference")

    cases = [np.roll(demands, k).tolist() for k in range(solves)]
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for case in cases:
            max_min_fair_share(capacity, case)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return {
        "width": n,
        "solves": solves,
        "seconds": round(best, 4),
        "solves_per_s": round(solves / best, 1),
    }


def bench_flow_solve(repeat: int) -> dict:
    """Cold network solves of many flows on a Voltrino fabric.

    Checks one solve against :class:`ReferenceFlowSolver` first — exact
    grants and per-link loads, key order included — so a fast-but-wrong
    solver cannot post a score.
    """
    from repro.cluster.reference import ReferenceFlowSolver
    from repro.cluster.specs import MachineSpec
    from repro.network.flows import FlowRequest, FlowSolver
    from repro.network.topology import aries_like
    from repro.sim.rng import spawn_rng

    n_nodes, n_flows, k_paths, solves = 64, 256, 4, 20
    topo = aries_like(num_nodes=n_nodes, nic_bw=MachineSpec.voltrino().nic_bw)
    rng = spawn_rng(7, "bench:flow-solve")
    flows = []
    for key in range(n_flows):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        flows.append(
            FlowRequest(
                key=key,
                src=f"node{src}",
                dst=f"node{dst}",
                demand=float(rng.uniform(0.0, 10e9)),
            )
        )
    solver = FlowSolver(topo, k_paths=k_paths)
    got = solver.solve(flows)
    want = ReferenceFlowSolver(topo, k_paths=k_paths).solve(flows)
    if list(got.grants.items()) != list(want.grants.items()) or list(
        got.edge_load.items()
    ) != list(want.edge_load.items()):
        raise AssertionError("flow solver diverged from the reference")

    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(solves):
            solver.solve(flows)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return {
        "nodes": n_nodes,
        "flows": n_flows,
        "k_paths": k_paths,
        "solves": solves,
        "seconds": round(best, 4),
        "solves_per_s": round(solves / best, 1),
    }


def bench_same_timestamp_burst(repeat: int) -> dict:
    """Event queue under the engine's batched-dispatch pattern.

    Bursts of equal-timestamp events (a barrier releasing a node's worth
    of ranks at once) are pushed and drained through the exact
    ``peek_time``/``pop_at`` sequence the engine's batched dispatch
    uses; drain order is checked against the FIFO tie-break contract.
    """
    from repro.sim.events import EventQueue

    timestamps, burst = 400, 64
    events = timestamps * burst

    def run() -> float:
        queue = EventQueue()
        fired: list[int] = []
        t0 = time.perf_counter()
        for ts in range(timestamps):
            when = float(ts)
            for i in range(burst):
                queue.push(when, lambda i=i: fired.append(i))
            now = queue.peek_time()
            while True:
                event = queue.pop_at(now)
                if event is None:
                    break
                event.action()
        elapsed = time.perf_counter() - t0
        if fired != list(range(burst)) * timestamps:
            raise AssertionError("burst drain violated the FIFO tie-break")
        return elapsed

    best = None
    for _ in range(repeat):
        elapsed = run()
        best = elapsed if best is None else min(best, elapsed)
    return {
        "events": events,
        "burst": burst,
        "seconds": round(best, 4),
        "events_per_s": round(events / best, 1),
    }


def bench_figure_end_to_end(repeat: int) -> dict:
    """One small figure through the full stack (apps + sweep + render)."""
    from repro.experiments.ext_variability import run_ext_variability

    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = run_ext_variability(
            app_name="miniMD",
            repetitions=4,
            iterations=10,
            anomalies=("none", "membw"),
        )
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    # A figure that renders to nothing is a broken benchmark, not a fast one.
    if not result.render().strip():
        raise AssertionError("figure produced empty output")
    return {"seconds": round(best, 4), "runs_per_s": round(1.0 / best, 3)}


def _obs_overhead_run(
    mode: str, stream_dir: Path | None = None
) -> tuple[float, float, float]:
    """One workload run under an observability mode.

    Returns ``(wall seconds, sim runtime, obs-attributed wall seconds)``
    where the last value sums the run's ``monitoring`` and ``obs``
    SimStats timers — every wall-clock second the telemetry layer spent
    inside this run.  Modes: ``never`` (no handle created), ``detached``
    (attached then detached before the run — must cost nothing),
    ``buffered`` (spans + metrics collected in memory), ``streaming``
    (incremental writers flushing to ``stream_dir`` during the run).
    """
    from repro.apps import AppJob, get_app
    from repro.cluster import Cluster

    cluster = Cluster.voltrino(num_nodes=4)
    streamer = None
    if mode != "never":
        from repro.obs import Observability

        obs = Observability(cluster).attach()
        if mode == "detached":
            obs.detach()
        elif mode == "streaming":
            assert stream_dir is not None
            streamer = obs.stream_to(stream_dir, chrome=False)
    app = get_app("miniMD").scaled(iterations=120)
    job = AppJob(app, cluster, nodes=[0, 1], ranks_per_node=4, seed=3)
    # The gate below is percent-level, so keep allocator/GC pauses out of
    # the timed region.
    gc.collect()
    t0 = time.perf_counter()
    runtime = job.run(timeout=1e7)
    if streamer is not None:
        streamer.close()
    elapsed = time.perf_counter() - t0
    timings = cluster.sim.stats.timings
    obs_seconds = timings.get("monitoring", 0.0) + timings.get("obs", 0.0)
    return elapsed, runtime, obs_seconds


def bench_obs_overhead(repeat: int) -> dict:
    """Observability cost: never vs detached vs buffered vs streaming.

    The states are interleaved within each round (so host drift hits all
    of them alike) and the best time per state wins.  Simulated results
    must be byte-identical across every state — observation that
    perturbs the run would invalidate the whole telemetry layer.  The
    buffered/streaming percentages are median paired per-round ratios
    (informational, ±a few percent of host noise); the gated
    ``disabled_overhead_pct`` comes from the runs' own subsystem timers.
    """
    import shutil
    import statistics
    import tempfile

    modes = ("never", "detached", "buffered", "streaming")
    rounds: dict[str, list[float]] = {mode: [] for mode in modes}
    attributed: dict[str, float] = {mode: 0.0 for mode in modes}
    runtimes: dict[str, float] = {}
    stream_root = Path(tempfile.mkdtemp(prefix="bench-obs-"))
    try:
        for round_no in range(max(repeat, 8)):
            for mode in modes:
                stream_dir = None
                if mode == "streaming":
                    stream_dir = stream_root / f"run{round_no}"
                elapsed, runtime, obs_seconds = _obs_overhead_run(mode, stream_dir)
                rounds[mode].append(elapsed)
                attributed[mode] += obs_seconds
                runtimes[mode] = runtime
    finally:
        shutil.rmtree(stream_root, ignore_errors=True)
    for mode in modes[1:]:
        if runtimes[mode] != runtimes["never"]:
            raise AssertionError(
                f"observability mode {mode!r} changed simulated results: "
                f"{runtimes[mode]!r} != {runtimes['never']!r}"
            )
    best = {mode: min(times) for mode, times in rounds.items()}
    ratios = {
        mode: sorted(
            m / n for m, n in zip(rounds[mode], rounds["never"])
        )
        for mode in modes[1:]
    }

    def median_pct(mode: str) -> float:
        return round((statistics.median(ratios[mode]) - 1.0) * 100.0, 2)

    # The gate metric is *attributed* overhead, not a paired wall-clock
    # ratio: the fraction of the detached runs' wall time spent inside
    # the ``monitoring``/``obs`` SimStats timers.  A correct detach
    # removes every hook, so the timers never fire and the metric is
    # exactly 0.0 — host noise cannot produce a false positive.  A detach
    # that leaves residual hooks behind necessarily accrues timer
    # seconds, so the regression is caught deterministically.  (Paired
    # never-vs-detached wall-clock ratios were tried first and drift
    # +/-2-4% per process from allocator/cache layout alone — far too
    # noisy to gate at 1%.)
    disabled = round(
        100.0 * attributed["detached"] / sum(rounds["detached"]), 2
    )

    return {
        "seconds_never": round(best["never"], 4),
        "seconds_detached": round(best["detached"], 4),
        "seconds_buffered": round(best["buffered"], 4),
        "seconds_streaming": round(best["streaming"], 4),
        "disabled_overhead_pct": disabled,
        "buffered_overhead_pct": median_pct("buffered"),
        "streaming_overhead_pct": median_pct("streaming"),
        "runs_per_s": round(1.0 / best["never"], 3),
    }


def run_benchmarks(repeat: int) -> dict:
    return {
        "schema": SCHEMA,
        "benchmarks": {
            "engine_throughput": bench_engine_throughput(repeat),
            "resolve_heavy": bench_resolve_heavy(repeat),
            "waterfill_wide": bench_waterfill_wide(repeat),
            "flow_solve": bench_flow_solve(repeat),
            "same_timestamp_burst": bench_same_timestamp_burst(repeat),
            "figure_end_to_end": bench_figure_end_to_end(repeat),
            "obs_overhead": bench_obs_overhead(repeat),
        },
    }


def check_regressions(current: dict, baseline: dict, max_regression: float) -> list[str]:
    """Names of benchmarks whose throughput regressed beyond the factor."""
    failures = []
    for name, metric in THROUGHPUT_METRICS.items():
        base = baseline.get("benchmarks", {}).get(name, {}).get(metric)
        now = current["benchmarks"].get(name, {}).get(metric)
        if base is None or now is None:
            continue
        if now * max_regression < base:
            failures.append(
                f"{name}: {metric} {now} vs baseline {base} "
                f"(>{max_regression}x regression)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_core.json"),
        help="where to write the results JSON (default BENCH_core.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON to compare against (enables the regression gate)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="allowed slowdown factor vs the baseline (default 2.0)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="repetitions per benchmark; best time wins (default 2)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=MAX_OBS_OVERHEAD_PCT,
        help="allowed percent overhead of detached observability vs never "
        f"attached (default {MAX_OBS_OVERHEAD_PCT})",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())

    results = run_benchmarks(repeat=max(1, args.repeat))
    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    for name, numbers in results["benchmarks"].items():
        metric = THROUGHPUT_METRICS[name]
        print(f"{name}: {metric} = {numbers[metric]}")
    print(f"wrote {args.output}")

    overhead = results["benchmarks"]["obs_overhead"]["disabled_overhead_pct"]
    if overhead > args.max_obs_overhead:
        print(
            f"REGRESSION obs_overhead: detached observability costs "
            f"{overhead}% (> {args.max_obs_overhead}% allowed) — detach is "
            "leaving hooks behind",
            file=sys.stderr,
        )
        return 1
    print(
        f"obs overhead gate passed (detached {overhead}% <= "
        f"{args.max_obs_overhead}%)"
    )
    streaming = results["benchmarks"]["obs_overhead"]["streaming_overhead_pct"]
    if streaming > MAX_STREAMING_OVERHEAD_PCT:
        print(
            f"REGRESSION obs_overhead: streaming observability costs "
            f"{streaming}% (> {MAX_STREAMING_OVERHEAD_PCT}% allowed)",
            file=sys.stderr,
        )
        return 1
    print(
        f"streaming overhead gate passed ({streaming}% <= "
        f"{MAX_STREAMING_OVERHEAD_PCT}%)"
    )

    if baseline is not None:
        failures = check_regressions(results, baseline, args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"regression gate passed (max {args.max_regression}x vs baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
