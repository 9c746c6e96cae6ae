"""Command-line front end mirroring the HPAS executables.

The original suite ships binaries like ``hpas cpuoccupy -u 80``.  This
module provides the same surface against the simulated substrate::

    python -m repro cpuoccupy -u 80 -d 60 --node node0 --core 0
    python -m repro cachecopy -c L3 --with-app miniGhost --report --profile
    python -m repro varbench miniGhost --anomaly cachecopy --jobs 4
    python -m repro lint src/ tests/
    python -m repro trace mixed --out trace.json --manifest manifest.json
    python -m repro trace faults --stream runs/a
    python -m repro trace-gen ai_training --seed 0 --out ai.jsonl
    python -m repro diff runs/a runs/b
    python -m repro report mixed --no-wallclock --md report.md
    python -m repro experiment --list
    python -m repro experiment fig8
    python -m repro faults --seed 1
    python -m repro check --cases 50 --seed 0
    python -m repro submit fig8 --state-dir state
    python -m repro serve --state-dir state --shards 2

It builds a Voltrino-like cluster, optionally co-runs a benchmark
application, injects the requested anomaly, and prints a monitoring
summary — a one-command demonstration of the suite.  The ``lint``
subcommand runs the determinism analyzer (see :mod:`repro.lint`); the
``varbench`` subcommand measures induced run-to-run variability with
repetitions optionally fanned out over ``--jobs`` worker processes; the
``trace`` subcommand runs a multi-subsystem scenario with span tracing
attached and writes a Chrome trace-event file plus an optional run
manifest — or, with ``--stream DIR``, streams the run incrementally
(see :mod:`repro.obs` and docs/OBSERVABILITY.md); ``diff`` compares two
run directories and localizes the first divergence down to the sample
index and enclosing span; ``report`` summarizes a run with per-subsystem
wall-clock attribution; the
``experiment`` subcommand runs any table/figure experiment from the
registry (:mod:`repro.experiments.registry`) and archives its results
exactly as the benchmark harness does; ``faults`` runs the
fault-injection resilience sweep (see docs/FAULTS.md); ``check`` fuzzes
the simulator with runtime invariants and differential oracles attached
(see :mod:`repro.check` and docs/TESTING.md); ``submit`` and ``serve``
expose the async job service with its content-addressed result cache
(see docs/SERVICE.md).  The ``experiment`` / ``varbench`` / ``faults``
subcommands are thin adapters over :class:`repro.api.Client` — same
flags, byte-identical output, but repeated runs against a persistent
``--state-dir`` are served from the cache.

``--profile`` prints the engine's :class:`~repro.sim.stats.SimStats`
counters (resolves, node reuse, network memo hits, subsystem wall
time); ``--trace FILE`` records spans during an anomaly run.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.apps import AppJob, get_app
from repro.cluster import Cluster
from repro.core import ANOMALY_REGISTRY, parse_cli
from repro.monitoring import MetricService
from repro.output import OutputWriter

SUMMARY_METRICS = (
    "user::procstat",
    "sys::procstat",
    "MemUsed::meminfo",
    "INST_RETIRED:ANY::spapiHASW",
    "LLC_MISSES::spapiHASW",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run an HPAS anomaly on the simulated HPC substrate.",
    )
    parser.add_argument(
        "anomaly",
        choices=sorted(ANOMALY_REGISTRY),
        help="anomaly generator to run",
    )
    parser.add_argument("--node", default="node0", help="target node (default node0)")
    parser.add_argument("--core", type=int, default=0, help="target logical core")
    parser.add_argument(
        "--nodes", type=int, default=4, help="cluster size (default 4 nodes)"
    )
    parser.add_argument(
        "--with-app",
        default=None,
        metavar="APP",
        help="co-run a benchmark application (e.g. miniGhost)",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=120.0,
        help="simulated seconds to run (default 120)",
    )
    parser.add_argument(
        "--report", action="store_true", help="print the monitoring summary table"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print engine performance counters after the run",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record spans during the run and write a Chrome trace JSON",
    )
    return parser


def build_varbench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro varbench",
        description="Measure induced run-to-run variability (Varbench-style).",
    )
    parser.add_argument("app", help="benchmark application (e.g. miniGhost)")
    parser.add_argument(
        "--anomaly",
        default=None,
        choices=sorted(ANOMALY_REGISTRY),
        help="anomaly injected at a random phase of each repetition",
    )
    parser.add_argument("--reps", type=int, default=10, help="repetitions (default 10)")
    parser.add_argument(
        "--iterations", type=int, default=20, help="app iterations per repetition"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the repetitions (results are identical "
        "for every value; default 1 = serial)",
    )
    return parser


def _run_job(client, name, seed=None, overrides=None):
    """Submit one job on ``client``, drive it to completion, return its result.

    The shared body of every legacy subcommand adapter: a failed job
    surfaces as a :class:`~repro.errors.ServiceError` carrying the
    worker-side exception text, mirroring how the old direct call would
    have raised.
    """
    from repro.errors import ServiceError

    handle = client.submit(name, seed=seed, overrides=overrides)
    status = client.wait(handle.job_id)
    if status.state != "done":
        raise ServiceError(
            f"job {status.job_id} ({status.name}) {status.state}"
            + (f": {status.reason}" if status.reason else "")
        )
    return client.result(handle.job_id)


def varbench_main(argv: list[str]) -> int:
    from repro.api import Client

    args = build_varbench_parser().parse_args(argv)
    with Client() as client:
        result = _run_job(
            client,
            "varbench",
            seed=args.seed,
            overrides={
                "app": args.app,
                "anomaly": args.anomaly,
                "reps": args.reps,
                "iterations": args.iterations,
                "jobs": args.jobs,
            },
        )
    OutputWriter().line(result.render())
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    from repro.obs import TRACE_FORMATS
    from repro.obs.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Trace a multi-subsystem scenario end to end.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(SCENARIOS),
        help="scenario to run with span tracing attached "
        "(omit with --list to enumerate)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered trace scenarios"
    )
    parser.add_argument(
        "--out", default="trace.json", help="trace output path (default trace.json)"
    )
    parser.add_argument(
        "--format",
        default="chrome",
        choices=TRACE_FORMATS,
        help="trace file format (default chrome)",
    )
    parser.add_argument(
        "--stream",
        default=None,
        metavar="DIR",
        help="stream the run into DIR as it happens (trace.jsonl, "
        "metrics/<node>.jsonl, counters.json) instead of buffering; "
        "see docs/OBSERVABILITY.md",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="also write a deterministic run manifest",
    )
    parser.add_argument(
        "--horizon", type=float, default=120.0, help="simulated seconds (default 120)"
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    return parser


def trace_main(argv: list[str]) -> int:
    from repro.obs.scenarios import SCENARIOS, run_scenario

    parser = build_trace_parser()
    args = parser.parse_args(argv)
    out = OutputWriter()
    if args.list or args.scenario is None:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            out.line(f"{name.ljust(width)}  {SCENARIOS[name].description}")
        return 0
    on_obs = None
    if args.stream is not None:
        on_obs = lambda obs: obs.stream_to(args.stream, chrome=True)  # noqa: E731
    run = run_scenario(
        args.scenario, seed=args.seed, horizon=args.horizon, on_obs=on_obs
    )
    if args.stream is not None:
        for directory in run.obs.close_streams():
            out.line(f"streamed scenario {args.scenario!r} into {directory}/")
    path = run.obs.write_trace(args.out, fmt=args.format)
    counts = run.obs.collector.categories()
    summary = "  ".join(f"{cat}={n}" for cat, n in counts.items())
    out.line(f"traced scenario {args.scenario!r} to {path}")
    out.line(f"spans: {summary or 'none'}  instants: {len(run.obs.collector.instants)}")
    if args.manifest is not None:
        manifest_path = run.obs.write_manifest(
            args.manifest,
            name=f"trace-{args.scenario}",
            seed=run.seed,
            config=run.config,
            injector=run.injector,
        )
        out.line(f"manifest: {manifest_path}")
    return 0


def build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Compare two run/result directories and localize the "
        "first divergence (manifest key, sample index, enclosing span). "
        "Exit status 0 = identical, 1 = diverged.",
    )
    parser.add_argument("run_a", help="first run directory")
    parser.add_argument("run_b", help="second run directory")
    parser.add_argument(
        "--label-a", default=None, help="display label for run_a (default: path)"
    )
    parser.add_argument(
        "--label-b", default=None, help="display label for run_b (default: path)"
    )
    return parser


def diff_main(argv: list[str]) -> int:
    from repro.obs.diff import diff_runs

    args = build_diff_parser().parse_args(argv)
    report = diff_runs(
        args.run_a, args.run_b, label_a=args.label_a, label_b=args.label_b
    )
    OutputWriter().line(report.render())
    return 0 if report.is_identical else 1


def build_report_parser() -> argparse.ArgumentParser:
    from repro.obs.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Summarize a run: span counts, utilization, critical "
        "path, counters and per-subsystem wall-clock attribution.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(SCENARIOS),
        help="scenario to run and report on (or use --run-dir)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="report on a streamed run directory instead of running a scenario",
    )
    parser.add_argument(
        "--no-wallclock",
        action="store_true",
        help="omit the (nondeterministic) wall-clock section so the "
        "report is byte-identical across same-seed reruns",
    )
    parser.add_argument(
        "--md",
        default=None,
        metavar="FILE",
        help="also write the report as markdown",
    )
    parser.add_argument(
        "--horizon", type=float, default=120.0, help="simulated seconds (default 120)"
    )
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    return parser


def report_main(argv: list[str]) -> int:
    from repro.obs.report import report_run_dir, report_scenario

    parser = build_report_parser()
    args = parser.parse_args(argv)
    if (args.scenario is None) == (args.run_dir is None):
        parser.error("give exactly one of: a scenario name, or --run-dir DIR")
    if args.run_dir is not None:
        report = report_run_dir(args.run_dir, wallclock=not args.no_wallclock)
    else:
        report = report_scenario(
            args.scenario,
            seed=args.seed,
            horizon=args.horizon,
            wallclock=not args.no_wallclock,
        )
    out = OutputWriter()
    out.line(report.render())
    if args.md is not None:
        from pathlib import Path

        Path(args.md).write_text(report.render_markdown())
        out.line(f"markdown report: {args.md}")
    return 0


def build_experiment_parser() -> argparse.ArgumentParser:
    from repro.experiments.registry import EXPERIMENT_REGISTRY

    parser = argparse.ArgumentParser(
        prog="repro experiment",
        description="Run a registered table/figure experiment.",
    )
    parser.add_argument(
        "name",
        nargs="?",
        choices=sorted(EXPERIMENT_REGISTRY),
        help="experiment to run (omit with --list to enumerate)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's default seed (seeded experiments only)",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="directory for the archived table + manifest (default results/)",
    )
    parser.add_argument(
        "--no-persist",
        action="store_true",
        help="print the table without writing the results archive",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="print only the result table (no archive chatter)",
    )
    return parser


def experiment_main(argv: list[str]) -> int:
    from repro.api import Client
    from repro.experiments.registry import EXPERIMENT_REGISTRY

    args = build_experiment_parser().parse_args(argv)
    out = OutputWriter()
    if args.list or args.name is None:
        width = max(len(name) for name in EXPERIMENT_REGISTRY)
        for name in sorted(EXPERIMENT_REGISTRY):
            spec = EXPERIMENT_REGISTRY[name]
            seed = "-" if spec.seed is None else str(spec.seed)
            out.line(f"{name.ljust(width)}  seed={seed:4s} {spec.description}")
        return 0
    with Client() as client:
        result = _run_job(client, args.name, seed=args.seed)
    out.line(result.render())
    if not args.no_persist:
        path = result.persist(args.out)
        if not args.quiet:
            out.line(f"archived {path}")
    return 0


def build_faults_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Fault-injection resilience sweep: job success rate, "
        "goodput and makespan inflation vs. fault rate, with and without "
        "checkpoint/restart (see docs/FAULTS.md).",
    )
    parser.add_argument("--seed", type=int, default=1, help="sweep seed (default 1)")
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        metavar="R",
        help="fault rates in faults per 1000 simulated seconds "
        "(a fault-free baseline is always prepended)",
    )
    parser.add_argument(
        "--n-jobs", type=int, default=6, help="jobs per stream (default 6)"
    )
    parser.add_argument(
        "--iterations", type=int, default=40, help="app iterations per job"
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=600.0,
        help="fault-schedule horizon in simulated seconds (default 600)",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="directory for the archived table + manifest (default results/)",
    )
    parser.add_argument(
        "--no-persist",
        action="store_true",
        help="print the table without writing the results archive",
    )
    return parser


def faults_main(argv: list[str]) -> int:
    from repro.api import Client

    args = build_faults_parser().parse_args(argv)
    overrides: dict[str, object] = {
        "n_jobs": args.n_jobs,
        "iterations": args.iterations,
        "horizon": args.horizon,
    }
    if args.rates is not None:
        overrides["rates"] = tuple(args.rates)
    with Client() as client:
        result = _run_job(client, "ext_faults", seed=args.seed, overrides=overrides)
    out = OutputWriter()
    out.line(result.render())
    if not args.no_persist:
        path = result.persist(args.out)
        out.line(f"archived {path}")
    return 0


def _lint_main(argv: list[str]) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(argv)


def _check_main(argv: list[str]) -> int:
    from repro.check.cli import check_main

    return check_main(argv)


def _trace_gen_main(argv: list[str]) -> int:
    from repro.traces.cli import trace_gen_main

    return trace_gen_main(argv)


def _submit_main(argv: list[str]) -> int:
    from repro.service.cli import submit_main

    return submit_main(argv)


def _serve_main(argv: list[str]) -> int:
    from repro.service.cli import serve_main

    return serve_main(argv)


#: first-class subcommands; anything else is an anomaly name
SUBCOMMANDS = {
    "lint": _lint_main,
    "varbench": varbench_main,
    "trace": trace_main,
    "trace-gen": _trace_gen_main,
    "diff": diff_main,
    "report": report_main,
    "experiment": experiment_main,
    "faults": faults_main,
    "check": _check_main,
    "submit": _submit_main,
    "serve": _serve_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    # Split our options from the anomaly's HPAS-style knobs: everything the
    # parser does not know is forwarded to parse_cli.
    parser = build_parser()
    args, anomaly_argv = parser.parse_known_args(argv)

    anomaly = parse_cli([args.anomaly] + anomaly_argv)
    cluster = Cluster.voltrino(num_nodes=args.nodes)
    service = MetricService(cluster)
    service.attach(end=args.horizon)

    obs = None
    if args.trace is not None:
        from repro.obs import Observability

        obs = Observability(cluster, service=service).attach()

    job = None
    if args.with_app is not None:
        app = get_app(args.with_app).scaled(iterations=max(5, int(args.horizon / 4)))
        job = AppJob(
            app,
            cluster,
            nodes=list(range(min(4, args.nodes))),
            ranks_per_node=4,
            seed=1,
        )
        job.launch()

    proc = anomaly.launch(cluster, node=args.node, core=args.core, start=1.0)
    cluster.sim.run(until=args.horizon)

    out = OutputWriter()
    out.line(
        f"ran {anomaly.name} on {args.node}:c{args.core} "
        f"for {cluster.sim.now - 1.0:.0f}s (state: {proc.state.value})"
    )
    if job is not None:
        done = sum(p.state.terminal for p in job.procs)
        out.line(f"co-ran {args.with_app}: {done}/{job.n_ranks} ranks finished")
    if args.report:
        out.line()
        out.table(
            header=("metric", "mean", "max"),
            rows=(
                (
                    metric,
                    f"{np.mean(service.series(args.node, metric)):.4g}",
                    f"{np.max(service.series(args.node, metric)):.4g}",
                )
                for metric in SUMMARY_METRICS
            ),
            widths=(45, 12, 12),
            align=">",
        )
    if args.profile:
        out.line()
        out.lines(cluster.sim.stats.describe())
    if obs is not None:
        path = obs.write_trace(args.trace)
        out.line(f"trace written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
