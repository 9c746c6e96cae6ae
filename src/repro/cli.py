"""Command-line front end mirroring the HPAS executables.

The original suite ships binaries like ``hpas cpuoccupy -u 80``.  This
module provides the same surface against the simulated substrate::

    python -m repro cpuoccupy -u 80 -d 60 --node node0 --core 0
    python -m repro cachecopy -c L3 --with-app miniGhost --report --profile
    python -m repro lint src/ tests/
    python -m repro trace mixed --out trace.json --manifest manifest.json
    python -m repro trace fault_recovery --set horizon=600 --stream runs/a
    python -m repro trace-gen ai_training --seed 0 --out ai.jsonl
    python -m repro diff runs/a runs/b
    python -m repro report mixed --no-wallclock --md report.md
    python -m repro check --cases 50 --seed 0
    python -m repro submit --list
    python -m repro submit fig8 --out results
    python -m repro submit ext_faults --seed 1 --state-dir state
    python -m repro submit varbench --set app=miniGhost --set anomaly=cachecopy
    python -m repro serve --state-dir state --shards 2

It builds a Voltrino-like cluster, optionally co-runs a benchmark
application, injects the requested anomaly, and prints a monitoring
summary — a one-command demonstration of the suite.  The ``lint``
subcommand runs the determinism analyzer (see :mod:`repro.lint`); the
``trace`` subcommand runs a traceable registered job (``mixed``,
``fault_recovery``, ``trace_replay``; ``--seed``/``--set`` as for
``submit``) with span tracing attached and writes a Chrome trace-event
file plus an optional run manifest — or, with ``--stream DIR``, streams
the run incrementally (see :mod:`repro.obs` and docs/OBSERVABILITY.md);
``diff`` compares two run directories and localizes the first
divergence down to the sample index and enclosing span; ``report``
summarizes a traced job or a streamed run directory with per-subsystem
wall-clock attribution; ``check`` fuzzes the simulator with runtime
invariants and differential oracles attached (see :mod:`repro.check`
and docs/TESTING.md).  ``submit`` is the one command that runs a
registered job — any table/figure experiment, the fault-injection
sweep ``ext_faults`` (docs/FAULTS.md) or the ``varbench`` variability
measurement (:mod:`repro.experiments.registry`) — with ``--out DIR``
archiving its results exactly as the benchmark harness does; it and
``serve`` expose the job service with its content-addressed result
cache (see docs/SERVICE.md).

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


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    """``--seed``/``--set`` exactly as ``repro submit`` takes them."""
    parser.add_argument(
        "--seed", type=int, default=None, help="override the job's default seed"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a job knob, e.g. horizon=60 (JSON value, string "
        "fallback; repeatable)",
    )


def build_trace_parser() -> argparse.ArgumentParser:
    from repro.obs import TRACE_FORMATS

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run a registered job with span tracing attached. "
        "Only jobs whose description says 'traceable' in `repro submit "
        "--list` can be traced; any other is one error line, exit 2.",
    )
    parser.add_argument("name", help="registered job to trace, e.g. mixed")
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
    _add_job_arguments(parser)
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, object]:
    from repro.service.cli import parse_override

    return dict(parse_override(item) for item in args.overrides)


def trace_main(argv: list[str]) -> int:
    from repro.errors import ConfigError, TraceError
    from repro.experiments.registry import render_artifacts
    from repro.obs.observability import trace_job

    args = build_trace_parser().parse_args(argv)
    out = OutputWriter()
    on_obs = None
    if args.stream is not None:
        on_obs = lambda obs: obs.stream_to(args.stream, chrome=True)  # noqa: E731
    try:
        result, obs = trace_job(
            args.name, seed=args.seed, overrides=_overrides(args), on_obs=on_obs
        )
    except (ConfigError, TraceError) as err:  # bad input: job, knob or trace
        sys.stderr.write(f"repro trace: error: {err}\n")
        return 2
    for directory in obs.close_streams():
        out.line(f"streamed job {args.name!r} into {directory}/")
    path = obs.write_trace(args.out, fmt=args.format)
    counts = obs.collector.categories()
    summary = "  ".join(f"{cat}={n}" for cat, n in counts.items())
    out.line(f"traced job {args.name!r} to {path}")
    out.line(f"spans: {summary or 'none'}  instants: {len(obs.collector.instants)}")
    if args.manifest is not None:
        manifest_path = obs.write_manifest(
            args.manifest,
            name=f"trace-{args.name}",
            seed=getattr(result, "seed", None),
            config=getattr(result, "config", None),
            results_text=render_artifacts(result).text,
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
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Summarize a run: span counts, utilization, critical "
        "path, counters and per-subsystem wall-clock attribution.",
    )
    parser.add_argument(
        "name",
        nargs="?",
        help="traceable registered job to run and report on (or use --run-dir)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="report on a streamed run directory instead of running a job",
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
    _add_job_arguments(parser)
    return parser


def report_main(argv: list[str]) -> int:
    from repro.errors import ConfigError, TraceError
    from repro.obs.report import report_job, report_run_dir

    parser = build_report_parser()
    args = parser.parse_args(argv)
    if (args.name is None) == (args.run_dir is None):
        parser.error("give exactly one of: a job name, or --run-dir DIR")
    if args.run_dir is not None and (args.seed is not None or args.overrides):
        parser.error("--seed and --set choose a job's run, not a --run-dir")
    if args.run_dir is not None:
        report = report_run_dir(args.run_dir, wallclock=not args.no_wallclock)
    else:
        try:
            report = report_job(
                args.name,
                seed=args.seed,
                overrides=_overrides(args),
                wallclock=not args.no_wallclock,
            )
        except (ConfigError, TraceError) as err:  # bad input: job, knob or trace
            sys.stderr.write(f"repro report: error: {err}\n")
            return 2
    out = OutputWriter()
    out.line(report.render())
    if args.md is not None:
        from pathlib import Path

        Path(args.md).write_text(report.render_markdown())
        out.line(f"markdown report: {args.md}")
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
    "trace": trace_main,
    "trace-gen": _trace_gen_main,
    "diff": diff_main,
    "report": report_main,
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
