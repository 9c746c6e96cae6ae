"""``repro submit`` and ``repro serve`` — the service on the command line.

``submit`` enqueues one job against a state directory and (by default)
drives it to completion in-process::

    python -m repro submit fig8 --state-dir state --out results
    python -m repro submit varbench --set app=miniGhost --set reps=3
    python -m repro submit ext_faults --seed 2 --set 'rates=[8.0]'
    python -m repro submit --list

``--set`` values are parsed as JSON with a plain-string fallback, so
``--set iterations=5`` is the integer 5 and ``--set app=miniGhost`` the
string.  Resubmitting the same job against the same state directory is
a cache hit: the stored artefacts are returned byte-identically and no
simulation runs.

``serve`` drains a state directory's queue through a worker pool —
the daemon half of a ``submit --no-wait`` producer::

    python -m repro serve --state-dir state --shards 2 --timeout 300

Serving a freshly reopened queue first requeues jobs a previous worker
left in flight (journal replay), which is reported per job.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigError, ServiceError
from repro.output import OutputWriter

#: shown after a job id for a result served from the content store
CACHED_TAG = " (cached)"


def parse_override(text: str) -> tuple[str, object]:
    """Parse one ``--set key=value`` item (JSON value, string fallback)."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a job to the simulation service and (by "
        "default) run it to completion, serving repeats from the "
        "content-addressed result cache.",
    )
    parser.add_argument(
        "name",
        nargs="?",
        help="job to run (any experiment name, plus service-only jobs "
        "like 'varbench'; omit with --list to enumerate)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list every submittable job"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the job's default seed"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an experiment knob (JSON value, string fallback; "
        "repeatable)",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher runs first; default 0)",
    )
    parser.add_argument(
        "--client", default="local", help="client identity for quotas (default local)"
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="persistent service state (queue journal + result cache); "
        "default is an ephemeral directory discarded on exit",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also archive the result table + manifest into DIR",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="enqueue only (requires --state-dir); a `repro serve` worker "
        "picks the job up later",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="print only the result table",
    )
    return parser


def submit_main(argv: list[str]) -> int:
    from repro.api import Client
    from repro.experiments.registry import job_registry

    parser = build_submit_parser()
    args = parser.parse_args(argv)
    out = OutputWriter()
    if args.list or args.name is None:
        registry = job_registry()
        width = max(len(name) for name in registry)
        for name in sorted(registry):
            spec = registry[name]
            seed = "-" if spec.seed is None else str(spec.seed)
            out.line(f"{name.ljust(width)}  seed={seed:4s} {spec.description}")
        return 0
    if args.no_wait and args.state_dir is None:
        parser.error("--no-wait needs --state-dir (an ephemeral queue "
                     "would be discarded before any worker sees it)")
    overrides = dict(parse_override(item) for item in args.overrides)
    with Client(state_dir=args.state_dir) as client:
        handle = client.submit(
            args.name,
            seed=args.seed,
            overrides=overrides or None,
            priority=args.priority,
            client=args.client,
        )
        if not args.quiet:
            out.line(
                f"submitted {handle.job_id} {args.name} "
                f"fingerprint={handle.fingerprint[:12]}"
            )
        if args.no_wait:
            return 0
        status = client.wait(handle.job_id)
        if status.state != "done":
            out.line(
                f"job {status.job_id} {status.state}"
                + (f": {status.reason}" if status.reason else "")
            )
            return 1
        try:
            result = client.result(handle.job_id)
        except ServiceError as err:  # e.g. a store entry edited after commit
            sys.stderr.write(f"repro submit: error: {err}\n")
            return 1
        if not args.quiet:
            out.line(
                f"job {status.job_id} done"
                + (CACHED_TAG if status.cached else "")
            )
        out.line(result.render())
        if args.out is not None:
            path = result.persist(args.out)
            if not args.quiet:
                out.line(f"archived {path}")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Drain a service state directory's job queue through "
        "a sharded worker pool.",
    )
    parser.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="persistent service state (queue journal + result cache)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes (0 = run jobs inline; default 1)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit (sharded mode; default none)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="stop after settling N jobs (default: drain the queue)",
    )
    parser.add_argument(
        "--quota",
        type=int,
        default=None,
        metavar="N",
        help="max active jobs per client accepted by this queue",
    )
    parser.add_argument(
        "--stream",
        default=None,
        metavar="DIR",
        help="stream job telemetry into DIR (trace.jsonl + queue gauges)",
    )
    return parser


def serve_main(argv: list[str]) -> int:
    from repro.api import Client

    args = build_serve_parser().parse_args(argv)
    out = OutputWriter()
    with Client(
        state_dir=args.state_dir,
        shards=args.shards,
        quota=args.quota,
        timeout=args.timeout,
    ) as client:
        if args.stream is not None:
            client.stream_to(args.stream)
        for job_id in client.queue.recovered:
            out.line(f"recovered {job_id} (requeued after worker death)")
        settled = client.pool.run(
            client.queue, client.store, max_jobs=args.max_jobs
        )
        failed = 0
        for job in settled:
            tag = CACHED_TAG if job.cached else ""
            line = f"{job.job_id} {job.request.name} {job.state.value}{tag}"
            if job.reason:
                line += f": {job.reason}"
            out.line(line)
            failed += job.state.value == "failed"
        counts = client.queue.counts()
        summary = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v)
        out.line(f"settled {len(settled)} job(s)  {summary or 'queue empty'}")
    return 1 if failed else 0


__all__ = ["parse_override", "serve_main", "submit_main"]
