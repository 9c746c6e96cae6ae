"""Run summaries and wall-clock self-profiling (``repro report``).

One report answers two different questions from the same run:

* **What did the simulation do?** — span counts per category, per-node
  utilization rollups, the critical path, and the deterministic
  :class:`~repro.sim.stats.SimStats` counters.  This part is
  byte-identical across same-seed reruns, so CI can golden it.
* **Where did the host's wall-clock go?** — per-subsystem attribution
  built on the existing SimStats timers: the engine's ``accrue`` and
  ``resolve`` phases, the rate model (``node``), the flow solver
  (``network``), ``storage``, ``monitoring`` sampling, and ``obs``
  streaming overhead.  Timings are real wall seconds and therefore *not*
  deterministic; ``--no-wallclock`` drops the section so the rest of the
  report stays reproducible.

Two sources: a live scenario (``repro report mixed``) or a streamed run
directory written by ``repro trace --stream`` (``repro report --run-dir
runs/a``).  Both render to the terminal and to markdown (``--md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.errors import ObservabilityError
from repro.obs.analyze import Trace, load_json

#: timer name -> (report label, what the bucket measures)
SUBSYSTEM_TIMERS: dict[str, tuple[str, str]] = {
    "accrue": ("engine.accrue", "event-loop progress accrual"),
    "resolve": ("engine.resolve", "rate re-resolution (includes the three below)"),
    "node": ("rate_model", "per-node max-min fair shares"),
    "network": ("flow_solver", "network max-min fair share"),
    "storage": ("storage", "filesystem bandwidth shares"),
    "monitoring": ("monitoring", "metric sampling ticks"),
    "obs": ("obs", "span bookkeeping + streaming sinks (nested elsewhere)"),
}

#: timers whose cost is already counted inside another bucket
_NESTED = frozenset({"node", "network", "storage", "obs"})


def wallclock_attribution(
    timings: Mapping[str, float],
) -> list[tuple[str, float, str]]:
    """Rows of (label, seconds, note) for the self-profiling section.

    Derives ``engine.resolve (self)`` — resolve time not spent in the
    rate model / flow solver / storage — so the table sums sensibly, and
    appends any unrecognised timers verbatim rather than dropping them.
    """
    rows: list[tuple[str, float, str]] = []
    for timer, (label, note) in SUBSYSTEM_TIMERS.items():
        if timer in timings:
            rows.append((label, timings[timer], note))
    resolve = timings.get("resolve")
    if resolve is not None:
        nested = sum(
            timings.get(t, 0.0) for t in ("node", "network", "storage")
        )
        rows.append(
            (
                "engine.resolve (self)",
                max(0.0, resolve - nested),
                "resolve minus rate model / flow solver / storage",
            )
        )
    for timer in sorted(timings):
        if timer not in SUBSYSTEM_TIMERS:
            rows.append((timer, timings[timer], "unattributed timer"))
    return rows


@dataclass
class RunReport:
    """Everything one report renders, already aggregated."""

    title: str
    source: str
    categories: dict[str, int] = field(default_factory=dict)
    instants: int = 0
    horizon: float = 0.0
    utilization: dict[str, float] = field(default_factory=dict)
    #: (cat, name, group, start, end) per critical-path hop, root first
    critical_path: list[tuple[str, str, str, float, float]] = field(
        default_factory=list
    )
    counters: dict[str, int] = field(default_factory=dict)
    #: node -> sample count (run-dir mode only)
    samples: dict[str, int] = field(default_factory=dict)
    #: timer name -> wall seconds; empty when wall-clock is suppressed
    timings: dict[str, float] = field(default_factory=dict)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Terminal form; deterministic unless ``timings`` is populated."""
        lines = [f"run report: {self.title}", f"source: {self.source}"]
        spans = "  ".join(f"{c}={n}" for c, n in self.categories.items())
        lines.append(f"spans: {spans or 'none'}  instants: {self.instants}")
        lines.append(f"horizon: {self.horizon:g}s")
        if self.utilization:
            lines.append("utilization (engine spans):")
            for group, frac in self.utilization.items():
                lines.append(f"  {group:<12} {frac:7.1%}")
        if self.critical_path:
            total = self.critical_path[0][4] - self.critical_path[0][3]
            lines.append(
                f"critical path ({len(self.critical_path)} span(s), "
                f"{total:g}s end to end):"
            )
            for cat, name, group, start, end in self.critical_path:
                lines.append(
                    f"  {cat}:{name} on {group} [{start:g}, {end:g}]"
                )
        if self.samples:
            counts = "  ".join(
                f"{node}={n}" for node, n in self.samples.items()
            )
            lines.append(f"metric samples: {counts}")
        if self.counters:
            lines.append("counters:")
            for name, value in self.counters.items():
                lines.append(f"  {name} = {value}")
        if self.timings:
            lines.append("wall-clock attribution (not deterministic):")
            for label, seconds, note in wallclock_attribution(self.timings):
                lines.append(f"  {label:<22} {seconds:9.4f}s  {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Markdown form with the same sections as :meth:`render`."""
        lines = [f"# Run report: {self.title}", "", f"Source: `{self.source}`", ""]
        lines.append("## Timeline")
        lines.append("")
        lines.append("| category | spans |")
        lines.append("| --- | ---: |")
        for cat, n in self.categories.items():
            lines.append(f"| {cat} | {n} |")
        lines.append(f"| _instants_ | {self.instants} |")
        lines.append("")
        lines.append(f"Horizon: {self.horizon:g} simulated seconds.")
        if self.utilization:
            lines.extend(["", "## Utilization (engine spans)", ""])
            lines.append("| node | busy |")
            lines.append("| --- | ---: |")
            for group, frac in self.utilization.items():
                lines.append(f"| {group} | {frac:.1%} |")
        if self.critical_path:
            lines.extend(["", "## Critical path", ""])
            lines.append("| span | node | start | end |")
            lines.append("| --- | --- | ---: | ---: |")
            for cat, name, group, start, end in self.critical_path:
                lines.append(
                    f"| {cat}:{name} | {group} | {start:g} | {end:g} |"
                )
        if self.counters:
            lines.extend(["", "## Counters", ""])
            lines.append("| counter | value |")
            lines.append("| --- | ---: |")
            for name, value in self.counters.items():
                lines.append(f"| {name} | {value} |")
        if self.timings:
            lines.extend(
                ["", "## Wall-clock attribution (not deterministic)", ""]
            )
            lines.append("| subsystem | seconds | measures |")
            lines.append("| --- | ---: | --- |")
            for label, seconds, note in wallclock_attribution(self.timings):
                lines.append(f"| {label} | {seconds:.4f} | {note} |")
        lines.append("")
        return "\n".join(lines)


def _trace_sections(report: RunReport, trace: Trace) -> None:
    """Fill the timeline-derived sections shared by both sources."""
    report.categories = trace.categories()
    report.instants = len(trace.instants)
    report.horizon = trace.horizon
    report.utilization = trace.utilization(cat="engine")
    report.critical_path = [
        (s.cat, s.name, s.group, s.start, s.end)
        for s in trace.critical_path()
    ]


def report_scenario(
    name: str,
    seed: int = 0,
    horizon: float = 120.0,
    wallclock: bool = True,
) -> RunReport:
    """Run a trace scenario and aggregate its report."""
    from repro.obs.scenarios import run_scenario

    run = run_scenario(name, seed=seed, horizon=horizon)
    report = RunReport(
        title=f"scenario {name!r} (seed {seed})",
        source=f"scenario:{name}",
    )
    _trace_sections(report, Trace.from_collector(run.obs.collector))
    report.counters = dict(sorted(run.obs.stats.counters.items()))
    if run.obs.service is not None:
        report.samples = {
            node: len(run.obs.service.times)
            for node in sorted(run.obs.service.data)
        }
    if wallclock:
        report.timings = dict(run.obs.stats.timings)
    return report


def report_run_dir(directory: str | Path, wallclock: bool = True) -> RunReport:
    """Aggregate a report from a streamed run directory.

    Needs at least ``trace.jsonl``; ``counters.json`` and
    ``metrics/*.jsonl`` fill their sections when present.  Streamed runs
    carry no timer snapshot, so the wall-clock section only appears for
    live sources regardless of ``wallclock``.
    """
    directory = Path(directory)
    trace_path = directory / "trace.jsonl"
    if not trace_path.is_file():
        raise ObservabilityError(
            f"no trace.jsonl in {directory} — was it written by "
            "`repro trace --stream`?"
        )
    report = RunReport(
        title=f"run directory {directory.name!r}",
        source=str(directory),
    )
    _trace_sections(report, Trace.load(trace_path))
    counters_path = directory / "counters.json"
    if counters_path.is_file():
        counters = load_json(counters_path)
        if isinstance(counters, dict):
            counters = counters.get("counters", counters)
        if not isinstance(counters, dict) or not all(
            isinstance(v, int) for v in counters.values()
        ):
            raise ObservabilityError(
                f"{counters_path}: counters must be an object of integers"
            )
        report.counters = {k: int(v) for k, v in sorted(counters.items())}
    metrics_dir = directory / "metrics"
    if metrics_dir.is_dir():
        for path in sorted(metrics_dir.glob("*.jsonl")):
            n = sum(1 for line in path.read_text().splitlines() if line.strip())
            report.samples[path.stem] = n
    return report
