"""Run-directory comparison with divergence localization (``repro diff``).

Two same-seed runs of a deterministic simulator must produce identical
artefacts; when they do not, the interesting question is never *whether*
they differ (the manifest checksums say so in one line) but **where the
divergence enters**.  This module walks that question down the stack:

1. inventory — which files exist in only one run,
2. manifests — the first differing key path in the canonical JSON,
3. metric series — for each ``metrics/<node>.jsonl`` stream whose bytes
   differ, the **first divergent sample index** (earliest time, ties by
   metric name), with both values shown as ``repr`` and ``float.hex`` so
   one-ulp drifts are visible,
4. enclosing span — if the runs carry a ``trace.jsonl``, the innermost
   span covering that (node, time) point, naming the activity that was
   running when the streams first disagreed,
5. traces and other text artefacts — first differing line.

The report is deterministic given the two directories (files sorted,
no wall-clock, no absolute temp paths beyond the labels the caller
passes), so CI can assert on its output.  Exit status: 0 identical,
1 diverged — ``cmp``-style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.analyze import Trace, TraceSpan, is_number, json_records, load_json

#: artefact names (relative glob patterns) the differ understands
_TEXT_PATTERNS = (
    "*.txt",
    "*.json",
    "*.jsonl",
    "*.manifest.json",
    "metrics/*.jsonl",
)


@dataclass(frozen=True)
class SeriesDivergence:
    """The first divergent sample between two metric streams."""

    file: str
    node: str
    index: int
    time: float
    metric: str
    value_a: float
    value_b: float
    span: TraceSpan | None = None

    def describe(self) -> list[str]:
        lines = [
            f"{self.file}: first divergence at sample {self.index} "
            f"(t={self.time:g}), metric {self.metric!r}:",
            f"  a: {self.value_a!r} ({float(self.value_a).hex()})",
            f"  b: {self.value_b!r} ({float(self.value_b).hex()})",
        ]
        if self.span is not None:
            s = self.span
            lines.append(
                f"  enclosing span: {s.cat}:{s.name} on {s.group}/{s.lane} "
                f"[{s.start:g}, {s.end:g}] sid={s.sid}"
            )
        return lines


@dataclass
class DiffReport:
    """Everything ``repro diff`` found between two run directories."""

    dir_a: str
    dir_b: str
    only_in_a: list[str] = field(default_factory=list)
    only_in_b: list[str] = field(default_factory=list)
    #: relative path -> human description of the first difference
    differing: dict[str, str] = field(default_factory=dict)
    #: identical relative paths (compared byte-for-byte)
    identical: list[str] = field(default_factory=list)
    series: list[SeriesDivergence] = field(default_factory=list)

    @property
    def is_identical(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.differing)

    def render(self) -> str:
        lines = [f"diff {self.dir_a} {self.dir_b}"]
        if self.is_identical:
            lines.append(
                f"identical: {len(self.identical)} artefact(s) compared, "
                "0 differences"
            )
            return "\n".join(lines)
        for path in self.only_in_a:
            lines.append(f"only in a: {path}")
        for path in self.only_in_b:
            lines.append(f"only in b: {path}")
        described = {d.file for d in self.series}
        for path, what in sorted(self.differing.items()):
            if path not in described:
                lines.append(f"differs: {path}: {what}")
        for divergence in self.series:
            lines.extend(divergence.describe())
        lines.append(
            f"{len(self.differing)} differing, {len(self.identical)} identical, "
            f"{len(self.only_in_a) + len(self.only_in_b)} unmatched artefact(s)"
        )
        return "\n".join(lines)


def _inventory(directory: Path) -> dict[str, Path]:
    """Relative path -> absolute path of every comparable artefact."""
    seen: dict[str, Path] = {}
    for pattern in _TEXT_PATTERNS:
        for path in directory.glob(pattern):
            if path.is_file():
                seen[path.relative_to(directory).as_posix()] = path
    return dict(sorted(seen.items()))


def _first_diff_line(text_a: str, text_b: str) -> str:
    """Describe the first differing line of two text artefacts."""
    lines_a = text_a.splitlines()
    lines_b = text_b.splitlines()
    for i, (a, b) in enumerate(zip(lines_a, lines_b), start=1):
        if a != b:
            return f"line {i}: {a[:80]!r} vs {b[:80]!r}"
    if len(lines_a) != len(lines_b):
        return f"line count {len(lines_a)} vs {len(lines_b)}"
    return "byte difference (line endings or trailing bytes)"


def _manifest_diff_path(a: object, b: object, prefix: str = "") -> str | None:
    """First differing key path between two parsed JSON documents."""
    if type(a) is not type(b):
        return prefix or "$"
    if isinstance(a, dict):
        assert isinstance(b, dict)
        for key in sorted(set(a) | set(b)):
            where = f"{prefix}.{key}" if prefix else key
            if key not in a or key not in b:
                return where
            found = _manifest_diff_path(a[key], b[key], where)
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        assert isinstance(b, list)
        for i, (va, vb) in enumerate(zip(a, b)):
            found = _manifest_diff_path(va, vb, f"{prefix}[{i}]")
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{prefix}[{min(len(a), len(b))}]"
        return None
    return None if a == b else (prefix or "$")


def _metric_records(path: Path) -> list[dict[str, object]]:
    """The samples of a metric stream; ``time`` and every metric value
    must be numbers, or :class:`ObservabilityError` names ``path:line``."""
    records = []
    for where, record in json_records(path):
        if "time" not in record:
            raise ObservabilityError(f"{where}: sample is missing 'time'")
        for key, value in record.items():
            if key != "node" and not is_number(value):
                raise ObservabilityError(
                    f"{where}: {key} must be a number, got {value!r}"
                )
        records.append(record)
    return records


def _localize_series(
    rel: str, path_a: Path, path_b: Path, trace: Trace | None
) -> SeriesDivergence | None:
    """Find the first divergent (sample index, metric) of two streams."""
    records_a = _metric_records(path_a)
    records_b = _metric_records(path_b)
    for index, (ra, rb) in enumerate(zip(records_a, records_b)):
        if ra == rb:
            continue
        node = str(ra.get("node", rb.get("node", "?")))
        time = float(ra["time"])
        for metric in sorted(set(ra) | set(rb)):
            if metric in ("time", "node"):
                continue
            va, vb = ra.get(metric), rb.get(metric)
            if va != vb:
                span = (
                    trace.enclosing(node, time) if trace is not None else None
                )
                return SeriesDivergence(
                    file=rel,
                    node=node,
                    index=index,
                    time=time,
                    metric=metric,
                    value_a=float(va) if va is not None else float("nan"),
                    value_b=float(vb) if vb is not None else float("nan"),
                    span=span,
                )
        # same metric values but time/node field changed
        for key in ("time", "node"):
            if ra.get(key) != rb.get(key):
                return SeriesDivergence(
                    file=rel,
                    node=node,
                    index=index,
                    time=time,
                    metric=key,
                    value_a=float(ra["time"]),
                    value_b=float(rb["time"]),
                    span=None,
                )
    return None


def diff_runs(
    dir_a: str | Path,
    dir_b: str | Path,
    label_a: str | None = None,
    label_b: str | None = None,
) -> DiffReport:
    """Compare two run/result directories; see the module docstring."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    for directory in (dir_a, dir_b):
        if not directory.is_dir():
            raise ObservabilityError(f"not a directory: {directory}")
    report = DiffReport(
        dir_a=label_a if label_a is not None else str(dir_a),
        dir_b=label_b if label_b is not None else str(dir_b),
    )
    files_a = _inventory(dir_a)
    files_b = _inventory(dir_b)
    report.only_in_a = sorted(set(files_a) - set(files_b))
    report.only_in_b = sorted(set(files_b) - set(files_a))

    # A trace from either side powers span localization; prefer side a.
    trace: Trace | None = None
    for base in (dir_a, dir_b):
        candidate = base / "trace.jsonl"
        if candidate.is_file():
            try:
                trace = Trace.load(candidate)
            except ObservabilityError:
                trace = None
            break

    for rel in sorted(set(files_a) & set(files_b)):
        path_a, path_b = files_a[rel], files_b[rel]
        text_a = path_a.read_text()
        text_b = path_b.read_text()
        if text_a == text_b:
            report.identical.append(rel)
            continue
        if rel.endswith(".manifest.json") or rel == "manifest.json":
            where = _manifest_diff_path(
                load_json(path_a, text_a), load_json(path_b, text_b)
            )
            report.differing[rel] = f"manifest key {where}"
        elif rel.startswith("metrics/") and rel.endswith(".jsonl"):
            divergence = _localize_series(rel, path_a, path_b, trace)
            if divergence is not None:
                report.differing[rel] = (
                    f"sample {divergence.index} metric {divergence.metric!r}"
                )
                report.series.append(divergence)
            else:
                report.differing[rel] = _first_diff_line(text_a, text_b)
        else:
            report.differing[rel] = _first_diff_line(text_a, text_b)
    return report
