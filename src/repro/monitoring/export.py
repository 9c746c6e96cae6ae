"""Exporting collected metrics (CSV / JSONL / dict-of-arrays).

Real LDMS deployments store samples in CSV files consumed by analysis
pipelines; these helpers produce the same artefacts from a
:class:`~repro.monitoring.service.MetricService` so downstream tooling
(pandas, the paper's analysis scripts) can be pointed at simulated data.
The JSONL flavour — one record per sample, ``{"time": ..., "node": ...,
metric: value, ...}`` — is a replay of the service's stored columns
through :class:`~repro.obs.stream.MetricJsonlStreamWriter`, the writer
that streams the same file while a run executes.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.monitoring.service import MetricService
from repro.obs.stream import MetricJsonlStreamWriter


def to_csv_text(service: MetricService, node: str | int) -> str:
    """One node's samples as CSV text: ``time`` plus one metric column."""
    name = f"node{node}" if isinstance(node, int) else node
    times = service.timestamps()
    if times.size == 0:
        raise ConfigError("no samples collected")
    metrics = service.metric_names
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time"] + metrics)
    columns = [service.series(name, m) for m in metrics]
    for i, t in enumerate(times):
        writer.writerow([f"{t:.3f}"] + [repr(float(col[i])) for col in columns])
    return buffer.getvalue()


def write_csv(service: MetricService, node: str | int, path: str | Path) -> Path:
    """Write one node's samples to a CSV file; returns the path."""
    path = Path(path)
    path.write_text(to_csv_text(service, node))
    return path


def _replay_jsonl(
    service: MetricService, node: str | int, target: str | Path | io.StringIO
) -> None:
    """Feed one node's stored samples through its metric stream writer."""
    name = f"node{node}" if isinstance(node, int) else node
    if not service.times:
        raise ConfigError("no samples collected")
    metrics = service.metric_names
    columns = {m: service.series(name, m).tolist() for m in metrics}
    sink = MetricJsonlStreamWriter(target, name, metrics)
    for i, t in enumerate(service.times):
        sink.on_metric_sample(t, name, {m: col[i] for m, col in columns.items()})
    sink.close()


def to_jsonl_text(service: MetricService, node: str | int) -> str:
    """One node's samples as JSONL: one ``{"time", "node", metrics...}``
    record per sample, keys sorted for byte-stable output."""
    buffer = io.StringIO()
    _replay_jsonl(service, node, buffer)
    return buffer.getvalue()


def write_jsonl(service: MetricService, node: str | int, path: str | Path) -> Path:
    """Write one node's samples to a JSONL file; returns the path."""
    path = Path(path)
    _replay_jsonl(service, node, path)
    return path


def read_jsonl(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Load a JSONL file produced by :func:`write_jsonl`.

    Returns ``(times, {metric: series})`` — the inverse of the export,
    so round-trips are exact.  A damaged file (a torn line, a sample
    missing a metric, a value that is not a number) raises
    :class:`~repro.errors.ConfigError` naming ``path:line``.
    """
    path = Path(path)
    records: list[tuple[int, dict]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not a JSON record ({exc.msg})"
            ) from None
        if not isinstance(record, dict):
            raise ConfigError(f"{path}:{lineno}: a sample must be a JSON object")
        records.append((lineno, record))
    if not records:
        return np.empty(0), {}
    first = records[0][1]
    if "time" not in first:
        raise ConfigError(f"{path} is not a metric export (no time field)")
    metrics = sorted(k for k in first if k not in ("time", "node"))
    columns: dict[str, list] = {key: [] for key in ["time", *metrics]}
    for lineno, record in records:
        for key, column in columns.items():
            if key not in record:
                raise ConfigError(f"{path}:{lineno}: sample lacks {key!r}")
            value = record[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"{path}:{lineno}: {key!r} is {value!r}, not a number"
                )
            column.append(value)
    times = np.asarray(columns.pop("time"), dtype=float)
    return times, {m: np.asarray(col, dtype=float) for m, col in columns.items()}


def read_csv(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Load a CSV produced by :func:`write_csv`.

    Returns ``(times, {metric: series})`` — the inverse of the export,
    so round-trips are exact.  A damaged file (no header, a row of the
    wrong width, a cell that is not a number) raises
    :class:`~repro.errors.ConfigError` naming ``path:line``.
    """
    path = Path(path)
    with path.open() as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise ConfigError(f"{path}:1: no header row")
        if header[0] != "time":
            raise ConfigError(f"{path} is not a metric export (no time column)")
        rows = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ConfigError(
                    f"{where}: {len(row)} cells, the header has {len(header)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ConfigError(f"{where}: a cell is not a number") from None
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        return np.empty(0), {m: np.empty(0) for m in header[1:]}
    times = data[:, 0]
    series = {metric: data[:, i + 1] for i, metric in enumerate(header[1:])}
    return times, series
