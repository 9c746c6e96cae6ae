"""Extension: trace-driven workload replay as a registry experiment.

``repro experiment trace_replay`` runs a :mod:`repro.traces` workload —
a seeded synthetic generator pattern by default, or any trace file via
``--set trace=path/to.jsonl`` — through :class:`TraceReplayApp` and
reports the replayed workload shape plus the replay fingerprint digest.

Determinism contract: the rendered table depends only on the trace bytes
(which a generator derives purely from ``(seed, ranks, steps)``) — the
``reference_model`` comparison of ``repro check --trace-corpus`` pins the
replay fingerprint against the scalar reference rate model.

Cache semantics: the spec's canonicalize hook folds a ``trace=`` file
into its content hash (``trace_sha256`` joins the semantic overrides,
the local path moves to the non-fingerprinted extras), so two submits of
the same trace bytes from different paths are one cached simulation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.experiments.common import format_table
from repro.traces.generators import generate_trace
from repro.traces.replay import TraceReplayApp, build_replay_cluster
from repro.traces.schema import RECORD_KINDS, Trace, load_trace


@dataclass
class TraceReplayResult:
    trace_name: str
    machine: str
    sha256: str
    makespan: float
    fingerprint_sha256: str
    rows: list[tuple[object, ...]]  # (rank, node, *per-kind counts)
    seed: int | None = None
    config: dict = field(default_factory=dict)

    def render(self) -> str:
        table = format_table(
            ["rank", "node", *RECORD_KINDS],
            self.rows,
            title=f"Extension: trace replay — {self.trace_name} on {self.machine}",
        )
        return "\n".join(
            [
                table,
                f"trace sha256:       {self.sha256}",
                f"replay fingerprint: {self.fingerprint_sha256}",
                f"makespan:           {self.makespan:.6f} s",
            ]
        )


def _workload_rows(trace: Trace) -> list[tuple[object, ...]]:
    per_rank = trace.per_rank()
    rows: list[tuple[object, ...]] = []
    for rank in range(trace.meta.ranks):
        counts = {kind: 0 for kind in RECORD_KINDS}
        for record in per_rank[rank]:
            counts[record.kind] += 1
        node = trace.meta.placement[rank][0]
        rows.append((rank, node, *(counts[kind] for kind in RECORD_KINDS)))
    return rows


def _canonicalize_trace(semantic: dict) -> tuple[dict, dict]:
    """Spec canonicalize hook: content-address a ``trace=`` file override.

    The file's sha256 joins the semantic (fingerprinted) overrides and
    the path itself moves to extras, so the cache key names the trace
    *bytes*, not where they happen to live on this machine.  A caller's
    explicit ``trace_sha256`` is verified against the file, making a
    stale pin a typed error at submit time rather than a wrong cache hit.
    """
    moved: dict[str, object] = {}
    path = semantic.pop("trace", None)
    if path is not None:
        sha = load_trace(str(path)).sha256
        claimed = semantic.get("trace_sha256")
        if claimed is not None and claimed != sha:
            raise TraceError(
                f"trace_sha256 override {claimed!r} does not match "
                f"{path!s} (sha256 {sha})"
            )
        semantic["trace_sha256"] = sha
        moved["trace"] = str(path)
    return semantic, moved


def run_trace_replay(
    seed: int = 0,
    generator: str = "ai_training",
    ranks: int = 4,
    steps: int = 4,
    trace: str | None = None,
    trace_sha256: str | None = None,
) -> TraceReplayResult:
    """Replay a generated or file-loaded trace; report shape + fingerprint.

    With ``trace`` set, the file is loaded (and ``generator``/``ranks``/
    ``steps`` are ignored); otherwise the named generator builds the
    workload from ``(seed, ranks, steps)``.  ``trace_sha256``, when
    given, pins the trace content either way — a mismatch is a
    :class:`~repro.errors.TraceError`, never a silently different run.
    """
    if trace is not None:
        loaded = load_trace(trace)
    else:
        loaded = generate_trace(generator, seed=seed, ranks=ranks, steps=steps)
    sha = loaded.sha256
    if trace_sha256 is not None and trace_sha256 != sha:
        raise TraceError(
            f"trace_sha256 {trace_sha256!r} does not match the "
            f"{'loaded' if trace is not None else 'generated'} trace (sha256 {sha})"
        )
    cluster = build_replay_cluster(loaded)
    TraceReplayApp(loaded, cluster).run()
    from repro.check.harness import fingerprint_cluster

    fingerprint = fingerprint_cluster(cluster)
    config: dict[str, object] = {"trace_sha256": sha}
    if trace is None:
        config.update({"generator": generator, "ranks": ranks, "steps": steps})
    return TraceReplayResult(
        trace_name=loaded.meta.name,
        machine=loaded.meta.machine,
        sha256=sha,
        makespan=float(cluster.sim.now),
        fingerprint_sha256=hashlib.sha256(fingerprint.encode()).hexdigest(),
        rows=_workload_rows(loaded),
        seed=seed if trace is None else None,
        config=config,
    )
