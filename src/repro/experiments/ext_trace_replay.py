"""Extension: trace-driven workload replay as a registry experiment.

``repro submit trace_replay`` runs a :mod:`repro.traces` workload —
a seeded synthetic generator pattern by default, or any trace file via
``--set trace=path/to.jsonl`` — through :class:`TraceReplayApp` and
reports the replayed workload shape plus the replay fingerprint digest.
``repro trace trace_replay`` runs the same job with spans attached.

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

from repro.experiments.common import format_table
from repro.obs.observability import ObsHook, observe
from repro.traces.generators import generate_trace
from repro.traces.replay import TraceReplayApp, build_replay_cluster
from repro.traces.schema import RECORD_KINDS, Trace, check_sha256, load_trace


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
    *bytes*, not where they happen to live on this machine.  The file
    is rendered here, once, so the pin the job carries is always its
    canonical digest and the run can load against it without rendering
    again.  A caller's explicit ``trace_sha256`` is checked against
    that digest, making a stale or non-canonical pin a typed error at
    submit time rather than a wrong cache hit.
    """
    moved: dict[str, object] = {}
    path = semantic.pop("trace", None)
    if path is not None:
        loaded = load_trace(str(path))
        claimed = semantic.get("trace_sha256")
        if claimed is not None:
            check_sha256(loaded, claimed)
        semantic["trace_sha256"] = loaded.sha256
        moved["trace"] = str(path)
    return semantic, moved


def run_trace_replay(
    seed: int = 0,
    generator: str = "ai_training",
    ranks: int = 4,
    steps: int = 4,
    trace: str | None = None,
    trace_sha256: str | None = None,
    on_obs: ObsHook | None = None,
) -> TraceReplayResult:
    """Replay a generated or file-loaded trace; report shape + fingerprint.

    With ``trace`` set, the file is loaded (and ``generator``/``ranks``/
    ``steps`` are ignored); otherwise the named generator builds the
    workload from ``(seed, ranks, steps)``.  ``trace_sha256``, when
    given, pins the trace content either way — a mismatch is a
    :class:`~repro.errors.TraceError`, never a silently different run.
    With ``trace`` it must be a canonical digest (:attr:`Trace.sha256`),
    as :meth:`ExperimentSpec.normalize` puts there after rendering the
    file once: a file whose seal equals it is not rendered again.
    ``on_obs`` traces the replay with spans only (no metric service).
    """
    if trace is not None:
        loaded = load_trace(trace, trace_sha256)
    else:
        loaded = generate_trace(generator, seed=seed, ranks=ranks, steps=steps)
        if trace_sha256 is not None:
            check_sha256(loaded, trace_sha256)
    sha = loaded.sha256
    cluster = build_replay_cluster(loaded)
    observe(cluster, on_obs)
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
