"""The fuzzing harness: run cases through paired paths and compare.

The harness turns a :class:`~repro.check.generators.CaseSpec` into a
**fingerprint** — a SHA-256 over every process's final state, timing, and
counters rendered with ``float.hex()`` — and asserts that the production
rate model, memos and all, fingerprints byte-identically to the scalar,
cache-free :class:`~repro.cluster.reference.ReferenceRateModel`
(:func:`use_reference_model`).

The fast path additionally runs with an :class:`InvariantChecker`
attached in ``record`` mode, so one evaluation yields both the
conservation audit and the differential verdicts.  Failing cases are
shrunk by halving (see
:func:`~repro.check.generators.shrink_candidates`) until no smaller
variant still fails.

Fingerprints key on process *names* (with an occurrence index for
same-named processes), never on pids: the pid counter is a process-wide
global, so pids differ between runs inside one interpreter while names
and spawn order do not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.check.generators import (
    CaseSpec,
    build_cluster,
    deploy_case,
    generate_cases,
    shrink_candidates,
)
from repro.check.invariants import InvariantChecker
from repro.cluster.cluster import Cluster
from repro.cluster.reference import ReferenceRateModel
from repro.errors import CheckError

#: evaluation budget for shrinking one failing case
SHRINK_BUDGET = 24


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def fingerprint_cluster(cluster: Cluster) -> str:
    """Canonical digest of a finished simulation's observable outcome."""
    name_counts: dict[str, int] = {}
    entries = []
    for proc in cluster.sim.processes:
        occurrence = name_counts.get(proc.name, 0)
        name_counts[proc.name] = occurrence + 1
        entries.append(
            {
                "name": proc.name,
                "occurrence": occurrence,
                "node": proc.node,
                "core": proc.core,
                "state": proc.state.name,
                "start": _hex(proc.start_time),
                "end": _hex(proc.end_time),
                "exit": proc.exit_reason,
                "counters": {
                    key: float(value).hex()
                    for key, value in sorted(proc.counters.items())
                },
            }
        )
    payload = {"now": _hex(cluster.sim.now), "procs": entries}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def use_reference_model(cluster: Cluster) -> Cluster:
    """Swap :class:`ReferenceRateModel` onto a freshly built ``cluster``.

    The reference takes over the production model's ablation knobs and
    the simulator's stats block, so the cluster then simulates the same
    script through the scalar, cache-free equations.  Returns ``cluster``.
    """
    if cluster.sim.processes:
        raise CheckError(
            "the reference model can only replace the model of a freshly "
            "built cluster"
        )
    model = cluster.model
    reference = ReferenceRateModel(
        cluster,
        share_fn=model.share_fn,
        cache_sharpness=model.cache_sharpness,
        k_paths=model.k_paths,
    )
    reference.attach_stats(cluster.sim.stats)
    cluster.model = cluster.sim.model = reference
    return cluster


def _run_case(
    spec: CaseSpec,
    reference: bool = False,
    checker: InvariantChecker | None = None,
) -> str:
    """Materialise, run, and fingerprint one case on a fresh cluster."""
    cluster = build_cluster(spec)
    if reference:
        use_reference_model(cluster)
    if checker is not None:
        checker.attach(cluster)
    jobs = deploy_case(spec, cluster)
    stop = (lambda: all(job.finished for job in jobs)) if jobs else None
    cluster.sim.run(until=spec.horizon, stop_when=stop)
    fingerprint = fingerprint_cluster(cluster)
    if checker is not None:
        checker.detach()
    return fingerprint


def fingerprint_case(spec: CaseSpec) -> str:
    """Default-path fingerprint of one case.

    A module-level pure function of its payload, so
    :func:`repro.parallel.run_trials` can fan specs out over worker
    processes (the parallel-vs-serial oracle does exactly that).
    """
    return _run_case(spec)


@dataclass(frozen=True)
class CaseOutcome:
    """Everything one evaluation learned about a case."""

    spec: CaseSpec
    fingerprint: str
    violations: tuple[str, ...]
    mismatches: tuple[tuple[str, str], ...]
    hook_counts: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.mismatches


def evaluate_case(spec: CaseSpec) -> CaseOutcome:
    """Run one case through the fast path and the reference model."""
    checker = InvariantChecker(mode="record")
    fast = _run_case(spec, checker=checker)
    mismatches = []
    ref = _run_case(spec, reference=True)
    if fast != ref:
        mismatches.append(
            (
                "reference_model",
                f"production {fast[:16]}.. != reference {ref[:16]}..",
            )
        )
    return CaseOutcome(
        spec=spec,
        fingerprint=fast,
        violations=tuple(v.render() for v in checker.violations),
        mismatches=tuple(mismatches),
        hook_counts=tuple(sorted(checker.hook_counts.items())),
    )


def shrink_failing(spec: CaseSpec, budget: int = SHRINK_BUDGET) -> CaseOutcome:
    """Greedily halve a failing case while it keeps failing.

    Returns the outcome of the smallest still-failing variant found
    within ``budget`` evaluations (the original spec's outcome if no
    candidate reproduces the failure).
    """
    current = evaluate_case(spec)
    evals = 0
    progress = True
    while progress and evals < budget:
        progress = False
        for candidate in shrink_candidates(current.spec):
            evals += 1
            outcome = evaluate_case(candidate)
            if not outcome.ok:
                current = outcome
                progress = True
                break
            if evals >= budget:
                break
    return current


@dataclass(frozen=True)
class FuzzReport:
    """Deterministic summary of one fuzzing run."""

    seed: int
    generated: int
    corpus_count: int
    outcomes: tuple[CaseOutcome, ...]
    oracles: tuple["OracleResult", ...]
    shrunk: tuple[CaseOutcome, ...]
    traces: tuple["OracleResult", ...] = ()

    @property
    def ok(self) -> bool:
        return (
            all(o.ok for o in self.outcomes)
            and all(o.ok for o in self.oracles)
            and all(t.ok for t in self.traces)
        )

    def render(self) -> str:
        """Byte-identical across runs of the same inputs: no wallclock,
        no environment, only simulation outcomes."""
        lines = [
            f"repro check: seed={self.seed} corpus={self.corpus_count} "
            f"generated={self.generated} cases={len(self.outcomes)}"
        ]
        totals: dict[str, int] = {}
        for outcome in self.outcomes:
            for family, count in outcome.hook_counts:
                totals[family] = totals.get(family, 0) + count
        hooks = "  ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        lines.append(f"invariant hooks fired: {hooks or 'none'}")
        failing = [o for o in self.outcomes if not o.ok]
        lines.append(
            f"cases: {len(self.outcomes) - len(failing)} ok, {len(failing)} failing"
        )
        for oracle in self.oracles:
            status = "ok" if oracle.ok else f"FAIL ({oracle.detail})"
            lines.append(f"oracle {oracle.name}: {status}")
        for verdict in self.traces:
            status = "ok" if verdict.ok else f"FAIL ({verdict.detail})"
            lines.append(f"{verdict.name}: {status}")
        for outcome in failing:
            lines.append(f"FAIL {outcome.spec.describe()}")
            for violation in outcome.violations:
                lines.append(f"  violation: {violation}")
            for name, detail in outcome.mismatches:
                lines.append(f"  mismatch[{name}]: {detail}")
        for outcome in self.shrunk:
            lines.append(f"shrunk {outcome.spec.describe()}")
            for violation in outcome.violations:
                lines.append(f"  violation: {violation}")
            for name, detail in outcome.mismatches:
                lines.append(f"  mismatch[{name}]: {detail}")
            lines.append(f"  spec: {outcome.spec.to_json()}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def reference_replay_fingerprint(trace) -> str:
    """:func:`~repro.traces.replay_fingerprint` on the reference model."""
    from repro.traces import TraceReplayApp, build_replay_cluster

    cluster = use_reference_model(build_replay_cluster(trace))
    TraceReplayApp(trace, cluster).run()
    return fingerprint_cluster(cluster)


def replay_trace_corpus(directory) -> list["OracleResult"]:
    """Replay every pinned ``*.jsonl`` trace under ``directory``.

    Each trace must load (which verifies its sha256 trailer), pass full
    validation, and replay to the *same* fingerprint on the production
    and reference rate models — the trace-layer half of the
    ``reference_model`` comparison, pinned on committed workloads rather
    than generated cases.
    """
    from pathlib import Path

    from repro.check.oracles import OracleResult
    from repro.errors import ReproError
    from repro.traces import load_trace, replay_fingerprint

    paths = sorted(Path(directory).glob("*.jsonl"))
    if not paths:
        raise CheckError(f"trace corpus {directory} contains no .jsonl traces")
    results: list[OracleResult] = []
    for path in paths:
        name = f"trace corpus {path.stem}"
        try:
            trace = load_trace(path).validate()
            production = replay_fingerprint(trace)
            reference = reference_replay_fingerprint(trace)
        except ReproError as err:
            results.append(OracleResult(name, False, str(err)))
            continue
        if production != reference:
            results.append(
                OracleResult(
                    name, False, "production/reference replay fingerprints diverge"
                )
            )
        else:
            results.append(OracleResult(name, True))
    return results


def run_fuzz(
    cases: int,
    seed: int,
    corpus: list[CaseSpec] | None = None,
    jobs: int = 1,
    shrink: bool = True,
    with_oracles: bool = True,
    trace_corpus: str | None = None,
) -> FuzzReport:
    """Replay ``corpus`` plus ``cases`` freshly generated specs.

    ``jobs > 1`` fans the per-case evaluations out over worker processes
    (via :func:`repro.parallel.run_trials`, so results are identical for
    every job count).  Every case is compared against the reference rate
    model (:func:`evaluate_case`).  ``with_oracles``
    additionally runs the global differential oracles — parallel-vs-serial
    sweep, checkpoint/restart equivalence, result cache, live telemetry
    stream vs post-run replay, and trace record/replay identity — which
    exercise machinery a single case cannot.  ``trace_corpus`` names a
    directory of pinned workload traces additionally replayed on the
    production and reference models (:func:`replay_trace_corpus`).
    """
    from repro.check import oracles as oracle_mod
    from repro.parallel import run_trials

    specs = list(corpus or []) + generate_cases(cases, seed)
    outcomes = run_trials(evaluate_case, specs, jobs=jobs)
    shrunk = []
    if shrink:
        for outcome in outcomes:
            if not outcome.ok:
                shrunk.append(shrink_failing(outcome.spec))
    oracle_results: list[oracle_mod.OracleResult] = []
    if with_oracles:
        oracle_results.extend(oracle_mod.run_global_oracles(seed, corpus=corpus))
    trace_results: list[oracle_mod.OracleResult] = []
    if trace_corpus is not None:
        trace_results.extend(replay_trace_corpus(trace_corpus))
    return FuzzReport(
        seed=seed,
        generated=cases,
        corpus_count=len(corpus or []),
        outcomes=tuple(outcomes),
        oracles=tuple(oracle_results),
        shrunk=tuple(shrunk),
        traces=tuple(trace_results),
    )
