"""Varbench-style performance-variability measurement.

Kocoloski & Lange's *Varbench* (ICPP 2018, discussed in the paper's
related work) measures the variability an application *experiences* by
running it repeatedly and summarising the run-time distribution.  This
module reproduces that workflow on the simulated substrate so HPAS
anomalies can be characterised by the variability they induce::

    report = VariabilityReport.measure(
        app_name="miniGhost",
        anomaly_factory=lambda: make_anomaly("cachecopy"),
        repetitions=10,
    )
    report.write()              # summary via repro.output.OutputWriter
    cov = report.coefficient_of_variation

Repetitions differ through the application's per-rank jitter stream (a
fresh seed per repetition) and, when an anomaly factory is given, through
a randomised anomaly start offset — matching how real systems encounter
anomalies at arbitrary phases of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps import AppJob, get_app
from repro.cluster import Cluster
from repro.core.anomaly import Anomaly
from repro.errors import ConfigError
from repro.output import OutputWriter
from repro.parallel import run_trials
from repro.sim.rng import spawn_rng


@dataclass(frozen=True)
class _Trial:
    """One repetition's full configuration (picklable worker payload)."""

    app_name: str
    iterations: int
    nodes: int
    ranks_per_node: int
    job_seed: int
    anomaly: Anomaly | None
    anomaly_start: float


def _run_trial(trial: _Trial) -> float:
    """Execute one repetition; a pure function of the trial payload."""
    cluster = Cluster.voltrino(num_nodes=max(trial.nodes, 4))
    app = get_app(trial.app_name).scaled(iterations=trial.iterations)
    job = AppJob(
        app,
        cluster,
        nodes=list(range(trial.nodes)),
        ranks_per_node=trial.ranks_per_node,
        seed=trial.job_seed,
    )
    job.launch()
    if trial.anomaly is not None:
        # Collide with rank 0's core: the random arrival phase is what
        # turns a deterministic anomaly into run-to-run variability.
        trial.anomaly.launch(cluster, node="node0", core=0, start=trial.anomaly_start)
    return job.run(timeout=1e7)


@dataclass(frozen=True)
class VariabilityReport:
    """Run-time distribution summary for repeated runs of one workload."""

    app: str
    anomaly: str
    runtimes: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.runtimes))

    @property
    def std(self) -> float:
        return float(np.std(self.runtimes))

    @property
    def coefficient_of_variation(self) -> float:
        """CoV = std/mean — Varbench's headline number."""
        return self.std / self.mean if self.mean > 0 else 0.0

    @property
    def spread(self) -> float:
        """(max - min) / min: the "more than 100% variation" measure of
        Skinner & Kramer that motivates the paper's introduction."""
        lo = min(self.runtimes)
        return (max(self.runtimes) - lo) / lo if lo > 0 else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.runtimes, q))

    def describe(self) -> list[str]:
        """Human-readable summary lines (Varbench's report shape)."""
        return [
            f"app={self.app} anomaly={self.anomaly} reps={len(self.runtimes)}",
            f"mean={self.mean:.3f}s std={self.std:.3f}s "
            f"CoV={self.coefficient_of_variation:.4f} spread={self.spread:.4f}",
            f"p05={self.percentile(5):.3f}s p50={self.percentile(50):.3f}s "
            f"p95={self.percentile(95):.3f}s",
        ]

    def write(self, writer: OutputWriter | None = None) -> None:
        """Emit :meth:`describe` through the sanctioned output layer."""
        (writer or OutputWriter()).lines(self.describe())

    @classmethod
    def measure(
        cls,
        app_name: str,
        anomaly_factory: Callable[[], Anomaly] | None = None,
        repetitions: int = 10,
        iterations: int = 20,
        nodes: int = 4,
        ranks_per_node: int = 4,
        seed: int = 0,
        jobs: int = 1,
    ) -> "VariabilityReport":
        """Run the workload ``repetitions`` times and summarise runtimes.

        ``jobs`` fans repetitions out over worker processes via
        :func:`repro.parallel.run_trials`.  All randomness — the anomaly
        instances and their arrival phases — is drawn *here*, in the
        parent, in repetition order, so the runtimes are byte-identical
        for every ``jobs`` value.
        """
        if repetitions < 2:
            raise ConfigError("need at least 2 repetitions to measure variability")
        rng = spawn_rng(seed, f"varbench:{app_name}")
        nominal = get_app(app_name).scaled(iterations=iterations).profile.nominal_runtime
        trials = []
        anomaly_name = "none"
        for rep in range(repetitions):
            anomaly = None
            start = 0.0
            if anomaly_factory is not None:
                anomaly = anomaly_factory()
                anomaly_name = anomaly.name
                start = float(rng.uniform(0.0, nominal / 2))
            trials.append(
                _Trial(
                    app_name=app_name,
                    iterations=iterations,
                    nodes=nodes,
                    ranks_per_node=ranks_per_node,
                    job_seed=seed * 1000 + rep,
                    anomaly=anomaly,
                    anomaly_start=start,
                )
            )
        runtimes = run_trials(_run_trial, trials, jobs=jobs)
        return cls(app=app_name, anomaly=anomaly_name, runtimes=tuple(runtimes))


@dataclass(frozen=True)
class VarbenchResult:
    """Registry-shaped wrapper: a variability report with ``render()``.

    ``render()`` returns exactly the lines ``VariabilityReport.write``
    prints, so the ``repro varbench`` CLI, which routes through the job
    service, prints what a direct ``VariabilityReport.write`` call
    would.  ``seed``/``config`` feed the persisted manifest.
    """

    report: VariabilityReport
    seed: int

    @property
    def config(self) -> dict[str, object]:
        return {
            "app": self.report.app,
            "anomaly": self.report.anomaly,
            "repetitions": len(self.report.runtimes),
        }

    def render(self) -> str:
        return "\n".join(self.report.describe())


def run_varbench(
    app: str = "miniGhost",
    anomaly: str | None = None,
    reps: int = 10,
    iterations: int = 20,
    seed: int = 0,
    jobs: int = 1,
) -> VarbenchResult:
    """Run a variability measurement as a registry job.

    The importable runner behind the ``varbench`` entry of the job
    registry (:func:`repro.experiments.registry.resolve_job_spec`); the
    ``repro varbench`` CLI is a thin adapter over this via
    :class:`repro.api.Client`.
    """
    from repro.core import make_anomaly

    factory = None if anomaly is None else (lambda: make_anomaly(anomaly))
    report = VariabilityReport.measure(
        app_name=app,
        anomaly_factory=factory,
        repetitions=reps,
        iterations=iterations,
        seed=seed,
        jobs=jobs,
    )
    return VarbenchResult(report=report, seed=seed)
