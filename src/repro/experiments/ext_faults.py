"""Extension: fault injection & resilience sweep.

The paper's anomalies degrade performance but never kill anything; real
variability studies (and the FINJ tool the suite's injection design
follows) must also cope with *faults* — node crashes, hangs, link
outages.  This extension drives the same job-stream workload through a
seeded :class:`~repro.faults.FaultSchedule` at increasing fault rates and
compares two operating modes at the *same* fault schedule:

``no-ckpt``
    Fail-stop batch semantics: a job whose rank dies (or whose allocation
    finds no free healthy node) fails permanently — no requeue, no
    checkpoint.  This is the baseline an unmanaged submission experiences.
``ckpt``
    Resilient semantics: jobs checkpoint every few iterations and a
    :class:`~repro.faults.RetryPolicy` requeues them with exponential
    backoff, restarting from the last committed iteration.

The table reports job success rate, goodput (globally-committed
application iterations per hour of stream makespan), and makespan
inflation relative to the fault-free stream of the same mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.apps import get_app
from repro.cluster import Cluster
from repro.experiments.common import format_table
from repro.faults import FaultInjector, FaultSchedule, RetryPolicy
from repro.monitoring import MetricService
from repro.scheduling import JobScheduler, RoundRobin
from repro.units import HOUR

#: fault kinds the sweep injects; ``node_crash`` (the only lethal kind)
#: appears twice to double its draw weight, so moderate rates already
#: exercise the kill/requeue path rather than only hangs and slowdowns
SWEEP_KINDS = ("node_crash", "node_crash", "node_hang", "slowdown")


@dataclass(frozen=True)
class FaultsRow:
    """One (fault rate, mode) cell of the sweep."""

    rate_per_ks: float  # injected faults per 1000 simulated seconds
    mode: str  # "no-ckpt" or "ckpt"
    n_faults: int
    succeeded: int
    n_jobs: int
    requeues: int
    goodput: float  # committed iterations per hour of makespan
    makespan: float
    inflation: float  # makespan / same-mode fault-free makespan

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.n_jobs


@dataclass
class FaultsResult:
    """Rendered by ``repro submit ext_faults``."""

    seed: int
    rows: list[FaultsRow]
    config: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        table_rows = []
        for r in self.rows:
            table_rows.append(
                (
                    r.rate_per_ks,
                    r.mode,
                    r.n_faults,
                    f"{r.succeeded}/{r.n_jobs}",
                    r.success_rate,
                    r.requeues,
                    r.goodput,
                    r.makespan,
                    r.inflation,
                )
            )
        return format_table(
            [
                "faults/1000s",
                "mode",
                "injected",
                "jobs ok",
                "success",
                "requeues",
                "goodput (it/h)",
                "makespan (s)",
                "inflation",
            ],
            table_rows,
            title=f"Extension: resilience under fault injection (seed {self.seed})",
        )

    def success_rates(self, mode: str) -> list[float]:
        """Per-rate success rates of one mode, in rate order."""
        return [r.success_rate for r in self.rows if r.mode == mode]


def _run_stream(
    seed: int,
    rate_per_ks: float,
    checkpointing: bool,
    n_jobs: int,
    iterations: int,
    horizon: float,
) -> tuple[int, int, float, float, int]:
    """One job stream under one fault schedule; returns the cell metrics.

    Both modes of a rate share the fault schedule (the scope key excludes
    the mode), so the comparison is paired: identical faults, different
    resilience machinery.
    """
    cluster = Cluster.voltrino(num_nodes=8)
    injector = FaultInjector(cluster)
    schedule = FaultSchedule.generate(
        seed,
        horizon=horizon,
        nodes=cluster.node_names,
        rate=rate_per_ks / 1000.0,
        kinds=SWEEP_KINDS,
        scope=f"ext-faults:rate{rate_per_ks:g}",
    )
    injector.extend(schedule)
    injector.deploy()
    service = MetricService(cluster)
    service.attach(end=10_000_000)
    cluster.sim.run(until=60)  # monitoring warm-up before the first allocation

    scheduler = JobScheduler(cluster, service)
    policy = RoundRobin()
    retry = (
        RetryPolicy(base_delay=5.0, factor=2.0, jitter=0.25, max_retries=8)
        if checkpointing
        else None
    )
    t0 = cluster.sim.now
    jobs = []
    for j in range(n_jobs):
        app = get_app("sw4lite").scaled(iterations=iterations)
        jobs.append(
            scheduler.submit_managed(
                app,
                policy,
                n_nodes=2,
                ranks_per_node=4,
                seed=seed * 1000 + j,
                retry=retry,
                checkpoint_interval=5 if checkpointing else None,
                checkpoint_cost=0.5 if checkpointing else 0.0,
                index=j,
            )
        )
        # Two 2-node jobs fit side by side on 8 nodes with headroom for
        # requeues around crashed nodes; run the stream as pairs.
        if j % 2 == 1:
            cluster.sim.run(
                until=cluster.sim.now + 10_000_000,
                stop_when=lambda: all(m.settled for m in jobs),
            )
    cluster.sim.run(
        until=cluster.sim.now + 10_000_000,
        stop_when=lambda: all(m.settled for m in jobs),
    )
    service.detach()
    succeeded = sum(1 for m in jobs if m.done)
    requeues = sum(m.requeues for m in jobs)
    iterations_done = sum(m.iterations_done for m in jobs)
    makespan = max(m.finished_at for m in jobs if m.finished_at is not None) - t0
    return succeeded, requeues, iterations_done, makespan, len(schedule)


def run_ext_faults(
    seed: int = 1,
    rates: tuple[float, ...] = (8.0, 15.0),
    n_jobs: int = 6,
    iterations: int = 40,
    horizon: float = 600.0,
) -> FaultsResult:
    """Sweep fault rates; run each schedule with and without checkpointing.

    ``rates`` are in faults per 1000 simulated seconds across the whole
    8-node system.  Rate 0 provides the fault-free makespan baseline that
    the inflation column is computed against (per mode, since
    checkpointing itself costs a little time).
    """
    rates = (0.0,) + tuple(r for r in rates if r > 0.0)
    rows: list[FaultsRow] = []
    baseline: dict[str, float] = {}
    for rate in rates:
        for mode, checkpointing in (("no-ckpt", False), ("ckpt", True)):
            succeeded, requeues, iters, makespan, n_faults = _run_stream(
                seed, rate, checkpointing, n_jobs, iterations, horizon
            )
            if rate <= 0.0:
                baseline[mode] = makespan
            inflation = makespan / baseline[mode] if baseline.get(mode) else math.nan
            rows.append(
                FaultsRow(
                    rate_per_ks=rate,
                    mode=mode,
                    n_faults=n_faults,
                    succeeded=succeeded,
                    n_jobs=n_jobs,
                    requeues=requeues,
                    goodput=iters * HOUR / makespan if makespan > 0 else 0.0,
                    makespan=makespan,
                    inflation=inflation,
                )
            )
    return FaultsResult(
        seed=seed,
        rows=rows,
        config={
            "rates_per_ks": list(rates),
            "n_jobs": n_jobs,
            "iterations": iterations,
            "horizon": horizon,
            "kinds": list(SWEEP_KINDS),
        },
    )
