"""Extension: anomalies, and faults, composed on one traceable cluster.

Two registry jobs run the whole stack at once, so one trace of either
shows every subsystem interacting (``repro trace mixed``, ``repro
report fault_recovery``):

``mixed``
    A 6-node Chameleon-like cluster (star network + NFS appliance) where
    a scheduler places a miniGhost job by WBAS while four anomalies —
    cpuoccupy, membw, iometadata, netoccupy — pulse through staggered
    injection windows.  Spans from the engine, injector, scheduler, MPI
    barrier layer and the filesystem land in one timeline.
``fault_recovery``
    cpuoccupy and iometadata run their windows while a fault campaign
    crashes a node, slows another, drops a NIC and browns out the
    metadata server, and a checkpointing managed job requeues its way
    through.  Every fault window is a ``faults`` span next to the
    injector, scheduler and ``recovered:`` events.  (``ext_faults`` is
    the resilience *sweep*; this is one traced run.)

Both runners build their own metric service, since WBAS reads it, and
compute their result tables from the cluster, the injectors and the
scheduler only.  A traced run adopts that service (see
:func:`repro.obs.observability.observe`), so its artefacts are
byte-identical to an untraced run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.apps import get_app
from repro.cluster import Cluster
from repro.core import AnomalyInjector, CpuOccupy, Injection, IOMetadata, MemBw, NetOccupy
from repro.errors import ConfigError
from repro.experiments.common import format_table
from repro.faults import FaultInjector, RetryPolicy
from repro.monitoring import MetricService
from repro.obs.manifest import injection_labels
from repro.obs.observability import ObsHook, observe
from repro.scheduling import JobScheduler, WellBalancedAllocation

#: the job both runs submit through the scheduler, and when: after a
#: couple of monitoring samples exist (WBAS reads them)
APP = "miniGhost"
SUBMIT_AT = 2.5


@dataclass
class _StackResult:
    title: str
    #: (kind, name, node, start, end) per anomaly or fault window
    windows: list[tuple[object, ...]]
    lines: list[str]
    seed: int | None = None
    config: dict = field(default_factory=dict)

    def render(self) -> str:
        table = format_table(
            ["kind", "name", "node", "start", "end"], self.windows, title=self.title
        )
        return "\n".join([table, *self.lines])


class MixedResult(_StackResult):
    pass


class FaultRecoveryResult(_StackResult):
    pass


def _chameleon(
    horizon: float,
    on_obs: ObsHook | None,
    injections: Callable[[float], Sequence[Injection]],
) -> tuple[Cluster, MetricService, AnomalyInjector]:
    """The 6-node NFS cluster, its sampling service and the anomalies
    ``injections(horizon)`` deployed on it."""
    if horizon <= SUBMIT_AT:
        raise ConfigError(
            f"horizon must exceed the job's submit time ({SUBMIT_AT:g} s), "
            f"got {horizon!r}"
        )
    cluster = Cluster.chameleon(num_nodes=6, with_nfs=True)
    service = MetricService(cluster)
    service.attach(end=horizon)
    observe(cluster, on_obs, service)
    injector = AnomalyInjector(cluster)
    for injection in injections(horizon):
        injector.add(injection)
    injector.deploy()
    return cluster, service, injector


def _anomaly_windows(injector: AnomalyInjector) -> list[tuple[object, ...]]:
    return [
        ("anomaly", i.anomaly.name, str(i.node), i.start, i.start + i.duration)
        for i in injector.injections
    ]


def _config(horizon: float, injector: AnomalyInjector) -> dict[str, object]:
    return {
        "cluster": "chameleon",
        "nodes": 6,
        "filesystem": "nfs",
        "app": APP,
        "policy": "WBAS",
        "horizon": horizon,
        "injections": injection_labels(injector),
    }


def run_mixed(
    seed: int = 0, horizon: float = 120.0, on_obs: ObsHook | None = None
) -> MixedResult:
    """miniGhost placed by WBAS under four staggered anomalies."""
    cluster, service, injector = _chameleon(
        horizon,
        on_obs,
        lambda h: [
            Injection(CpuOccupy(utilization=80), node="node1", core=0,
                      start=5.0, duration=0.5 * h),
            Injection(MemBw(), node="node2", core=4, start=0.2 * h, duration=0.3 * h),
            Injection(IOMetadata(rate=2000.0), node="node3", core=0,
                      start=10.0, duration=0.6 * h),
            Injection(NetOccupy(peer="node5"), node="node4", core=1,
                      start=0.3 * h, duration=0.25 * h),
        ],
    )
    scheduler = JobScheduler(cluster, service)
    app = get_app(APP).scaled(iterations=12)
    submitted = []

    def submit() -> None:
        submitted.append(
            scheduler.submit(
                app, WellBalancedAllocation(), n_nodes=2, ranks_per_node=2, seed=seed
            )
        )

    cluster.sim.schedule(SUBMIT_AT, submit)
    cluster.sim.run(until=horizon)
    ((allocation, job),) = submitted
    runtime = (
        f"runtime {job.runtime():.6f} s" if job.finished else "unfinished at the horizon"
    )
    lines = [
        f"allocation: {allocation.policy} -> {' '.join(allocation.nodes)}",
        f"job: {APP}, {len(job.procs)} ranks, {runtime}",
    ]
    return MixedResult(
        title=f"Extension: mixed anomalies — {APP} under WBAS, 6-node Chameleon with NFS",
        windows=_anomaly_windows(injector),
        lines=lines,
        seed=seed,
        config=_config(horizon, injector),
    )


def run_fault_recovery(
    seed: int = 0, horizon: float = 120.0, on_obs: ObsHook | None = None
) -> FaultRecoveryResult:
    """A checkpointing managed job riding out anomalies and a fault campaign."""
    cluster, service, injector = _chameleon(
        horizon,
        on_obs,
        lambda h: [
            Injection(CpuOccupy(utilization=80), node="node1", core=0,
                      start=5.0, duration=0.5 * h),
            Injection(IOMetadata(rate=2000.0), node="node3", core=0,
                      start=10.0, duration=0.4 * h),
        ],
    )
    faults = FaultInjector(cluster)
    faults.add(0.25 * horizon, "node2", "node_crash", duration=0.2 * horizon)
    faults.add(0.35 * horizon, "node4", "slowdown", duration=0.2 * horizon, factor=0.4)
    faults.add(0.5 * horizon, "node5", "link_down", duration=0.15 * horizon)
    faults.add(0.6 * horizon, "node0", "meta_brownout", duration=0.2 * horizon, factor=0.2)
    faults.deploy()

    scheduler = JobScheduler(cluster, service)
    app = get_app(APP).scaled(iterations=16)
    submitted = []

    def submit() -> None:
        submitted.append(
            scheduler.submit_managed(
                app,
                WellBalancedAllocation(),
                n_nodes=2,
                ranks_per_node=2,
                seed=seed,
                retry=RetryPolicy(base_delay=2.0, max_retries=6),
                checkpoint_interval=4,
                checkpoint_cost=0.2,
            )
        )

    cluster.sim.schedule(SUBMIT_AT, submit)
    cluster.sim.run(until=horizon)
    windows = _anomaly_windows(injector) + [
        ("fault", event.fault.name, event.node, event.time, event.time + event.duration)
        for event in faults.schedule.events
    ]
    (managed,) = submitted
    outcome = (
        f"makespan {managed.makespan():.6f} s" if managed.settled
        else "unsettled at the horizon"
    )
    lines = [
        f"job: {APP} (checkpoint every 4 iterations), {managed.state} after "
        f"{managed.attempts} attempt(s), {managed.requeues} requeue(s), "
        f"{managed.iterations_done:g} rank-iterations, {outcome}"
    ]
    config = _config(horizon, injector)
    config["faults"] = len(faults.schedule)
    config["checkpoint_interval"] = 4
    return FaultRecoveryResult(
        title=f"Extension: fault recovery — managed {APP} under anomalies and faults",
        windows=windows,
        lines=lines,
        seed=seed,
        config=config,
    )
