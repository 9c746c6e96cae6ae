"""Seeded property-fuzz generators for simulator scenarios.

No new dependencies: all randomness flows through
:func:`repro.sim.rng.spawn_rng`, so the case derived from ``(seed, id)``
is the same on every machine and every run.  A :class:`CaseSpec` is a
frozen, picklable value object — the fuzz harness ships specs to worker
processes, writes them to the pinned corpus as JSON, and shrinks them by
halving fields — and every node reference is an *index* (taken modulo the
case's node count), so shrinking the cluster never invalidates a spec.

Cases are deliberately tiny (2-4 nodes, 3-6 iterations, 1-2 ranks per
node): the harness runs each case several times through paired code
paths, and small cases shrink to readable counterexamples.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Iterator

from repro.apps.base import AppJob
from repro.apps.registry import get_app
from repro.cluster.cluster import Cluster
from repro.core.anomaly import make_anomaly
from repro.errors import CheckError
from repro.faults.injector import FaultInjector
from repro.sim.rng import spawn_rng
from repro.units import MB

#: machine flavours a case may target; I/O anomalies need the NFS
#: appliance, so they are only generated on chameleon.
MACHINES = ("voltrino", "chameleon")

#: proxy apps drawn for job mixes (a spread of compute/memory/network
#: intensity; iterations are overridden per case so any choice is cheap)
APP_POOL = ("miniMD", "CoMD", "miniGhost", "milc")

#: anomalies available on every machine
ANOMALY_POOL = ("cpuoccupy", "cachecopy", "membw", "memeater", "netoccupy")

#: anomalies that additionally need a shared filesystem
IO_ANOMALY_POOL = ("iobandwidth", "iometadata")

#: non-lethal fault kinds (crashes would make the checkpoint and
#: incremental oracles trivially diverge on job-kill ordering; lethal
#: faults get their own dedicated tests)
FAULT_POOL = ("slowdown", "link_down")


@dataclass(frozen=True)
class AppCase:
    """One application job in a case's mix."""

    app: str
    first_node: int  # index into the case's nodes, modulo n_nodes
    n_nodes: int  # nodes the job spans
    ranks_per_node: int
    iterations: int
    start: float


@dataclass(frozen=True)
class AnomalyCase:
    """One anomaly injection."""

    name: str
    node: int  # index modulo the case's n_nodes
    core: int
    start: float
    duration: float
    knobs: tuple[tuple[str, float], ...] = ()
    peer: int | None = None  # netoccupy destination, index modulo n_nodes


@dataclass(frozen=True)
class FaultCase:
    """One fault window."""

    kind: str
    node: int  # index modulo the case's n_nodes
    start: float
    duration: float
    factor: float = 0.5


@dataclass(frozen=True)
class CaseSpec:
    """A complete, self-contained fuzz scenario."""

    case_id: int
    seed: int
    machine: str
    n_nodes: int
    k_paths: int
    apps: tuple[AppCase, ...]
    anomalies: tuple[AnomalyCase, ...]
    faults: tuple[FaultCase, ...]
    horizon: float

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"case {self.case_id} (seed={self.seed}): {self.machine} "
            f"x{self.n_nodes} k={self.k_paths} apps="
            f"[{', '.join(f'{a.app}/{a.iterations}it' for a in self.apps)}] "
            f"anomalies=[{', '.join(a.name for a in self.anomalies)}] "
            f"faults=[{', '.join(f.kind for f in self.faults)}]"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CaseSpec":
        try:
            return cls(
                case_id=int(data["case_id"]),
                seed=int(data["seed"]),
                machine=str(data["machine"]),
                n_nodes=int(data["n_nodes"]),
                k_paths=int(data["k_paths"]),
                apps=tuple(AppCase(**a) for a in data["apps"]),
                anomalies=tuple(
                    AnomalyCase(
                        **{
                            **a,
                            "knobs": tuple(
                                (str(k), float(v)) for k, v in a.get("knobs", ())
                            ),
                        }
                    )
                    for a in data["anomalies"]
                ),
                faults=tuple(FaultCase(**f) for f in data["faults"]),
                horizon=float(data["horizon"]),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise CheckError(f"malformed case spec: {err}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CaseSpec":
        return cls.from_dict(json.loads(text))


# -- generation ---------------------------------------------------------------


def _round(value: float, digits: int = 3) -> float:
    """Keep generated floats short so specs stay readable and JSON-stable."""
    return round(float(value), digits)


def generate_case(seed: int, case_id: int) -> CaseSpec:
    """Derive one deterministic case from ``(seed, case_id)``."""
    rng = spawn_rng(seed, f"check:case{case_id}")
    machine = MACHINES[int(rng.integers(0, len(MACHINES)))]
    n_nodes = int(rng.integers(2, 5))
    k_paths = int(rng.integers(1, 4)) if machine == "voltrino" else 1

    apps = []
    for i in range(int(rng.integers(1, 3))):
        apps.append(
            AppCase(
                app=APP_POOL[int(rng.integers(0, len(APP_POOL)))],
                first_node=int(rng.integers(0, n_nodes)),
                n_nodes=int(rng.integers(1, n_nodes + 1)),
                ranks_per_node=int(rng.integers(1, 3)),
                iterations=int(rng.integers(3, 7)),
                start=_round(rng.uniform(0.0, 2.0)),
            )
        )

    pool = ANOMALY_POOL + (IO_ANOMALY_POOL if machine == "chameleon" else ())
    anomalies = []
    for i in range(int(rng.integers(0, 3))):
        name = pool[int(rng.integers(0, len(pool)))]
        node = int(rng.integers(0, n_nodes))
        knobs: tuple[tuple[str, float], ...] = ()
        peer = None
        if name == "cpuoccupy":
            knobs = (("utilization", _round(rng.uniform(40.0, 100.0))),)
        elif name == "cachecopy":
            knobs = (("multiplier", _round(rng.uniform(0.5, 2.0))),)
        elif name == "membw":
            knobs = (("rate", _round(rng.uniform(0.5, 1.0))),)
        elif name == "memeater":
            knobs = (
                ("buffer_size", float(8 * MB)),
                ("total_size", _round(rng.uniform(64.0, 256.0)) * MB),
            )
        elif name == "netoccupy":
            knobs = (("rate", _round(rng.uniform(0.5, 1.0))),)
            peer = (node + 1 + int(rng.integers(0, max(1, n_nodes - 1)))) % n_nodes
        elif name == "iobandwidth":
            knobs = (("demand_bw", _round(rng.uniform(10.0, 50.0)) * MB),)
        elif name == "iometadata":
            knobs = (("rate", _round(rng.uniform(50.0, 200.0))),)
        anomalies.append(
            AnomalyCase(
                name=name,
                node=node,
                core=int(rng.integers(0, 2)),
                start=_round(rng.uniform(0.5, 5.0)),
                duration=_round(rng.uniform(5.0, 25.0)),
                knobs=knobs,
                peer=peer,
            )
        )

    faults = []
    for i in range(int(rng.integers(0, 3))):
        kind = FAULT_POOL[int(rng.integers(0, len(FAULT_POOL)))]
        faults.append(
            FaultCase(
                kind=kind,
                node=int(rng.integers(0, n_nodes)),
                start=_round(rng.uniform(1.0, 10.0)),
                duration=_round(rng.uniform(2.0, 10.0)),
                factor=_round(rng.uniform(0.3, 0.8)) if kind == "slowdown" else 0.0,
            )
        )

    return CaseSpec(
        case_id=case_id,
        seed=seed,
        machine=machine,
        n_nodes=n_nodes,
        k_paths=k_paths,
        apps=tuple(apps),
        anomalies=tuple(anomalies),
        faults=tuple(faults),
        horizon=300.0,
    )


def generate_cases(n: int, seed: int) -> list[CaseSpec]:
    """The first ``n`` cases of the stream derived from ``seed``."""
    if n < 0:
        raise CheckError("case count must be >= 0")
    return [generate_case(seed, i) for i in range(n)]


# -- materialisation ----------------------------------------------------------


def build_cluster(spec: CaseSpec) -> Cluster:
    """A fresh cluster matching the spec's machine flavour."""
    if spec.machine == "voltrino":
        return Cluster.voltrino(num_nodes=spec.n_nodes, k_paths=spec.k_paths)
    if spec.machine == "chameleon":
        return Cluster.chameleon(num_nodes=spec.n_nodes, k_paths=spec.k_paths)
    raise CheckError(f"unknown machine flavour {spec.machine!r}")


def deploy_case(spec: CaseSpec, cluster: Cluster) -> list[AppJob]:
    """Spawn the spec's jobs, anomalies, and faults onto ``cluster``."""
    jobs = []
    for i, app_case in enumerate(spec.apps):
        app = get_app(app_case.app).scaled(iterations=app_case.iterations)
        span = min(app_case.n_nodes, spec.n_nodes)
        nodes = [
            (app_case.first_node + j) % spec.n_nodes for j in range(span)
        ]
        jobs.append(
            AppJob(
                app,
                cluster,
                nodes=nodes,
                ranks_per_node=app_case.ranks_per_node,
                start=app_case.start,
                seed=spec.seed + i,
            )
        )
        jobs[-1].launch()
    for anomaly_case in spec.anomalies:
        knobs = dict(anomaly_case.knobs)
        if anomaly_case.peer is not None:
            node_idx = anomaly_case.node % spec.n_nodes
            peer_idx = anomaly_case.peer % spec.n_nodes
            if peer_idx == node_idx:
                # Shrinking the node count can fold peer onto source;
                # a self-flow is meaningless, so step to the neighbour.
                peer_idx = (peer_idx + 1) % spec.n_nodes
            knobs["peer"] = f"node{peer_idx}"
        anomaly = make_anomaly(
            anomaly_case.name, duration=anomaly_case.duration, **knobs
        )
        anomaly.launch(
            cluster,
            node=anomaly_case.node % spec.n_nodes,
            core=anomaly_case.core,
            start=anomaly_case.start,
        )
    if spec.faults:
        injector = FaultInjector(cluster)
        for fault_case in spec.faults:
            knobs = {}
            if fault_case.kind == "slowdown":
                knobs["factor"] = fault_case.factor
            injector.add(
                fault_case.start,
                f"node{fault_case.node % spec.n_nodes}",
                fault_case.kind,
                duration=fault_case.duration,
                **knobs,
            )
        injector.deploy()
    return jobs


# -- shrinking ----------------------------------------------------------------


def shrink_candidates(spec: CaseSpec) -> Iterator[CaseSpec]:
    """Strictly-smaller variants of ``spec``, most aggressive first.

    Each candidate halves one axis: drop half the anomalies, faults, or
    apps; halve iterations and ranks; halve the node count.  Node indices
    are stored modulo ``n_nodes``, so every candidate is well-formed.
    """
    if len(spec.anomalies) > 0:
        yield replace(spec, anomalies=spec.anomalies[: len(spec.anomalies) // 2])
    if len(spec.faults) > 0:
        yield replace(spec, faults=spec.faults[: len(spec.faults) // 2])
    if len(spec.apps) > 1:
        yield replace(spec, apps=spec.apps[: len(spec.apps) // 2])
    if any(a.iterations > 1 for a in spec.apps):
        yield replace(
            spec,
            apps=tuple(
                replace(a, iterations=max(1, a.iterations // 2)) for a in spec.apps
            ),
        )
    if any(a.ranks_per_node > 1 for a in spec.apps):
        yield replace(
            spec,
            apps=tuple(
                replace(a, ranks_per_node=max(1, a.ranks_per_node // 2))
                for a in spec.apps
            ),
        )
    if spec.n_nodes > 2:
        # Never below 2 nodes: single-node topologies have no network
        # stage, and netoccupy peers must differ from their source.
        yield replace(spec, n_nodes=max(2, spec.n_nodes // 2))
