"""Predefined injection campaigns.

The paper argues standardized scenarios make research comparable.  This
module provides named, parameterised campaigns built on the injector:

``random_campaign``
    A seeded random schedule of anomalies across a cluster — the kind of
    labelled chaos used to train/evaluate diagnosis pipelines at scale.
``periodic``
    One anomaly pulsing on/off, the on/off interference pattern of
    Kuo et al. that the paper cites as composable with HPAS knobs.
"""

from __future__ import annotations

import math

from repro.cluster.cluster import Cluster
from repro.core.anomaly import ANOMALY_REGISTRY, make_anomaly
from repro.core.injector import AnomalyInjector, Injection
from repro.errors import AnomalyError
from repro.sim.rng import spawn_rng

#: anomalies eligible for random campaigns (single-node, self-contained)
CAMPAIGN_ANOMALIES = (
    "cpuoccupy",
    "cachecopy",
    "membw",
    "memeater",
    "memleak",
)


def random_campaign(
    cluster: Cluster,
    duration: float,
    events: int = 10,
    seed: int | None = None,
    anomalies: tuple[str, ...] = CAMPAIGN_ANOMALIES,
) -> AnomalyInjector:
    """Schedule ``events`` random anomaly windows over ``duration``.

    Every event picks an anomaly type, node, core, start, and window
    length from a seeded stream, giving reproducible labelled chaos.
    """
    if duration <= 0 or events < 1:
        raise AnomalyError("duration > 0 and events >= 1 required")
    unknown = set(anomalies) - set(ANOMALY_REGISTRY)
    if unknown:
        raise AnomalyError(f"unknown anomalies: {sorted(unknown)}")
    rng = spawn_rng(seed, "random-campaign")
    injector = AnomalyInjector(cluster)
    node_names = cluster.node_names
    for _ in range(events):
        name = anomalies[int(rng.integers(0, len(anomalies)))]
        node = node_names[int(rng.integers(0, len(node_names)))]
        core = int(rng.integers(0, cluster.spec.logical_cores))
        start = float(rng.uniform(0.0, duration * 0.8))
        window = float(rng.uniform(duration * 0.1, duration * 0.4))
        injector.add(
            Injection(
                make_anomaly(name), node=node, core=core, start=start, duration=window
            )
        )
    injector.deploy()
    return injector


def periodic(
    cluster: Cluster,
    anomaly: str,
    node: str | int,
    core: int,
    period: float,
    duty: float = 0.5,
    cycles: int = 10,
    start: float = 0.0,
    **knobs,
) -> AnomalyInjector:
    """Pulse one anomaly on/off: ``duty`` of each ``period`` is active."""
    if period <= 0 or not 0.0 < duty < 1.0 or cycles < 1:
        raise AnomalyError("need period > 0, duty in (0,1), cycles >= 1")
    injector = AnomalyInjector(cluster)
    for cycle in range(cycles):
        injector.add(
            Injection(
                make_anomaly(anomaly, **knobs),
                node=node,
                core=core,
                start=start + cycle * period,
                duration=period * duty,
            )
        )
    injector.deploy()
    return injector


def total_injected_time(injector: AnomalyInjector, horizon: float = math.inf) -> float:
    """Sum of anomaly-active seconds across a campaign (for reporting)."""
    total = 0.0
    for injection in injector.injections:
        end = min(injection.start + injection.duration, horizon)
        total += max(0.0, end - injection.start)
    return total
