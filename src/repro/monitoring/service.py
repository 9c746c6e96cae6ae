"""The metric collection service (LDMS aggregator analogue).

Attach a :class:`MetricService` to a cluster and it samples every node at a
fixed interval (1 Hz by default, like Voltrino's LDMS configuration),
storing time series it can hand to the analytics pipeline::

    svc = MetricService(cluster)
    svc.attach()
    cluster.sim.run(until=600)
    util = svc.series("node0", "user::procstat")
"""

from __future__ import annotations

import difflib
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ConfigError
from repro.monitoring.samplers import Sampler, default_samplers
from repro.sim.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.stream import ObsSink


class MetricService:
    """Samples node counters periodically and stores named time series."""

    def __init__(
        self,
        cluster: Cluster,
        interval: float = 1.0,
        samplers: list[Sampler] | None = None,
        noise: float = 0.0,
        seed: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError("sampling interval must be positive")
        if noise < 0:
            raise ConfigError("noise must be >= 0")
        self.cluster = cluster
        self.interval = interval
        self.samplers = samplers if samplers is not None else default_samplers()
        #: relative multiplicative measurement noise (sampling jitter,
        #: counter-read skew); deterministic per (seed, node, metric)
        self.noise = noise
        self._rng = spawn_rng(seed, "metric-service")
        self.times: list[float] = []
        #: node -> metric -> list of values (aligned with ``times``)
        self.data: dict[str, dict[str, list[float]]] = {
            name: {} for name in cluster.nodes
        }
        # When every sampler declares the counters it reads, per-tick
        # deltas cover only their union; a single None falls back to
        # delta-ing every counter on the node.
        keys: set[str] | None = set()
        for sampler in self.samplers:
            declared = sampler.counter_keys()
            if declared is None:
                keys = None
                break
            keys.update(declared)
        self._delta_keys: tuple[str, ...] | None = (
            None if keys is None else tuple(sorted(keys))
        )
        if self._delta_keys is None:
            self._last_counters = {
                name: dict(node.counters) for name, node in cluster.nodes.items()
            }
        else:
            self._last_counters = {
                name: {
                    key: node.counters.get(key, 0.0) for key in self._delta_keys
                }
                for name, node in cluster.nodes.items()
            }
        self._last_time: float | None = None
        self._handle = None
        #: sink -> the node it is registered for (``None``: every node)
        self._sinks: dict["ObsSink", str | None] = {}
        #: node -> the sinks its samples go to, rebuilt on (un)registering
        self._routes: dict[str, list["ObsSink"]] = {name: [] for name in self.data}

    # -- streaming sinks -------------------------------------------------------

    def add_sink(self, sink: "ObsSink", node: str | None = None) -> None:
        """Register a streaming sink notified at every sampling tick.

        With ``node`` the sink receives only that node's samples (a
        per-node metric writer); without it, every node's.
        """
        if sink in self._sinks:
            raise ConfigError("sink is already registered")
        if node is not None and node not in self.data:
            raise ConfigError(f"unknown node {node!r}")
        self._sinks[sink] = node
        self._reroute()

    def remove_sink(self, sink: "ObsSink") -> None:
        """Unregister a previously added sink."""
        try:
            del self._sinks[sink]
        except KeyError:
            raise ConfigError("sink is not registered") from None
        self._reroute()

    def _reroute(self) -> None:
        self._routes = {
            name: [sink for sink, node in self._sinks.items() if node in (None, name)]
            for name in self.data
        }

    @property
    def sinks(self) -> tuple["ObsSink", ...]:
        return tuple(self._sinks)

    # -- collection -----------------------------------------------------------

    def attach(self, start: float | None = None, end: float = float("inf")) -> None:
        """Begin sampling on the cluster's simulator."""
        if self._handle is not None:
            raise ConfigError("metric service already attached")
        self._handle = self.cluster.sim.every(self.interval, self._tick, start=start, end=end)

    def detach(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def attached(self) -> bool:
        """Whether the service is currently sampling."""
        return self._handle is not None

    def _tick(self, now: float) -> None:
        dt = self.interval if self._last_time is None else now - self._last_time
        if dt <= 0:
            return
        with self.cluster.sim.stats.timer("monitoring"):
            self._sample(now, dt)
        self._last_time = now

    def _sample(self, now: float, dt: float) -> None:
        # Integrate background OS activity before reading the counters so
        # `sys::procstat` shows the jitter floor.
        self.cluster.model.accrue_background(dt)
        self.times.append(now)
        keys = self._delta_keys
        routes = self._routes
        for name, node in self.cluster.nodes.items():
            last = self._last_counters[name]
            counters = node.counters
            if keys is None:
                current = {key: counters.get(key, 0.0) for key in counters}
            else:
                current = {key: counters.get(key, 0.0) for key in keys}
            delta = {
                key: value - last.get(key, 0.0) for key, value in current.items()
            }
            self._last_counters[name] = current
            store = self.data[name]
            sinks = routes[name]
            tick_values: dict[str, float] | None = {} if sinks else None
            for sampler in self.samplers:
                values = sampler.sample(node, delta, dt)
                for raw, value in values.items():
                    if self.noise > 0 and not sampler.gauge:
                        value *= 1.0 + self.noise * float(self._rng.standard_normal())
                    metric = f"{raw}::{sampler.name}"
                    store.setdefault(metric, []).append(value)
                    if tick_values is not None:
                        tick_values[metric] = value
            if tick_values is not None:
                with self.cluster.sim.stats.timer("obs"):
                    for sink in sinks:
                        sink.on_metric_sample(now, name, tick_values)

    # -- access --------------------------------------------------------------

    @property
    def metric_names(self) -> list[str]:
        names: list[str] = []
        for sampler in self.samplers:
            names.extend(sampler.metric_names())
        return names

    def series(self, node: str | int, metric: str) -> np.ndarray:
        """Time series of one metric on one node."""
        name = f"node{node}" if isinstance(node, int) else node
        try:
            store = self.data[name]
        except KeyError:
            known = ", ".join(sorted(self.data))
            close = difflib.get_close_matches(name, sorted(self.data), n=3)
            hint = (
                f" — did you mean {', '.join(repr(c) for c in close)}?"
                if close
                else ""
            )
            raise ConfigError(
                f"unknown node {name!r} (known nodes: {known}){hint}"
            ) from None
        try:
            return np.asarray(store[metric], dtype=float)
        except KeyError:
            available = sorted(store)
            close = difflib.get_close_matches(metric, available, n=3)
            if close:
                hint = f"did you mean {', '.join(repr(c) for c in close)}?"
            elif available:
                hint = f"available: {', '.join(available)}"
            else:
                hint = "no samples collected yet (is the service attached?)"
            raise ConfigError(
                f"no series for {metric!r} on {name!r} — {hint}"
            ) from None

    def timestamps(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def matrix(self, node: str | int, metrics: list[str] | None = None) -> np.ndarray:
        """Stack several metrics into a (T, M) array for analytics."""
        metrics = metrics if metrics is not None else self.metric_names
        cols = [self.series(node, m) for m in metrics]
        return np.column_stack(cols) if cols else np.empty((0, 0))
