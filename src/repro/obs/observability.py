"""The unified telemetry handle: metrics + counters + spans, one object.

:class:`Observability` bundles the three telemetry surfaces a run has —

* the engine's deterministic :class:`~repro.sim.stats.SimStats` counters,
* the LDMS-style :class:`~repro.monitoring.service.MetricService` series,
* the :class:`~repro.obs.spans.SpanCollector` span/event timeline —

behind one attach/detach pair, and knows how to export them (Chrome trace
JSON, JSONL, run manifests).  The CLI's ``--trace`` flag and the
``repro trace`` subcommand are thin wrappers over this class;
:func:`observe` is how a registry runner that declares ``on_obs``
attaches one to the cluster it builds.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import ObservabilityError
from repro.monitoring.service import MetricService
from repro.obs.export import write_chrome_trace, write_jsonl_trace
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.spans import SpanCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.core.injector import AnomalyInjector
    from repro.obs.stream import RunStreamer
    from repro.sim.stats import SimStats

TRACE_FORMATS = ("chrome", "jsonl")


class Observability:
    """Attach spans + metrics to a cluster and export what they saw.

    Parameters
    ----------
    cluster:
        The cluster to observe.
    service:
        An existing :class:`MetricService` to adopt, or ``None`` to create
        one at :meth:`attach` time.
    interval:
        Sampling interval for a service created by :meth:`attach`.
    collector:
        An existing :class:`SpanCollector` to adopt, or ``None`` for a
        fresh one.
    """

    def __init__(
        self,
        cluster: "Cluster",
        service: MetricService | None = None,
        interval: float = 1.0,
        collector: SpanCollector | None = None,
    ) -> None:
        self.cluster = cluster
        self.collector = collector if collector is not None else SpanCollector()
        self.service = service
        self.interval = interval
        self._streamers: list["RunStreamer"] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(
        self,
        start: float | None = None,
        end: float = math.inf,
        metrics: bool = True,
    ) -> "Observability":
        """Wire the collector into the simulator and every filesystem.

        ``metrics=True`` also attaches (creating if needed) the metric
        service; a service that is already sampling is left alone.
        Returns ``self`` so ``obs = Observability(c).attach()`` reads well.
        """
        self.collector.attach(self.cluster.sim)
        for fs in self.cluster.filesystems.values():
            fs.obs = self.collector
        if metrics:
            if self.service is None:
                self.service = MetricService(self.cluster, interval=self.interval)
            if not self.service.attached:
                self.service.attach(start=start, end=end)
        return self

    def detach(self) -> None:
        """Restore the zero-overhead state; collected data is kept."""
        self.collector.detach()
        for fs in self.cluster.filesystems.values():
            fs.obs = None
        if self.service is not None and self.service.attached:
            self.service.detach()

    # -- streaming ----------------------------------------------------------

    def stream_to(self, directory: str | Path, chrome: bool = False) -> "RunStreamer":
        """Stream this run into ``directory`` as it happens.

        Registers incremental writers (see :mod:`repro.obs.stream`) on the
        span collector and — when a metric service exists — on the metric
        service, so spans, samples and counters hit disk at their flush
        points instead of at the end of the run.  Call **after**
        :meth:`attach` so the per-node metric streams are known; call
        :meth:`close_streams` (or the streamer's ``close``) when the run
        ends to finalize open spans and seal the files.
        """
        from repro.obs.stream import RunStreamer

        streamer = RunStreamer(self, directory, chrome=chrome)
        self._streamers.append(streamer)
        return streamer

    def close_streams(self) -> list[Path]:
        """Close every active streamer; returns their run directories."""
        out: list[Path] = []
        for streamer in self._streamers:
            out.append(streamer.close())
        self._streamers.clear()
        return out

    @property
    def stats(self) -> "SimStats":
        """The engine's deterministic counter/timer block."""
        return self.cluster.sim.stats

    # -- unified views ------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """One dict across all three surfaces (counters, series, spans)."""
        snap: dict[str, object] = {
            "counters": dict(sorted(self.stats.counters.items())),
            "spans": self.collector.categories(),
            "instants": len(self.collector.instants),
        }
        if self.service is not None:
            snap["metrics"] = list(self.service.metric_names)
            snap["samples"] = len(self.service.times)
        return snap

    # -- exports ------------------------------------------------------------

    def write_trace(self, path: str | Path, fmt: str = "chrome") -> Path:
        """Finalize open spans and write the trace file."""
        if fmt not in TRACE_FORMATS:
            raise ObservabilityError(
                f"unknown trace format {fmt!r} (known: {', '.join(TRACE_FORMATS)})"
            )
        if self.collector.attached:
            self.collector.finalize()
        if fmt == "chrome":
            return write_chrome_trace(self.collector, path)
        return write_jsonl_trace(self.collector, path)

    def manifest(
        self,
        name: str,
        seed: int | None = None,
        config: Mapping[str, object] | None = None,
        injector: "AnomalyInjector | None" = None,
        results_text: str | None = None,
        extra: Mapping[str, object] | None = None,
    ) -> dict[str, object]:
        """Build a run manifest from everything this handle observed."""
        return build_manifest(
            name=name,
            seed=seed,
            config=config,
            stats=self.stats,
            injector=injector,
            service=self.service,
            results_text=results_text,
            extra=extra,
        )

    def write_manifest(self, path: str | Path, name: str, **kwargs) -> Path:
        """Build and write a manifest; see :meth:`manifest` for sections."""
        return write_manifest(path, self.manifest(name, **kwargs))


#: called with the attached handle *before* the run starts, early enough
#: for streaming writers to register their sinks
ObsHook = Callable[[Observability], None]


def observe(
    cluster: "Cluster",
    on_obs: ObsHook | None,
    service: MetricService | None = None,
) -> None:
    """Attach a handle for ``on_obs`` when a registry run is traced.

    The one rule every traceable runner follows: adopt the runner's own
    metric ``service`` when it has one, otherwise attach spans only.  A
    service the run did not have would split its accrue intervals at
    every sampling tick, moving per-process counters in the last bit and
    with them the result; spans alone change no simulated number.
    """
    if on_obs is not None:
        on_obs(Observability(cluster, service=service).attach(metrics=service is not None))


def trace_job(
    name: str,
    seed: int | None = None,
    overrides: Mapping[str, object] | None = None,
    on_obs: ObsHook | None = None,
) -> tuple[object, Observability]:
    """Run registry job ``name`` traced: its result and finalized handle.

    The request goes through the one run path (``normalize`` +
    ``run_request``), so a job that cannot be traced, or bad input, is
    a :class:`~repro.errors.ConfigError` before anything runs.
    ``on_obs`` sees the handle before the run, e.g. to stream it.
    """
    from repro.experiments.registry import get_experiment

    spec = get_experiment(name)
    request = spec.normalize(seed=seed, overrides=overrides)
    handles: list[Observability] = []

    def hook(obs: Observability) -> None:
        handles.append(obs)
        if on_obs is not None:
            on_obs(obs)

    result = spec.run_request(request, on_obs=hook)
    (obs,) = handles
    obs.collector.finalize()
    return result, obs
