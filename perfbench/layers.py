"""Outside-in per-layer attribution for the benchmark's traced run.

The program is not instrumented.  :class:`LayerTracer` replaces public
methods and functions of each layer with timing wrappers while the traced
phase runs and puts every original back afterwards.  Each call becomes one
in-memory span ``(name, start, end, parent, op)``; a layer's self time is
its spans' duration minus the part covered by their direct children.

Layer -> wrapped public surface (one span name per row):

========================  ==============================================
``sim.run``               ``Simulator.run``
``cluster.resolve``       ``type(cluster.model).resolve_incremental``
``cluster.accrue``        ``type(cluster.model).accrue``
``network.solve``         ``FlowSolver.solve``
``storage.solve``         ``SharedFilesystem.solve``
``monitoring.sample``     ``Sampler.sample`` of each default sampler
``obs.sink``              ObsSink callbacks, ``flush``/``close`` of the
                          stream writers, ``RunStreamer.close``
``traces.load``           ``load_trace``
``traces.generate``       ``generate_trace``
``traces.replay``         ``TraceReplayApp.run``
``service.queue``         ``JobQueue.submit``/``claim_next``/``complete``
``service.store_get``     ``ResultStore.get``
``service.store_put``     ``ResultStore.put``
``service.pool``          ``WorkerPool.run``
``service.fingerprint``   ``fingerprint_request``
``api.submit`` etc.       ``Client.submit``/``wait``/``result``
========================  ==============================================
"""

from __future__ import annotations

import json
import operator
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: the ObsSink callbacks a stream writer can receive
SINK_METHODS = (
    "on_span_open",
    "on_span_close",
    "on_instant",
    "on_metric_sample",
    "flush",
    "close",
)

#: per-layer metrics, in BENCHMARK.json order, with their units
LAYER_METRICS = {
    "sim.run.s": "s",
    "sim.self.s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "cluster.resolve.calls": "count",
    "cluster.resolve.s": "s",
    "cluster.resolve.self_s": "s",
    "cluster.accrue.calls": "count",
    "cluster.accrue.s": "s",
    "cluster.node_reuse_ratio": "ratio",
    "network.solve.calls": "count",
    "network.solve.s": "s",
    "network.memo_hit_ratio": "ratio",
    "storage.solve.calls": "count",
    "storage.solve.s": "s",
    "monitoring.sample.calls": "count",
    "monitoring.sample.s": "s",
    "obs.sink.calls": "count",
    "obs.sink.s": "s",
    "obs.bytes_written": "B",
    "traces.load.s": "s",
    "traces.bytes_read": "B",
    "traces.generate.s": "s",
    "service.queue.calls": "count",
    "service.queue.s": "s",
    "service.store_get.s": "s",
    "service.store_put.s": "s",
    "service.pool.self_s": "s",
    "service.hit_ratio": "ratio",
    "api.submit.s": "s",
    "api.result.s": "s",
    "unattributed.s": "s",
    "unattributed.pct": "%",
    "trace.overhead_pct": "%",
}

#: root span the benchmark opens around each operation
OP_SPAN = "op"


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    stack = [cls]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(current.__subclasses__())
    return sorted(set(out), key=lambda c: (c.__module__, c.__qualname__))


def default_targets() -> tuple[list[tuple[type, str, str]], list[tuple[Callable, str]]]:
    """The (class, attribute, span) methods and (function, span) functions.

    The rate-model class is whatever the default backend constructs, so
    the attribution follows the backend users get.
    """
    from repro.api import Client
    from repro.cluster import Cluster
    from repro.monitoring.samplers import default_samplers
    from repro.network.flows import FlowSolver
    from repro.obs.stream import ObsSink, RunStreamer
    from repro.service import JobQueue, ResultStore, WorkerPool, fingerprint_request
    from repro.sim.engine import Simulator
    from repro.storage.filesystem import SharedFilesystem
    from repro.traces.generators import generate_trace
    from repro.traces.replay import TraceReplayApp
    from repro.traces.schema import load_trace

    model_cls = type(Cluster.voltrino(num_nodes=2).model)
    methods: list[tuple[type, str, str]] = [
        (Simulator, "run", "sim.run"),
        (model_cls, "resolve_incremental", "cluster.resolve"),
        (model_cls, "accrue", "cluster.accrue"),
        (FlowSolver, "solve", "network.solve"),
        (SharedFilesystem, "solve", "storage.solve"),
    ]
    for sampler_cls in sorted({type(s) for s in default_samplers()}, key=lambda c: c.__name__):
        methods.append((sampler_cls, "sample", "monitoring.sample"))
    for sink_cls in _subclasses(ObsSink):
        for attr in SINK_METHODS:
            if attr in vars(sink_cls):
                methods.append((sink_cls, attr, "obs.sink"))
    methods += [
        (RunStreamer, "close", "obs.sink"),
        (TraceReplayApp, "run", "traces.replay"),
        (JobQueue, "submit", "service.queue"),
        (JobQueue, "claim_next", "service.queue"),
        (JobQueue, "complete", "service.queue"),
        (ResultStore, "get", "service.store_get"),
        (ResultStore, "put", "service.store_put"),
        (WorkerPool, "run", "service.pool"),
        (Client, "submit", "api.submit"),
        (Client, "wait", "api.wait"),
        (Client, "result", "api.result"),
    ]
    functions: list[tuple[Callable, str]] = [
        (load_trace, "traces.load"),
        (generate_trace, "traces.generate"),
        (fingerprint_request, "service.fingerprint"),
    ]
    return methods, functions


class LayerTracer:
    """Wraps layer entry points while installed; records spans in memory.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original attribute (also when the body raises).  Spans
    are kept in flat arrays rather than as Python objects, so recording
    them adds no work for the garbage collector.
    """

    def __init__(
        self,
        methods: Iterable[tuple[type, str, str]],
        functions: Iterable[tuple[Callable, str]],
    ) -> None:
        self.methods = list(methods)
        self.functions = list(functions)
        self.names: list[str] = [OP_SPAN]
        # One entry per span: name index, start, end, parent index or -1,
        # and the id of the operation it belongs to.
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        #: summed SimStats counter deltas of every wrapped Simulator.run
        self.counters: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: set[int] = set()
        #: (owner, attribute, had own attribute, original value)
        self._saved: list[tuple[object, str, bool, object]] = []

    # -- span recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        stack = self._stack
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ops.append(self.op)
        self.ends.append(-1.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        self._wrappers.add(id(wrapper))
        return wrapper

    def _sim_run(self, fn: Callable) -> Callable:
        timed = self.span("sim.run", fn)
        counters = self.counters

        def run(sim, *args, **kwargs):
            before = dict(sim.stats.counters)
            try:
                return timed(sim, *args, **kwargs)
            finally:
                for key, value in sim.stats.counters.items():
                    delta = value - before.get(key, 0)
                    if delta:
                        counters[key] = counters.get(key, 0) + delta

        run.__wrapped__ = fn  # type: ignore[attr-defined]
        self._wrappers.add(id(run))
        return run

    @contextmanager
    def op_span(self, op: int) -> Iterator[None]:
        """The benchmark's root span around one operation."""
        self.op = op
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        has_own = attr in vars(owner)
        self._saved.append((owner, attr, has_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        try:
            for owner, attr, name in self.methods:
                original = getattr(owner, attr)
                wrapped = self._sim_run(original) if name == "sim.run" else self.span(name, original)
                self._patch(owner, attr, wrapped)
            # A free function is bound by name in every module that
            # imported it; patch each binding of the same object.
            for fn, name in self.functions:
                wrapped = self.span(name, fn)
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if namespace is None:
                        continue
                    for attr, value in list(namespace.items()):
                        if value is fn:
                            self._patch(module, attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def still_wrapped(self) -> list[str]:
        """Every class or module attribute that still holds a wrapper."""
        owners = [owner for owner, _, _ in self.methods] + list(sys.modules.values())
        left = []
        for owner in owners:
            for attr, value in list(getattr(owner, "__dict__", {}).items()):
                if id(value) in self._wrappers:
                    left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return left

    # -- results -------------------------------------------------------------

    def _check_closed(self) -> None:
        if self._stack or any(end < 0 for end in self.ends):
            raise RuntimeError("a traced call is still open")

    def write(self, path: Path) -> Path:
        """Write every span as one JSON array per line:
        ``[name, start, end, parent index, op id]``."""
        self._check_closed()
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as handle:
            for n, start, end, parent, op in zip(
                self.name_ids, self.starts, self.ends, self.parents, self.ops
            ):
                handle.write(json.dumps([names[n], start, end, parent, op]) + "\n")
        return path

    def layer_times(self) -> dict[str, dict[str, float]]:
        """:func:`layer_times` of every recorded span."""
        self._check_closed()
        names = [self.names[n] for n in self.name_ids]
        durations = array("d", map(operator.sub, self.ends, self.starts))
        return layer_times(names, self.parents, durations)


def layer_times(
    names: Sequence[str], parents: Sequence[int], durations: Sequence[float]
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total seconds ``s`` and ``self_s``.

    The three sequences hold one entry per span; ``parents`` indexes into
    them (-1 for a root).  ``s`` counts only the outermost span of a
    name, so a layer call made inside the same layer (``RunStreamer.close``
    closing its writers) is not counted twice.
    """
    child_time = array("d", bytes(8 * len(durations)))
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            child_time[parent] += duration
    out: dict[str, dict[str, float]] = {}
    for index, (name, parent, duration) in enumerate(zip(names, parents, durations)):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:
            entry["s"] += duration
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: LayerTracer,
    ops: int,
    bytes_written: int,
    bytes_read: int,
    hits: int,
    overhead_pct: float,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value, per operation where it is a sum.

    ``ops`` is the number of traced operations (simulations or jobs);
    ``bytes_*`` and ``hits`` are totals over them.
    """
    times = tracer.layer_times()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict[str, float]:
        return times.get(name, empty)

    counters = tracer.counters
    sim = get("sim.run")
    op = get(OP_SPAN)
    reused, solved = counters.get("nodes_reused", 0), counters.get("nodes_solved", 0)
    memo_hits = counters.get("flow_memo_hits", 0) + counters.get("network_memo_hits", 0)
    flow_solves = counters.get("flow_solves", 0)
    queue = get("service.queue")
    per = 1.0 / ops
    values = {
        "sim.run.s": sim["s"] * per,
        "sim.self.s": sim["self_s"] * per,
        "sim.events": counters.get("events_dispatched", 0) * per,
        "sim.events_per_s": _ratio(counters.get("events_dispatched", 0), sim["s"]),
        "cluster.resolve.calls": get("cluster.resolve")["calls"] * per,
        "cluster.resolve.s": get("cluster.resolve")["s"] * per,
        "cluster.resolve.self_s": get("cluster.resolve")["self_s"] * per,
        "cluster.accrue.calls": get("cluster.accrue")["calls"] * per,
        "cluster.accrue.s": get("cluster.accrue")["s"] * per,
        "cluster.node_reuse_ratio": _ratio(reused, reused + solved),
        "network.solve.calls": get("network.solve")["calls"] * per,
        "network.solve.s": get("network.solve")["s"] * per,
        "network.memo_hit_ratio": _ratio(memo_hits, memo_hits + flow_solves),
        "storage.solve.calls": get("storage.solve")["calls"] * per,
        "storage.solve.s": get("storage.solve")["s"] * per,
        "monitoring.sample.calls": get("monitoring.sample")["calls"] * per,
        "monitoring.sample.s": get("monitoring.sample")["s"] * per,
        "obs.sink.calls": get("obs.sink")["calls"] * per,
        "obs.sink.s": get("obs.sink")["s"] * per,
        "obs.bytes_written": bytes_written * per,
        "traces.load.s": get("traces.load")["s"] * per,
        "traces.bytes_read": bytes_read * per,
        "traces.generate.s": get("traces.generate")["s"] * per,
        "service.queue.calls": queue["calls"] * per,
        "service.queue.s": queue["s"] * per,
        "service.store_get.s": get("service.store_get")["s"] * per,
        "service.store_put.s": get("service.store_put")["s"] * per,
        "service.pool.self_s": get("service.pool")["self_s"] * per,
        "service.hit_ratio": hits * per,
        "api.submit.s": get("api.submit")["s"] * per,
        "api.result.s": get("api.result")["s"] * per,
        # op self time = op wall time not covered by any top-level layer span
        "unattributed.s": op["self_s"] * per,
        "unattributed.pct": 100.0 * _ratio(op["self_s"], op["s"]),
        "trace.overhead_pct": overhead_pct,
    }
    assert list(values) == list(LAYER_METRICS)
    return values
