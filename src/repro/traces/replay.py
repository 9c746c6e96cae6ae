"""Trace replay: drive the engine's MPI/network/storage models from a trace.

:class:`TraceReplayApp` turns each trace rank into an ordinary simulated
process on an ordinary :class:`~repro.cluster.cluster.Cluster`, so faults
and anomalies compose with replayed workloads exactly as with native
apps.  Per-rank records execute in program (ascending-id) order;
cross-rank edges are honored with engine conditions: a record's body
first waits until every dependency has completed, then applies the
recorded counter/memory state, then yields the record's payload
(:class:`~repro.sim.process.Segment` or Sleep — ``recv``/``collective``
records are pure waits).

Byte-identity with the recorded run rests on three invariants:

* **wakeup order** — all waiters on one dependency share one
  :class:`~repro.sim.process.Condition`; ``notify_all`` releases them in
  arrival order, which matches the native run by induction;
* **interleaved sums** — body-side counter writes are recorded as the
  exact float deltas and re-added at the same points between the same
  accrual intervals, so the final values are the same interleaved
  floating-point sum as the native run (resident memory, which nothing
  accrues into, is instead *set* to the recorded absolute bytes);
* **accrual boundaries** — the recorded run's recurring timers (metric
  samplers) are re-installed as no-op timers on the identical schedule,
  so fluid-advancement sums are split at the same instants and sum in
  the same order.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

from repro.cluster.cluster import Cluster
from repro.errors import TraceError
from repro.sim.process import (
    Body,
    Condition,
    Flow,
    IODemand,
    Segment,
    SimProcess,
    Sleep,
    Wait,
    Yieldable,
)
from repro.traces.schema import WAIT_KINDS, Trace

_RANK_REF = re.compile(r"^r(\d+)$")


def _ticker_noop(at: float) -> None:
    """Stand-in for a recorded sampler tick: an accrual boundary, nothing else."""
    return None


class TraceReplayApp:
    """Replays a :class:`~repro.traces.schema.Trace` on a cluster.

    Parameters
    ----------
    trace:
        The trace to replay; validated on construction.
    cluster:
        Target cluster.  Must provide the nodes named by the trace's
        placement and every filesystem the trace's io records demand
        (:func:`build_replay_cluster` builds a matching one from the
        trace header).
    tickers:
        Re-install the recorded recurring timers as no-ops (default).
        Pass ``False`` when the caller re-attaches the *real* identical
        instrumentation (e.g. a live MetricService on the same schedule),
        which provides the same accrual boundaries itself.
    """

    def __init__(self, trace: Trace, cluster: Cluster, tickers: bool = True) -> None:
        trace.validate()
        self.trace = trace
        self.cluster = cluster
        self._install_tickers = tickers
        meta = trace.meta
        for node, _core in meta.placement:
            if node not in cluster.nodes:
                raise TraceError(
                    f"trace places a rank on {node!r} but the cluster has no such node"
                )
        for record in trace.records:
            if record.io is not None and record.io[0] not in cluster.filesystems:
                raise TraceError(
                    f"record {record.id} demands filesystem {record.io[0]!r} "
                    "which the cluster does not provide"
                )
        #: completed dependency keys: record ids and -(rank+1) start markers
        self._done: set[int] = set()
        #: one shared condition per still-pending dependency key
        self._conds: dict[int, Condition] = {}
        self.procs: list[SimProcess] = []
        self._launched = False

    # -- lifecycle ---------------------------------------------------------

    def launch(self) -> "TraceReplayApp":
        """Spawn one process per rank at the recorded start times."""
        if self._launched:
            raise TraceError("trace replay already launched")
        self._launched = True
        meta = self.trace.meta
        if self._install_tickers:
            for interval, start, end in meta.tickers:
                self.cluster.sim.every(
                    interval,
                    _ticker_noop,
                    start=start,
                    end=math.inf if end is None else end,
                )
        per_rank = self.trace.per_rank()
        for rank in range(meta.ranks):
            node, core = meta.placement[rank]
            proc = self.cluster.spawn(
                meta.rank_names[rank],
                self._rank_body(rank, per_rank[rank]),
                node=node,
                core=core,
                at=meta.starts[rank],
            )
            self.procs.append(proc)
        return self

    @property
    def finished(self) -> bool:
        return bool(self.procs) and all(p.state.terminal for p in self.procs)

    def run(self, timeout: float = math.inf) -> "TraceReplayApp":
        """Launch (if needed) and run the replay to its recorded horizon.

        Recorded traces carry ``ran_until`` (the instant the recording
        was finalized); the replay runs exactly that far so the final
        clock matches.  Generated traces (``ran_until`` 0) run until
        every rank finishes, bounded by ``timeout``.
        """
        if not self._launched:
            self.launch()
        horizon = self.trace.meta.ran_until
        if horizon > 0:
            self.cluster.sim.run(until=min(horizon, timeout))
        else:
            self.cluster.sim.run(until=timeout, stop_when=lambda: self.finished)
        return self

    # -- dependency machinery ----------------------------------------------

    def _complete(self, key: int) -> None:
        """Mark a dependency satisfied and wake everyone blocked on it.

        The key enters ``_done`` *before* the notify so a dependent that
        checks between now and its next wait cannot miss the wakeup.
        """
        self._done.add(key)
        cond = self._conds.pop(key, None)
        if cond is not None:
            self.cluster.sim.notify(cond)

    def _await_dep(self, key: int) -> Iterator[Yieldable]:
        while key not in self._done:
            cond = self._conds.setdefault(key, Condition(name=f"trace.dep{key}"))
            yield Wait(cond)

    # -- record execution ----------------------------------------------------

    def _rank_body(self, rank: int, records):
        meta = self.trace.meta
        node = meta.placement[rank][0]

        def body(proc: SimProcess) -> Body:
            self._complete(-(rank + 1))
            ledger = self.cluster.node(node).memory
            try:
                for record in records:
                    # Counter deltas and the resident-set target apply when
                    # the record becomes current — *before* its dependencies
                    # are awaited — matching the native run, where body-side
                    # writes precede the block.  Samplers that tick during
                    # the wait therefore read identical state.
                    for key, value in record.counters:
                        proc.add_counter(key, value)
                    if record.mem is not None:
                        ledger.free_all(proc.pid)
                        if record.mem > 0:
                            ledger.alloc(proc.pid, record.mem)
                    for dep in record.deps:
                        yield from self._await_dep(dep)
                    payload = self._payload(record)
                    if payload is not None:
                        yield payload
                    self._complete(record.id)
            finally:
                ledger.free_all(proc.pid)

        return body

    def _payload(self, record) -> Yieldable | None:
        if record.kind in WAIT_KINDS:
            return None
        if record.kind == "sleep":
            return Sleep(record.work)
        return Segment(
            work=record.work,
            cpu=record.cpu,
            cache_footprint=dict(record.cache),
            cache_intensity=record.cache_intensity,
            mpki_base=record.mpki_base,
            mpki_extra=record.mpki_extra,
            miss_cpi_penalty=record.miss_cpi_penalty,
            mem_bw=record.mem_bw,
            mem_bw_extra=record.mem_bw_extra,
            flows=tuple(
                Flow(dst=self._resolve_dst(dst), rate=rate)
                for dst, rate in record.flows
            ),
            io=None if record.io is None else IODemand(*record.io),
            ips=record.ips,
            label=record.label,
        )

    def _resolve_dst(self, dst: str) -> str:
        """Map ``"r<k>"`` rank references to placed node names."""
        match = _RANK_REF.match(dst)
        if match is None:
            return dst
        rank = int(match.group(1))
        if rank >= self.trace.meta.ranks:
            raise TraceError(f"flow references rank {rank} of a {self.trace.meta.ranks}-rank trace")
        return self.trace.meta.placement[rank][0]


def build_replay_cluster(trace: Trace) -> Cluster:
    """A cluster matching the trace header: machine, node count, filesystems."""
    meta = trace.meta
    if meta.machine == "voltrino":
        cluster = Cluster.voltrino(num_nodes=meta.nodes)
    elif meta.machine == "chameleon":
        cluster = Cluster.chameleon(
            num_nodes=meta.nodes, with_nfs="nfs" in meta.filesystems
        )
    else:  # pragma: no cover - schema validation rejects this earlier
        raise TraceError(f"cannot build a cluster for machine {meta.machine!r}")
    missing = set(meta.filesystems) - set(cluster.filesystems)
    if missing:
        raise TraceError(
            f"trace needs filesystems {sorted(missing)} that "
            f"{meta.machine!r} does not provide"
        )
    return cluster


def replay_trace(trace: Trace, tickers: bool = True) -> Cluster:
    """Build a matching cluster, replay the trace on it, return the cluster."""
    cluster = build_replay_cluster(trace)
    TraceReplayApp(trace, cluster, tickers=tickers).run()
    return cluster


def replay_fingerprint(trace: Trace) -> str:
    """Replay and fingerprint — the byte-identity half of the trace oracle."""
    from repro.check.harness import fingerprint_cluster

    return fingerprint_cluster(replay_trace(trace))
