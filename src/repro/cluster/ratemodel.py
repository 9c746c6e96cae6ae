"""The cluster rate model: prices every subsystem's contention each event.

``resolve`` runs three stages whenever the engine's active set changes:

1. **Per node** — cache occupancy (L1/L2 per physical core, L3 per
   socket), processor sharing with an SMT penalty, and per-socket memory
   bandwidth.  The output is a provisional speed per process plus its
   observable rates (instructions/s, L2/L3 misses/s, memory bytes/s).
2. **Network** — every active flow, scaled by its owner's provisional
   speed, enters the adaptive-routing max-min solver; communication-bound
   processes slow down by their worst flow's grant ratio.
3. **Storage** — filesystem demands are priced by each
   :class:`~repro.storage.filesystem.SharedFilesystem`'s coupled pools.

``accrue`` integrates the rates computed by the last ``resolve`` straight
into the per-process and per-node counter dicts, which is what apps and
the LDMS-style samplers read at 1 Hz; the dicts are always current.

Resolves are *incremental*: the engine passes the set of pids whose
segment changed, stage 1 re-solves only the nodes hosting a dirty pid
(clean nodes keep their rows bit-for-bit), recurring network demand
replays from a memo, and the storage stage is skipped outright when its
demand signature is unchanged since the previous resolve (see
docs/PERFORMANCE.md).  Per-process speeds and rates live in flat numpy
arrays; :class:`~repro.cluster.reference.ReferenceRateModel` states the
same equations as plain scalar loops, and the differential oracle in
:mod:`repro.check` holds the two byte-identical.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cache.model import (
    CacheDemand,
    cascade_miss_factor,
    inclusive_footprints,
    solve_occupancy,
)
from repro.memory.bandwidth import ShareFn
from repro.network.flows import FlowRequest, FlowSolver
from repro.resources.fairshare import max_min_fair_share
from repro.sim.engine import RateModel
from repro.sim.process import CACHE_LEVELS, IODemand, SimProcess
from repro.sim.stats import SimStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


#: L2 misses are more plentiful than L3 misses; this factor converts the
#: modelled L3 MPKI into an L2 MPKI for the PAPI-style sampler.
L2_MISS_FACTOR = 2.5

#: the model-owned per-process counter keys, in rate-matrix column order;
#: each is also the name of the node counter it accrues into.
_RATE_KEYS = (
    "cpu_user_seconds",
    "mem_bytes",
    "instructions",
    "l2_misses",
    "l3_misses",
    "nic_tx_bytes",
    "io_write_bytes",
    "io_read_bytes",
    "io_meta_ops",
)
(_CPU, _MEM, _INSTR, _L2, _L3, _NIC, _IOW, _IOR, _IOM) = range(len(_RATE_KEYS))

#: a ``_row_dem`` entry before the row's first segment
_NO_DEMAND = (0.0,) * 8


@dataclass
class _NetStage:
    """Memoized network-stage outcome in array form (rows into the model)."""

    rows: np.ndarray
    ratios: np.ndarray
    tx: np.ndarray
    remote: dict[str, float]


@dataclass
class _IOStage:
    """Cached storage-stage outcome, keyed by a demand signature."""

    signature: tuple
    ratios: dict[int, float]
    rates: dict[int, dict[str, float]]


class _RunGroup:
    """Structures derived from one running set, reused while it is stable.

    The engine resolves thousands of times per simulated run against the
    same ordered process list; everything here is a pure function of that
    list, so rebuilding it per resolve is pure overhead.  ``sel`` is a
    slice when the rows happen to be contiguous (the common case — rows
    are handed out in spawn order), letting the per-resolve array ops use
    basic indexing instead of fancy indexing."""

    __slots__ = (
        "pids",
        "rows",
        "rows_list",
        "sel",
        "node_pids",
        "node_rows",
        "pid_index",
        "targets",
    )

    def __init__(
        self,
        model: "ClusterRateModel",
        pids: tuple[int, ...],
        rows_list: list[int],
        by_node: dict[str, list[SimProcess]],
    ) -> None:
        self.pids = pids
        self.rows_list = rows_list
        rows = np.asarray(rows_list, dtype=np.int64)
        self.rows = rows
        n = len(rows_list)
        if n and rows_list == list(range(rows_list[0], rows_list[0] + n)):
            self.sel: slice | np.ndarray = slice(rows_list[0], rows_list[0] + n)
        else:
            self.sel = rows
        pid_row = model._pid_row
        intern = model._node_rows_intern
        node_pids: dict[str, tuple[int, ...]] = {}
        node_rows: dict[str, tuple] = {}
        for name, procs in by_node.items():
            pids_t = tuple(p.pid for p in procs)
            node_pids[name] = pids_t
            quad = intern.get((name, pids_t))
            if quad is None:
                rows_py = [pid_row[p.pid] for p in procs]
                quad = (
                    np.asarray(rows_py, dtype=np.int64),
                    rows_py,
                    tuple(p.core for p in procs),
                    model.cluster.node(name).spec,
                )
                intern[(name, pids_t)] = quad
                if len(intern) > 4 * model.GROUP_CACHE_SIZE:
                    del intern[next(iter(intern))]
            node_rows[name] = quad
        self.node_pids = node_pids
        self.node_rows = node_rows
        self.pid_index = {pid: i for i, pid in enumerate(pids)}
        self.targets = [model._row_targets[row] for row in rows_list]


class ClusterRateModel(RateModel):
    """Translates segment demand vectors into speeds and counter rates.

    Parameters
    ----------
    cluster:
        The cluster whose nodes/network/filesystems provide capacities.
    share_fn:
        Bandwidth-sharing discipline for memory (ablation knob).
    cache_sharpness:
        Exponent of the cache-occupancy contest (ablation knob).
    k_paths:
        Paths considered by adaptive routing; 1 = static routing.

    Compared with the scalar model (see
    :class:`~repro.cluster.reference.ReferenceRateModel`):

    * per-process speeds and the nine model-owned counter *rates* live in
      contiguous arrays indexed by a pid→row slot table; a resolve writes
      rows, not dicts;
    * counter *totals* have one home, the process and node counter
      dicts.  Each resolve ends by pairing every running row's dicts
      with its rate row (:meth:`_plan_accrue`); ``accrue`` walks that
      plan in running order and adds ``rate * dt`` for every positive
      rate, so every counter cell receives the reference loop's floats
      in the reference loop's order;
    * stage 1 solves a dirty node's tenants with one scalar pass over
      plain tuples (:meth:`_solve_node`), in the reference model's float
      order; a node hosts 1–32 tenants, too few for numpy's per-call
      cost to pay.  A content-addressed memo in front of it
      (:meth:`_solve_node_memo`) reuses whole configurations — a node's
      solve is a pure function of (spec, per-tenant ``(core, segment
      demand)``), and synchronized ranks cycle a handful of identical
      configurations;
    * the network stage's memo signature is an array fingerprint — the
      interned (pid, src, dst) structure token plus ``demands.tobytes()``
      — so a recurring signature replays a memoized stage from
      ``_net_memo`` and only novel signatures reach
      :meth:`FlowSolver.solve`.

    Exactness rules used throughout (see docs/PERFORMANCE.md): elementwise
    numpy ops are IEEE-identical to the scalar ops they replace; adding
    ``0.0`` to a non-negative total is a bitwise no-op (which is why
    ``accrue`` may skip zero rates); reductions that would reassociate
    floating-point sums are never used on accumulated values.
    """

    #: distinct (spec, tenancy) stage-1 configurations kept.  Jittered
    #: ranks desynchronize, so distinct tenancy configurations number in
    #: the thousands on long contended runs; entries are a small key
    #: tuple and four small arrays, so a deep memo is cheap.
    STAGE1_MEMO_SIZE = 4096
    #: distinct network-stage signatures kept (and interned flow
    #: structures, whose tokens those signatures carry)
    NET_MEMO_SIZE = 256
    #: distinct running-set configurations whose grouping is kept
    GROUP_CACHE_SIZE = 256

    def __init__(
        self,
        cluster: "Cluster",
        share_fn: ShareFn = max_min_fair_share,
        cache_sharpness: float = 1.0,
        k_paths: int = 4,
    ) -> None:
        self.cluster = cluster
        self.share_fn = share_fn
        self.cache_sharpness = cache_sharpness
        self.k_paths = k_paths
        self.stats = SimStats()
        self.flow_solver = (
            FlowSolver(cluster.topology, k_paths=k_paths)
            if cluster.topology is not None
            else None
        )
        if self.flow_solver is not None:
            self.flow_solver.stats = self.stats
        #: per-node stage-1 validity: the ordered tenant pids whose rows
        #: the last solve of that node wrote
        self._node_cache: dict[str, tuple[int, ...]] = {}
        self._io_cache: _IOStage | None = None
        nodes = list(cluster.nodes.values())
        self._node_index = {node.name: i for i, node in enumerate(nodes)}
        self._node_list = nodes
        self._node_sizes = [
            {lvl: node.spec.cache.size(lvl) for lvl in CACHE_LEVELS}
            for node in nodes
        ]
        # pid → row slot table plus row-indexed state; capacity doubles on
        # demand and rows are never recycled (pids are globally unique).
        self._pid_row: dict[int, int] = {}
        self._row_proc: list[SimProcess] = []
        #: the row's counter targets: (process dict, node dict, node
        #: per-core key), fixed at spawn
        self._row_targets: list[tuple[dict, dict, str]] = []
        #: stage-1 topology of the row's core: (core, physical core,
        #: sibling or -1, socket), fixed at spawn
        self._row_topo: list[tuple[int, int, int, int]] = []
        #: stage-1 demand of the row's current segment: (cpu, inclusive
        #: L1/L2/L3 footprints, intensity, miss-CPI penalty, mem_bw,
        #: mem_bw_extra); kept as-is when a segment ends
        self._row_dem: list[tuple[float, ...]] = []
        self._row_flows: list[tuple | None] = []
        self._nrows = 0
        self._alloc(64)
        #: stage-1 configuration memo (content-addressed, see class doc)
        self._stage1_cache: dict[tuple, tuple] = {}
        #: per-node tenant quadruples keyed by (node, ordered pid tuple);
        #: a node's tenant configuration is a pure function of that key
        #: (rows and core pinning are fixed per pid), and recurs across
        #: many distinct global running sets, so group (re)builds mostly
        #: assemble interned entries
        self._node_rows_intern: dict[tuple, tuple] = {}
        #: network-stage memo (signature → folded stage outcome)
        self._net_memo: dict[tuple, _NetStage] = {}
        # flow-structure cache: rebuilt only when the set of flow-bearing
        # rows (or any of their segments) changes
        self._flow_rows_key: tuple | None = None
        self._flow_rows_arr = np.zeros(0, dtype=np.int64)
        self._flow_rates_arr = np.zeros(0)
        self._flow_struct: tuple = ()
        self._flow_token = -1
        #: flow-structure interning table (structure tuple → token); the
        #: per-resolve network signature carries the token so hashing it
        #: does not re-walk the structure tuple.  Bounded oldest-first at
        #: NET_MEMO_SIZE; tokens come from a counter, never reused, so an
        #: evicted structure that recurs gets a fresh token instead of
        #: colliding with a live one in the memos.
        self._struct_intern: dict[tuple, int] = {}
        self._struct_tokens = itertools.count()
        self._flow_pairs: list[tuple[str, str]] = []
        self._flow_ones = np.zeros(0)
        self._flows_dirty = False
        #: nic_rx_bytes rate per destination node, from the network stage
        self._remote: dict[str, float] = {}
        #: the last resolve's running pids, their index, and the accrue
        #: plan built from its rates (see :meth:`_plan_accrue`)
        self._last_pids: tuple[int, ...] = ()
        self._last_index: dict[int, int] = {}
        self._plan: list[tuple] = []
        #: pids whose segment changed since their priced keys were last
        #: found in their counter dict
        self._unkeyed: set[int] = set()
        #: (node dict, OS-noise busy cores) per node
        self._noise = [
            (node.counters, node.spec.os_noise_util * node.logical_cores)
            for node in nodes
        ]
        #: running-set grouping caches keyed by the ordered pid tuple —
        #: barrier phases make the running set oscillate between a few
        #: recurring configurations, so one entry per configuration
        #: (FIFO-bounded) turns the per-resolve grouping into one lookup
        self._group_cache: dict[tuple[int, ...], _RunGroup] = {}

    # -- slot management ----------------------------------------------------

    def _alloc(self, cap: int) -> None:
        nkeys = len(_RATE_KEYS)

        def grow(old, shape, dtype):
            out = np.zeros(shape, dtype=dtype)
            if old is not None:
                out[: old.shape[0]] = old
            return out

        self._row_node = grow(getattr(self, "_row_node", None), cap, np.int64)
        self._row_amp = grow(getattr(self, "_row_amp", None), cap, float)
        self._seg_present = grow(getattr(self, "_seg_present", None), cap, bool)
        self._seg_ips = grow(getattr(self, "_seg_ips", None), cap, float)
        self._seg_mpki_base = grow(getattr(self, "_seg_mpki_base", None), cap, float)
        self._seg_mpki_extra = grow(getattr(self, "_seg_mpki_extra", None), cap, float)
        # stage-2/3 membership of the row's current segment
        self._row_flow_mask = grow(getattr(self, "_row_flow_mask", None), cap, bool)
        self._row_io_mask = grow(getattr(self, "_row_io_mask", None), cap, bool)
        self._s1_speed = grow(getattr(self, "_s1_speed", None), cap, float)
        self._s1_cpu = grow(getattr(self, "_s1_cpu", None), cap, float)
        self._s1_mem = grow(getattr(self, "_s1_mem", None), cap, float)
        self._mf = grow(getattr(self, "_mf", None), cap, float)
        self._S = grow(getattr(self, "_S", None), cap, float)
        self._R = grow(getattr(self, "_R", None), (cap, nkeys), float)
        self._Tmask = grow(getattr(self, "_Tmask", None), (cap, nkeys), bool)

    def _row_for(self, proc: SimProcess) -> int:
        row = self._pid_row.get(proc.pid)
        if row is not None:
            return row
        if self._nrows == self._S.shape[0]:
            self._alloc(2 * self._nrows)
        row = self._nrows
        self._nrows += 1
        self._pid_row[proc.pid] = row
        self._row_proc.append(proc)
        self._row_flows.append(None)
        ni = self._node_index[proc.node]
        spec = self._node_list[ni].spec
        sibling = spec.sibling_of(proc.core)
        self._row_topo.append(
            (
                proc.core,
                spec.physical_core_of(proc.core),
                -1 if sibling is None else sibling,
                spec.socket_of(proc.core),
            )
        )
        self._row_dem.append(_NO_DEMAND)
        self._row_targets.append(
            (
                proc.counters,
                self._node_list[ni].counters,
                f"cpu_core{proc.core}_seconds",
            )
        )
        self._row_node[row] = ni
        self._row_amp[row] = spec.miss_amplification
        return row

    # -- resolve ------------------------------------------------------------

    def attach_stats(self, stats: SimStats) -> None:
        self.stats = stats
        if self.flow_solver is not None:
            self.flow_solver.stats = stats

    def resolve(self, running: Sequence[SimProcess], now: float) -> dict[int, float]:
        return self.resolve_incremental(running, now, None)

    def resolve_incremental(
        self,
        running: Sequence[SimProcess],
        now: float,
        dirty: frozenset[int] | None = None,
    ) -> dict[int, float]:
        if dirty is None:
            # Full resolve: forget everything so no stale stage survives.
            # The stage-1 memo goes too — a forced full resolve signals
            # that model inputs may have changed out-of-band.
            self._node_cache.clear()
            self._io_cache = None
            self._stage1_cache.clear()
            self._net_memo.clear()
        self._remote = {}
        stats = self.stats
        with stats.timer("node"):
            group = self._solve_nodes(running, dirty)
        rows = group.rows
        sel = group.sel
        with stats.timer("network"):
            self._solve_network_array(rows[self._row_flow_mask[sel]].tolist())
        with stats.timer("storage"):
            self._solve_storage_array(rows[self._row_io_mask[sel]])
        self._record_rates(group)
        self._plan_accrue(group)
        self._last_pids = group.pids
        self._last_index = group.pid_index
        return dict(zip(group.pids, self._S[sel].tolist()))

    def _solve_nodes(
        self, running: Sequence[SimProcess], dirty: frozenset[int] | None
    ) -> _RunGroup:
        """Stage 1: bring every running row's speed and stage-1 rates up
        to date, re-solving only nodes that host a dirty pid."""
        pids = tuple(p.pid for p in running)
        group = self._group_cache.get(pids)
        if group is not None:
            # Known running set: rows, by-node grouping, and per-node pid
            # tuples are all unchanged — only refresh dirty segments (plus
            # any row whose segment is still unset, e.g. between phases).
            # Grouping is a pure function of the ordered pid list, and a
            # proc's node/core pinning is fixed for its lifetime, so a
            # configuration revived after a barrier phase is still exact.
            rows = group.rows
            rows_list = group.rows_list
            if dirty is None:
                for i, proc in enumerate(running):
                    self._refresh_segment(proc, rows_list[i])
            else:
                if dirty:
                    pid_index = group.pid_index
                    for pid in dirty:
                        i = pid_index.get(pid)
                        if i is not None:
                            self._refresh_segment(running[i], rows_list[i])
                present = self._seg_present[group.sel]
                if not present.all():
                    for i in np.nonzero(~present)[0].tolist():
                        if pids[i] not in dirty:
                            self._refresh_segment(running[i], rows_list[i])
        else:
            rows_list = []
            by_node: dict[str, list[SimProcess]] = {}
            for proc in running:
                row = self._row_for(proc)
                rows_list.append(row)
                procs = by_node.get(proc.node)
                if procs is None:
                    by_node[proc.node] = [proc]
                else:
                    procs.append(proc)
                if dirty is None or proc.pid in dirty or not self._seg_present[row]:
                    self._refresh_segment(proc, row)
            group = _RunGroup(self, pids, rows_list, by_node)
            self._group_cache[pids] = group
            if len(self._group_cache) > self.GROUP_CACHE_SIZE:
                del self._group_cache[next(iter(self._group_cache))]
            rows = group.rows
            # Nodes only lose all tenants when the running set changes, so
            # stale-entry cleanup belongs to the group rebuild.
            for stale in [
                name for name in self._node_cache if name not in by_node
            ]:
                del self._node_cache[stale]

        node_rows = group.node_rows
        for node_name, pids_t in group.node_pids.items():
            if (
                dirty is not None
                and self._node_cache.get(node_name) == pids_t
                and dirty.isdisjoint(pids_t)
            ):
                # Same tenants, same segments: the stage-1 rows are
                # still exact.
                self.stats.count("nodes_reused")
                continue
            self.stats.count("nodes_solved")
            self._solve_node_memo(node_rows[node_name])
            self._node_cache[node_name] = pids_t

        sel = group.sel
        if rows.size:
            self._R[sel] = 0.0
            self._Tmask[sel] = False
            self._S[sel] = self._s1_speed[sel]
            self._R[sel, _CPU] = self._s1_cpu[sel]
            self._R[sel, _MEM] = self._s1_mem[sel]
            self._Tmask[sel, _CPU] = True
            self._Tmask[sel, _MEM] = True

        # Fault-induced compute degradation: stage-1 rows always store
        # *pre-fault* values, so the factor is applied uniformly on every
        # resolve — cached and fresh rows alike.  At this point the only
        # materialized rates are the stage-1 pair, exactly the keys the
        # reference model scales.
        faults = self.cluster.faults
        if faults is not None and faults.active and rows.size:
            node_factor = np.ones(len(self._node_index))
            for name, i in self._node_index.items():
                node_factor[i] = faults.speed_factor(name)
            factor = node_factor[self._row_node[rows]]
            degraded = factor < 1.0
            if degraded.any():
                drows = rows[degraded]
                f = factor[degraded]
                self._S[drows] *= f
                self._R[drows, _CPU] *= f
                self._R[drows, _MEM] *= f
        return group

    @property
    def last_rates(self) -> dict[int, dict[str, float]]:
        """Per-pid accounting rates from the last resolve, materialized
        on demand from the rate matrix (checker-facing view)."""
        out: dict[int, dict[str, float]] = {}
        for pid in self._last_pids:
            row = self._pid_row[pid]
            rates: dict[str, float] = {}
            for col, key in enumerate(_RATE_KEYS):
                if self._Tmask[row, col]:
                    rates[key] = float(self._R[row, col])
            out[pid] = rates
        return out

    def _refresh_segment(self, proc: SimProcess, row: int) -> None:
        """Mirror the row's current segment into the demand arrays."""
        self._unkeyed.add(proc.pid)
        seg = proc.current
        old_flows = self._row_flows[row]
        if seg is None:
            self._seg_present[row] = False
            self._row_flows[row] = None
            self._row_flow_mask[row] = False
            self._row_io_mask[row] = False
            if old_flows is not None:
                self._flows_dirty = True
            return
        self._seg_present[row] = True
        self._seg_ips[row] = seg.ips
        self._seg_mpki_base[row] = seg.mpki_base
        self._seg_mpki_extra[row] = seg.mpki_extra
        fp = inclusive_footprints(
            seg.cache_footprint, self._node_sizes[self._row_node[row]]
        )
        self._row_dem[row] = (
            float(seg.cpu),
            fp["L1"],
            fp["L2"],
            fp["L3"],
            float(seg.cache_intensity),
            float(seg.miss_cpi_penalty),
            float(seg.mem_bw),
            float(seg.mem_bw_extra),
        )
        flows = seg.flows if seg.flows else None
        self._row_flows[row] = flows
        self._row_flow_mask[row] = flows is not None
        self._row_io_mask[row] = seg.io is not None
        if flows is not None or old_flows is not None:
            self._flows_dirty = True

    # -- stage 1 with a configuration memo ----------------------------------

    def _solve_node_memo(self, node_rows: tuple) -> None:
        """Stage-1 solve via the content-addressed configuration memo.

        The solve is a pure function of the node's spec and the ordered
        per-tenant ``(core, segment demand)`` vector — pids only label the
        outputs — so identical configurations (synchronized ranks cycling
        compute/comm phases) are served from the memo bit-for-bit.  The
        memoized value is :meth:`_solve_node`'s output quadruple
        ``(speed, miss_factor, cpu_rate, mem_rate)`` as one array each,
        aligned with the rows, scattered into the stage-1 arrays here.
        """
        rows, rows_py, cores, spec = node_rows
        row_dem = self._row_dem
        dem = tuple(row_dem[r] for r in rows_py)
        key = (id(spec), cores, dem)
        hit = self._stage1_cache.get(key)
        if hit is not None:
            self.stats.count("stage1_memo_hits")
        else:
            self.stats.count("stage1_memo_misses")
            row_topo = self._row_topo
            topo = [row_topo[r] for r in rows_py]
            hit = tuple(np.array(out) for out in self._solve_node(spec, dem, topo))
            if len(self._stage1_cache) >= self.STAGE1_MEMO_SIZE:
                self._stage1_cache.pop(next(iter(self._stage1_cache)))
            self._stage1_cache[key] = hit
        speed, mf, cpu_rate, mem_rate = hit
        self._s1_speed[rows] = speed
        self._mf[rows] = mf
        self._s1_cpu[rows] = cpu_rate
        self._s1_mem[rows] = mem_rate

    def _solve_node(
        self,
        spec,
        dem: Sequence[tuple[float, ...]],
        topo: Sequence[tuple[int, int, int, int]],
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """One node's stage-1 solve over its tenants' demand tuples.

        ``dem[i]`` and ``topo[i]`` are tenant ``i``'s ``_row_dem`` and
        ``_row_topo`` entries.  Returns per-tenant lists of speed, miss
        factor, CPU rate and memory rate.  The float operations run in
        the order of
        :meth:`~repro.cluster.reference.ReferenceRateModel._solve_node`
        (group sums from ``0.0`` in tenant order, the same occupancy and
        bandwidth solvers on the same inputs), so the outputs match the
        reference bit-for-bit — the property the ``reference_model``
        oracle pins.
        """
        n = len(dem)
        # Cache occupancy: L1/L2 contested per physical core, L3 per
        # socket.  A cell whose footprints fit evicts nobody, so only
        # oversubscribed cells reach the occupancy solver.
        evictions: list[dict[str, float]] = [{} for _ in range(n)]
        for lvl, level in enumerate(CACHE_LEVELS):
            size = spec.cache.size(level)
            cell_of = 3 if level == "L3" else 1
            cells: dict[int, list[int]] = {}
            totals: dict[int, float] = {}
            for i in range(n):
                cell = topo[i][cell_of]
                totals[cell] = totals.get(cell, 0.0) + dem[i][1 + lvl]
                cells.setdefault(cell, []).append(i)
            for cell, tenants in cells.items():
                if totals[cell] <= size:
                    continue
                res = solve_occupancy(
                    size,
                    [CacheDemand(i, dem[i][1 + lvl], dem[i][4]) for i in tenants],
                    sharpness=self.cache_sharpness,
                )
                for i in tenants:
                    evictions[i][level] = res[i].eviction
        # No eviction at any level gives a miss factor of exactly 0.0.
        cascade = spec.cache_miss_cascade
        mf = [cascade_miss_factor(ev, cascade) if ev else 0.0 for ev in evictions]

        # CPU: processor sharing per logical core, SMT capacity coupling.
        core_demand: dict[int, float] = {}
        for d, t in zip(dem, topo):
            core_demand[t[0]] = core_demand.get(t[0], 0.0) + d[0]
        smt_loss = 1.0 - spec.smt_throughput / 2.0
        time_share = [0.0] * n
        compute_speed = [0.0] * n
        for i in range(n):
            cpu = dem[i][0]
            core, _, sib, _ = topo[i]
            sibling_util = min(1.0, core_demand.get(sib, 0.0)) if sib >= 0 else 0.0
            capacity = 1.0 - smt_loss * sibling_util
            if cpu > 0:
                share = cpu * min(1.0, 1.0 / core_demand[core])
                cpu_ratio = (share / cpu) * capacity
            else:
                share, cpu_ratio = 0.0, 1.0
            time_share[i] = share
            compute_speed[i] = cpu_ratio / (1.0 + dem[i][5] * mf[i])

        # Memory bandwidth per socket: latency degradation on the socket
        # total, then the sharing discipline.
        corebw = spec.core_mem_bw
        sockbw = spec.mem_bw_per_socket
        alpha = spec.bw_latency_alpha
        want = [min(d[6] + d[7] * m, corebw) for d, m in zip(dem, mf)]
        sockets: dict[int, list[int]] = {}
        for i, t in enumerate(topo):
            sockets.setdefault(t[3], []).append(i)
        grant = [0.0] * n
        for tenants in sockets.values():
            total = 0.0
            for i in tenants:
                total += want[i]
            degraded = [
                want[i] / (1.0 + alpha * (max(0.0, total - want[i]) / sockbw))
                for i in tenants
            ]
            for i, g in zip(tenants, self.share_fn(sockbw, degraded)):
                grant[i] = g

        # Roofline composition (see the reference model for the rationale).
        speed = [0.0] * n
        mem_rate = [0.0] * n
        for i in range(n):
            w = want[i]
            mem_ratio = 1.0 if w <= 0 else min(1.0, grant[i] / w)
            phi = w / corebw
            phi0 = min(dem[i][6], corebw) / corebw
            baseline = max(1.0 - phi0, phi0)
            slowdown = (
                max((1.0 - phi0) / compute_speed[i], phi / mem_ratio) / baseline
            )
            speed[i] = 1.0 / slowdown
            mem_rate[i] = phi * corebw * speed[i]
        return speed, mf, time_share, mem_rate

    # -- stage 2: network ----------------------------------------------------

    def _solve_network_array(self, flow_rows: list[int]) -> None:
        if self.flow_solver is None or not flow_rows:
            return
        # Rebuild the flow-structure arrays only when the set of
        # flow-bearing rows changed or one of their segments refreshed;
        # between changes a resolve just rescales cached per-flow rates.
        key = tuple(flow_rows)
        if self._flows_dirty or key != self._flow_rows_key:
            rows_l: list[int] = []
            rates: list[float] = []
            struct: list[tuple] = []
            pairs: list[tuple[str, str]] = []
            for row in flow_rows:
                proc = self._row_proc[row]
                for flow in self._row_flows[row]:
                    rows_l.append(row)
                    rates.append(flow.rate)
                    struct.append((proc.pid, proc.node, flow.dst))
                    pairs.append((proc.node, flow.dst))
            self._flow_rows_key = key
            self._flow_rows_arr = np.asarray(rows_l, dtype=np.int64)
            self._flow_rates_arr = np.asarray(rates)
            struct_t = tuple(struct)
            self._flow_struct = struct_t
            token = self._struct_intern.get(struct_t)
            if token is None:
                token = next(self._struct_tokens)
                if len(self._struct_intern) >= self.NET_MEMO_SIZE:
                    self._struct_intern.pop(next(iter(self._struct_intern)))
                self._struct_intern[struct_t] = token
            self._flow_token = token
            self._flow_pairs = pairs
            self._flow_ones = np.ones(len(rows_l))
            self._flows_dirty = False
        demands = self._flow_rates_arr * self._S[self._flow_rows_arr]
        faults = self.cluster.faults
        if faults is not None and faults.active:
            nic = np.asarray(
                [
                    faults.nic_factor(src) * faults.nic_factor(dst)
                    for src, dst in self._flow_pairs
                ]
            )
        else:
            nic = self._flow_ones
        # Array fingerprint: interned structure token + raw demand/nic
        # bytes (bytes objects cache their hash, so repeat signatures cost
        # one int hash plus two cached-byte hashes).
        signature = (self._flow_token, nic.tobytes(), demands.tobytes())
        memo = self._net_memo
        stage = memo.get(signature)
        if stage is not None:
            self.stats.count("network_memo_hits")
        else:
            self.stats.count("network_stage_solves")
            requests = [
                FlowRequest(key=k, src=src, dst=dst, demand=float(demand))
                for k, ((pid, src, dst), demand) in enumerate(
                    zip(self._flow_struct, demands)
                )
            ]
            result = self.flow_solver.solve(requests)
            worst: dict[int, float] = {}
            tx: dict[int, float] = {}
            remote: dict[str, float] = {}
            nic_list = nic.tolist()
            rows_list = self._flow_rows_arr.tolist()
            for request, row, nic_k in zip(requests, rows_list, nic_list):
                grant = result.grants[request.key] * nic_k
                demand = request.demand
                ratio = nic_k if demand <= 0 else min(1.0, grant / demand)
                worst[row] = min(worst.get(row, 1.0), ratio)
                tx[row] = tx.get(row, 0.0) + grant
                remote[request.dst] = remote.get(request.dst, 0.0) + grant
            stage = _NetStage(
                rows=np.fromiter(worst, dtype=np.int64, count=len(worst)),
                ratios=np.fromiter(worst.values(), dtype=float, count=len(worst)),
                tx=np.fromiter(
                    (tx[row] for row in worst), dtype=float, count=len(worst)
                ),
                remote=remote,
            )
            if len(memo) >= self.NET_MEMO_SIZE:
                memo.pop(next(iter(memo)))
            memo[signature] = stage
        self._apply_net_stage(stage)

    def _apply_net_stage(self, stage: _NetStage) -> None:
        self._S[stage.rows] *= stage.ratios
        self._R[stage.rows, _NIC] = stage.tx
        self._Tmask[stage.rows, _NIC] = True
        for dst, rate in stage.remote.items():
            self._remote[dst] = self._remote.get(dst, 0.0) + rate

    # -- stage 3: storage ----------------------------------------------------

    def _solve_storage_array(self, io_rows: np.ndarray) -> None:
        by_fs: dict[str, list[tuple[SimProcess, IODemand]]] = defaultdict(list)
        for row in io_rows.tolist():
            proc = self._row_proc[row]
            io = proc.current.io
            speed = float(self._S[row])
            scaled = type(io)(
                fs=io.fs,
                write_bw=io.write_bw * speed,
                read_bw=io.read_bw * speed,
                meta_ops=io.meta_ops * speed,
            )
            by_fs[io.fs].append((proc, scaled))
        obs = self.cluster.sim.obs
        if obs is not None:
            for fs_name in self.cluster.filesystems:
                obs.window(
                    ("io", fs_name),
                    "storage",
                    f"busy:{fs_name}",
                    ("storage", fs_name),
                    active=fs_name in by_fs,
                )
        if not by_fs:
            self._io_cache = None
            return
        signature = (
            tuple(
                (p.pid, p.node, fs_name, io.write_bw, io.read_bw, io.meta_ops)
                for fs_name, pairs in by_fs.items()
                for p, io in pairs
            ),
            tuple(
                (fs_name, self.cluster.filesystem(fs_name).health_revision)
                for fs_name in sorted(by_fs)
            ),
        )
        if self._io_cache is not None and self._io_cache.signature == signature:
            self.stats.count("storage_stage_skips")
            self._apply_io_stage(self._io_cache)
            return
        self.stats.count("storage_stage_solves")
        ratios: dict[int, float] = {}
        io_rates: dict[int, dict[str, float]] = {}
        for fs_name, pairs in by_fs.items():
            fs = self.cluster.filesystem(fs_name)
            grants = fs.solve([(p.pid, p.node, io) for p, io in pairs])
            for p, _ in pairs:
                grant = grants[p.pid]
                ratios[p.pid] = min(1.0, grant.ratio)
                io_rates[p.pid] = {
                    "io_write_bytes": grant.write_bw,
                    "io_read_bytes": grant.read_bw,
                    "io_meta_ops": grant.meta_ops,
                }
        self._io_cache = _IOStage(signature=signature, ratios=ratios, rates=io_rates)
        self._apply_io_stage(self._io_cache)

    def _apply_io_stage(self, stage: _IOStage) -> None:
        for pid, ratio in stage.ratios.items():
            self._S[self._pid_row[pid]] *= ratio
        for pid, rates in stage.rates.items():
            row = self._pid_row[pid]
            self._R[row, _IOW] = rates["io_write_bytes"]
            self._R[row, _IOR] = rates["io_read_bytes"]
            self._R[row, _IOM] = rates["io_meta_ops"]
            self._Tmask[row, _IOW] = True
            self._Tmask[row, _IOR] = True
            self._Tmask[row, _IOM] = True

    # -- finalize ------------------------------------------------------------

    def _record_rates(self, group: _RunGroup) -> None:
        """Instruction and cache-miss rates from each row's final speed."""
        rows = group.rows
        if not rows.size:
            return
        # When every row has a live segment (the common case) the whole
        # update runs on the group's selector — a slice for contiguous
        # groups.
        present = self._seg_present[group.sel]
        if present.all():
            rr: slice | np.ndarray = group.sel
        else:
            rr = rows[present]
            if not rr.size:
                return
        speed = self._S[rr]
        ips = self._seg_ips[rr] * speed
        mpki = self._row_amp[rr] * (
            self._seg_mpki_base[rr] + self._seg_mpki_extra[rr] * self._mf[rr]
        )
        self._R[rr, _INSTR] = ips
        self._R[rr, _L3] = mpki * ips / 1000.0
        self._R[rr, _L2] = np.maximum(
            L2_MISS_FACTOR * mpki * ips / 1000.0,
            self._R[rr, _MEM] / 256.0,
        )
        self._Tmask[rr, _INSTR] = True
        self._Tmask[rr, _L3] = True
        self._Tmask[rr, _L2] = True

    def _plan_accrue(self, group: _RunGroup) -> None:
        """Pair each running row's counter targets with its final rates.

        The plan :meth:`accrue` runs holds one ``(targets, rates,
        missing)`` entry per running row, in running order: the row's
        ``_row_targets`` entry, its rate row as a list, and the priced
        keys its process dict still lacks.  ``accrue`` creates those at
        ``0.0``, so they appear at the first accrued interval, as the
        reference model's do, and never for a process that is priced but
        never accrued.  A row's priced keys follow from its segment, so
        only pids in ``_unkeyed`` (refreshed since their keys were last
        found present) are checked.
        """
        targets = group.targets
        rates = self._R[group.sel].tolist()
        plan = list(zip(targets, rates, [()] * len(targets)))
        unkeyed = self._unkeyed
        index = group.pid_index
        for pid in [pid for pid in unkeyed if pid in index]:
            i = index[pid]
            counters = targets[i][0]
            priced = self._Tmask[group.rows_list[i]].tolist()
            missing = [
                key
                for key in itertools.compress(_RATE_KEYS, priced)
                if key not in counters
            ]
            if missing:
                plan[i] = (targets[i], rates[i], missing)
            else:
                unkeyed.discard(pid)
        self._plan = plan

    # -- accrual -------------------------------------------------------------

    def accrue(self, running: Sequence[SimProcess], t0: float, t1: float) -> None:
        dt = t1 - t0
        plan = self._plan
        if len(plan) != len(running) or (
            plan and running[0].pid != self._last_pids[0]
        ):
            # Running set drifted from the last resolve (only possible for
            # un-resolved newcomers; any change marks the engine dirty and
            # forces a resolve before the next accrue): accrue the resolved
            # processes still running, in running order.
            index = self._last_index
            plan = [plan[index[p.pid]] for p in running if p.pid in index]
        # Every counter cell receives its contributions in running order,
        # one ``rate * dt`` each, as in the reference model's loop.  Zero
        # rates are skipped: adding 0.0 to a non-negative total is a
        # bitwise no-op.
        for (counters, node_counters, core_key), rates, missing in plan:
            for key in missing:
                counters.setdefault(key, 0.0)
            for key, rate in zip(_RATE_KEYS, rates):
                if rate > 0.0:
                    amount = rate * dt
                    counters[key] += amount
                    node_counters[key] += amount
            cpu = rates[_CPU]
            if cpu > 0.0:
                node_counters[core_key] += cpu * dt
        nodes = self.cluster.nodes
        for node_name, rate in self._remote.items():
            nodes[node_name].counters["nic_rx_bytes"] += rate * dt

    def accrue_background(self, dt: float) -> None:
        """OS noise accounting; called by the cluster's sys sampler."""
        for counters, busy in self._noise:
            counters["cpu_sys_seconds"] += busy * dt

    def on_process_end(self, proc: SimProcess) -> None:
        self._unkeyed.discard(proc.pid)
        self.cluster.node(proc.node).memory.free_all(proc.pid)
