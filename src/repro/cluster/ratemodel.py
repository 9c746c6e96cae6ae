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
replays from a memo, and the storage stage prices every filesystem on
every resolve (see docs/PERFORMANCE.md).  Per-process state lives in
plain lists indexed by a pid→row table, so the model runs the same
scalar float operations as
:class:`~repro.cluster.reference.ReferenceRateModel`; the two differ
only in their caches, and the differential oracle in :mod:`repro.check`
holds them byte-identical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

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

#: the model-owned per-process counter keys, in rate-row column order;
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
#: an ``_s1`` entry before the row's first solve
_NO_STAGE1 = (0.0,) * 4


@dataclass
class _NetStage:
    """Memoized network-stage outcome: ``(row, worst ratio, tx rate)`` per
    flow-bearing row, and the rx rate per destination node."""

    grants: tuple[tuple[int, float, float], ...]
    remote: dict[str, float]


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

    Compared with the reference model (see
    :class:`~repro.cluster.reference.ReferenceRateModel`), which runs the
    same scalar float operations on dicts and keeps no caches:

    * per-process state lives in plain lists indexed by a pid→row slot
      table.  A resolve gives each running row its speed in ``_speed``
      and a fresh list of the nine model-owned counter *rates* in
      ``_rates``; ``_row_priced`` names the columns the reference would
      have priced for the row's segment;
    * counter *totals* have one home, the process and node counter
      dicts.  Each resolve ends by pairing every running row's dicts
      with its rate list (:meth:`_plan_accrue`); ``accrue`` walks that
      plan in running order and adds ``rate * dt`` for every positive
      rate, so every counter cell receives the reference loop's floats
      in the reference loop's order;
    * stage 1 re-solves only nodes that host a dirty pid, and a
      content-addressed memo in front of the solve
      (:meth:`_solve_node_memo`) reuses whole configurations — a node's
      solve is a pure function of (spec, per-tenant ``(core, segment
      demand)``), and synchronized ranks cycle a handful of identical
      configurations;
    * the network stage's memo signature is the per-flow (pid, src, dst)
      structure tuple plus the per-flow NIC factors and demands, all
      rebuilt from the running rows on every resolve, so a recurring
      signature replays a memoized stage from ``_net_memo`` and only
      novel signatures reach :meth:`FlowSolver.solve`.

    Exactness rules used throughout (see docs/PERFORMANCE.md): adding
    ``0.0`` to a non-negative total is a bitwise no-op (which is why
    ``accrue`` may skip zero rates); reductions that would reassociate
    floating-point sums are never used on accumulated values.
    """

    #: distinct (spec, tenancy) stage-1 configurations kept.  Jittered
    #: ranks desynchronize, so distinct tenancy configurations number in
    #: the thousands on long contended runs; entries are small tuples,
    #: so a deep memo is cheap.
    STAGE1_MEMO_SIZE = 4096
    #: distinct network-stage signatures kept
    NET_MEMO_SIZE = 256

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
        #: per-node stage-1 validity: the ordered tenant rows the last
        #: solve of that node wrote
        self._node_cache: dict[str, tuple[int, ...]] = {}
        nodes = list(cluster.nodes.values())
        self._node_index = {node.name: i for i, node in enumerate(nodes)}
        self._node_list = nodes
        self._node_sizes = [
            {lvl: node.spec.cache.size(lvl) for lvl in CACHE_LEVELS}
            for node in nodes
        ]
        # pid → row slot table plus row-indexed lists, appended in
        # _row_for; rows are never recycled (pids are globally unique).
        self._pid_row: dict[int, int] = {}
        self._row_proc: list[SimProcess] = []
        #: fixed at spawn: the row's node index, miss amplification and
        #: counter targets (process dict, node dict, node per-core key)
        self._row_node: list[int] = []
        self._row_amp: list[float] = []
        self._row_targets: list[tuple[dict, dict, str]] = []
        #: stage-1 topology of the row's core: (core, physical core,
        #: sibling or -1, socket), fixed at spawn
        self._row_topo: list[tuple[int, int, int, int]] = []
        #: stage-1 demand of the row's current segment: (cpu, inclusive
        #: L1/L2/L3 footprints, intensity, miss-CPI penalty, mem_bw,
        #: mem_bw_extra); kept as-is when a segment ends
        self._row_dem: list[tuple[float, ...]] = []
        #: the current segment's (ips, mpki_base, mpki_extra), flows, I/O
        #: demand and priced rate columns; ``None`` where it has none
        self._row_seg: list[tuple[float, float, float] | None] = []
        self._row_flows: list[tuple | None] = []
        self._row_io: list[IODemand | None] = []
        self._row_priced: list[tuple[int, ...]] = []
        #: pre-fault stage-1 outcome: (speed, miss factor, cpu, mem rate)
        self._s1: list[tuple[float, float, float, float]] = []
        #: the last resolve's speed and rate list of each running row
        self._speed: list[float] = []
        self._rates: list[list[float]] = []
        #: stage-1 configuration memo (content-addressed, see class doc)
        self._stage1_cache: dict[tuple, tuple] = {}
        #: network-stage memo (signature → folded stage outcome)
        self._net_memo: dict[tuple, _NetStage] = {}
        #: nic_rx_bytes rate per destination node, from the network stage
        self._remote: dict[str, float] = {}
        #: the last resolve's running pids and the accrue plan built from
        #: its rates (see :meth:`_plan_accrue`)
        self._last_pids: tuple[int, ...] = ()
        self._plan: list[tuple] = []
        #: pids whose segment changed since their priced keys were last
        #: found in their counter dict
        self._unkeyed: set[int] = set()
        #: (node dict, OS-noise busy cores) per node
        self._noise = [
            (node.counters, node.spec.os_noise_util * node.logical_cores)
            for node in nodes
        ]

    # -- slot management ----------------------------------------------------

    def _row_for(self, proc: SimProcess) -> int:
        row = self._pid_row.get(proc.pid)
        if row is not None:
            return row
        row = len(self._row_proc)
        self._pid_row[proc.pid] = row
        self._row_proc.append(proc)
        ni = self._node_index[proc.node]
        spec = self._node_list[ni].spec
        self._row_node.append(ni)
        self._row_amp.append(spec.miss_amplification)
        self._row_seg.append(None)
        self._row_flows.append(None)
        self._row_io.append(None)
        self._row_priced.append((_CPU, _MEM))
        self._s1.append(_NO_STAGE1)
        self._speed.append(0.0)
        self._rates.append([0.0] * len(_RATE_KEYS))
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
            self._stage1_cache.clear()
            self._net_memo.clear()
        self._remote = {}
        stats = self.stats
        with stats.timer("node"):
            rows = self._solve_nodes(running, dirty)
        with stats.timer("network"):
            self._solve_network(rows)
        with stats.timer("storage"):
            self._solve_storage(rows)
        self._record_rates(rows)
        pids = tuple([proc.pid for proc in running])
        self._plan_accrue(pids, rows)
        self._last_pids = pids
        speed = self._speed
        return dict(zip(pids, [speed[row] for row in rows]))

    def _solve_nodes(
        self, running: Sequence[SimProcess], dirty: frozenset[int] | None
    ) -> list[int]:
        """Stage 1: bring every running row's speed and stage-1 rates up
        to date, re-solving only nodes that host a dirty pid.  Returns the
        running rows, in running order."""
        rows: list[int] = []
        by_node: dict[str, list[int]] = {}
        # nodes hosting a dirty pid
        touched: set[str] = set()
        row_seg = self._row_seg
        for proc in running:
            row = self._row_for(proc)
            rows.append(row)
            node = proc.node
            tenants = by_node.get(node)
            if tenants is None:
                by_node[node] = [row]
            else:
                tenants.append(row)
            # Refresh dirty segments, plus any row whose segment is still
            # unset (e.g. between phases).
            if dirty is None:
                self._refresh_segment(proc, row)
            elif proc.pid in dirty:
                self._refresh_segment(proc, row)
                touched.add(node)
            elif row_seg[row] is None:
                self._refresh_segment(proc, row)

        node_cache = self._node_cache
        stats = self.stats
        for node, tenants in by_node.items():
            key = tuple(tenants)
            if (
                dirty is not None
                and node not in touched
                and node_cache.get(node) == key
            ):
                # Same tenants, same segments: the stage-1 rows are
                # still exact.
                stats.count("nodes_reused")
                continue
            stats.count("nodes_solved")
            self._solve_node_memo(key)
            node_cache[node] = key
        # Every hosting node now has an entry, so any extra one belongs
        # to a node that lost all its tenants.
        if len(node_cache) > len(by_node):
            for stale in [node for node in node_cache if node not in by_node]:
                del node_cache[stale]

        s1 = self._s1
        speed = self._speed
        rates = self._rates
        for row in rows:
            s, _, cpu, mem = s1[row]
            speed[row] = s
            rates[row] = [cpu, mem, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

        # Fault-induced compute degradation: stage-1 rows always store
        # *pre-fault* values, so the factor is applied uniformly on every
        # resolve — cached and fresh rows alike.  At this point the only
        # materialized rates are the stage-1 pair, exactly the keys the
        # reference model scales.
        faults = self.cluster.faults
        if faults is not None and faults.active:
            node_factor = [faults.speed_factor(node.name) for node in self._node_list]
            row_node = self._row_node
            for row in rows:
                f = node_factor[row_node[row]]
                if f < 1.0:
                    speed[row] *= f
                    rate = rates[row]
                    rate[_CPU] *= f
                    rate[_MEM] *= f
        return rows

    @property
    def last_rates(self) -> dict[int, dict[str, float]]:
        """Per-pid accounting rates from the last resolve, materialized
        on demand from the priced columns of each rate list
        (checker-facing view)."""
        out: dict[int, dict[str, float]] = {}
        for pid in self._last_pids:
            row = self._pid_row[pid]
            rates = self._rates[row]
            out[pid] = {_RATE_KEYS[col]: rates[col] for col in self._row_priced[row]}
        return out

    def _refresh_segment(self, proc: SimProcess, row: int) -> None:
        """Mirror the row's current segment into the row lists; the
        priced columns are the keys the reference model prices for it."""
        self._unkeyed.add(proc.pid)
        seg = proc.current
        if seg is None:
            self._row_seg[row] = None
            self._row_flows[row] = None
            self._row_io[row] = None
            self._row_priced[row] = (_CPU, _MEM)
            return
        self._row_seg[row] = (seg.ips, seg.mpki_base, seg.mpki_extra)
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
        self._row_io[row] = seg.io
        priced = [_CPU, _MEM, _INSTR, _L2, _L3]
        if flows is not None and self.flow_solver is not None:
            priced.append(_NIC)
        if seg.io is not None:
            priced += (_IOW, _IOR, _IOM)
        self._row_priced[row] = tuple(priced)

    # -- stage 1 with a configuration memo ----------------------------------

    def _solve_node_memo(self, rows: tuple[int, ...]) -> None:
        """Stage-1 solve via the content-addressed configuration memo.

        The solve is a pure function of the node's spec and the ordered
        per-tenant ``(core, segment demand)`` vector — pids only label the
        outputs — so identical configurations (synchronized ranks cycling
        compute/comm phases) are served from the memo bit-for-bit.  The
        memoized value holds one ``(speed, miss_factor, cpu_rate,
        mem_rate)`` tuple per tenant, aligned with ``rows`` (one node's
        tenant rows, in running order), stored into ``_s1`` here.
        """
        spec = self._node_list[self._row_node[rows[0]]].spec
        row_topo = self._row_topo
        row_dem = self._row_dem
        topo = [row_topo[r] for r in rows]
        dem = tuple([row_dem[r] for r in rows])
        key = (id(spec), tuple([t[0] for t in topo]), dem)
        hit = self._stage1_cache.get(key)
        if hit is not None:
            self.stats.count("stage1_memo_hits")
        else:
            self.stats.count("stage1_memo_misses")
            hit = tuple(zip(*self._solve_node(spec, dem, topo)))
            if len(self._stage1_cache) >= self.STAGE1_MEMO_SIZE:
                self._stage1_cache.pop(next(iter(self._stage1_cache)))
            self._stage1_cache[key] = hit
        s1 = self._s1
        for row, out in zip(rows, hit):
            s1[row] = out

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

    def _solve_network(self, rows: list[int]) -> None:
        if self.flow_solver is None:
            return
        # Per-flow owner row, demand and (pid, src, dst) structure, in
        # running order.
        row_flows = self._row_flows
        row_proc = self._row_proc
        speed = self._speed
        owners: list[int] = []
        demands: list[float] = []
        struct: list[tuple[int, str, str]] = []
        for row in rows:
            flows = row_flows[row]
            if flows is None:
                continue
            proc = row_proc[row]
            pid, src, s = proc.pid, proc.node, speed[row]
            for flow in flows:
                owners.append(row)
                demands.append(flow.rate * s)
                struct.append((pid, src, flow.dst))
        if not owners:
            return
        faults = self.cluster.faults
        if faults is not None and faults.active:
            nic = tuple(
                [
                    faults.nic_factor(src) * faults.nic_factor(dst)
                    for _, src, dst in struct
                ]
            )
        else:
            nic = (1.0,) * len(demands)
        # The structure tuple plus the per-flow NIC factors and demands.
        # Float equality is exact for every value the stage can see: it
        # merges -0.0 with 0.0, but both take the same ``demand <= 0``
        # branch below, so a hit across them replays the same stage; a
        # NaN never equals a fresh NaN, so it only misses.
        signature = (tuple(struct), nic, tuple(demands))
        memo = self._net_memo
        stage = memo.get(signature)
        if stage is not None:
            self.stats.count("network_memo_hits")
        else:
            self.stats.count("network_stage_solves")
            requests = [
                FlowRequest(key=k, src=src, dst=dst, demand=demand)
                for k, ((_, src, dst), demand) in enumerate(zip(struct, demands))
            ]
            result = self.flow_solver.solve(requests)
            worst: dict[int, float] = {}
            tx: dict[int, float] = {}
            remote: dict[str, float] = {}
            for request, row, nic_k in zip(requests, owners, nic):
                grant = result.grants[request.key] * nic_k
                demand = request.demand
                ratio = nic_k if demand <= 0 else min(1.0, grant / demand)
                worst[row] = min(worst.get(row, 1.0), ratio)
                tx[row] = tx.get(row, 0.0) + grant
                remote[request.dst] = remote.get(request.dst, 0.0) + grant
            stage = _NetStage(
                grants=tuple((row, ratio, tx[row]) for row, ratio in worst.items()),
                remote=remote,
            )
            if len(memo) >= self.NET_MEMO_SIZE:
                memo.pop(next(iter(memo)))
            memo[signature] = stage
        self._apply_net_stage(stage)

    def _apply_net_stage(self, stage: _NetStage) -> None:
        speed = self._speed
        rates = self._rates
        for row, ratio, tx in stage.grants:
            speed[row] *= ratio
            rates[row][_NIC] = tx
        for dst, rate in stage.remote.items():
            self._remote[dst] = self._remote.get(dst, 0.0) + rate

    # -- stage 3: storage ----------------------------------------------------

    def _solve_storage(self, rows: list[int]) -> None:
        by_fs: dict[str, list[tuple[int, str, IODemand]]] = defaultdict(list)
        row_io = self._row_io
        row_proc = self._row_proc
        speed = self._speed
        for row in rows:
            io = row_io[row]
            if io is None:
                continue
            s = speed[row]
            proc = row_proc[row]
            scaled = type(io)(
                fs=io.fs,
                write_bw=io.write_bw * s,
                read_bw=io.read_bw * s,
                meta_ops=io.meta_ops * s,
            )
            by_fs[io.fs].append((proc.pid, proc.node, scaled))
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
        # Every demand was scaled above, before any ratio is applied.
        pid_row = self._pid_row
        all_rates = self._rates
        for fs_name, demands in by_fs.items():
            grants = self.cluster.filesystem(fs_name).solve(demands)
            for pid, _, _ in demands:
                grant = grants[pid]
                row = pid_row[pid]
                speed[row] *= min(1.0, grant.ratio)
                rates = all_rates[row]
                rates[_IOW] = grant.write_bw
                rates[_IOR] = grant.read_bw
                rates[_IOM] = grant.meta_ops

    # -- finalize ------------------------------------------------------------

    def _record_rates(self, rows: list[int]) -> None:
        """Instruction and cache-miss rates from each row's final speed,
        in the reference model's float order."""
        row_seg = self._row_seg
        row_amp = self._row_amp
        s1 = self._s1
        speeds = self._speed
        all_rates = self._rates
        for row in rows:
            seg = row_seg[row]
            if seg is None:
                continue
            ips_base, mpki_base, mpki_extra = seg
            ips = ips_base * speeds[row]
            mpki = row_amp[row] * (mpki_base + mpki_extra * s1[row][1])
            rates = all_rates[row]
            rates[_INSTR] = ips
            rates[_L3] = mpki * ips / 1000.0
            rates[_L2] = max(
                L2_MISS_FACTOR * mpki * ips / 1000.0, rates[_MEM] / 256.0
            )

    def _plan_accrue(self, pids: tuple[int, ...], rows: list[int]) -> None:
        """Pair each running row's counter targets with its final rates.

        The plan :meth:`accrue` runs holds one ``(targets, rates,
        missing)`` entry per running row, in running order: the row's
        ``_row_targets`` entry, its rate list, and the priced
        keys its process dict still lacks.  ``accrue`` creates those at
        ``0.0``, so they appear at the first accrued interval, as the
        reference model's do, and never for a process that is priced but
        never accrued.  A row's priced keys follow from its segment, so
        only pids in ``_unkeyed`` (refreshed since their keys were last
        found present) are checked.
        """
        row_targets = self._row_targets
        all_rates = self._rates
        plan = [(row_targets[row], all_rates[row], ()) for row in rows]
        unkeyed = self._unkeyed
        if unkeyed:
            row_priced = self._row_priced
            for i, pid in enumerate(pids):
                if pid not in unkeyed:
                    continue
                targets, rates, _ = plan[i]
                counters = targets[0]
                missing = [
                    _RATE_KEYS[col]
                    for col in row_priced[rows[i]]
                    if _RATE_KEYS[col] not in counters
                ]
                if missing:
                    plan[i] = (targets, rates, missing)
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
            index = {pid: i for i, pid in enumerate(self._last_pids)}
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
