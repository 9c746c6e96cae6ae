"""The reference rate model: the contention equations as plain scalar loops.

:class:`ReferenceRateModel` prices exactly what
:class:`~repro.cluster.ratemodel.ClusterRateModel` prices, but states it
the simplest way: dicts keyed by pid, one loop per equation, and a
from-scratch re-pricing of every node, flow and filesystem demand on
every resolve.  It has no caches, no memos and no dirty-set shortcuts,
and it writes counters straight into the process and node dicts.

It exists to be read and to be compared against.  ``repro check`` swaps
it onto a freshly built cluster
(:func:`repro.check.harness.use_reference_model`) and requires the
production model to reproduce its simulations byte-for-byte.  It is not a
production path: nothing outside :mod:`repro.check` and the tests builds
it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Sequence

from repro.cache.model import (
    CacheDemand,
    cascade_miss_factor,
    inclusive_footprints,
    solve_occupancy,
)
from repro.cluster.ratemodel import L2_MISS_FACTOR
from repro.memory.bandwidth import ShareFn, solve_bandwidth
from repro.network.flows import FlowRequest, FlowSolver
from repro.resources.fairshare import max_min_fair_share
from repro.sim.engine import RateModel
from repro.sim.process import CACHE_LEVELS, SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


class ReferenceRateModel(RateModel):
    """Scalar, cache-free statement of the cluster rate model.

    Takes the same parameters as
    :class:`~repro.cluster.ratemodel.ClusterRateModel`.  Flow solves run
    cold (``FlowSolver.memoize = False``), so no result is ever reused.
    """

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
        self.flow_solver = (
            FlowSolver(cluster.topology, k_paths=k_paths, memoize=False)
            if cluster.topology is not None
            else None
        )
        #: per-pid accounting rates from the last resolve
        self._proc_rates: dict[int, dict[str, float]] = {}
        #: node-level rates that land on a *different* node than the
        #: owning process (rx bytes at a flow's destination)
        self._remote_rates: dict[str, dict[str, float]] = {}

    @property
    def last_rates(self) -> dict[int, dict[str, float]]:
        """Per-pid accounting rates computed by the last resolve."""
        return self._proc_rates

    def resolve(self, running: Sequence[SimProcess], now: float) -> dict[int, float]:
        self._proc_rates = {p.pid: {} for p in running}
        self._remote_rates = defaultdict(lambda: defaultdict(float))
        speeds: dict[int, float] = {}
        miss_factor: dict[int, float] = {}

        by_node: dict[str, list[SimProcess]] = defaultdict(list)
        for proc in running:
            by_node[proc.node].append(proc)
        for node_name, procs in by_node.items():
            speeds.update(self._solve_node(node_name, procs, miss_factor))

        # Fault-induced compute degradation (node hang / transient
        # slowdown) scales the stage-1 outcome.
        faults = self.cluster.faults
        if faults is not None and faults.active:
            for proc in running:
                factor = faults.speed_factor(proc.node)
                if factor < 1.0:
                    speeds[proc.pid] *= factor
                    rates = self._proc_rates[proc.pid]
                    for key in rates:
                        rates[key] *= factor

        self._solve_network(running, speeds)
        self._solve_storage(running, speeds)
        self._record_rates(running, speeds, miss_factor)
        return speeds

    def accrue(self, running: Sequence[SimProcess], t0: float, t1: float) -> None:
        dt = t1 - t0
        for proc in running:
            rates = self._proc_rates.get(proc.pid)
            if not rates:
                continue
            node = self.cluster.node(proc.node)
            for key, rate in rates.items():
                amount = rate * dt
                proc.add_counter(key, amount)
                node.add_counter(key, amount)
            node.add_counter(
                f"cpu_core{proc.core}_seconds",
                rates.get("cpu_user_seconds", 0.0) * dt,
            )
        for node_name, rates in self._remote_rates.items():
            node = self.cluster.node(node_name)
            for key, rate in rates.items():
                node.add_counter(key, rate * dt)

    def on_process_end(self, proc: SimProcess) -> None:
        self.cluster.node(proc.node).memory.free_all(proc.pid)

    def accrue_background(self, dt: float) -> None:
        """OS noise accounting; called by the cluster's sys sampler."""
        for node in self.cluster.nodes.values():
            node.add_counter(
                "cpu_sys_seconds", node.spec.os_noise_util * node.logical_cores * dt
            )

    # -- stage 1: per-node --------------------------------------------------

    def _solve_node(
        self,
        node_name: str,
        procs: list[SimProcess],
        miss_factor: dict[int, float],
    ) -> dict[int, float]:
        spec = self.cluster.node(node_name).spec
        sizes = {lvl: spec.cache.size(lvl) for lvl in CACHE_LEVELS}

        footprints = {
            p.pid: inclusive_footprints(p.current.cache_footprint, sizes)
            for p in procs
            if p.current is not None
        }
        evictions: dict[int, dict[str, float]] = {
            p.pid: dict.fromkeys(CACHE_LEVELS, 0.0) for p in procs
        }

        # Private levels (L1, L2): contested among hyperthread siblings.
        core_groups: dict[int, list[SimProcess]] = defaultdict(list)
        for p in procs:
            core_groups[spec.physical_core_of(p.core)].append(p)
        for level in ("L1", "L2"):
            for tenants in core_groups.values():
                self._evict(sizes[level], level, tenants, footprints, evictions)

        # Shared level (L3): contested socket-wide.
        socket_groups: dict[int, list[SimProcess]] = defaultdict(list)
        for p in procs:
            socket_groups[spec.socket_of(p.core)].append(p)
        for tenants in socket_groups.values():
            self._evict(sizes["L3"], "L3", tenants, footprints, evictions)

        for p in procs:
            miss_factor[p.pid] = cascade_miss_factor(
                evictions[p.pid], spec.cache_miss_cascade
            )

        # CPU: processor sharing per logical core, SMT capacity coupling.
        core_demand: dict[int, float] = defaultdict(float)
        for p in procs:
            core_demand[p.core] += p.current.cpu
        compute_speed: dict[int, float] = {}
        cpu_grant: dict[int, float] = {}
        for p in procs:
            seg = p.current
            sibling = spec.sibling_of(p.core)
            sibling_util = (
                min(1.0, core_demand.get(sibling, 0.0)) if sibling is not None else 0.0
            )
            capacity = 1.0 - (1.0 - spec.smt_throughput / 2.0) * sibling_util
            total = core_demand[p.core]
            if seg.cpu > 0:
                # Time share is what /proc/stat sees (a busy hyperthread is
                # 100% "utilised"); the SMT capacity factor degrades the
                # *throughput* extracted during that time.
                time_share = seg.cpu * min(1.0, 1.0 / total)
                cpu_ratio = (time_share / seg.cpu) * capacity
            else:
                time_share, cpu_ratio = 0.0, 1.0
            cpu_grant[p.pid] = time_share
            cpi = 1.0 + seg.miss_cpi_penalty * miss_factor[p.pid]
            compute_speed[p.pid] = cpu_ratio / cpi

        # Memory bandwidth per socket, capped per core at the single-core
        # limit; ``phi`` is how close a segment's (eviction-inflated)
        # demand sits to that limit, ``phi0`` the same at base traffic.
        mem_ratio: dict[int, float] = {}
        phi0: dict[int, float] = {}
        phi: dict[int, float] = {}
        for tenants in socket_groups.values():
            wants = [
                min(
                    p.current.mem_bw + p.current.mem_bw_extra * miss_factor[p.pid],
                    spec.core_mem_bw,
                )
                for p in tenants
            ]
            grants = solve_bandwidth(
                spec.mem_bw_per_socket,
                wants,
                alpha=spec.bw_latency_alpha,
                share_fn=self.share_fn,
            )
            for p, want, grant in zip(tenants, wants, grants):
                mem_ratio[p.pid] = 1.0 if want <= 0 else min(1.0, grant / want)
                phi[p.pid] = want / spec.core_mem_bw
                phi0[p.pid] = (
                    min(p.current.mem_bw, spec.core_mem_bw) / spec.core_mem_bw
                )

        speeds: dict[int, float] = {}
        for p in procs:
            f0 = phi0[p.pid]
            f = phi[p.pid]
            # Roofline with eviction-inflated memory traffic: the nominal
            # iteration overlaps a compute part (1 - f0) and a memory part
            # (f0); contention stretches compute by 1/compute_speed and
            # memory to f / mem_ratio (extra refetch bytes AND reduced
            # bandwidth).  The achieved speed is baseline over the new max,
            # so a fully memory-bound STREAM does not care about losing CPU
            # share, and a compute-bound kernel does not care about
            # bandwidth loss.
            baseline = max(1.0 - f0, f0)
            slowdown = (
                max((1.0 - f0) / compute_speed[p.pid], f / mem_ratio[p.pid]) / baseline
            )
            speeds[p.pid] = 1.0 / slowdown
            self._proc_rates[p.pid]["cpu_user_seconds"] = cpu_grant[p.pid]
            self._proc_rates[p.pid]["mem_bytes"] = (
                f * spec.core_mem_bw * speeds[p.pid]
            )
        return speeds

    def _evict(
        self,
        size: float,
        level: str,
        tenants: list[SimProcess],
        footprints: dict[int, dict[str, float]],
        evictions: dict[int, dict[str, float]],
    ) -> None:
        """Occupancy contest of ``tenants`` for one cache of ``size``."""
        res = solve_occupancy(
            size,
            [
                CacheDemand(p.pid, footprints[p.pid][level], p.current.cache_intensity)
                for p in tenants
            ],
            sharpness=self.cache_sharpness,
        )
        for p in tenants:
            evictions[p.pid][level] = res[p.pid].eviction

    # -- stage 2: network -----------------------------------------------------

    def _solve_network(
        self, running: Sequence[SimProcess], speeds: dict[int, float]
    ) -> None:
        if self.flow_solver is None:
            return
        requests: list[FlowRequest] = []
        owners: list[SimProcess] = []
        for proc in running:
            seg = proc.current
            if seg is None:
                continue
            for flow in seg.flows:
                requests.append(
                    FlowRequest(
                        key=len(requests),
                        src=proc.node,
                        dst=flow.dst,
                        demand=flow.rate * speeds[proc.pid],
                    )
                )
                owners.append(proc)
        if not requests:
            return
        result = self.flow_solver.solve(requests)
        # Fault-induced link degradation scales the *granted* ratio, not
        # the demand: scaling demand to zero would hit the ``demand <= 0``
        # branch below and wrongly grant full speed.
        faults = self.cluster.faults
        worst_ratio: dict[int, float] = {}
        for request, proc in zip(requests, owners):
            nic = 1.0
            if faults is not None and faults.active:
                nic = faults.nic_factor(request.src) * faults.nic_factor(request.dst)
            grant = result.grants[request.key] * nic
            demand = request.demand
            ratio = nic if demand <= 0 else min(1.0, grant / demand)
            worst_ratio[proc.pid] = min(worst_ratio.get(proc.pid, 1.0), ratio)
            # tx accounting reflects granted (not demanded) rates
            rates = self._proc_rates[proc.pid]
            rates["nic_tx_bytes"] = rates.get("nic_tx_bytes", 0.0) + grant
            self._remote_rates[request.dst]["nic_rx_bytes"] += grant
        for pid, ratio in worst_ratio.items():
            speeds[pid] *= ratio

    # -- stage 3: storage -----------------------------------------------------

    def _solve_storage(
        self, running: Sequence[SimProcess], speeds: dict[int, float]
    ) -> None:
        by_fs: dict[str, list] = defaultdict(list)
        for proc in running:
            seg = proc.current
            if seg is not None and seg.io is not None:
                io = seg.io
                s = speeds[proc.pid]
                scaled = type(io)(
                    fs=io.fs,
                    write_bw=io.write_bw * s,
                    read_bw=io.read_bw * s,
                    meta_ops=io.meta_ops * s,
                )
                by_fs[io.fs].append((proc.pid, proc.node, scaled))
        obs = self.cluster.sim.obs
        if obs is not None:
            # One "busy" span per filesystem covering the stretch of
            # simulated time during which any I/O demand exists.
            for fs_name in self.cluster.filesystems:
                obs.window(
                    ("io", fs_name),
                    "storage",
                    f"busy:{fs_name}",
                    ("storage", fs_name),
                    active=fs_name in by_fs,
                )
        for fs_name, demands in by_fs.items():
            grants = self.cluster.filesystem(fs_name).solve(demands)
            for pid, _, _ in demands:
                grant = grants[pid]
                speeds[pid] *= min(1.0, grant.ratio)
                rates = self._proc_rates[pid]
                rates["io_write_bytes"] = grant.write_bw
                rates["io_read_bytes"] = grant.read_bw
                rates["io_meta_ops"] = grant.meta_ops

    # -- finalize --------------------------------------------------------------

    def _record_rates(
        self,
        running: Sequence[SimProcess],
        speeds: dict[int, float],
        miss_factor: dict[int, float],
    ) -> None:
        for proc in running:
            seg = proc.current
            if seg is None:
                continue
            rates = self._proc_rates[proc.pid]
            speed = speeds.get(proc.pid, 0.0)
            amp = self.cluster.node(proc.node).spec.miss_amplification
            ips = seg.ips * speed
            mpki = amp * (
                seg.mpki_base + seg.mpki_extra * miss_factor.get(proc.pid, 0.0)
            )
            rates["instructions"] = ips
            rates["l3_misses"] = mpki * ips / 1000.0
            # L2 misses track whichever is larger: the cascade from L3
            # misses, or the demand-miss stream feeding the measured
            # memory traffic (one miss per ~4 cache lines after
            # prefetching) — the latter is what makes L2_RQSTS:MISS the
            # paper's memory-intensiveness indicator (Table 2).
            rates["l2_misses"] = max(
                L2_MISS_FACTOR * mpki * ips / 1000.0,
                rates.get("mem_bytes", 0.0) / 256.0,
            )
