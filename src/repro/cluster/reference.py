"""The reference rate model: the contention equations as plain scalar loops.

:class:`ReferenceRateModel` prices exactly what
:class:`~repro.cluster.ratemodel.ClusterRateModel` prices, but states it
the simplest way: dicts keyed by pid, one loop per equation, and a
from-scratch re-pricing of every node, flow and filesystem demand on
every resolve.  It has no caches, no memos and no dirty-set shortcuts,
and it writes counters straight into the process and node dicts.
Its network stage runs :class:`ReferenceFlowSolver`, the same kind of
statement of :class:`~repro.network.flows.FlowSolver`: one object per
sub-flow, dicts keyed by edge, and no solve memo.

It exists to be read and to be compared against.  ``repro check`` swaps
it onto a freshly built cluster
(:func:`repro.check.harness.use_reference_model`) and requires the
production model to reproduce its simulations byte-for-byte.  It is not a
production path: nothing outside :mod:`repro.check` and the tests builds
it.
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
from repro.cluster.ratemodel import L2_MISS_FACTOR
from repro.errors import ResourceError
from repro.memory.bandwidth import ShareFn, solve_bandwidth
from repro.network.flows import Edge, FlowRequest, FlowResult, candidate_paths
from repro.network.topology import NetworkTopology
from repro.resources.fairshare import max_min_fair_share
from repro.sim.engine import RateModel
from repro.sim.process import CACHE_LEVELS, SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster


class ReferenceRateModel(RateModel):
    """Scalar, cache-free statement of the cluster rate model.

    Takes the same parameters as
    :class:`~repro.cluster.ratemodel.ClusterRateModel`.  Flow solves run
    on :class:`ReferenceFlowSolver`, which never reuses a result.
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
            ReferenceFlowSolver(cluster.topology, k_paths=k_paths)
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


# -- the flow solver ----------------------------------------------------------


@dataclass
class _SubFlow:
    flow_index: int
    edges: list[Edge]
    demand: float
    rate: float = 0.0
    fixed: bool = False


class ReferenceFlowSolver:
    """Scalar, memo-free statement of :class:`~repro.network.flows.FlowSolver`.

    Same parameters and ``solve`` contract, with the network equations
    written out on one :class:`_SubFlow` object per (flow, path): split
    each demand evenly over the candidate paths, re-balance the splits
    toward less-congested paths, share link capacity by demand-capped
    max-min water filling, then degrade every flow's demand by the
    congestion latency other traffic imposes on its paths and share
    again.  Only the topology lookups (paths, capacities) are memoised;
    every solve runs from scratch.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        k_paths: int = 4,
        rebalance_rounds: int = 4,
        latency_alpha: float = 0.6,
    ) -> None:
        self.topology = topology
        self.k_paths = k_paths
        self.rebalance_rounds = rebalance_rounds
        self.latency_alpha = latency_alpha
        #: attached invariant checker (see :mod:`repro.check`), or None
        self.check = None
        self._path_cache: dict[tuple[str, str], list[list[Edge]]] = {}
        self._cap_cache: dict[Edge, float] = {}

    def solve(
        self, flows: list[FlowRequest], signature: tuple | None = None
    ) -> FlowResult:
        """Grant bandwidth to every flow; ``signature`` is ignored."""
        if not flows:
            return FlowResult(grants={})
        keys = [f.key for f in flows]
        if len(set(keys)) != len(keys):
            raise ResourceError("flow keys must be unique per solve")

        subflows: list[_SubFlow] = []
        per_flow_subflows: list[list[_SubFlow]] = []
        for idx, flow in enumerate(flows):
            paths = self._paths(flow.src, flow.dst)
            flow_subs = [
                _SubFlow(flow_index=idx, edges=path, demand=flow.demand / len(paths))
                for path in paths
            ]
            per_flow_subflows.append(flow_subs)
            subflows.extend(flow_subs)

        for _ in range(self.rebalance_rounds):
            loads = self._edge_loads(subflows)
            self._rebalance(flows, per_flow_subflows, loads)
        if self.check is not None:
            self.check.on_flow_split(
                flows, [[sub.demand for sub in subs] for subs in per_flow_subflows]
            )

        # Pass 1: capacity sharing with the raw demands.
        self._max_min_reference(subflows)

        if self.latency_alpha > 0:
            # Pass 2: degrade each flow's demand by the congestion other
            # granted traffic imposes on its paths, then re-share.
            granted_loads = self._edge_loads(subflows, use_rate=True)
            for subs in per_flow_subflows:
                own = {e: 0.0 for sub in subs for e in sub.edges}
                for sub in subs:
                    for e in sub.edges:
                        own[e] += sub.rate
                worst = 0.0
                for sub in subs:
                    for e in sub.edges:
                        cap = self._capacity(e)
                        other = max(0.0, granted_loads.get(e, 0.0) - own[e])
                        worst = max(worst, other / cap)
                factor = 1.0 / (1.0 + self.latency_alpha * worst)
                for sub in subs:
                    sub.demand *= factor
            self._max_min_reference(subflows)

        grants = {f.key: 0.0 for f in flows}
        for sub in subflows:
            grants[flows[sub.flow_index].key] += sub.rate
        result = FlowResult(
            grants=grants, edge_load=self._edge_loads(subflows, use_rate=True)
        )
        if self.check is not None:
            self.check.on_flow_solve(self, flows, result)
        return result

    def _capacity(self, edge: Edge) -> float:
        cap = self._cap_cache.get(edge)
        if cap is None:
            cap = self.topology.capacity(*edge)
            self._cap_cache[edge] = cap
        return cap

    def _paths(self, src: str, dst: str) -> list[list[Edge]]:
        # A pure memo over the immutable topology (this solver keeps no
        # solve memo at all; RL013 matches it by its class-name suffix).
        paths = self._path_cache.get((src, dst))  # repro-lint: disable=RL013
        if paths is None:
            paths = candidate_paths(self.topology, src, dst, self.k_paths)
            self._path_cache[(src, dst)] = paths
        return paths

    def _edge_loads(
        self, subflows: list[_SubFlow], use_rate: bool = False
    ) -> dict[Edge, float]:
        loads: dict[Edge, float] = {}
        for sub in subflows:
            amount = sub.rate if use_rate else sub.demand
            for edge in sub.edges:
                loads[edge] = loads.get(edge, 0.0) + amount
        return loads

    def _rebalance(
        self,
        flows: list[FlowRequest],
        per_flow_subflows: list[list[_SubFlow]],
        loads: dict[Edge, float],
    ) -> None:
        """Shift each flow's split toward its less-congested paths."""
        for flow, subs in zip(flows, per_flow_subflows):
            if len(subs) <= 1 or flow.demand == 0:
                continue
            congestions = []
            for sub in subs:
                # Congestion the flow would see on this path from OTHER
                # traffic (its own contribution removed).
                worst = 0.0
                for edge in sub.edges:
                    cap = self._capacity(edge)
                    other = loads.get(edge, 0.0) - sub.demand
                    worst = max(worst, other / cap)
                congestions.append(worst)
            weights = [1.0 / (1.0 + c) ** 2 for c in congestions]
            wsum = sum(weights)
            for sub, w in zip(subs, weights):
                for edge in sub.edges:
                    loads[edge] = loads.get(edge, 0.0) - sub.demand
                sub.demand = flow.demand * w / wsum
                for edge in sub.edges:
                    loads[edge] = loads.get(edge, 0.0) + sub.demand

    def _max_min_reference(self, subflows: list[_SubFlow]) -> None:
        """Demand-capped max-min fair rates over all links (water filling).

        Each round offers every link's residual capacity evenly to the
        unfixed sub-flows crossing it.  Sub-flows whose demand fits under
        the lowest offer are granted their demand; otherwise the
        sub-flows crossing the tightest link (lowest share, then
        lexicographically smallest edge) are fixed at its share.
        """
        for sub in subflows:
            sub.rate = 0.0
            sub.fixed = sub.demand <= 0.0
        edges = {e for sub in subflows for e in sub.edges}
        residual = {e: self._capacity(e) for e in edges}

        for _ in range(len(subflows) + len(edges) + 1):
            unfixed = [s for s in subflows if not s.fixed]
            if not unfixed:
                return
            # Fair share offered by each link to its unfixed subflows.
            link_share: dict[Edge, float] = {}
            for edge in edges:
                crossing = [s for s in unfixed if edge in s.edges]
                if crossing:
                    link_share[edge] = residual[edge] / len(crossing)
            if not link_share:
                for sub in unfixed:  # no constrained links: grant demands
                    sub.rate = sub.demand
                    sub.fixed = True
                return
            bottleneck_rate = min(link_share.values())
            demand_limited = [
                s for s in unfixed if s.demand <= bottleneck_rate + 1e-12
            ]
            if demand_limited:
                fixed_now = demand_limited
                for sub in fixed_now:
                    sub.rate = sub.demand
            else:
                bottleneck = min(link_share, key=lambda e: (link_share[e], e))
                fixed_now = [s for s in unfixed if bottleneck in s.edges]
                for sub in fixed_now:
                    sub.rate = bottleneck_rate
            for sub in fixed_now:
                sub.fixed = True
                for edge in sub.edges:
                    residual[edge] = max(0.0, residual[edge] - sub.rate)
        raise ResourceError("max-min water filling failed to converge")
