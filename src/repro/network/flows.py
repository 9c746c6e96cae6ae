"""Fluid flow allocation with adaptive multipath routing.

The solver mirrors how Aries behaves at the granularity our monitoring
observes (1 Hz):

1. **Path selection (adaptive routing).**  Each flow considers up to ``k``
   loop-free shortest paths.  Its demand is split across them, and the
   split is iteratively re-balanced away from congested links — the fluid
   analogue of Aries' per-packet adaptive routing.
2. **Link sharing.**  Given the final sub-flows, per-link capacity is
   divided by demand-capped max-min fairness (the classic water-filling
   algorithm over links).

Static single-path routing (the ablation in
``benchmarks/bench_ablation_routing.py``) uses ``k=1``, which removes the
re-balancing and reproduces the severe congestion the paper says adaptive
routing avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ResourceError
from repro.network.topology import NetworkTopology
from repro.sim.stats import SimStats

Edge = tuple[str, str]


def _edge(u: str, v: str) -> Edge:
    return (u, v) if str(u) <= str(v) else (v, u)


@dataclass
class FlowRequest:
    """A point-to-point demand to be routed.

    Attributes
    ----------
    key:
        Caller's identifier (e.g. the pid of the demanding process).
    src / dst:
        Compute-node names.
    demand:
        Bytes/s wanted at full speed.
    """

    key: int
    src: str
    dst: str
    demand: float

    def __post_init__(self) -> None:
        if self.demand < 0 or math.isnan(self.demand) or math.isinf(self.demand):
            raise ResourceError("flow demand must be finite and >= 0")


@dataclass
class _SubFlow:
    flow_index: int
    edges: list[Edge]
    demand: float
    rate: float = 0.0
    fixed: bool = False


@dataclass
class FlowResult:
    """Outcome of a solve: per-flow grants and per-edge utilisation."""

    grants: dict[int, float]
    edge_load: dict[Edge, float] = field(default_factory=dict)


class FlowSolver:
    """Allocates network bandwidth for a set of concurrent flows."""

    #: memoised solves kept before the oldest entry is evicted
    MEMO_SIZE = 128

    def __init__(
        self,
        topology: NetworkTopology,
        k_paths: int = 4,
        rebalance_rounds: int = 4,
        latency_alpha: float = 0.6,
        warm_start: bool = False,
        memoize: bool = True,
    ) -> None:
        if k_paths < 1:
            raise ResourceError("k_paths must be >= 1")
        if latency_alpha < 0:
            raise ResourceError("latency_alpha must be >= 0")
        self.topology = topology
        self.k_paths = k_paths
        self.rebalance_rounds = rebalance_rounds
        #: reuse full solves for identical request signatures.  ``False``
        #: re-solves from scratch every call — the cold reference path the
        #: ``repro check`` flow-memo oracle compares against.
        self.memoize = memoize
        #: attached invariant checker (see :mod:`repro.check`), or None;
        #: hook sites are guarded so an unchecked solve pays nothing.
        self.check = None
        #: start the adaptive split from the previous solve's converged
        #: per-path fractions instead of a uniform split.  Off by default:
        #: warm starting changes the (equally valid) allocation reached
        #: after ``rebalance_rounds``, so results are no longer bit-equal
        #: to a cold solve — see docs/PERFORMANCE.md before enabling.
        self.warm_start = warm_start
        #: counter block; the cluster rate model swaps in the engine's
        self.stats = SimStats()
        #: strength of the congestion-latency degradation: traffic from
        #: *other* flows on a flow's path stretches per-packet latency,
        #: lowering the bandwidth a fixed-window sender can extract even
        #: when link capacity is not exhausted.  This is the effect that
        #: makes netoccupy hurt the OSU benchmark on an adaptively-routed
        #: fabric whose links never fully saturate (paper Fig. 6).
        self.latency_alpha = latency_alpha
        self._path_cache: dict[tuple[str, str], list[list[Edge]]] = {}
        #: per-edge capacity memo over the immutable topology; the solver
        #: reads capacities hundreds of times per solve and the networkx
        #: edge-view lookup dominates without it
        self._cap_cache: dict[Edge, float] = {}
        #: memo of full solves keyed by the canonical request signature
        self._solve_cache: dict[tuple, FlowResult] = {}
        #: per-(src, dst) converged split fractions from the last solve
        self._warm_splits: dict[tuple[str, str], tuple[float, ...]] = {}

    # -- public -----------------------------------------------------------

    def solve(
        self, flows: list[FlowRequest], signature: tuple | None = None
    ) -> FlowResult:
        """Grant bandwidth to every flow; grants are keyed by ``flow.key``.

        Keys must be unique per request: a process with several concurrent
        flows must submit them under distinct keys.  A flow's grant is the
        sum over its adaptive sub-flows (one per path), so each key maps
        to the total bandwidth granted to that request.

        Solves are memoised on the canonical signature of the request list
        — the tuple of ``(key, src, dst, demand)`` per flow — because the
        cluster rate model re-prices the network with an identical demand
        set whenever a resolve leaves flow owners untouched.  A caller
        that already holds the request set in arrays may pass a
        precomputed ``signature`` (e.g. structural key plus
        ``demands.tobytes()``, the rate model's array fingerprint); it must
        determine ``(key, src, dst, demand)`` for every flow exactly as
        the default tuple does, or the memo would conflate distinct
        request sets.
        """
        if not flows:
            return FlowResult(grants={})
        keys = [f.key for f in flows]
        if len(set(keys)) != len(keys):
            raise ResourceError("flow keys must be unique per solve")

        if signature is None:
            signature = tuple((f.key, f.src, f.dst, f.demand) for f in flows)
        cached = self._solve_cache.get(signature) if self.memoize else None
        if cached is not None:
            self.stats.count("flow_memo_hits")
            # Copy so a caller mutating the result cannot poison the memo.
            return FlowResult(
                grants=dict(cached.grants), edge_load=dict(cached.edge_load)
            )
        self.stats.count("flow_solves")

        subflows: list[_SubFlow] = []
        per_flow_subflows: list[list[_SubFlow]] = []
        for idx, flow in enumerate(flows):
            paths = self._paths(flow.src, flow.dst)
            split = self._initial_split(flow, len(paths))
            flow_subs = [
                _SubFlow(flow_index=idx, edges=path, demand=d)
                for path, d in zip(paths, split)
            ]
            per_flow_subflows.append(flow_subs)
            subflows.extend(flow_subs)

        for _ in range(self.rebalance_rounds):
            loads = self._edge_loads(subflows)
            self._rebalance(flows, per_flow_subflows, loads)
        if self.check is not None:
            self.check.on_flow_split(flows, per_flow_subflows)

        if self.warm_start:
            for flow, subs in zip(flows, per_flow_subflows):
                if flow.demand > 0:
                    self._warm_splits[(flow.src, flow.dst)] = tuple(
                        sub.demand / flow.demand for sub in subs
                    )

        # Pass 1: capacity sharing with the raw demands.
        self._max_min(subflows)

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
            self._max_min(subflows)

        grants = {f.key: 0.0 for f in flows}
        for sub in subflows:
            grants[flows[sub.flow_index].key] += sub.rate
        result = FlowResult(
            grants=grants, edge_load=self._edge_loads(subflows, use_rate=True)
        )
        if self.check is not None:
            self.check.on_flow_solve(self, flows, result)
        if self.memoize:
            if len(self._solve_cache) >= self.MEMO_SIZE:
                self._solve_cache.pop(next(iter(self._solve_cache)))
            self._solve_cache[signature] = FlowResult(
                grants=dict(grants), edge_load=dict(result.edge_load)
            )
        return result

    # -- internals ----------------------------------------------------------

    def _initial_split(self, flow: FlowRequest, n_paths: int) -> list[float]:
        """Starting per-path demands: uniform, or the last converged split.

        Warm starts apply on *signature-adjacent* solves — a previous
        solve routed the same (src, dst) pair over the same path set — and
        give the re-balancer a head start toward its fixed point.
        """
        if self.warm_start:
            # warm_start is opt-in and documented as trading bit-equality for
            # convergence speed (docs/PERFORMANCE.md), so the split history
            # legitimately lives outside the memo key:
            fractions = self._warm_splits.get((flow.src, flow.dst))  # repro-lint: disable=RL013
            if fractions is not None and len(fractions) == n_paths:
                return [flow.demand * fraction for fraction in fractions]
        return [flow.demand / n_paths] * n_paths

    def _capacity(self, edge: Edge) -> float:
        # A pure memo over the immutable topology, like _path_cache.
        cap = self._cap_cache.get(edge)  # repro-lint: disable=RL013
        if cap is None:
            cap = self.topology.capacity(*edge)
            self._cap_cache[edge] = cap
        return cap

    def _paths(self, src: str, dst: str) -> list[list[Edge]]:
        cache_key = (src, dst)
        # _path_cache is a pure memo over the immutable topology: entries are
        # a deterministic function of (src, dst, k_paths), so reading it can
        # never make a solve-cache hit stale.
        if cache_key not in self._path_cache:  # repro-lint: disable=RL013
            node_paths = self.topology.k_shortest_paths(src, dst, self.k_paths)
            # Keep only paths no longer than shortest + 1 hop: Aries'
            # adaptive routing only considers minimal and near-minimal routes.
            min_len = len(node_paths[0])
            node_paths = [p for p in node_paths if len(p) <= min_len + 1]
            self._path_cache[cache_key] = [
                [_edge(u, v) for u, v in zip(p, p[1:])] for p in node_paths
            ]
        return self._path_cache[cache_key]

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

    def _max_min(self, subflows: list[_SubFlow]) -> None:
        """Demand-capped max-min fair rates over all links (water filling).

        Vectorized: crossing counts come from one boolean incidence matrix
        reduction per round instead of a per-edge membership scan, so a
        round costs O(subflows × edges) numpy work rather than O(subflows
        × edges) Python-loop work.  Bit-identical to
        :meth:`_max_min_reference` — every float op (link shares, the
        water level, the residual drains) is the same scalar IEEE op in
        the same order; only integer counting and candidate selection are
        batched.  The bottleneck tie-break (lowest share, then
        lexicographically smallest edge) survives because the edge columns
        are built sorted, so "first column at the minimum share" is
        exactly ``min(link_share, key=...)``.
        """
        if not subflows:
            return
        n = len(subflows)
        edge_list = sorted({e for sub in subflows for e in sub.edges})
        m = len(edge_list)
        col = {e: j for j, e in enumerate(edge_list)}
        caps = np.array(
            [self._capacity(e) for e in edge_list], dtype=float
        )
        demand = np.array([s.demand for s in subflows], dtype=float)
        inc = np.zeros((n, m), dtype=bool)
        sub_cols: list[list[int]] = []
        for i, sub in enumerate(subflows):
            cols_i = [col[e] for e in sub.edges]
            sub_cols.append(cols_i)
            inc[i, cols_i] = True

        rate = np.zeros(n)
        fixed = demand <= 0.0
        residual = caps.copy()
        self.stats.count("vectorized_waterfills")

        converged = False
        for _ in range(n + m + 1):
            unfixed = ~fixed
            if not unfixed.any():
                converged = True
                break
            # Fair share offered by each link to its unfixed subflows.
            crossing = inc[unfixed].sum(axis=0)
            has_crossing = crossing > 0
            if not has_crossing.any():
                rate[unfixed] = demand[unfixed]  # no constrained links
                fixed[:] = True
                converged = True
                break
            share = residual[has_crossing] / crossing[has_crossing]
            level = float(share.min())
            # Subflows whose demand is below the current water level are
            # satisfied outright; otherwise fix flows crossing the tightest
            # link at the fair share.
            newly = unfixed & (demand <= level + 1e-12)
            if newly.any():
                rate[newly] = demand[newly]
            else:
                candidates = np.flatnonzero(has_crossing)
                bottleneck = int(candidates[int(np.argmax(share == level))])
                newly = unfixed & inc[:, bottleneck]
                rate[newly] = level
            fixed |= newly
            for i in np.flatnonzero(newly):
                granted = float(rate[i])
                for j in sub_cols[i]:
                    residual[j] = max(0.0, float(residual[j]) - granted)
        if not converged:
            raise ResourceError("max-min water filling failed to converge")
        for sub, sub_rate, sub_fixed in zip(subflows, rate, fixed):
            sub.rate = float(sub_rate)
            sub.fixed = bool(sub_fixed)

    def _max_min_reference(self, subflows: list[_SubFlow]) -> None:
        """Scalar reference for :meth:`_max_min` (PR 1 semantics).

        Kept as the ground truth the vectorized water filling is tested
        against (``tests/network/test_flows_vectorized.py`` pins exact
        float equality); do not call it from production paths.
        """
        for sub in subflows:
            sub.rate = 0.0
            sub.fixed = sub.demand <= 0.0
        edges = {e for sub in subflows for e in sub.edges}
        residual = {e: self.topology.capacity(*e) for e in edges}

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
            demand_limited = [s for s in unfixed if s.demand <= bottleneck_rate + 1e-12]
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
