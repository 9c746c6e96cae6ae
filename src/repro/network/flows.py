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

:class:`FlowSolver` runs each solve as scalar arithmetic on plain lists.
Every topology edge gets an integer *column* (its rank in sorted edge
order), a path is the list of its edges' columns, and the water filling
keeps per-link crossing counts up to date as sub-flows fix instead of
rescanning memberships every round.  Solves are small (tens of sub-flows
over tens of links), where list arithmetic beats numpy's per-call
overhead.  The readable object statement of the same equations is
:class:`repro.cluster.reference.ReferenceFlowSolver`; ``repro check``
requires the two to agree to the bit (the exactness rules are in
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ResourceError
from repro.network.topology import NetworkTopology
from repro.sim.stats import SimStats

Edge = tuple[str, str]


def _edge(u: str, v: str) -> Edge:
    return (u, v) if str(u) <= str(v) else (v, u)


def candidate_paths(
    topology: NetworkTopology, src: str, dst: str, k_paths: int
) -> list[list[Edge]]:
    """The routes adaptive routing may use for one (src, dst) pair.

    Up to ``k_paths`` loop-free shortest paths, keeping only those no
    longer than the shortest + 1 hop: Aries' adaptive routing only
    considers minimal and near-minimal routes.  Each path is its list of
    canonical (sorted-endpoint) edges.
    """
    node_paths = topology.k_shortest_paths(src, dst, k_paths)
    min_len = len(node_paths[0])
    return [
        [_edge(u, v) for u, v in zip(p, p[1:])]
        for p in node_paths
        if len(p) <= min_len + 1
    ]


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
class FlowResult:
    """Outcome of a solve: per-flow grants and per-edge utilisation."""

    grants: dict[int, float]
    edge_load: dict[Edge, float] = field(default_factory=dict)


class FlowSolver:
    """Allocates network bandwidth for a set of concurrent flows."""

    def __init__(
        self,
        topology: NetworkTopology,
        k_paths: int = 4,
        rebalance_rounds: int = 4,
        latency_alpha: float = 0.6,
    ) -> None:
        if k_paths < 1:
            raise ResourceError("k_paths must be >= 1")
        if latency_alpha < 0:
            raise ResourceError("latency_alpha must be >= 0")
        self.topology = topology
        self.k_paths = k_paths
        self.rebalance_rounds = rebalance_rounds
        #: attached invariant checker (see :mod:`repro.check`), or None;
        #: hook sites are guarded so an unchecked solve pays nothing.
        self.check = None
        #: counter block; the cluster rate model swaps in the engine's
        self.stats = SimStats()
        #: strength of the congestion-latency degradation: traffic from
        #: *other* flows on a flow's path stretches per-packet latency,
        #: lowering the bandwidth a fixed-window sender can extract even
        #: when link capacity is not exhausted.  This is the effect that
        #: makes netoccupy hurt the OSU benchmark on an adaptively-routed
        #: fabric whose links never fully saturate (paper Fig. 6).
        self.latency_alpha = latency_alpha
        caps = {
            _edge(u, v): float(cap)
            for u, v, cap in topology.graph.edges(data="capacity")
        }
        #: every topology edge in sorted order; a column is an index into
        #: this list, so "smallest column" is "lexicographically smallest
        #: edge" — the water filling's bottleneck tie-break
        self._edges: list[Edge] = sorted(caps)
        self._col = {e: j for j, e in enumerate(self._edges)}
        #: per-column capacity, read hundreds of times per solve
        self._caps = [caps[e] for e in self._edges]
        #: per-(src, dst) candidate paths as column lists
        self._path_cache: dict[tuple[str, str], list[list[int]]] = {}

    # -- public -----------------------------------------------------------

    def solve(self, flows: list[FlowRequest]) -> FlowResult:
        """Grant bandwidth to every flow; grants are keyed by ``flow.key``.

        Keys must be unique per request: a process with several concurrent
        flows must submit them under distinct keys.  A flow's grant is the
        sum over its adaptive sub-flows (one per path), so each key maps
        to the total bandwidth granted to that request.

        Every call solves from scratch; the cluster rate model memoizes
        whole network stages on its side of the call.
        """
        if not flows:
            return FlowResult(grants={})
        keys = [f.key for f in flows]
        if len(set(keys)) != len(keys):
            raise ResourceError("flow keys must be unique per solve")
        self.stats.count("flow_solves")

        # Sub-flows in request order, then path order: flow i owns
        # sub-flows lo .. hi - 1 for (lo, hi) = spans[i].
        sub_cols: list[list[int]] = []
        demand: list[float] = []
        spans: list[tuple[int, int]] = []
        for flow in flows:
            paths = self._paths(flow.src, flow.dst)
            lo = len(sub_cols)
            sub_cols.extend(paths)
            demand.extend([flow.demand / len(paths)] * len(paths))
            spans.append((lo, len(sub_cols)))
        # Columns in order of first appearance (the edge_load key order)
        # and sorted (the bottleneck scan order).
        order = list(dict.fromkeys(c for cols in sub_cols for c in cols))
        used = sorted(order)

        multi = [
            i
            for i, (lo, hi) in enumerate(spans)
            if hi - lo > 1 and flows[i].demand != 0
        ]
        if multi:
            for _ in range(self.rebalance_rounds):
                self._rebalance(flows, multi, spans, sub_cols, demand)
        if self.check is not None:
            self.check.on_flow_split(flows, [demand[lo:hi] for lo, hi in spans])

        # Pass 1: capacity sharing with the raw demands.
        rate = self._waterfill(sub_cols, demand, used)

        if self.latency_alpha > 0:
            # Pass 2: degrade each flow's demand by the congestion other
            # granted traffic imposes on its paths, then re-share.
            self._degrade(spans, sub_cols, demand, rate)
            rate = self._waterfill(sub_cols, demand, used)

        grants: dict[int, float] = {}
        for flow, (lo, hi) in zip(flows, spans):
            total = 0.0
            for s in range(lo, hi):
                total += rate[s]
            grants[flow.key] = total
        loads = self._loads(sub_cols, rate)
        edges = self._edges
        result = FlowResult(
            grants=grants, edge_load={edges[c]: loads[c] for c in order}
        )
        if self.check is not None:
            self.check.on_flow_solve(self, flows, result)
        return result

    # -- internals ----------------------------------------------------------

    def _paths(self, src: str, dst: str) -> list[list[int]]:
        cache_key = (src, dst)
        # _path_cache is a pure memo over the immutable topology: entries are
        # a deterministic function of (src, dst, k_paths), so reading it can
        # never make a network-stage memo hit stale.
        paths = self._path_cache.get(cache_key)  # repro-lint: disable=RL013
        if paths is None:
            col = self._col
            paths = [
                [col[e] for e in path]
                for path in candidate_paths(self.topology, src, dst, self.k_paths)
            ]
            self._path_cache[cache_key] = paths
        return paths

    def _loads(self, sub_cols: list[list[int]], amounts: list[float]) -> list[float]:
        """Per-column sums of ``amounts``, in sub-flow then path order."""
        loads = [0.0] * len(self._caps)
        for cols, amount in zip(sub_cols, amounts):
            for c in cols:
                loads[c] += amount
        return loads

    def _rebalance(
        self,
        flows: list[FlowRequest],
        multi: list[int],
        spans: list[tuple[int, int]],
        sub_cols: list[list[int]],
        demand: list[float],
    ) -> None:
        """Shift each multi-path flow's split toward less-congested paths."""
        caps = self._caps
        loads = self._loads(sub_cols, demand)
        for i in multi:
            lo, hi = spans[i]
            weights = []
            for s in range(lo, hi):
                # Congestion the flow would see on this path from OTHER
                # traffic (its own contribution removed).
                own = demand[s]
                worst = 0.0
                for c in sub_cols[s]:
                    congestion = (loads[c] - own) / caps[c]
                    if congestion > worst:
                        worst = congestion
                weights.append(1.0 / (1.0 + worst) ** 2)
            wsum = sum(weights)
            total = flows[i].demand
            for s, w in zip(range(lo, hi), weights):
                old = demand[s]
                new = total * w / wsum
                demand[s] = new
                for c in sub_cols[s]:
                    loads[c] = loads[c] - old + new

    def _degrade(
        self,
        spans: list[tuple[int, int]],
        sub_cols: list[list[int]],
        demand: list[float],
        rate: list[float],
    ) -> None:
        """Scale each flow's sub-flow demands by its congestion latency."""
        caps = self._caps
        alpha = self.latency_alpha
        granted = self._loads(sub_cols, rate)
        for lo, hi in spans:
            own: dict[int, float] = {}
            for s in range(lo, hi):
                r = rate[s]
                for c in sub_cols[s]:
                    own[c] = own.get(c, 0.0) + r
            worst = 0.0
            for s in range(lo, hi):
                for c in sub_cols[s]:
                    other = granted[c] - own[c]
                    if other > 0.0:
                        congestion = other / caps[c]
                        if congestion > worst:
                            worst = congestion
            factor = 1.0 / (1.0 + alpha * worst)
            for s in range(lo, hi):
                demand[s] *= factor

    def _waterfill(
        self, sub_cols: list[list[int]], demand: list[float], used: list[int]
    ) -> list[float]:
        """Demand-capped max-min fair rates over all links (water filling).

        ``used`` lists the columns any sub-flow crosses, sorted.  Each
        round either satisfies every sub-flow whose demand fits under the
        water level, or fixes the sub-flows crossing the tightest link at
        its fair share.
        """
        self.stats.count("flow_waterfills")
        residual = list(self._caps)
        crossing = [0] * len(residual)
        rate = [0.0] * len(demand)
        unfixed = [i for i, d in enumerate(demand) if d > 0.0]
        for i in unfixed:
            for c in sub_cols[i]:
                crossing[c] += 1
        for _ in range(len(demand) + len(used) + 1):
            if not unfixed:
                return rate
            # Fair share each link offers its unfixed sub-flows; the
            # bottleneck is the first column at the minimum share.
            level = math.inf
            bottleneck = -1
            for c in used:
                n = crossing[c]
                if n:
                    share = residual[c] / n
                    if share < level:
                        level = share
                        bottleneck = c
            if bottleneck < 0:
                for i in unfixed:  # no constrained links: grant demands
                    rate[i] = demand[i]
                return rate
            limit = level + 1e-12
            newly = [i for i in unfixed if demand[i] <= limit]
            if newly:
                for i in newly:
                    rate[i] = demand[i]
            else:
                newly = [i for i in unfixed if bottleneck in sub_cols[i]]
                for i in newly:
                    rate[i] = level
            for i in newly:
                granted = rate[i]
                for c in sub_cols[i]:
                    crossing[c] -= 1
                    left = residual[c] - granted
                    residual[c] = left if left > 0.0 else 0.0
            fixed_now = set(newly)
            unfixed = [i for i in unfixed if i not in fixed_now]
        raise ResourceError("max-min water filling failed to converge")
