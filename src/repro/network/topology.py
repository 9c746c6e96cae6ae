"""Network topologies.

Two builders cover the paper's systems:

``aries_like``
    Voltrino's Aries interconnect: four nodes per switch, switches densely
    connected with *redundant* inter-switch links.  The redundancy plus
    adaptive routing is what bounds netoccupy's damage in Fig. 6.
``star``
    Chameleon Cloud's simple star: every node hangs off one router, so
    there are no alternative paths — which is why the paper cannot
    evaluate netoccupy there.

A topology is one adjacency dict, ``{node: {neighbour: capacity}}``, built
from an edge list.  Path order is part of the byte contract: the flow
solver splits a flow into one sub-flow per path, and sub-flow order fixes
its float summation order.  :meth:`NetworkTopology.k_shortest_paths`
therefore returns exactly what ``networkx.shortest_simple_paths`` returns
on a graph built from the same edges in the same order (Yen's algorithm
over a bidirectional BFS; the three rules that keep the order are in
docs/PERFORMANCE.md).  Neighbour order is edge insertion order, so the
builders must emit their edges in a fixed order.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable

from repro.errors import ConfigError
from repro.units import GB10

#: one undirected link: ``(u, v, capacity in bytes/s)``
TopologyEdge = tuple[str, str, float]


class NetworkTopology:
    """An undirected capacity graph of compute nodes and switches.

    Nodes whose name starts with ``"node"`` are compute endpoints; other
    vertices are switches/routers.  Capacities are in bytes/s (bundled
    parallel links appear as one edge with the summed capacity).
    """

    def __init__(self, edges: Iterable[TopologyEdge], name: str = "net") -> None:
        adj: dict[str, dict[str, float]] = {}
        kept: list[TopologyEdge] = []
        for u, v, cap in edges:
            if not (math.isfinite(cap) and cap > 0):
                raise ConfigError(f"edge {u}-{v} must have finite positive capacity")
            if v in adj.get(u, ()):
                raise ConfigError(f"duplicate edge {u}-{v}")
            adj.setdefault(u, {})[v] = cap
            adj.setdefault(v, {})[u] = cap
            kept.append((u, v, cap))
        self._adj = adj
        self._edges = kept
        self.name = name

    @property
    def compute_nodes(self) -> list[str]:
        return sorted(n for n in self._adj if str(n).startswith("node"))

    @property
    def switches(self) -> list[str]:
        return sorted((n for n in self._adj if not str(n).startswith("node")), key=str)

    def edges(self) -> list[TopologyEdge]:
        """Every edge as ``(u, v, capacity)``, in construction order."""
        return list(self._edges)

    def capacity(self, u: str, v: str) -> float:
        try:
            return float(self._adj[u][v])
        except KeyError:
            raise ConfigError(f"no edge {u}-{v} in {self.name}") from None

    def _neighbours(self, node: str) -> dict[str, float]:
        try:
            return self._adj[node]
        except KeyError:
            raise ConfigError(f"unknown node {node!r} in {self.name}") from None

    def switch_of(self, node: str) -> str:
        """The switch a compute node attaches to (assumes single uplink)."""
        neighbors = list(self._neighbours(node))
        if len(neighbors) != 1:
            raise ConfigError(f"{node} has {len(neighbors)} uplinks; expected 1")
        return neighbors[0]

    def k_shortest_paths(self, src: str, dst: str, k: int = 4) -> list[list[str]]:
        """Up to ``k`` loop-free shortest paths (hop-count metric).

        Yen's algorithm in ``networkx.shortest_simple_paths``' order: each
        spur search ignores the edges that earlier paths take out of the
        same root, then the root's last node; candidates pop by (length,
        push order) and a path already queued is not queued again.
        """
        self._neighbours(src)
        self._neighbours(dst)
        if src == dst:
            return [[src]]
        first = _bidirectional_path(self._adj, src, dst, set(), {})
        if first is None:
            raise ConfigError(f"no path between {src} and {dst} in {self.name}")
        found: list[list[str]] = []
        queue: list[tuple[int, int, list[str]]] = [(len(first), 0, first)]
        queued = {tuple(first)}
        pushes = 1
        while queue:
            path = heappop(queue)[2]
            queued.discard(tuple(path))
            found.append(path)
            if len(found) >= k:
                break
            ignore_nodes: set[str] = set()
            ignore_edges: dict[str, set[str]] = {}
            for i in range(1, len(path)):
                root = path[:i]
                for p in found:
                    if p[:i] == root:
                        ignore_edges.setdefault(p[i - 1], set()).add(p[i])
                        ignore_edges.setdefault(p[i], set()).add(p[i - 1])
                spur = _bidirectional_path(
                    self._adj, root[-1], dst, ignore_nodes, ignore_edges
                )
                if spur is not None:
                    candidate = root[:-1] + spur
                    key = tuple(candidate)
                    if key not in queued:
                        heappush(queue, (len(candidate), pushes, candidate))
                        queued.add(key)
                        pushes += 1
                ignore_nodes.add(root[-1])
        return found


def _bidirectional_path(
    adj: dict[str, dict[str, float]],
    source: str,
    target: str,
    ignore_nodes: set[str],
    ignore_edges: dict[str, set[str]],
) -> list[str] | None:
    """A shortest ``source``→``target`` path avoiding the ignored nodes
    and edges, or ``None``.  ``ignore_edges`` maps a node to the
    neighbours it may not step to; it holds both directions of an edge.

    networkx's ``_bidirectional_pred_succ``: expand the forward fringe
    while it is no longer than the reverse one, visit neighbours in
    insertion order, and stop at the first node both searches reached.
    """
    none: set[str] = set()
    pred: dict[str, str | None] = {source: None}
    succ: dict[str, str | None] = {target: None}
    forward = [source]
    reverse = [target]
    meet = None
    while forward and reverse and meet is None:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            seen, other, fringe = pred, succ, forward
        else:
            level, reverse = reverse, []
            seen, other, fringe = succ, pred, reverse
        for v in level:
            banned = ignore_edges.get(v, none)
            for w in adj[v]:
                if w in ignore_nodes or w in banned:
                    continue
                if w not in seen:
                    fringe.append(w)
                    seen[w] = v
                if w in other:
                    meet = w
                    break
            if meet is not None:
                break
    if meet is None:
        return None
    path: list[str] = []
    node: str | None = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def aries_like(
    num_nodes: int = 12,
    nodes_per_switch: int = 4,
    link_bw: float = 5.25 * GB10,
    inter_switch_redundancy: int = 3,
    nic_bw: float = 10 * GB10,
) -> NetworkTopology:
    """Build a Voltrino-like Aries electrical group.

    Switches are connected all-to-all; each switch pair gets
    ``inter_switch_redundancy`` parallel links (modelled as one edge with
    the summed capacity).  Every switch hosts ``nodes_per_switch`` nodes.
    """
    if num_nodes < 1 or nodes_per_switch < 1:
        raise ConfigError("num_nodes and nodes_per_switch must be >= 1")
    num_switches = (num_nodes + nodes_per_switch - 1) // nodes_per_switch
    edges: list[TopologyEdge] = []
    for s in range(num_switches):
        for t in range(s + 1, num_switches):
            edges.append((f"sw{s}", f"sw{t}", link_bw * inter_switch_redundancy))
    for n in range(num_nodes):
        switch = n // nodes_per_switch
        edges.append((f"node{n}", f"sw{switch}", nic_bw))
    return NetworkTopology(edges, name="aries")


def dragonfly(
    groups: int = 4,
    switches_per_group: int = 4,
    nodes_per_switch: int = 4,
    local_link_bw: float = 5.25 * GB10,
    local_redundancy: int = 3,
    global_link_bw: float = 4.7 * GB10,
    nic_bw: float = 10 * GB10,
) -> NetworkTopology:
    """Build a full dragonfly: all-to-all groups of all-to-all switches.

    Aries' real structure: electrical all-to-all links inside a group
    (chassis), optical global links between groups.  Each ordered group
    pair gets one global link, attached round-robin to the groups'
    switches.  Used by the extension study on global-link contention —
    the bottleneck Bhatele et al. identify on dragonfly systems.
    """
    if groups < 2 or switches_per_group < 1 or nodes_per_switch < 1:
        raise ConfigError("need >= 2 groups and >= 1 switch/node per level")
    edges: list[TopologyEdge] = []
    node_id = 0
    for grp in range(groups):
        for a in range(switches_per_group):
            for b in range(a + 1, switches_per_group):
                edges.append(
                    (f"g{grp}sw{a}", f"g{grp}sw{b}", local_link_bw * local_redundancy)
                )
        for s in range(switches_per_group):
            for _ in range(nodes_per_switch):
                edges.append((f"node{node_id}", f"g{grp}sw{s}", nic_bw))
                node_id += 1
    # one global link per group pair, spread across switches round-robin
    pair_index = 0
    for ga in range(groups):
        for gb in range(ga + 1, groups):
            sa = pair_index % switches_per_group
            sb = (pair_index + 1) % switches_per_group
            edges.append((f"g{ga}sw{sa}", f"g{gb}sw{sb}", global_link_bw))
            pair_index += 1
    return NetworkTopology(edges, name="dragonfly")


def star(num_nodes: int = 6, link_bw: float = 1.25 * GB10) -> NetworkTopology:
    """Build a Chameleon-like star: one router, one link per node."""
    if num_nodes < 1:
        raise ConfigError("num_nodes must be >= 1")
    return NetworkTopology(
        [(f"node{n}", "router", link_bw) for n in range(num_nodes)], name="star"
    )
