"""Stage 1 of the production rate model: the scalar node solve and its memo.

``ClusterRateModel._solve_node`` must reproduce
``ReferenceRateModel._solve_node`` bit-for-bit on any tenancy, and the
memo and intern tables in front of it must stay within their size
constants however many distinct segment demands a run produces.
"""

import pytest

from repro.check import use_reference_model
from repro.check.harness import fingerprint_cluster
from repro.cluster import Cluster, MachineSpec
from repro.cluster.ratemodel import ClusterRateModel
from repro.cluster.reference import ReferenceRateModel
from repro.resources.fairshare import max_min_fair_share, proportional_share
from repro.sim.process import CACHE_LEVELS, Flow, Segment, SimProcess
from repro.sim.rng import spawn_rng
from repro.units import MB

TRIALS = 30


def _idle(proc):
    yield from ()


def _random_tenancy(rng, spec, node):
    """1–32 tenants with random placement and segment demands.

    Half the trials pack the tenants onto two sibling pairs, one per
    socket, so SMT coupling and oversubscribed L1/L2 cells are common;
    footprints reach 1.5x each level's size so every level overflows.
    """
    n = int(rng.integers(1, 33))
    packed = bool(rng.integers(0, 2))
    other = spec.cores_per_socket
    pool = [0, spec.sibling_of(0), other, spec.sibling_of(other)]
    procs = []
    for i in range(n):
        if packed:
            core = pool[int(rng.integers(0, len(pool)))]
        else:
            core = int(rng.integers(0, spec.logical_cores))
        cpu = (0.0, 1.0, 0.5, float(rng.uniform(0.0, 1.0)))[int(rng.integers(0, 4))]
        footprint = {
            level: float(rng.uniform(0.0, 1.5)) * spec.cache.size(level)
            for level in CACHE_LEVELS
            if rng.uniform() < 0.5
        }
        proc = SimProcess(f"t{i}", _idle, node=node, core=core)
        proc.current = Segment(
            work=1.0,
            cpu=cpu,
            cache_footprint=footprint,
            cache_intensity=float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.8 else 0.0,
            miss_cpi_penalty=float(rng.uniform(0.0, 1.5)),
            mem_bw=float(rng.uniform(0.0, 1.2)) * spec.core_mem_bw,
            mem_bw_extra=float(rng.uniform(0.0, 1.0)) * spec.core_mem_bw,
        )
        procs.append(proc)
    return procs


def _features(spec, dem, topo):
    """Which stage-1 branches one tenancy exercises."""
    seen = set()
    cores = {t[0] for t in topo}
    if any(t[2] in cores for t in topo):
        seen.add("smt")
    if any(d[0] == 0.0 for d in dem):
        seen.add("zero_cpu")
    if len({t[3] for t in topo}) > 1:
        seen.add("both_sockets")
    for lvl, level in enumerate(CACHE_LEVELS):
        cell_of = 3 if level == "L3" else 1
        totals = {}
        for d, t in zip(dem, topo):
            totals[t[cell_of]] = totals.get(t[cell_of], 0.0) + d[1 + lvl]
        if any(total > spec.cache.size(level) for total in totals.values()):
            seen.add(f"over_{level}")
    return seen


@pytest.mark.parametrize("sharpness", [1.0, 2.0])
@pytest.mark.parametrize("share_fn", [max_min_fair_share, proportional_share])
@pytest.mark.parametrize("spec", [MachineSpec.voltrino(), MachineSpec.chameleon()])
def test_solve_node_bit_identical_to_reference(spec, share_fn, sharpness):
    cluster = Cluster(
        num_nodes=1, spec=spec, share_fn=share_fn, cache_sharpness=sharpness
    )
    model = cluster.model
    reference = ReferenceRateModel(
        cluster, share_fn=share_fn, cache_sharpness=sharpness
    )
    node = cluster.node(0).name
    rng = spawn_rng(17, f"stage1:{spec.name}:{share_fn.__name__}:{sharpness}")
    seen = set()
    for _ in range(TRIALS):
        procs = _random_tenancy(rng, spec, node)
        rows = [model._row_for(p) for p in procs]
        for proc, row in zip(procs, rows):
            model._refresh_segment(proc, row)
        dem = tuple(model._row_dem[r] for r in rows)
        topo = [model._row_topo[r] for r in rows]
        seen |= _features(spec, dem, topo)
        speed, mf, cpu_rate, mem_rate = model._solve_node(spec, dem, topo)

        reference._proc_rates = {p.pid: {} for p in procs}
        ref_mf: dict[int, float] = {}
        ref_speed = reference._solve_node(node, procs, ref_mf)
        for i, p in enumerate(procs):
            rates = reference._proc_rates[p.pid]
            # Exact equality: the memo replays these values in place of
            # the reference's, so they must be the same floats.
            assert speed[i] == ref_speed[p.pid]
            assert mf[i] == ref_mf[p.pid]
            assert cpu_rate[i] == rates["cpu_user_seconds"]
            assert mem_rate[i] == rates["mem_bytes"]
        if any(m > 0.0 for m in mf):
            seen.add("evicted")
    assert seen >= {
        "smt",
        "zero_cpu",
        "both_sockets",
        "over_L1",
        "over_L2",
        "over_L3",
        "evicted",
    }


def _drifting(steps, offset, flow_to=None):
    """A body whose every segment carries a new stage-1 demand."""

    def body(proc):
        for k in range(steps):
            yield Segment(
                work=0.25 + 0.01 * offset,
                cpu=0.5 + 0.01 * ((k + offset) % 40),
                cache_footprint={"L3": (1 + k + offset) * MB},
                cache_intensity=1.0,
                miss_cpi_penalty=0.5,
                mem_bw=(1 + k) * 2e8,
                mem_bw_extra=1e8,
                mpki_base=1.0,
                mpki_extra=5.0,
                ips=1e9,
                flows=() if flow_to is None else (Flow(flow_to, (1 + k) * 1e7),),
            )

    return body


def _run_drifting(reference):
    cluster = Cluster.voltrino(num_nodes=2)
    if reference:
        use_reference_model(cluster)
    spec = cluster.node(0).spec
    cluster.spawn("a", _drifting(24, 0), node="node0", core=0)
    cluster.spawn("b", _drifting(24, 3), node="node0", core=spec.sibling_of(0))
    cluster.spawn("c", _drifting(20, 7, flow_to="node1"), node="node0", core=1)
    cluster.spawn("d", _drifting(12, 11), node="node1", core=0)
    cluster.sim.run(until=200.0)
    return cluster


def test_memo_and_intern_tables_stay_bounded(monkeypatch):
    # Lowered bounds make a short run overflow every table several times.
    monkeypatch.setattr(ClusterRateModel, "STAGE1_MEMO_SIZE", 4)
    monkeypatch.setattr(ClusterRateModel, "NET_MEMO_SIZE", 4)
    cluster = _run_drifting(reference=False)
    model = cluster.model
    assert model.stats.counters["stage1_memo_misses"] > 4 * model.STAGE1_MEMO_SIZE
    assert model.stats.counters["network_stage_solves"] > 4 * model.NET_MEMO_SIZE
    bounds = {
        "_node_cache": len(cluster.nodes),
        "_stage1_cache": model.STAGE1_MEMO_SIZE,
        "_net_memo": model.NET_MEMO_SIZE,
    }
    tables = {
        name: table
        for name, table in vars(model).items()
        if isinstance(table, dict) and name.endswith(("_cache", "_memo", "_intern"))
    }
    # A new table must declare its bound here.
    assert set(tables) <= set(bounds), f"unbounded tables: {set(tables) - set(bounds)}"
    for name, table in tables.items():
        assert len(table) <= bounds[name], (name, len(table))
    # Eviction never changes a simulated number.
    assert fingerprint_cluster(cluster) == fingerprint_cluster(
        _run_drifting(reference=True)
    )
