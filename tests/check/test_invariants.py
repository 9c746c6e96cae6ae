"""InvariantChecker: attachment contract, rule firing, and neutrality."""

import math
from types import SimpleNamespace

import pytest

from repro.check.harness import _run_case
from repro.check.invariants import (
    DEFAULT_TOLERANCE,
    InvariantChecker,
    Violation,
    assert_max_min,
)
from repro.cluster import Cluster
from repro.errors import CheckError
from repro.faults.injector import FaultInjector
from repro.resources.fairshare import max_min_fair_share
from repro.sim.process import Segment


class TestAssertMaxMin:
    def test_accepts_the_reference_solver(self):
        demands = [5.0, 1.0, 3.0, 8.0]
        grants = max_min_fair_share(10.0, demands)
        assert_max_min(10.0, demands, grants)

    def test_accepts_unconstrained_allocation(self):
        assert_max_min(100.0, [2.0, 3.0], [2.0, 3.0])

    def test_rejects_grant_over_demand(self):
        with pytest.raises(CheckError, match="outside"):
            assert_max_min(10.0, [2.0, 3.0], [2.5, 3.0])

    def test_rejects_wrong_total(self):
        with pytest.raises(CheckError, match="sum"):
            assert_max_min(10.0, [8.0, 8.0], [4.0, 4.0])

    def test_rejects_unfair_split(self):
        # Capacity 10 over demands (8, 8): max-min says (5, 5), not (2, 8).
        with pytest.raises(CheckError, match="not max-min fair"):
            assert_max_min(10.0, [8.0, 8.0], [2.0, 8.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(CheckError, match="demands but"):
            assert_max_min(10.0, [1.0, 2.0], [1.0])


class TestConstruction:
    def test_bad_mode_rejected(self):
        with pytest.raises(CheckError, match="mode"):
            InvariantChecker(mode="panic")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(CheckError, match="tolerance"):
            InvariantChecker(tolerance=-1e-9)


class TestAttachDetach:
    def test_attach_plants_every_hook(self, small_cluster):
        checker = InvariantChecker()
        checker.attach(small_cluster)
        assert small_cluster.sim.check is checker
        assert small_cluster.model.flow_solver.check is checker
        for fs in small_cluster.filesystems.values():
            assert fs.check is checker
        # share_fn is wrapped, not replaced outright
        assert small_cluster.model.share_fn is not max_min_fair_share
        checker.detach()

    def test_detach_restores_the_fast_path(self, small_cluster):
        orig_share = small_cluster.model.share_fn
        checker = InvariantChecker().attach(small_cluster)
        checker.detach()
        assert small_cluster.sim.check is None
        assert small_cluster.model.flow_solver.check is None
        assert small_cluster.model.share_fn is orig_share
        for fs in small_cluster.filesystems.values():
            assert fs.check is None

    def test_double_attach_rejected(self, small_cluster):
        checker = InvariantChecker().attach(small_cluster)
        with pytest.raises(CheckError, match="already attached"):
            checker.attach(small_cluster)
        checker.detach()

    def test_second_checker_on_same_cluster_rejected(self, small_cluster):
        checker = InvariantChecker().attach(small_cluster)
        with pytest.raises(CheckError, match="already has"):
            InvariantChecker().attach(small_cluster)
        checker.detach()

    def test_detach_without_attach_rejected(self):
        with pytest.raises(CheckError, match="not attached"):
            InvariantChecker().detach()

    def test_wrapped_share_fn_forwards_results(self, small_cluster):
        checker = InvariantChecker().attach(small_cluster)
        grants = small_cluster.model.share_fn(10.0, [8.0, 8.0])
        assert grants == max_min_fair_share(10.0, [8.0, 8.0])
        assert checker.hook_counts.get("share", 0) == 1
        checker.detach()


class TestNeutrality:
    def test_fingerprint_unchanged_by_attached_checker(self, net_spec):
        plain = _run_case(net_spec)
        checked = _run_case(net_spec, checker=InvariantChecker(mode="record"))
        assert plain == checked

    def test_clean_run_raises_nothing_in_raise_mode(self, tiny_spec):
        checker = InvariantChecker(mode="raise")
        _run_case(tiny_spec, checker=checker)
        assert checker.violations == []
        assert checker.hook_counts.get("resolve", 0) > 0
        assert checker.hook_counts.get("advance", 0) > 0
        assert checker.hook_counts.get("event", 0) > 0

    def test_network_case_fires_flow_hooks(self, net_spec):
        checker = InvariantChecker(mode="record")
        _run_case(net_spec, checker=checker)
        assert checker.violations == []
        assert checker.hook_counts.get("flow_solve", 0) > 0
        assert checker.hook_counts.get("share", 0) > 0

    def test_io_case_fires_fs_hook(self, io_spec):
        checker = InvariantChecker(mode="record")
        _run_case(io_spec, checker=checker)
        assert checker.violations == []
        assert checker.hook_counts.get("fs_solve", 0) > 0


def _stub_sim(now=0.0, running=(), procs=None):
    procs = procs or {}
    return SimpleNamespace(
        now=now,
        running=tuple(running),
        process=lambda pid: procs.get(pid, SimpleNamespace(name=f"p{pid}")),
    )


class TestRuleDetection:
    """Feed hand-made bad states straight into the hooks."""

    def _recorder(self) -> InvariantChecker:
        return InvariantChecker(mode="record")

    def _rules(self, checker) -> set:
        return {v.rule for v in checker.violations}

    def test_ck001_event_before_clock(self):
        checker = self._recorder()
        checker.on_event(_stub_sim(now=5.0), 4.0)
        assert self._rules(checker) == {"CK001"}

    def test_ck001_events_out_of_causal_order(self):
        checker = self._recorder()
        sim = _stub_sim(now=0.0)
        checker.on_event(sim, 3.0)
        checker.on_event(sim, 2.0)
        assert self._rules(checker) == {"CK001"}

    def test_ck001_clock_backwards(self):
        checker = self._recorder()
        checker.on_advance(_stub_sim(now=5.0), 4.0)
        assert self._rules(checker) == {"CK001"}

    def test_ck004_advance_overshoots_work(self):
        proc = SimpleNamespace(
            name="p", remaining=1.0, speed=10.0, current=Segment(work=1.0)
        )
        checker = self._recorder()
        checker.on_advance(_stub_sim(now=0.0, running=[proc]), 1.0)
        assert self._rules(checker) == {"CK004"}

    def test_ck002_speed_out_of_range(self):
        checker = self._recorder()
        checker.after_resolve(_stub_sim(), {1: 1.5}, None)
        checker.after_resolve(_stub_sim(), {1: -0.1}, None)
        checker.after_resolve(_stub_sim(), {1: math.nan}, None)
        assert self._rules(checker) == {"CK002"}
        assert len(checker.violations) == 3

    def test_ck003_running_process_unpriced(self):
        proc = SimpleNamespace(name="orphan", pid=7)
        checker = self._recorder()
        checker.after_resolve(_stub_sim(running=[proc]), {}, frozenset())
        assert self._rules(checker) == {"CK003"}

    def test_ck007_split_loses_demand(self):
        flow = SimpleNamespace(key=1, src="node0", dst="node1", demand=4.0)
        checker = self._recorder()
        checker.on_flow_split([flow], [[1.0, 2.0]])
        assert self._rules(checker) == {"CK007"}

    def test_ck008_link_over_capacity_and_ck009_grant_bounds(self):
        solver = SimpleNamespace(
            topology=SimpleNamespace(capacity=lambda a, b: 10.0)
        )
        flow = SimpleNamespace(key=1, src="node0", dst="node1", demand=4.0)
        result = SimpleNamespace(
            edge_load={("node0", "sw0"): 20.0}, grants={1: 5.0}
        )
        checker = self._recorder()
        checker.on_flow_solve(solver, [flow], result)
        assert self._rules(checker) == {"CK008", "CK009"}

    def test_ck009_missing_grant(self):
        solver = SimpleNamespace(topology=SimpleNamespace(capacity=lambda a, b: 10.0))
        flow = SimpleNamespace(key=3, src="a", dst="b", demand=1.0)
        result = SimpleNamespace(edge_load={}, grants={})
        checker = self._recorder()
        checker.on_flow_solve(solver, [flow], result)
        assert self._rules(checker) == {"CK009"}

    def test_ck010_fs_over_capacity(self):
        fs = SimpleNamespace(
            name="nfs", effective_disk_bw=100.0, effective_meta_capacity=10.0
        )
        grant = SimpleNamespace(ratio=1.5, write_bw=200.0, read_bw=0.0, meta_ops=50.0)
        checker = self._recorder()
        checker.on_fs_solve(fs, [], {1: grant})
        assert self._rules(checker) == {"CK010"}
        assert len(checker.violations) == 3  # ratio, data, metadata

    def test_ck011_share_contract(self):
        checker = self._recorder()
        checker._on_share(10.0, [8.0, 8.0], [2.0, 8.0], max_min_fair_share)
        assert self._rules(checker) == {"CK011"}

    def test_ck011_generic_discipline_checked_too(self):
        def odd_share(capacity, demands):
            return list(demands)  # over-commits capacity

        checker = self._recorder()
        checker._on_share(1.0, [8.0, 8.0], [8.0, 8.0], odd_share)
        assert self._rules(checker) == {"CK011"}

    def test_raise_mode_raises_immediately(self):
        checker = InvariantChecker(mode="raise")
        with pytest.raises(CheckError, match="CK001"):
            checker.on_event(_stub_sim(now=5.0), 4.0)

    def test_violation_renders_time_and_rule(self):
        violation = Violation(time=1.5, rule="CK004", detail="boom")
        assert violation.render() == "t=1.5 CK004: boom"


class TestFaultConsistency:
    def test_clean_state_audits_clean(self):
        cluster = Cluster.voltrino(num_nodes=2)
        injector = FaultInjector(cluster)
        assert injector.state.check_invariants() == []

    def test_direct_mutation_is_caught(self):
        cluster = Cluster.voltrino(num_nodes=2)
        state = FaultInjector(cluster).state
        state._speed["node0"] = 1.5  # bypasses the setter's range check
        state._down.add("node1")  # down with no crash window
        state._crash_log.append(("node0", 5.0, 2.0))  # ends before start
        problems = state.check_invariants()
        assert len(problems) == 3
        assert any("out of [0, 1]" in p for p in problems)
        assert any("no open crash window" in p for p in problems)
        assert any("ends before it starts" in p for p in problems)

    def test_ck005_speed_on_crashed_node(self):
        cluster = Cluster.voltrino(num_nodes=2)
        injector = FaultInjector(cluster)

        def busy(proc):
            yield Segment(work=math.inf, cpu=1.0, ips=1e9)

        proc = cluster.spawn("b", busy, node=0, core=0)
        cluster.sim.run(until=0.5)
        checker = InvariantChecker(mode="record").attach(cluster)
        injector.state.mark_down("node0", at=0.5)
        checker.after_resolve(cluster.sim, {proc.pid: 0.5}, None)
        assert "CK005" in {v.rule for v in checker.violations}
        checker.detach()


class TestTolerance:
    def test_roundoff_is_not_a_violation(self):
        checker = InvariantChecker(mode="record")
        checker.after_resolve(_stub_sim(), {1: 1.0 + DEFAULT_TOLERANCE / 10}, None)
        assert checker.violations == []
