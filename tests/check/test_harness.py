"""Fuzz harness: fingerprints, case evaluation, shrinking, reports."""

from dataclasses import replace

import pytest

from repro.check.generators import generate_case
from repro.check.harness import (
    FuzzReport,
    evaluate_case,
    fingerprint_case,
    run_fuzz,
    shrink_failing,
    use_reference_model,
)
from repro.cluster import Cluster
from repro.cluster.ratemodel import ClusterRateModel
from repro.cluster.reference import ReferenceFlowSolver, ReferenceRateModel
from repro.core import CpuOccupy
from repro.errors import CheckError


def _perturb_production(monkeypatch, factor=0.75):
    """Skew the production model's speeds on resolves with a dirty hint.

    The reference model never runs this code, so the ``reference_model``
    comparison must flag the divergence.
    """
    real = ClusterRateModel.resolve_incremental

    def perturbed(self, running, now, dirty=None):
        speeds = real(self, running, now, dirty)
        if dirty:
            return {pid: s * factor for pid, s in speeds.items()}
        return speeds

    monkeypatch.setattr(ClusterRateModel, "resolve_incremental", perturbed)


class TestFingerprint:
    def test_deterministic_across_fresh_clusters(self, net_spec):
        # The global pid counter differs between the two runs; the
        # fingerprint must key on names, not pids.
        assert fingerprint_case(net_spec) == fingerprint_case(net_spec)

    def test_distinct_specs_give_distinct_fingerprints(self, tiny_spec, net_spec):
        assert fingerprint_case(tiny_spec) != fingerprint_case(net_spec)

    def test_sensitive_to_workload_size(self, tiny_spec):
        longer = replace(
            tiny_spec,
            apps=(replace(tiny_spec.apps[0], iterations=4),),
        )
        assert fingerprint_case(tiny_spec) != fingerprint_case(longer)


class TestUseReferenceModel:
    def test_swaps_the_model_on_a_fresh_cluster(self):
        cluster = Cluster.voltrino(num_nodes=2, k_paths=2)
        assert use_reference_model(cluster) is cluster
        assert isinstance(cluster.model, ReferenceRateModel)
        assert cluster.sim.model is cluster.model
        assert cluster.model.k_paths == 2
        assert isinstance(cluster.model.flow_solver, ReferenceFlowSolver)

    def test_rejects_a_cluster_with_processes(self):
        cluster = Cluster.voltrino(num_nodes=2)
        CpuOccupy(utilization=50, duration=1.0).launch(cluster, "node0", core=0)
        with pytest.raises(CheckError, match="freshly built"):
            use_reference_model(cluster)


class TestEvaluateCase:
    def test_clean_case_is_ok(self, net_spec):
        outcome = evaluate_case(net_spec)
        assert outcome.ok
        assert outcome.violations == ()
        assert outcome.mismatches == ()
        assert dict(outcome.hook_counts).get("resolve", 0) > 0

    def test_incremental_divergence_is_flagged(self, net_spec, monkeypatch):
        _perturb_production(monkeypatch)
        outcome = evaluate_case(net_spec)
        assert not outcome.ok
        assert "reference_model" in [name for name, _ in outcome.mismatches]


class TestShrinking:
    def test_shrink_finds_a_smaller_failing_case(self, monkeypatch):
        _perturb_production(monkeypatch)
        # A deliberately fat case: two multi-iteration apps.
        base = generate_case(17, 0)
        fat = replace(
            base,
            apps=tuple(
                replace(a, iterations=6, ranks_per_node=2) for a in base.apps
            ),
        )
        original = evaluate_case(fat)
        assert not original.ok
        shrunk = shrink_failing(fat, budget=8)
        assert not shrunk.ok
        assert sum(a.iterations for a in shrunk.spec.apps) <= sum(
            a.iterations for a in fat.apps
        )

    def test_shrink_keeps_the_original_when_nothing_smaller_fails(self, net_spec):
        outcome = shrink_failing(net_spec, budget=4)
        assert outcome.spec == net_spec


class TestRunFuzz:
    def test_small_clean_run_passes(self):
        report = run_fuzz(cases=2, seed=3, with_oracles=False)
        assert report.ok
        assert report.generated == 2
        assert report.corpus_count == 0
        assert len(report.outcomes) == 2

    def test_report_bytes_are_reproducible(self):
        a = run_fuzz(cases=2, seed=3, with_oracles=False).render()
        b = run_fuzz(cases=2, seed=3, with_oracles=False).render()
        assert a == b
        assert a.endswith("PASS")
        assert "invariant hooks fired:" in a

    def test_corpus_cases_replayed_before_fresh_batch(self, tiny_spec):
        report = run_fuzz(cases=1, seed=3, corpus=[tiny_spec], with_oracles=False)
        assert report.corpus_count == 1
        assert len(report.outcomes) == 2
        assert report.outcomes[0].spec == tiny_spec

    def test_parallel_evaluation_matches_serial(self):
        serial = run_fuzz(cases=2, seed=3, with_oracles=False)
        fanned = run_fuzz(cases=2, seed=3, jobs=2, with_oracles=False)
        assert serial.render() == fanned.render()

    def test_failing_run_reports_and_shrinks(self, net_spec, monkeypatch):
        _perturb_production(monkeypatch)
        report = run_fuzz(cases=0, seed=3, corpus=[net_spec], with_oracles=False)
        assert not report.ok
        text = report.render()
        assert text.endswith("FAIL")
        assert "mismatch[reference_model]" in text
        assert "shrunk case" in text
        assert '"machine": "voltrino"' in text  # shrunk spec JSON is inlined

    def test_no_shrink_skips_the_shrinker(self, net_spec, monkeypatch):
        _perturb_production(monkeypatch)
        report = run_fuzz(
            cases=0, seed=3, corpus=[net_spec], shrink=False, with_oracles=False
        )
        assert not report.ok
        assert report.shrunk == ()


class TestFuzzReport:
    def test_empty_report_renders(self):
        report = FuzzReport(
            seed=0,
            generated=0,
            corpus_count=0,
            outcomes=(),
            oracles=(),
            shrunk=(),
        )
        assert report.ok
        assert report.render().endswith("PASS")
