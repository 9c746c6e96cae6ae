"""Differential oracles: each must pass clean and catch a planted bug.

Every oracle gets two tests: the seeded scenario agrees byte-for-byte on
an unmodified tree, and a deliberate perturbation of the fast path (the
kind of regression the oracle exists to catch) flips it to failing.
"""

import math
from pathlib import Path

from repro.apps.base import CheckpointStore
from repro.check.corpus import load_corpus
from repro.check.harness import evaluate_case
from repro.check.oracles import (
    oracle_checkpoint_free,
    oracle_checkpoint_restart,
    oracle_parallel_sweep,
    oracle_result_cache,
    oracle_stream_export,
    run_global_oracles,
)
from repro.cluster.ratemodel import _INSTR, ClusterRateModel
from repro.network.flows import FlowSolver

PINNED_CORPUS = Path(__file__).with_name("corpus.json")


class TestCleanTree:
    def test_all_global_oracles_pass(self):
        results = run_global_oracles(seed=0)
        assert [r.name for r in results] == [
            "parallel_sweep",
            "checkpoint_restart",
            "checkpoint_free",
            "result_cache",
            "stream_export",
            "trace_replay",
        ]
        for result in results:
            assert result.ok, f"{result.name}: {result.detail}"


class TestParallelSweepOracle:
    def test_passes_clean(self):
        assert oracle_parallel_sweep(seed=1, cases=2, jobs=2).ok

    def test_catches_result_reordering(self, monkeypatch):
        # A broken pool that merges worker results out of payload order.
        def shuffled_run_trials(factory, payloads, jobs=1):
            results = [factory(p) for p in payloads]
            return results[::-1] if jobs > 1 else results

        monkeypatch.setattr(
            "repro.check.oracles.run_trials", shuffled_run_trials
        )
        result = oracle_parallel_sweep(seed=0, cases=3, jobs=2)
        assert not result.ok
        assert "diverges from serial" in result.detail


class TestReferenceModel:
    """The production-vs-reference comparison lives in evaluate_case."""

    def test_pinned_corpus_matches_reference(self):
        # The exact cases CI replays must agree with the reference model —
        # a case that once exposed a divergence stays covered.
        for spec in load_corpus(PINNED_CORPUS):
            outcome = evaluate_case(spec)
            assert outcome.ok, (spec.case_id, outcome.mismatches)

    def test_catches_accounting_skew(self, net_spec, monkeypatch):
        # Planted bug: the production model mis-prices instruction rates
        # by a hair.  "A hair" is precisely what fingerprints exist to
        # catch.
        # The plant sits in _record_rates, which derives the rates that
        # _plan_accrue hands to accrue.
        real = ClusterRateModel._record_rates

        def skewed(self, rows):
            real(self, rows)
            for row in rows:
                self._rates[row][_INSTR] *= 1.0 + 1e-9

        monkeypatch.setattr(ClusterRateModel, "_record_rates", skewed)
        outcome = evaluate_case(net_spec)
        assert "reference_model" in [name for name, _ in outcome.mismatches]

    def test_catches_one_ulp_flow_solver_skew(self, monkeypatch):
        # Planted bug: the production flow solver's water filling hands
        # out every positive rate one ulp short.  The reference model
        # solves flows on ReferenceFlowSolver, so only it can notice.
        # Pinned case 1 (two apps sharing four nodes) is contended enough
        # for one ulp of grant to reach the fingerprint.
        (spec,) = [s for s in load_corpus(PINNED_CORPUS) if s.case_id == 1]
        real = FlowSolver._waterfill

        def one_ulp_short(self, sub_cols, demand, used):
            rates = real(self, sub_cols, demand, used)
            return [math.nextafter(r, 0.0) if r > 0 else r for r in rates]

        monkeypatch.setattr(FlowSolver, "_waterfill", one_ulp_short)
        outcome = evaluate_case(spec)
        assert "reference_model" in [name for name, _ in outcome.mismatches]

    def test_catches_key_blind_network_memo(self, net_spec, monkeypatch):
        # Planted bug: the network-stage memo ignores its key and replays
        # the first stage it ever stored.  The reference model keeps no
        # memo and solves every resolve's flows cold, so it must disagree.
        real = ClusterRateModel.__init__

        class KeyBlindMemo(dict):
            def get(self, key, default=None):
                return next(iter(self.values()), default)

        def with_blind_memo(self, *args, **kwargs):
            real(self, *args, **kwargs)
            self._net_memo = KeyBlindMemo()

        monkeypatch.setattr(ClusterRateModel, "__init__", with_blind_memo)
        outcome = evaluate_case(net_spec)
        assert not outcome.ok
        assert [name for name, _ in outcome.mismatches] == ["reference_model"]


class TestCheckpointRestartOracle:
    def test_passes_clean(self):
        result = oracle_checkpoint_restart(seed=0)
        assert result.ok, result.detail

    def test_catches_overcommitted_checkpoints(self, monkeypatch):
        # A store that claims one more iteration than actually completed:
        # the restart would skip work, so the oracle must fail.
        real = CheckpointStore.commit

        def over_commit(self, iteration):
            real(self, iteration + 1)

        monkeypatch.setattr(CheckpointStore, "commit", over_commit)
        result = oracle_checkpoint_restart(seed=0)
        assert not result.ok


class TestCheckpointFreeOracle:
    def test_passes_clean(self):
        result = oracle_checkpoint_free(seed=0)
        assert result.ok, result.detail


class TestResultCacheOracle:
    def test_passes_clean(self):
        result = oracle_result_cache(seed=0)
        assert result.ok, result.detail
        # the probe spec must not leak into the registry
        from repro.experiments.registry import EXPERIMENT_REGISTRY

        assert "cache_probe" not in EXPERIMENT_REGISTRY

    def test_catches_tampered_cache_entry(self, monkeypatch):
        # Planted bug: a store that serves subtly corrupted bytes on a
        # hit — the exact silent failure mode a content-addressed cache
        # must never have.
        from repro.experiments.registry import ResultArtifacts
        from repro.service import ResultStore

        real_get = ResultStore.get

        def tampered_get(self, fingerprint):
            stored = real_get(self, fingerprint)
            if stored is None:
                return None
            arts = stored.artifacts
            return type(stored)(
                stored.fingerprint,
                ResultArtifacts(
                    arts.result_name, arts.text + " ", arts.manifest_text
                ),
                stored.record,
            )

        monkeypatch.setattr(ResultStore, "get", tampered_get)
        result = oracle_result_cache(seed=0)
        assert not result.ok
        assert "differs" in result.detail

    def test_catches_double_execution(self, monkeypatch):
        # Planted bug: a store that never reports a committed entry (the
        # pool's hit check), so the duplicate submission simulates again
        # instead of being served from cache.
        from repro.service import ResultStore

        monkeypatch.setattr(ResultStore, "committed", lambda self, fp: False)
        result = oracle_result_cache(seed=0)
        assert not result.ok
        assert "2 times" in result.detail


class TestStreamExportOracle:
    def test_passes_clean(self):
        result = oracle_stream_export(seed=1, cases=2)
        assert result.ok, result.detail

    def test_catches_nonfinal_flush(self, monkeypatch):
        # Planted bug: an emitter that keeps writing a span's args after
        # the span closed.  The live writers flushed the old content; the
        # post-run replay sees the new one.
        from repro.obs.spans import SpanCollector

        real = SpanCollector._close

        def late_args(self, span, t, args=None):
            real(self, span, t, args)
            span.args["late"] = True

        monkeypatch.setattr(SpanCollector, "_close", late_args)
        result = oracle_stream_export(seed=0, cases=2)
        assert not result.ok
        assert "jsonl drift" in result.detail
        assert "chrome drift" in result.detail

    def test_catches_sink_fed_other_values(self, monkeypatch):
        # Planted bug: a metric service that hands its sinks a value one
        # part in 1e9 away from the one it stores.
        from repro.monitoring.service import MetricService
        from repro.obs.stream import ObsSink

        real_add = MetricService.add_sink

        class Skewed(ObsSink):
            def __init__(self, inner):
                self.inner = inner

            def on_metric_sample(self, time, node, values):
                skewed = {k: v * (1.0 + 1e-9) for k, v in values.items()}
                self.inner.on_metric_sample(time, node, skewed)

        def add_skewed(self, sink, node=None):
            real_add(self, Skewed(sink), node)

        monkeypatch.setattr(MetricService, "add_sink", add_skewed)
        result = oracle_stream_export(seed=0, cases=2)
        assert not result.ok
        assert "metric stream" in result.detail

    def test_catches_writer_layout_bug(self, monkeypatch):
        # Planted bug: a Chrome args separator one space too deep.  Live
        # stream and replay share the writer and agree; only the stdlib
        # reference sees it.
        import json

        from repro.obs import stream

        wrong = json.JSONEncoder(sort_keys=True, separators=(",\n     ", ": "))
        monkeypatch.setattr(stream, "_CHROME_ARGS", wrong.encode)
        result = oracle_stream_export(seed=0, cases=2)
        assert not result.ok
        assert "chrome layout differs from the stdlib" in result.detail
        assert "drift" not in result.detail
