"""The unified Observability handle and the traceable registry jobs."""

import json

import pytest

from repro.cluster import Cluster
from repro.core import AnomalyInjector, CpuOccupy, Injection
from repro.errors import ConfigError, ObservabilityError
from repro.experiments.registry import EXPERIMENT_REGISTRY
from repro.obs import Observability, validate_chrome_trace
from repro.obs.observability import trace_job
from repro.runtime import CharmRuntime, GreedyRefineLB, WorkObject


class TestObservabilityHandle:
    def test_attach_wires_sim_and_service(self):
        cluster = Cluster(num_nodes=1)
        obs = Observability(cluster).attach(end=5)
        assert cluster.sim.obs is obs.collector
        assert obs.service is not None and obs.service.attached
        cluster.sim.run(until=5)
        assert len(obs.service.times) > 0

    def test_attach_adopts_existing_service(self):
        cluster = Cluster(num_nodes=1)
        from repro.monitoring import MetricService

        service = MetricService(cluster)
        service.attach(end=5)
        obs = Observability(cluster, service=service).attach()
        assert obs.service is service  # adopted, not re-attached

    def test_detach_restores_zero_cost_state(self):
        cluster = Cluster.chameleon(num_nodes=2, with_nfs=True)
        obs = Observability(cluster).attach()
        obs.detach()
        assert cluster.sim.obs is None
        assert all(fs.obs is None for fs in cluster.filesystems.values())
        assert not obs.service.attached

    def test_snapshot_unifies_surfaces(self):
        cluster = Cluster(num_nodes=1)
        obs = Observability(cluster).attach(end=3)
        cluster.sim.run(until=3)
        snap = obs.snapshot()
        assert set(snap) >= {"counters", "spans", "instants", "metrics", "samples"}

    def test_unknown_trace_format_rejected(self, tmp_path):
        cluster = Cluster(num_nodes=1)
        obs = Observability(cluster).attach()
        with pytest.raises(ObservabilityError, match="unknown trace format"):
            obs.write_trace(tmp_path / "t.bin", fmt="binary")


class TestScenarios:
    """The whole-stack registry jobs, traced through :func:`trace_job`."""

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            trace_job("nope")

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            trace_job("mixed", overrides={"horizon": 0.0})

    def test_scenario_registry_names(self):
        traceable = {n for n, spec in EXPERIMENT_REGISTRY.items() if spec.traceable}
        assert traceable == {"mixed", "fault_recovery", "trace_replay"}

    def test_faults_covers_fault_and_recovery_spans(self):
        _, obs = trace_job("fault_recovery", overrides={"horizon": 3600.0})
        collector = obs.collector
        assert "faults" in set(collector.categories())
        names = {e.name for e in collector.instants}
        assert any(n.startswith("recovered:") for n in names)

    def test_mixed_covers_five_subsystems(self):
        _, obs = trace_job("mixed")
        categories = set(obs.collector.categories())
        assert categories >= {"engine", "injector", "scheduler", "mpi", "storage"}

    def test_mixed_trace_is_valid_chrome_json(self, tmp_path):
        _, obs = trace_job("mixed")
        path = obs.write_trace(tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_mixed_manifest_byte_identical_across_reruns(self, tmp_path):
        def manifest_bytes(path):
            result, obs = trace_job("mixed", seed=3)
            out = obs.write_manifest(
                tmp_path / path,
                name="trace-mixed",
                seed=result.seed,
                config=result.config,
            )
            return out.read_bytes()

        assert manifest_bytes("a.json") == manifest_bytes("b.json")

    def test_mixed_trace_byte_identical_across_reruns(self, tmp_path):
        def trace_bytes(path):
            _, obs = trace_job("mixed")
            return obs.write_trace(tmp_path / path).read_bytes()

        assert trace_bytes("a.json") == trace_bytes("b.json")

    def test_loadbalance_emits_charm_spans(self):
        # Fig. 13's setting, observed directly on the Charm++ runtime.
        cluster = Cluster.voltrino(num_nodes=2)
        obs = Observability(cluster).attach(metrics=False)
        injector = AnomalyInjector(cluster)
        for core in (0, 1, 2):
            injector.add(
                Injection(CpuOccupy(utilization=100), node="node0", core=core,
                          start=2.0, duration=48.0)
            )
        injector.deploy()
        objects = [WorkObject(oid=i, load=0.05 + 0.01 * (i % 5)) for i in range(24)]
        runtime = CharmRuntime(
            cluster,
            node="node0",
            cores=list(range(8)),
            objects=objects,
            balancer=GreedyRefineLB(),
            iterations=12,
        )
        runtime.run(timeout=60.0)
        obs.collector.finalize()
        categories = obs.collector.categories()
        assert categories.get("charm", 0) >= 12  # one span per iteration
        migrations = [e for e in obs.collector.instants if e.name == "migrate"]
        assert migrations  # the balancer reacts to the cpuoccupy squat


class TestTraceCli:
    def test_trace_subcommand_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "trace",
                "mixed",
                "--out",
                str(out),
                "--manifest",
                str(manifest),
                "--set",
                "horizon=60",
            ]
        )
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        manifest = json.loads(manifest.read_text())
        assert manifest["name"] == "trace-mixed"
        assert manifest["config"]["horizon"] == 60
        stdout = capsys.readouterr().out
        assert "traced job 'mixed'" in stdout

    def test_trace_subcommand_jsonl_format(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "trace_replay", "--out", str(out), "--format", "jsonl",
             "--seed", "2"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert all(json.loads(line)["type"] in ("span", "instant") for line in lines)

    def test_anomaly_trace_flag(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "anomaly.json"
        code = main(
            ["cpuoccupy", "-u", "80", "--horizon", "20", "--trace", str(out)]
        )
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
