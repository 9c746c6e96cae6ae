"""Predefined injection campaigns."""

import pytest

from repro.cluster import Cluster
from repro.core.scenarios import (
    CAMPAIGN_ANOMALIES,
    periodic,
    random_campaign,
    total_injected_time,
)
from repro.errors import AnomalyError
from repro.sim.process import ProcessState


class TestRandomCampaign:
    def test_deterministic_per_seed(self):
        def plan(seed):
            cluster = Cluster(num_nodes=4)
            injector = random_campaign(cluster, duration=100, events=8, seed=seed)
            return [
                (i.anomaly.name, i.node, i.core, i.start, i.duration)
                for i in injector.injections
            ]

        assert plan(7) == plan(7)
        assert plan(7) != plan(8)

    def test_windows_inside_horizon(self):
        cluster = Cluster(num_nodes=4)
        injector = random_campaign(cluster, duration=100, events=12, seed=1)
        for injection in injector.injections:
            assert 0 <= injection.start <= 80
            assert injection.anomaly.name in CAMPAIGN_ANOMALIES

    def test_runs_to_completion(self):
        cluster = Cluster(num_nodes=2)
        injector = random_campaign(cluster, duration=50, events=5, seed=2)
        cluster.sim.run(until=150)
        assert all(
            inj.process.state is ProcessState.KILLED for inj in injector.injections
        )

    def test_validation(self):
        cluster = Cluster(num_nodes=1)
        with pytest.raises(AnomalyError):
            random_campaign(cluster, duration=0)
        with pytest.raises(AnomalyError):
            random_campaign(cluster, duration=10, anomalies=("fanspin",))


class TestPeriodic:
    def test_pulses_on_and_off(self):
        cluster = Cluster(num_nodes=1)
        injector = periodic(
            cluster, "cpuoccupy", node=0, core=0, period=10.0, duty=0.5, cycles=3
        )
        assert len(injector.injections) == 3
        assert injector.active_labels(2.0) == ["cpuoccupy"]
        assert injector.active_labels(7.0) == []
        assert injector.active_labels(12.0) == ["cpuoccupy"]

    def test_total_injected_time(self):
        cluster = Cluster(num_nodes=1)
        injector = periodic(
            cluster, "cpuoccupy", node=0, core=0, period=10.0, duty=0.3, cycles=4
        )
        assert total_injected_time(injector) == pytest.approx(12.0)

    def test_knobs_forwarded(self):
        cluster = Cluster(num_nodes=1)
        injector = periodic(
            cluster,
            "cachecopy",
            node=0,
            core=0,
            period=5.0,
            duty=0.5,
            cycles=2,
            cache="L1",
        )
        assert injector.injections[0].anomaly.cache == "L1"

    def test_validation(self):
        cluster = Cluster(num_nodes=1)
        with pytest.raises(AnomalyError):
            periodic(cluster, "cpuoccupy", node=0, core=0, period=0, duty=0.5)
        with pytest.raises(AnomalyError):
            periodic(cluster, "cpuoccupy", node=0, core=0, period=5, duty=1.5)
