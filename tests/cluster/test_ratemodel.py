"""Cluster rate model: CPU sharing, SMT, cache, bandwidth, roofline."""

import math

import pytest

from repro.check import fingerprint_cluster, use_reference_model
from repro.check.generators import (
    AnomalyCase,
    AppCase,
    CaseSpec,
    FaultCase,
    build_cluster,
    deploy_case,
)
from repro.cluster import Cluster, MachineSpec
from repro.cluster.ratemodel import _RATE_KEYS
from repro.sim.process import Flow, IODemand, ProcessState, Segment
from repro.storage.filesystem import SharedFilesystem
from repro.units import GB10, MB, MB10


def compute(work=10.0, **kwargs):
    def body(proc):
        yield Segment(work=work, **kwargs)

    return body


def hog(cpu=1.0, **kwargs):
    def body(proc):
        yield Segment(work=math.inf, cpu=cpu, **kwargs)

    return body


class TestCpuSharing:
    def test_uncontended_full_speed(self):
        cluster = Cluster(num_nodes=1)
        p = cluster.spawn("p", compute(10.0), node=0, core=0)
        cluster.sim.run(until=100)
        assert p.runtime == pytest.approx(10.0)

    def test_core_sharing_halves_speed(self):
        cluster = Cluster(num_nodes=1)
        p = cluster.spawn("p", compute(10.0), node=0, core=0)
        cluster.spawn("hog", hog(), node=0, core=0)
        cluster.sim.run(until=100)
        assert p.runtime == pytest.approx(20.0)

    def test_duty_cycle_share(self):
        cluster = Cluster(num_nodes=1)
        p = cluster.spawn("p", compute(10.0), node=0, core=0)
        cluster.spawn("hog", hog(cpu=0.5), node=0, core=0)
        cluster.sim.run(until=100)
        # proportional sharing: p gets 1/1.5 of the core
        assert p.runtime == pytest.approx(15.0, rel=1e-6)

    def test_smt_sibling_penalty(self):
        spec = MachineSpec.voltrino()
        cluster = Cluster(num_nodes=1, spec=spec)
        p = cluster.spawn("p", compute(10.0), node=0, core=0)
        cluster.spawn("hog", hog(), node=0, core=spec.sibling_of(0))
        cluster.sim.run(until=100)
        # each hyperthread delivers smt_throughput/2 = 0.65
        assert p.runtime == pytest.approx(10.0 / 0.65, rel=1e-6)

    def test_different_cores_no_interference(self):
        cluster = Cluster(num_nodes=1)
        p = cluster.spawn("p", compute(10.0), node=0, core=0)
        cluster.spawn("hog", hog(), node=0, core=1)
        cluster.sim.run(until=100)
        assert p.runtime == pytest.approx(10.0)

    def test_cpu_time_accounting_is_occupancy(self):
        """/proc/stat-style accounting: a busy thread is 100% utilised."""
        spec = MachineSpec.voltrino()
        cluster = Cluster(num_nodes=1, spec=spec)
        cluster.spawn("a", hog(), node=0, core=0)
        cluster.spawn("b", hog(), node=0, core=spec.sibling_of(0))
        cluster.sim.run(until=10.0)
        assert cluster.node(0).counters["cpu_user_seconds"] == pytest.approx(
            20.0, rel=1e-6
        )


class TestCacheEffects:
    def test_eviction_slows_sensitive_segment(self):
        spec = MachineSpec.voltrino()

        def victim(work):
            return compute(
                work,
                cache_footprint={"L3": 20 * MB},
                cache_intensity=1.0,
                miss_cpi_penalty=1.0,
                mpki_base=1.0,
                mpki_extra=10.0,
                ips=1e9,
            )

        cluster = Cluster(num_nodes=1, spec=spec)
        clean = cluster.spawn("v", victim(10.0), node=0, core=0)
        cluster.sim.run(until=100)

        cluster2 = Cluster(num_nodes=1, spec=spec)
        victim_proc = cluster2.spawn("v", victim(10.0), node=0, core=0)
        cluster2.spawn(
            "evictor",
            hog(
                cache_footprint={"L3": 40 * MB},
                cache_intensity=4.0,
            ),
            node=0,
            core=1,  # same socket, different physical core
        )
        cluster2.sim.run(until=100)
        assert victim_proc.runtime > clean.runtime * 1.3

    def test_mpki_counter_reflects_eviction(self):
        spec = MachineSpec.voltrino()
        cluster = Cluster(num_nodes=1, spec=spec)
        victim = cluster.spawn(
            "v",
            compute(
                5.0,
                cache_footprint={"L3": 20 * MB},
                cache_intensity=1.0,
                mpki_base=1.0,
                mpki_extra=10.0,
                ips=1e9,
            ),
            node=0,
            core=0,
        )
        cluster.spawn(
            "evictor",
            hog(cache_footprint={"L3": 40 * MB}, cache_intensity=4.0),
            node=0,
            core=1,
        )
        cluster.sim.run(until=100)
        mpki = victim.counters["l3_misses"] / victim.counters["instructions"] * 1000
        assert mpki > 3.0  # well above the base 1.0


class TestMemoryBandwidth:
    def test_memory_bound_segment_ignores_cpu_loss(self):
        spec = MachineSpec.voltrino()
        cluster = Cluster(num_nodes=1, spec=spec)
        stream = cluster.spawn(
            "s", compute(10.0, mem_bw=spec.core_mem_bw), node=0, core=0
        )
        cluster.spawn("hog", hog(), node=0, core=0)  # same logical core
        cluster.sim.run(until=200)
        # phi = 1: fully memory-bound, CPU share loss is hidden
        assert stream.runtime == pytest.approx(10.0, rel=0.01)

    def test_bandwidth_contention_slows_stream(self):
        spec = MachineSpec.voltrino()
        cluster = Cluster(num_nodes=1, spec=spec)
        stream = cluster.spawn(
            "s", compute(10.0, mem_bw=spec.core_mem_bw), node=0, core=0
        )
        for i in range(7):
            cluster.spawn(f"bw{i}", hog(mem_bw=10 * GB10), node=0, core=1 + i)
        cluster.sim.run(until=500)
        assert stream.runtime > 20.0

    def test_other_socket_does_not_contend(self):
        spec = MachineSpec.voltrino()
        cluster = Cluster(num_nodes=1, spec=spec)
        stream = cluster.spawn(
            "s", compute(10.0, mem_bw=spec.core_mem_bw), node=0, core=0
        )
        for i in range(7):
            # cores 16+ live on socket 1
            cluster.spawn(f"bw{i}", hog(mem_bw=10 * GB10), node=0, core=16 + i)
        cluster.sim.run(until=500)
        assert stream.runtime == pytest.approx(10.0, rel=0.01)


class TestNetworkStage:
    def test_flow_contention_stretches_transfer(self):
        cluster = Cluster.voltrino(num_nodes=8)

        def sender(proc):
            yield Segment(
                work=10.0, cpu=0.05, flows=[Flow(dst="node4", rate=9e9)]
            )

        p = cluster.spawn("snd", sender, node=0, core=0)
        # a competing stream out of the same node
        def rival(proc):
            yield Segment(
                work=math.inf, cpu=0.05, flows=[Flow(dst="node5", rate=9e9)]
            )

        cluster.spawn("rival", rival, node=0, core=1)
        cluster.sim.run(until=200)
        assert p.runtime > 10.5  # slowed by uplink sharing + latency factor

    def test_nic_counters_accumulate(self):
        cluster = Cluster.voltrino(num_nodes=8)

        def sender(proc):
            yield Segment(work=5.0, cpu=0.05, flows=[Flow(dst="node4", rate=1e9)])

        cluster.spawn("snd", sender, node=0, core=0)
        cluster.sim.run(until=100)
        assert cluster.node(0).counters["nic_tx_bytes"] == pytest.approx(
            5e9, rel=0.01
        )
        assert cluster.node(4).counters["nic_rx_bytes"] == pytest.approx(
            5e9, rel=0.01
        )


class TestStorageStage:
    def test_io_contention_slows_writer(self):
        fs = SharedFilesystem(name="nfs", disk_bw=100 * MB10)
        cluster = Cluster(num_nodes=2, filesystems=[fs])

        def writer(proc):
            yield Segment(
                work=10.0, cpu=0.1, io=IODemand(fs="nfs", write_bw=80 * MB10)
            )

        p = cluster.spawn("w", writer, node=0, core=0)
        cluster.spawn(
            "rival",
            hog(cpu=0.1, io=IODemand(fs="nfs", write_bw=80 * MB10)),
            node=1,
            core=0,
        )
        cluster.sim.run(until=200)
        # two 80 MB/s writers on a 100 MB/s disk -> each gets 50
        assert p.runtime == pytest.approx(16.0, rel=0.02)
        assert cluster.node(0).counters["io_write_bytes"] > 0


class TestStageTimers:
    def test_node_network_and_storage_stages_are_timed(self):
        # --profile and `repro report` attribute resolve time to these
        # three timers; the production model must feed all of them.
        cluster = Cluster.chameleon()

        def sender(proc):
            yield Segment(work=5.0, cpu=0.05, flows=[Flow(dst="node1", rate=1e9)])

        def writer(proc):
            yield Segment(
                work=5.0, cpu=0.1, io=IODemand(fs="nfs", write_bw=80 * MB10)
            )

        cluster.spawn("snd", sender, node=0, core=0)
        cluster.spawn("w", writer, node=2, core=0)
        cluster.sim.run(until=100)
        timings = cluster.sim.stats.timings
        for stage in ("node", "network", "storage"):
            assert stage in timings
            assert timings[stage] >= 0.0


class TestCountersMatchReference:
    """Counter dicts hold the same keys and floats under both models."""

    @staticmethod
    def _cluster(reference):
        cluster = Cluster.voltrino(num_nodes=8)
        if reference:
            use_reference_model(cluster)
        return cluster

    def _read_mid_run(self, reference):
        cluster = self._cluster(reference)

        def sender(proc):
            yield Segment(
                work=5.0, cpu=1.0, ips=1e9, flows=[Flow(dst="node4", rate=1e9)]
            )

        p = cluster.spawn("snd", sender, node=0, core=0)
        seen = {}

        def read():
            seen["proc"] = dict(p.counters)
            seen["node0"] = dict(cluster.node(0).counters)
            seen["node4"] = dict(cluster.node(4).counters)

        cluster.sim.schedule(2.0, read)
        cluster.sim.run(until=10.0)
        return seen

    def test_mid_run_read_matches_reference(self):
        seen = self._read_mid_run(reference=False)
        assert seen == self._read_mid_run(reference=True)
        assert seen["proc"]["instructions"] == 2e9
        assert seen["node0"]["cpu_core0_seconds"] == 2.0
        assert seen["node4"]["nic_rx_bytes"] > 0.0

    def _fingerprint_zero_work(self, reference):
        cluster = self._cluster(reference)

        def blip(proc):
            yield Segment(work=0.0, cpu=1.0, ips=1e9)

        cluster.spawn("blip", blip, node=0, core=0)
        cluster.spawn("p", compute(3.0, ips=1e9), node=0, core=1)
        cluster.sim.run(until=10.0)
        return fingerprint_cluster(cluster)

    def test_zero_work_segment_fingerprint_matches_reference(self):
        # The zero-work segment is priced but never accrued, so neither
        # model may give it counter keys.
        assert self._fingerprint_zero_work(False) == self._fingerprint_zero_work(
            True
        )


class TestLastRatesMatchReference:
    """``last_rates`` holds the reference's priced keys and floats after
    every resolve; the CK006 invariant reads it."""

    SPEC = CaseSpec(
        case_id=903,
        seed=3,
        machine="chameleon",
        n_nodes=3,
        k_paths=2,
        apps=(
            AppCase(
                app="miniMD",
                first_node=0,
                n_nodes=2,
                ranks_per_node=2,
                iterations=10,
                start=0.0,
            ),
        ),
        anomalies=(
            AnomalyCase(name="cpuoccupy", node=0, core=0, start=0.5, duration=6.0),
            AnomalyCase(name="membw", node=1, core=1, start=1.0, duration=6.0),
            AnomalyCase(
                name="netoccupy", node=2, core=0, start=0.5, duration=8.0, peer=0
            ),
            AnomalyCase(name="iobandwidth", node=2, core=1, start=1.0, duration=6.0),
        ),
        faults=(
            FaultCase(kind="slowdown", node=0, start=1.5, duration=3.0, factor=0.5),
            FaultCase(kind="link_down", node=1, start=2.0, duration=2.0, factor=0.0),
        ),
        horizon=60.0,
    )

    def _rates_per_resolve(self, reference):
        cluster = build_cluster(self.SPEC)
        if reference:
            use_reference_model(cluster)
        model = cluster.model
        real = model.resolve_incremental
        seen = []

        def recording(running, now, dirty=None):
            speeds = real(running, now, dirty)
            # pids differ between the two runs; process names do not
            rates = {
                cluster.sim.process(pid).name: dict(r)
                for pid, r in model.last_rates.items()
            }
            seen.append((now, cluster.faults.active, rates))
            return speeds

        model.resolve_incremental = recording
        jobs = deploy_case(self.SPEC, cluster)
        cluster.sim.run(
            until=self.SPEC.horizon, stop_when=lambda: all(j.finished for j in jobs)
        )
        return seen

    def test_last_rates_match_reference_after_every_resolve(self):
        seen = self._rates_per_resolve(reference=False)
        expected = self._rates_per_resolve(reference=True)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert got == want
        # The scenario prices every column, and resolves inside a fault
        # window as well as outside one.
        keys = {key for _, _, rates in seen for r in rates.values() for key in r}
        assert keys == set(_RATE_KEYS)
        assert {active for _, active, _ in seen} == {False, True}
