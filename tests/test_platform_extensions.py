"""Tests for the platform realism extensions and the In-Vitro baseline."""

import numpy as np
import pytest

from repro.platform import (
    CpuModel,
    FaaSCluster,
    FixedKeepAlive,
    ShortestFirstCpu,
    WorkloadProfile,
    memory_utilization,
    per_workload_cold_rates,
)


def profiles():
    return {
        "fast": WorkloadProfile("fast", runtime_ms=10.0, memory_mb=100.0),
        "slow": WorkloadProfile("slow", runtime_ms=500.0, memory_mb=400.0),
    }


class TestServiceVariability:
    def test_zero_cv_deterministic(self):
        c = FaaSCluster(profiles(), n_nodes=1, node_memory_mb=2000.0)
        c.invoke(0.0, "fast")
        r = c.drain()[0]
        assert r.service_ms == pytest.approx(10.0)

    def test_cv_produces_spread_with_right_mean(self):
        services = []
        c = FaaSCluster(profiles(), n_nodes=4, node_memory_mb=8000.0,
                        service_time_cv=0.5, seed=1)
        for k in range(400):
            c.invoke(k * 1.0, "fast")
        services = np.array([r.service_ms for r in c.drain()])
        assert services.std() > 1.0
        assert services.mean() == pytest.approx(10.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaaSCluster(profiles(), service_time_cv=-0.1)


class TestCpuContention:
    def test_oversubscription_slows_service(self):
        c = FaaSCluster(profiles(), n_nodes=1, node_memory_mb=8000.0,
                        cpu=CpuModel(cores=1, policy=ShortestFirstCpu()))
        c.invoke(0.0, "slow")
        c.invoke(0.01, "slow")  # second concurrent invocation: 2x slowdown
        records = c.drain()
        assert records[0].service_ms == pytest.approx(500.0)
        assert records[1].service_ms == pytest.approx(1000.0)

    def test_within_capacity_no_slowdown(self):
        c = FaaSCluster(profiles(), n_nodes=1, node_memory_mb=8000.0,
                        cpu=CpuModel(cores=8, policy=ShortestFirstCpu()))
        c.invoke(0.0, "slow")
        c.invoke(0.01, "slow")
        for r in c.drain():
            assert r.service_ms == pytest.approx(500.0)


class TestMemoryTracking:
    def test_samples_recorded(self):
        c = FaaSCluster(profiles(), n_nodes=1, node_memory_mb=2000.0,
                        keepalive=FixedKeepAlive(5.0), track_memory=True)
        c.invoke(0.0, "fast")
        c.invoke(100.0, "fast")  # first sandbox expired in between
        c.drain()
        assert len(c.memory_samples) >= 3  # 2 admissions + >=1 reclaim
        used = [u for _, _, u in c.memory_samples]
        assert max(used) == pytest.approx(100.0)

    def test_memory_utilization_summary(self):
        samples = [(0.0, 0, 100.0), (10.0, 0, 300.0), (20.0, 0, 100.0)]
        util = memory_utilization(samples, node_capacity_mb=1000.0)
        # time-weighted: 100 for 10s, 300 for 10s -> mean 200 / 1000
        assert util["per_node"][0] == pytest.approx(0.2)
        assert util["peak_mb"] == 300.0

    def test_memory_utilization_validation(self):
        with pytest.raises(ValueError):
            memory_utilization([], 100.0)
        with pytest.raises(ValueError):
            memory_utilization([(0.0, 0, 1.0)], 0.0)

    def test_single_sample_node(self):
        util = memory_utilization([(5.0, 1, 50.0)], 100.0)
        assert util["per_node"][1] == pytest.approx(0.5)


class TestPerWorkloadColdRates:
    def test_rates(self):
        c = FaaSCluster(profiles(), n_nodes=1, node_memory_mb=8000.0,
                        keepalive=FixedKeepAlive(3600.0))
        for t in (0.0, 1.0, 2.0, 3.0):
            c.invoke(t, "fast")
        c.invoke(4.0, "slow")
        rates = per_workload_cold_rates(c.drain())
        assert rates["fast"] == pytest.approx(0.25)
        assert rates["slow"] == 1.0

    def test_min_invocations_filter(self):
        c = FaaSCluster(profiles(), n_nodes=1, node_memory_mb=8000.0)
        c.invoke(0.0, "fast")
        rates = per_workload_cold_rates(c.drain(), min_invocations=2)
        assert rates == {}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            per_workload_cold_rates([])


class TestInVitroBaseline:
    @pytest.fixture(scope="class")
    def azure(self):
        from repro.traces import synthetic_azure_trace

        return synthetic_azure_trace(n_functions=1200, seed=44)

    def test_spec_shape(self, azure):
        from repro.baselines import invitro_spec

        spec = invitro_spec(azure, 60, 20_000, 30, seed=0)
        assert spec.total_requests == 20_000
        assert spec.n_functions == 60
        assert spec.metadata["baseline"] == "invitro"

    def test_single_synthetic_family(self, azure):
        from repro.baselines import invitro_spec

        spec = invitro_spec(azure, 40, 5_000, 20, seed=1)
        assert {e.family for e in spec.entries} == {"busyloop"}

    def test_more_representative_than_random(self, azure):
        """In-Vitro's selling point: the chosen sample's duration CDF is
        closer to the trace's than a plain random sample's (on average)."""
        from repro.baselines import invitro_spec
        from repro.stats import ks_statistic_samples

        spec = invitro_spec(azure, 80, 5_000, 20, seed=2, n_candidates=64)
        iv_ks = ks_statistic_samples(
            [e.runtime_ms for e in spec.entries], azure.durations_ms)
        rng = np.random.default_rng(2)
        random_ks = np.mean([
            ks_statistic_samples(
                azure.durations_ms[
                    rng.choice(azure.n_functions, 80, replace=False)],
                azure.durations_ms)
            for _ in range(20)
        ])
        assert iv_ks < random_ks

    def test_representativity_score_recorded(self, azure):
        from repro.baselines import invitro_spec

        spec = invitro_spec(azure, 50, 2_000, 15, seed=3)
        assert 0.0 <= spec.metadata["representativity_score"] < 2.0

    def test_window_defaults_to_busiest(self, azure):
        from repro.baselines import invitro_spec

        spec = invitro_spec(azure, 50, 2_000, 15, seed=4)
        start = spec.metadata["window_start_minute"]
        agg = azure.aggregate_per_minute
        windows = np.convolve(agg, np.ones(15), "valid")
        assert windows[start] == windows.max()

    def test_validation(self, azure):
        from repro.baselines import invitro_spec

        with pytest.raises(ValueError):
            invitro_spec(azure, 0, 100, 10)
        with pytest.raises(ValueError):
            invitro_spec(azure, 10, 0, 10)
        with pytest.raises(ValueError):
            invitro_spec(azure, 10, 100, 10_000)
        with pytest.raises(ValueError):
            invitro_spec(azure, 10, 100, 10, n_candidates=0)
