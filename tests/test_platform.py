"""Tests for the FaaS cluster simulator, keep-alive, schedulers, metrics."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.platform import (
    CpuModel,
    FaaSCluster,
    FairShareCpu,
    FixedKeepAlive,
    HashAffinityScheduler,
    HistogramKeepAlive,
    InvocationRecord,
    LeastLoadedScheduler,
    NoKeepAlive,
    ObjectFaaSCluster,
    PowerOfTwoScheduler,
    RandomScheduler,
    WorkloadProfile,
    profiles_from_spec,
    summarize,
)


def profiles(**overrides):
    base = {
        "fast": WorkloadProfile("fast", runtime_ms=10.0, memory_mb=100.0),
        "slow": WorkloadProfile("slow", runtime_ms=1000.0, memory_mb=500.0),
    }
    base.update(overrides)
    return base


def cluster(**kw):
    defaults = dict(n_nodes=2, node_memory_mb=2000.0)
    defaults.update(kw)
    return FaaSCluster(profiles(), **defaults)


class TestLifecycle:
    def test_first_invocation_cold(self):
        c = cluster()
        c.invoke(0.0, "fast")
        records = c.drain()
        assert len(records) == 1
        assert records[0].cold

    def test_second_invocation_warm_within_ttl(self):
        c = cluster(keepalive=FixedKeepAlive(60.0))
        c.invoke(0.0, "fast")
        c.invoke(5.0, "fast")
        records = c.drain()
        assert [r.cold for r in records] == [True, False]
        # warm start has no cold-start delay
        assert records[1].start_s == pytest.approx(5.0)

    def test_expired_sandbox_is_cold_again(self):
        c = cluster(keepalive=FixedKeepAlive(10.0))
        c.invoke(0.0, "fast")
        c.invoke(100.0, "fast")  # far beyond ttl
        records = c.drain()
        assert [r.cold for r in records] == [True, True]

    def test_no_keepalive_always_cold(self):
        c = cluster(keepalive=NoKeepAlive())
        for t in (0.0, 1.0, 2.0):
            c.invoke(t, "fast")
        assert all(r.cold for r in c.drain())

    def test_cold_start_latency_model(self):
        c = cluster()
        c.invoke(0.0, "fast")
        r = c.drain()[0]
        expected_cs = 0.150 + 0.0008 * 100.0
        assert r.start_s == pytest.approx(expected_cs)
        assert r.end_s == pytest.approx(expected_cs + 0.010)

    @pytest.mark.parametrize("engine", [FaaSCluster, ObjectFaaSCluster])
    @pytest.mark.parametrize("keepalive", [
        NoKeepAlive, lambda: FixedKeepAlive(2.0),
        lambda: HistogramKeepAlive(min_ttl_s=0.5, min_observations=2),
    ], ids=["none", "fixed", "histogram"])
    def test_custom_cold_start_model_called_per_cold_start(
            self, engine, keepalive):
        # only the default model's costs are precomputed; any other model
        # is called once per cold start with the started workload's
        # profile, whatever else the run configures
        given = profiles(
            mid=WorkloadProfile("mid", runtime_ms=200.0, memory_mb=300.0),
        )
        calls = []

        def model(profile):
            calls.append(profile)
            return 0.05 + 0.0001 * profile.memory_mb

        c = engine(given, n_nodes=2, node_memory_mb=800.0,
                   keepalive=keepalive(), cold_start_model=model,
                   cpu=CpuModel(cores=1, policy=FairShareCpu(
                       weights={"fast": 2.0})))
        rng = np.random.default_rng(7)
        ts = np.sort(rng.uniform(0.0, 30.0, 300))
        for t, w in zip(ts.tolist(), rng.choice(sorted(given), 300)):
            c.invoke(t, str(w))
        records = c.drain()
        cold = Counter(r.workload_id for r in records if r.cold)
        assert Counter(p.workload_id for p in calls) == cold
        assert all(p is given[p.workload_id] for p in calls)
        if keepalive is not NoKeepAlive:
            assert sum(cold.values()) < len(records)  # some reuse

    def test_concurrent_requests_scale_out_sandboxes(self):
        c = cluster(n_nodes=1)
        # two overlapping slow invocations need two sandboxes
        c.invoke(0.0, "slow")
        c.invoke(0.1, "slow")
        records = c.drain()
        assert all(r.cold for r in records)  # separate sandboxes
        assert records[1].start_s < records[0].end_s  # truly concurrent

    def test_out_of_order_submission_rejected(self):
        c = cluster()
        c.invoke(10.0, "fast")
        with pytest.raises(ValueError, match="past"):
            c.invoke(5.0, "fast")

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="no profile"):
            cluster().invoke(0.0, "nope")


class TestMemoryPressure:
    def test_eviction_under_pressure(self):
        # node fits 2 sandboxes of 500; third workload evicts the LRU idle
        profs = {
            f"w{i}": WorkloadProfile(f"w{i}", runtime_ms=10.0,
                                     memory_mb=500.0)
            for i in range(3)
        }
        c = FaaSCluster(profs, n_nodes=1, node_memory_mb=1000.0,
                        keepalive=FixedKeepAlive(3600.0))
        c.invoke(0.0, "w0")
        c.invoke(1.0, "w1")
        c.invoke(2.0, "w2")   # must evict w0 (least recently used)
        c.invoke(3.0, "w1")   # w1 still warm
        c.invoke(4.0, "w0")   # w0 was evicted -> cold again
        records = c.drain()
        colds = {(r.workload_id, r.arrival_s): r.cold for r in records}
        assert colds[("w2", 2.0)] is True
        assert colds[("w1", 3.0)] is False
        assert colds[("w0", 4.0)] is True

    def test_queueing_when_no_memory(self):
        profs = {"big": WorkloadProfile("big", runtime_ms=100.0,
                                        memory_mb=800.0)}
        c = FaaSCluster(profs, n_nodes=1, node_memory_mb=1000.0,
                        keepalive=NoKeepAlive())
        c.invoke(0.0, "big")
        c.invoke(0.001, "big")  # no room for a second sandbox -> queues
        records = c.drain()
        assert len(records) == 2
        second = records[1]
        assert second.queueing_ms > 50.0  # waited for the first to finish

    def test_oversized_workload_rejected_at_construction(self):
        profs = {"huge": WorkloadProfile("huge", 1.0, 10_000.0)}
        with pytest.raises(ValueError, match="exceeds node memory"):
            FaaSCluster(profs, n_nodes=1, node_memory_mb=1000.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FaaSCluster(profiles(), n_nodes=0)
        with pytest.raises(ValueError):
            FaaSCluster(profiles(), node_memory_mb=0.0)
        with pytest.raises(ValueError):
            FaaSCluster({})

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("w", runtime_ms=0.0, memory_mb=1.0)
        with pytest.raises(ValueError):
            WorkloadProfile("w", runtime_ms=1.0, memory_mb=0.0)


class TestKeepAlivePolicies:
    def test_fixed_ttl(self):
        assert FixedKeepAlive(42.0).ttl_s("anything") == 42.0
        with pytest.raises(ValueError):
            FixedKeepAlive(-1.0)

    def test_no_keepalive_zero(self):
        assert NoKeepAlive().ttl_s("x") == 0.0

    def test_histogram_defaults_until_warm(self):
        ka = HistogramKeepAlive(percentile=90, default_ttl_s=300.0,
                                min_observations=3)
        assert ka.ttl_s("w") == 300.0
        ka.observe_idle_gap("w", 5.0)
        ka.observe_idle_gap("w", 6.0)
        assert ka.ttl_s("w") == 300.0  # still below min observations
        ka.observe_idle_gap("w", 7.0)
        assert ka.ttl_s("w") != 300.0

    def test_histogram_percentile_clamped(self):
        ka = HistogramKeepAlive(percentile=100, min_ttl_s=10.0,
                                max_ttl_s=100.0, min_observations=1)
        ka.observe_idle_gap("w", 1e6)
        assert ka.ttl_s("w") == 100.0
        ka2 = HistogramKeepAlive(percentile=50, min_ttl_s=10.0,
                                 min_observations=1)
        ka2.observe_idle_gap("v", 0.001)
        assert ka2.ttl_s("v") == 10.0

    def test_histogram_tracks_gap_distribution(self):
        ka = HistogramKeepAlive(percentile=90, min_observations=4,
                                min_ttl_s=0.0, max_ttl_s=1e9)
        for gap in [10.0] * 9 + [1000.0]:
            ka.observe_idle_gap("w", gap)
        assert 10.0 <= ka.ttl_s("w") <= 1000.0

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            HistogramKeepAlive(percentile=0)
        with pytest.raises(ValueError):
            HistogramKeepAlive(min_ttl_s=5, max_ttl_s=1)
        with pytest.raises(ValueError):
            HistogramKeepAlive(window=0)

    def test_histogram_reduces_memory_holding_vs_fixed(self):
        """Adaptive TTL reclaims quickly for frequently-invoked functions."""
        ka = HistogramKeepAlive(percentile=90, min_observations=2,
                                min_ttl_s=1.0)
        for _ in range(10):
            ka.observe_idle_gap("hot", 2.0)
        assert ka.ttl_s("hot") < FixedKeepAlive(600.0).ttl_s("hot")


class TestSchedulers:
    def _nodes(self, loads):
        from repro.platform.simulator import Node

        nodes = [Node(i, 1000.0) for i in range(len(loads))]
        for n, load in zip(nodes, loads):
            n.busy_count = load
        return nodes

    def test_least_loaded(self):
        nodes = self._nodes([3, 1, 2])
        assert LeastLoadedScheduler().pick(nodes, "w") == 1

    def test_random_in_range_and_seeded(self):
        nodes = self._nodes([0, 0, 0, 0])
        picks_a = [RandomScheduler(7).pick(nodes, "w") for _ in range(5)]
        s = RandomScheduler(7)
        picks_b = [s.pick(nodes, "w") for _ in range(5)]
        assert all(0 <= p < 4 for p in picks_b)
        assert picks_a[0] == picks_b[0]

    def test_hash_affinity_sticky(self):
        nodes = self._nodes([0, 0, 0])
        s = HashAffinityScheduler()
        assert s.pick(nodes, "wX") == s.pick(nodes, "wX")

    def test_hash_affinity_spills_under_load(self):
        nodes = self._nodes([0, 0, 0])
        s = HashAffinityScheduler(spill_threshold=2)
        home = s.pick(nodes, "wY")
        nodes[home].busy_count = 5
        assert s.pick(nodes, "wY") != home

    def test_hash_affinity_validation(self):
        with pytest.raises(ValueError):
            HashAffinityScheduler(spill_threshold=0)

    @staticmethod
    def _choice_pick(ref, nodes):
        """The reference power-of-two pick: the less busy of a
        ``Generator.choice(n, 2, replace=False)`` pair, ties to the
        first; one node is picked without a draw."""
        n = len(nodes)
        if n == 1:
            return 0
        a, b = (int(k) for k in ref.choice(n, 2, replace=False))
        return a if nodes[a].busy_count <= nodes[b].busy_count else b

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 33])
    def test_power_of_two_is_stream_equal_to_choice(self, n, seed):
        # 2,500 picks draw far more than any one pre-drawn block holds;
        # busy counts in 0..3 make ties (where pair order decides) common
        loads = np.random.default_rng(100 + seed)
        nodes = self._nodes([0] * n)
        sched = PowerOfTwoScheduler(seed)
        ref = np.random.default_rng(seed)
        for _ in range(2500):
            for node, load in zip(nodes, loads.integers(0, 4, n).tolist()):
                node.busy_count = load
            assert sched.pick(nodes, "w") == self._choice_pick(ref, nodes)

    @pytest.mark.parametrize("k", [2, 3, 2**31 + 1, 3 * 2**30, 2**32 - 5])
    def test_power_of_two_bounded_draw_matches_numpy(self, k):
        # large ranges reject up to ~half their raw outputs, so this
        # pins the rejection rule and what each rejection consumes
        from repro.platform.schedulers import _bounded

        raw = np.random.default_rng(9).integers(
            0, 2**32, size=4000, dtype=np.uint32
        ).tolist()
        u32 = iter(raw)
        ours = [_bounded(u32, k) for _ in range(1000)]
        ref = np.random.default_rng(9).integers(0, k, size=1000).tolist()
        assert ours == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_power_of_two_follows_a_changing_node_count(self, seed):
        # autoscaling grows and shrinks the node list between picks
        loads = np.random.default_rng(200 + seed)
        pool = self._nodes([0] * 12)
        sched = PowerOfTwoScheduler(seed)
        ref = np.random.default_rng(seed)
        for size in loads.integers(1, 13, 2000).tolist():
            nodes = pool[:size]
            for node, load in zip(nodes, loads.integers(0, 3, size).tolist()):
                node.busy_count = load
            assert sched.pick(nodes, "w") == self._choice_pick(ref, nodes)

    @pytest.mark.parametrize("code", [
        pytest.param(
            "import json\n"
            "from repro.platform.shootout import ShootoutCell, "
            "ShootoutConfig, run_cell\n"
            "row = run_cell(ShootoutConfig(seed=0), "
            "ShootoutCell('hash', 'fixed', 'fifo'))\n"
            "print(json.dumps(row, sort_keys=True))\n",
            id="shootout",
        ),
        # one pinned fuzz tuple through the scalar loop: the histogram
        # TTLs shrink, so superseded and re-armed expiry events fire
        pytest.param(
            "from repro.cache import fingerprint\n"
            "from repro.platform import FaaSCluster, diffsim\n"
            "cfg = diffsim.FuzzConfig(seed=5, n_requests=200, "
            "n_workloads=3, horizon_s=60.0, n_nodes=2, "
            "node_memory_mb=1024.0, keepalive='histogram', "
            "scheduler='hash', crash_rate=0.1, service_time_cv=0.0, "
            "queue_timeout_s=None, autoscale=False, track_memory=True, "
            "quantize=False, batch='scalar')\n"
            "print(fingerprint(diffsim.run_once(FaaSCluster, cfg)))\n",
            id="diffsim",
        ),
    ])
    def test_hash_affinity_placement_independent_of_hash_seed(self, code):
        # the builtin hash() of a str is salted per process; placement
        # and the simulator's output must not be, or cached shootout
        # cells depend on which process computed them first
        src = str(Path(repro.__file__).resolve().parents[1])
        rows = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, timeout=300, check=True,
            )
            rows.append(proc.stdout)
        assert rows[0] == rows[1]


class TestMetrics:
    def test_record_validation(self):
        with pytest.raises(ValueError, match="timeline"):
            InvocationRecord("w", 0, 1.0, 0.5, 2.0, False)

    def test_record_derived(self):
        r = InvocationRecord("w", 0, 1.0, 1.2, 1.5, True)
        assert r.latency_ms == pytest.approx(500.0)
        assert r.queueing_ms == pytest.approx(200.0)
        assert r.service_ms == pytest.approx(300.0)

    def test_summarize(self):
        records = [
            InvocationRecord("w", i % 2, float(i), float(i) + 0.1,
                             float(i) + 0.2, i == 0)
            for i in range(10)
        ]
        s = summarize(records)
        assert s["n_invocations"] == 10
        assert s["cold_fraction"] == pytest.approx(0.1)
        assert s["latency_ms"]["p50"] == pytest.approx(200.0)
        assert set(s["per_node_invocations"]) == {0, 1}

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestEndToEnd:
    def test_replay_generated_load_through_simulator(self):
        from repro.core import shrink
        from repro.loadgen import generate_request_trace, replay
        from repro.traces import synthetic_azure_trace
        from repro.workloads import build_default_pool

        trace = synthetic_azure_trace(n_functions=500, seed=9)
        pool = build_default_pool()
        spec = shrink(trace, pool, max_rps=3.0, duration_minutes=10, seed=9)
        req_trace = generate_request_trace(spec, seed=9)
        backend = FaaSCluster(
            profiles_from_spec(spec), n_nodes=8, node_memory_mb=16_384.0
        )
        result = replay(req_trace, backend)
        summary = summarize(result.records)
        assert summary["n_invocations"] == req_trace.n_requests
        assert 0.0 < summary["cold_fraction"] < 1.0
        assert result.cold_start_fraction() == summary["cold_fraction"]
        assert result.latencies_ms().size == req_trace.n_requests

    def test_live_backend_runs_real_code(self):
        from repro.loadgen import replay
        from repro.loadgen.requests import RequestTrace
        from repro.platform import LiveBackend
        from repro.workloads import Workload, WorkloadPool

        pool = WorkloadPool([
            Workload("pyaes:t", "pyaes", {"length": 64, "rounds": 1},
                     1.0, 28.0),
            Workload("matmul:t", "matmul", {"n": 16, "reps": 1}, 1.0, 32.0),
        ])
        t = RequestTrace(
            timestamps_s=np.array([0.0, 0.0, 0.0]),
            workload_ids=np.array(["pyaes:t", "matmul:t", "pyaes:t"]),
            function_ids=np.array(["f", "f", "f"]),
            runtimes_ms=np.array([1.0, 1.0, 1.0]),
            families=np.array(["pyaes", "matmul", "pyaes"]),
        )
        backend = LiveBackend(pool)
        result = replay(t, backend)
        assert result.n_requests == 3
        colds = [r.cold for r in result.records]
        assert colds == [True, True, False]  # pyaes warm on second call
        assert all(r.latency_ms > 0 for r in result.records)


class TestLiveBackendBoundedGrowth:
    """The two unbounded stores in LiveBackend are cappable: a record
    sink replaces in-memory record accumulation and the payload cache
    evicts LRU entries past ``max_cached_payloads``."""

    @staticmethod
    def _pool():
        from repro.workloads import Workload, WorkloadPool

        return WorkloadPool([
            Workload("pyaes:t", "pyaes", {"length": 64, "rounds": 1},
                     1.0, 28.0),
            Workload("matmul:t", "matmul", {"n": 16, "reps": 1}, 1.0, 32.0),
            Workload("matmul:u", "matmul", {"n": 8, "reps": 1}, 1.0, 30.0),
        ])

    def test_record_sink_streams_instead_of_accumulating(self):
        from repro.platform import LiveBackend

        streamed = []
        backend = LiveBackend(self._pool(), record_sink=streamed.append)
        for i in range(4):
            backend.invoke(float(i), "pyaes:t")
        assert backend.records == []
        assert backend.drain() == []
        assert len(streamed) == 4
        assert [r.cold for r in streamed] == [True, False, False, False]

    def test_payload_cache_evicts_lru_and_reruns_cold(self):
        from repro.platform import LiveBackend

        backend = LiveBackend(self._pool(), max_cached_payloads=2)
        backend.invoke(0.0, "pyaes:t")    # cache: pyaes
        backend.invoke(1.0, "matmul:t")   # cache: pyaes, matmul:t
        backend.invoke(2.0, "pyaes:t")    # warm hit -> pyaes now MRU
        backend.invoke(3.0, "matmul:u")   # evicts matmul:t (LRU)
        assert backend.evictions == 1
        backend.invoke(4.0, "matmul:t")   # cold again after eviction
        colds = [(r.workload_id, r.cold) for r in backend.records]
        assert colds == [
            ("pyaes:t", True),
            ("matmul:t", True),
            ("pyaes:t", False),
            ("matmul:u", True),
            ("matmul:t", True),
        ]
        assert backend.evictions == 2  # matmul:t's return evicted pyaes

    def test_unbounded_by_default(self):
        from repro.platform import LiveBackend

        backend = LiveBackend(self._pool())
        for wid in ("pyaes:t", "matmul:t", "matmul:u", "pyaes:t"):
            backend.invoke(0.0, wid)
        assert backend.evictions == 0
        assert len(backend.records) == 4

    def test_cache_cap_validation(self):
        from repro.platform import LiveBackend

        with pytest.raises(ValueError, match="max_cached_payloads"):
            LiveBackend(self._pool(), max_cached_payloads=0)
