"""Tests for the online load generator: arrivals, traces, replay."""

import numpy as np
import pytest

from repro.core import ExperimentSpec, SpecEntry, smirnov_request_sample
from repro.loadgen import (
    RequestTrace,
    cell_counts,
    generate_request_trace,
    generate_smirnov_trace,
    minute_offsets,
    replay,
)
from repro.traces import synthetic_azure_trace
from repro.workloads import build_default_pool


def small_spec(counts=None):
    entries = [
        SpecEntry("fnA", "pyaes:1", "pyaes", 5.0, 32.0),
        SpecEntry("fnB", "matmul:1", "matmul", 50.0, 64.0),
    ]
    if counts is None:
        counts = [[30, 0, 10], [5, 5, 5]]
    return ExperimentSpec("s", "t", 1.0, entries,
                          np.array(counts, dtype=np.int64))


class TestArrivals:
    def test_poisson_counts_random_with_mean(self):
        rng = np.random.default_rng(0)
        counts = np.full(2000, 100, dtype=np.int64)
        realised = cell_counts(counts, "poisson", rng)
        assert realised.mean() == pytest.approx(100, rel=0.05)
        assert realised.std() > 5  # genuinely random

    def test_deterministic_modes_emit_exact(self):
        rng = np.random.default_rng(0)
        counts = np.array([3, 7, 0], dtype=np.int64)
        for mode in ("uniform", "equidistant"):
            np.testing.assert_array_equal(
                cell_counts(counts, mode, rng), counts
            )

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="arrival mode"):
            cell_counts(np.array([1]), "gamma", rng)
        with pytest.raises(ValueError, match="arrival mode"):
            minute_offsets(np.array([1]), "gamma", rng)

    def test_offsets_in_minute_and_sorted_within_cell(self):
        rng = np.random.default_rng(1)
        realised = np.array([100, 0, 50], dtype=np.int64)
        off = minute_offsets(realised, "poisson", rng)
        assert off.shape == (150,)
        assert np.all((off >= 0) & (off < 60))
        assert np.all(np.diff(off[:100]) >= 0)  # cell 0 ascending
        assert np.all(np.diff(off[100:]) >= 0)  # cell 2 ascending

    def test_equidistant_evenly_spaced(self):
        rng = np.random.default_rng(2)
        off = minute_offsets(np.array([4]), "equidistant", rng)
        np.testing.assert_allclose(np.diff(off), 15.0)  # constant gaps
        assert 0 <= off[0] < 15.0  # random phase within one gap

    def test_equidistant_phases_decorrelated(self):
        # two one-request cells must not land on the same second
        rng = np.random.default_rng(3)
        off = minute_offsets(np.full(200, 1, dtype=np.int64),
                             "equidistant", rng)
        assert np.unique(np.floor(off)).size > 10

    def test_zero_requests(self):
        rng = np.random.default_rng(3)
        off = minute_offsets(np.array([0, 0]), "uniform", rng)
        assert off.size == 0

    def test_poisson_second_scale_burstiness(self):
        """Per-second counts under Poisson arrivals show index of
        dispersion ~1 (bursty), unlike equidistant (~0)."""
        rng = np.random.default_rng(4)
        realised = np.array([600], dtype=np.int64)  # 10 rps average
        for mode, lo, hi in (("poisson", 0.5, 2.0), ("equidistant", 0.0, 0.2)):
            off = minute_offsets(realised, mode, rng)
            per_sec, _ = np.histogram(off, bins=np.arange(61))
            iod = per_sec.var() / per_sec.mean()
            assert lo <= iod <= hi, f"{mode}: IoD {iod}"


class TestGenerateFromSpec:
    def test_deterministic_mode_exact_totals(self):
        spec = small_spec()
        trace = generate_request_trace(spec, seed=0, arrival_mode="uniform")
        assert trace.n_requests == spec.total_requests

    def test_poisson_mode_close_totals(self):
        spec = small_spec([[600, 600], [600, 600]])
        trace = generate_request_trace(spec, seed=0)
        assert trace.n_requests == pytest.approx(2400, rel=0.15)

    def test_timestamps_sorted_and_within_duration(self):
        spec = small_spec()
        trace = generate_request_trace(spec, seed=1)
        assert np.all(np.diff(trace.timestamps_s) >= 0)
        assert trace.timestamps_s.max() < spec.duration_minutes * 60

    def test_requests_carry_workload_metadata(self):
        spec = small_spec()
        trace = generate_request_trace(spec, seed=1, arrival_mode="uniform")
        a_mask = trace.function_ids == "fnA"
        assert np.all(trace.workload_ids[a_mask] == "pyaes:1")
        assert np.all(trace.runtimes_ms[a_mask] == 5.0)
        assert a_mask.sum() == 40

    def test_minute_structure_respected(self):
        spec = small_spec([[60, 0, 0], [0, 0, 60]])
        trace = generate_request_trace(spec, seed=2, arrival_mode="uniform")
        a_times = trace.timestamps_s[trace.function_ids == "fnA"]
        b_times = trace.timestamps_s[trace.function_ids == "fnB"]
        assert np.all(a_times < 60)
        assert np.all(b_times >= 120)

    def test_empty_spec_rejected(self):
        spec = small_spec([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="zero requests"):
            generate_request_trace(spec, seed=0, arrival_mode="uniform")


class TestGenerateSmirnov:
    @pytest.fixture(scope="class")
    def sample(self):
        trace = synthetic_azure_trace(n_functions=800, seed=3)
        pool = build_default_pool()
        return smirnov_request_sample(trace, pool, 2_000, seed=3)

    def test_constant_rate_horizon(self, sample):
        trace = generate_smirnov_trace(sample, rate_rps=50.0, seed=0)
        assert trace.n_requests == 2_000
        assert trace.duration_s == pytest.approx(40.0, rel=0.2)

    def test_equidistant_exact(self, sample):
        trace = generate_smirnov_trace(sample, rate_rps=100.0, seed=0,
                                       arrival_mode="equidistant")
        np.testing.assert_allclose(np.diff(trace.timestamps_s), 0.01)

    def test_uniform_sorted(self, sample):
        trace = generate_smirnov_trace(sample, rate_rps=10.0, seed=0,
                                       arrival_mode="uniform")
        assert np.all(np.diff(trace.timestamps_s) >= 0)

    def test_rejects_bad_rate_and_mode(self, sample):
        with pytest.raises(ValueError):
            generate_smirnov_trace(sample, rate_rps=0.0)
        with pytest.raises(ValueError, match="arrival mode"):
            generate_smirnov_trace(sample, rate_rps=1.0,
                                   arrival_mode="burst")


class TestRequestTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="contain requests"):
            RequestTrace(np.array([]), np.array([]), np.array([]),
                         np.array([]), np.array([]))
        with pytest.raises(ValueError, match="ascending"):
            RequestTrace(np.array([1.0, 0.5]), np.array(["a", "b"]),
                         np.array(["f", "f"]), np.array([1.0, 1.0]),
                         np.array(["x", "x"]))
        with pytest.raises(ValueError, match="align"):
            RequestTrace(np.array([1.0]), np.array(["a", "b"]),
                         np.array(["f"]), np.array([1.0]), np.array(["x"]))

    def test_rate_series(self):
        t = RequestTrace(np.array([0.5, 1.5, 61.0]),
                         np.array(["a"] * 3), np.array(["f"] * 3),
                         np.array([1.0] * 3), np.array(["x"] * 3))
        assert t.per_second_rate()[:2].tolist() == [1, 1]
        assert t.per_minute_rate().tolist() == [2, 1]

    def test_slice_time(self):
        t = RequestTrace(np.array([1.0, 30.0, 90.0]),
                         np.array(["a", "b", "c"]), np.array(["f"] * 3),
                         np.array([1.0] * 3), np.array(["x"] * 3))
        s = t.slice_time(10.0, 100.0)
        assert s.n_requests == 2
        assert list(s.workload_ids) == ["b", "c"]
        with pytest.raises(ValueError, match="no requests"):
            t.slice_time(2.0, 3.0)


class _RecordingBackend:
    def __init__(self):
        self.calls = []

    def invoke(self, timestamp_s, workload_id):
        self.calls.append((timestamp_s, workload_id))

    def drain(self):
        return [f"done-{i}" for i in range(len(self.calls))]


class TestReplay:
    def test_replay_submits_in_order(self):
        spec = small_spec()
        trace = generate_request_trace(spec, seed=0, arrival_mode="uniform")
        backend = _RecordingBackend()
        result = replay(trace, backend)
        assert result.n_requests == trace.n_requests
        assert len(backend.calls) == trace.n_requests
        times = [c[0] for c in backend.calls]
        assert times == sorted(times)

    def test_replay_paced(self):
        # 3 requests over 0.2 virtual seconds at speed 1 -> ~0.2s wall
        t = RequestTrace(np.array([0.0, 0.1, 0.2]),
                         np.array(["a"] * 3), np.array(["f"] * 3),
                         np.array([1.0] * 3), np.array(["x"] * 3))
        backend = _RecordingBackend()
        result = replay(t, backend, speed=1.0)
        assert 0.15 <= result.wall_clock_s <= 2.0

    def test_replay_rejects_bad_speed(self):
        t = RequestTrace(np.array([0.0]), np.array(["a"]), np.array(["f"]),
                         np.array([1.0]), np.array(["x"]))
        with pytest.raises(ValueError, match="speed"):
            replay(t, _RecordingBackend(), speed=0.0)

    def test_replay_finite_speed_bounds_wall_clock(self):
        # 12 virtual seconds at speed 60 -> at least 0.2s wall clock,
        # and nowhere near real time
        t = RequestTrace(np.linspace(0.0, 12.0, 8),
                         np.array(["a"] * 8), np.array(["f"] * 8),
                         np.full(8, 1.0), np.array(["x"] * 8))
        backend = _RecordingBackend()
        result = replay(t, backend, speed=60.0)
        assert len(backend.calls) == 8
        assert 0.15 <= result.wall_clock_s <= 3.0

    def test_result_metric_guards(self):
        spec = small_spec()
        trace = generate_request_trace(spec, seed=0, arrival_mode="uniform")
        result = replay(trace, _RecordingBackend())
        with pytest.raises(ValueError, match="latencies"):
            result.latencies_ms()
        with pytest.raises(ValueError, match="cold"):
            result.cold_start_fraction()

    def test_result_metrics_on_empty_records(self):
        from repro.loadgen import ReplayResult

        result = ReplayResult(n_requests=0, wall_clock_s=0.0, records=[])
        with pytest.raises(ValueError, match="latencies"):
            result.latencies_ms()
        with pytest.raises(ValueError, match="cold"):
            result.cold_start_fraction()

    def test_result_metrics_on_mixed_records(self):
        """Records lacking latency/cold fields are skipped, not fatal."""
        from repro.loadgen import ReplayResult
        from repro.platform import InvocationRecord

        full = InvocationRecord("w", 0, 0.0, 0.0, 0.1, True)
        result = ReplayResult(n_requests=2, wall_clock_s=0.0,
                              records=[full, "opaque-record"])
        np.testing.assert_allclose(result.latencies_ms(), [100.0])
        assert result.cold_start_fraction() == 1.0


def _mixed_trace(n=600, n_workloads=6, horizon_s=120.0, seed=7):
    """Seeded request trace over several workloads in random order, so
    contiguous slices of it meet the workloads in different orders."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, horizon_s, n))
    wids = np.array([f"w{k}" for k in rng.integers(0, n_workloads, n)])
    return RequestTrace(ts, wids, np.array(["f"] * n), np.full(n, 50.0),
                        np.array(["x"] * n))


def _mixed_cluster(cls):
    from repro.platform import (
        FixedKeepAlive,
        LeastLoadedScheduler,
        WorkloadProfile,
    )

    profiles = {
        f"w{k}": WorkloadProfile(f"w{k}", runtime_ms=40.0 + 90.0 * k,
                                 memory_mb=128.0 * (1 + k % 3))
        for k in range(6)
    }
    return cls(profiles, n_nodes=3, node_memory_mb=1024.0,
               scheduler=LeastLoadedScheduler(),
               keepalive=FixedKeepAlive(20.0))


def _shard_cluster():
    from repro.platform import FaaSCluster

    return _mixed_cluster(FaaSCluster)


class TestOneRecordSet:
    """Every path that produces a run's records -- the columnar cluster,
    the object cluster, the sharded service, a fault decorator -- yields
    the same rows and the same summary."""

    def test_columnar_and_object_clusters_summarise_alike(self):
        from repro.platform import (
            FaaSCluster,
            ObjectFaaSCluster,
            summarize,
            summarize_columns,
        )

        trace = _mixed_trace()
        cluster = _mixed_cluster(FaaSCluster)
        vec = replay(trace, cluster).records
        ref = replay(trace, _mixed_cluster(ObjectFaaSCluster)).records
        assert len(vec) == trace.n_requests
        assert list(vec) == list(ref)
        summary = summarize(vec)
        assert summary == summarize(ref)
        assert summary == summarize_columns(cluster.record_columns())
        assert 0.0 < summary["cold_fraction"] < 1.0

    def test_service_shards_match_per_shard_replays(self, tmp_path):
        from repro.loadgen.service import ServiceConfig, run_service
        from repro.platform import summarize

        trace = _mixed_trace()
        result = run_service(
            trace, _shard_cluster, service_dir=tmp_path / "svc",
            config=ServiceConfig(workers=0, max_shards=3),
        )
        assert len(result.shard_bounds) == 3
        expected = []
        first_seen = []
        for lo, hi in result.shard_bounds:
            part = RequestTrace(
                trace.timestamps_s[lo:hi], trace.workload_ids[lo:hi],
                trace.function_ids[lo:hi], trace.runtimes_ms[lo:hi],
                trace.families[lo:hi],
            )
            rows = list(replay(part, _shard_cluster()).records)
            first_seen.append(tuple(dict.fromkeys(
                r.workload_id for r in rows)))
            expected.extend(rows)
        # each shard meets the workloads in its own order, so merging
        # the shards' records has to reconcile their vocabularies
        assert len(set(first_seen)) > 1
        assert len(result.records) == len(expected)
        assert list(result.records) == expected
        assert summarize(result.records) == summarize(expected)

    def test_faulty_backend_spikes_survive_replay(self):
        from repro.platform import FaaSCluster, FaultProfile, FaultyBackend

        trace = _mixed_trace()
        bare = list(replay(trace, _mixed_cluster(FaaSCluster)).records)
        profile = FaultProfile(latency_spike_rate=1.0,
                               latency_spike_ms=300.0)
        faulty = FaultyBackend(_mixed_cluster(FaaSCluster), profile)
        spiked = list(replay(trace, faulty).records)
        assert faulty.injected["spike"] == trace.n_requests
        assert len(spiked) == len(bare)
        for got, base in zip(spiked, bare):
            assert got.end_s == base.end_s + profile.latency_spike_ms / 1e3
            assert (got.workload_id, got.arrival_s, got.start_s) == (
                base.workload_id, base.arrival_s, base.start_s)

    def test_replay_and_summary_materialise_no_records(self):
        from repro.platform import FaaSCluster, summarize
        from repro.telemetry import MetricsRegistry, use

        trace = _mixed_trace()
        with use(MetricsRegistry()) as reg:
            built = reg.counter("platform_records_materialised_total")
            result = replay(trace, _mixed_cluster(FaaSCluster))
            summary = summarize(result.records)
            assert summary["n_invocations"] == trace.n_requests
            assert built.value == 0
            rows = list(result.records)
            assert built.value == trace.n_requests
            assert rows == list(result.records)
            assert built.value == trace.n_requests

    def test_result_metrics_read_columns(self):
        from repro.loadgen import ReplayResult
        from repro.platform import FaaSCluster, RecordList
        from repro.telemetry import MetricsRegistry, use

        trace = _mixed_trace()
        result = replay(trace, _mixed_cluster(FaaSCluster))
        assert isinstance(result.records, RecordList)
        with use(MetricsRegistry()) as reg:
            built = reg.counter("platform_records_materialised_total")
            latencies = result.latencies_ms()
            cold = result.cold_start_fraction()
            assert built.value == 0
        rows = ReplayResult(n_requests=trace.n_requests, wall_clock_s=0.0,
                            records=list(result.records))
        np.testing.assert_array_equal(latencies, rows.latencies_ms())
        assert latencies.dtype == rows.latencies_ms().dtype
        assert cold == rows.cold_start_fraction()
