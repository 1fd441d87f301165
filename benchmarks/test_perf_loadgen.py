"""Performance of the online load generator itself.

The paper calls its generator "high-performant"; these benches measure
requests generated per second of CPU for Spec-mode realisation and the
simulator's sustained invocation throughput.
"""

import numpy as np

from repro.loadgen import generate_request_trace, replay
from repro.platform import FaaSCluster, profiles_from_spec


def test_perf_generate_spec_mode(benchmark, ctx):
    spec = ctx.spec

    def gen():
        return generate_request_trace(spec, seed=1)

    trace = benchmark(gen)
    rate = trace.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["requests_per_cpu_second"] = rate
    # vectorised generation should comfortably exceed 100K requests/s
    assert rate > 100_000


def test_perf_simulator_throughput(benchmark, ctx):
    spec = ctx.spec
    trace = generate_request_trace(spec, seed=2).slice_time(0.0, 600.0)

    def run():
        backend = FaaSCluster(
            profiles_from_spec(spec), n_nodes=16,
            node_memory_mb=32_768.0,
        )
        return replay(trace, backend)

    result = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    rate = result.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["simulated_invocations_per_cpu_second"] = rate
    assert rate > 5_000


def test_perf_smirnov_sampling(benchmark, ctx):
    from repro.core import smirnov_request_sample

    azure, pool = ctx.azure, ctx.pool

    def run():
        return smirnov_request_sample(azure, pool, 120_408, seed=3)

    sample = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    assert sample.n_requests == 120_408


class _NullBackend:
    """Accepts everything instantly: isolates the replay loop itself."""

    def invoke(self, timestamp_s, workload_id):
        pass

    def drain(self):
        return []


def test_perf_replay_hot_loop(benchmark, ctx):
    """The dispatch loop's own overhead, backend cost excluded.

    A backend without ``invoke_many`` takes the shared dispatch loop in
    its plain mode (no pacing, no resilience option).  Guards the
    hoisted per-request float()/str() conversions: the loop must stay
    well above 1M requests/s.
    """
    spec = ctx.spec
    trace = generate_request_trace(spec, seed=4)

    def run():
        return replay(trace, _NullBackend())

    result = benchmark(run)
    rate = result.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["replayed_requests_per_cpu_second"] = rate
    assert rate > 1_000_000


def test_perf_replay_resilient_overhead(benchmark, ctx):
    """The resilient path (outcome taxonomy, no faults firing) must stay
    within ~20x of raw submission -- cheap enough to leave on."""
    from repro.loadgen import RetryPolicy

    spec = ctx.spec
    trace = generate_request_trace(spec, seed=5)

    def run():
        return replay(trace, _NullBackend(),
                      retry=RetryPolicy(max_attempts=3))

    result = benchmark(run)
    rate = result.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["resilient_requests_per_cpu_second"] = rate
    assert rate > 300_000


def test_perf_arrival_models(benchmark, ctx):
    """Arrival-offset generation is O(n) array work for any mode."""
    from repro.loadgen import minute_offsets

    rng = np.random.default_rng(0)
    realised = rng.integers(0, 50, size=200_000).astype(np.int64)

    def run():
        return minute_offsets(realised, "poisson",
                              np.random.default_rng(1))

    offsets = benchmark(run)
    assert offsets.size == realised.sum()
