"""Telemetry overhead benchmarks (ISSUE 3 satellite).

Two guarantees pinned here:

- **Enabled** telemetry stays under 5% replay overhead: all replay
  instrumentation is a vectorised post-pass, so the hot submission loop
  is untouched (paired alternating runs, median ratio).
- **Disabled** telemetry is a zero-allocation no-op: call sites consult
  one module global and share no-op singletons, measured by tracemalloc.
"""

import time
import tracemalloc

from repro import telemetry
from repro.loadgen import generate_request_trace, replay


class _NullBackend:
    """Accepts everything instantly: isolates the replay loop itself."""

    def invoke(self, timestamp_s, workload_id):
        pass

    def drain(self):
        return []


def test_perf_replay_telemetry_overhead(ctx):
    """Telemetry-on replay within 5% of the same replay with telemetry off
    (the dispatch loop's plain mode, as the backend has no
    ``invoke_many``).

    Runs alternate dark / observed so drift and thermal noise hit both
    arms equally, measures CPU time (``process_time``) so scheduler
    interference from a busy host cannot charge either arm, and compares
    minima -- timing noise is strictly additive, so the min of repeated
    runs is the standard estimator of each arm's true cost.
    """
    trace = generate_request_trace(ctx.spec, seed=11)
    backend = _NullBackend()
    rounds = 11

    replay(trace, backend)  # warm both code paths
    registry = telemetry.MetricsRegistry()
    with telemetry.use(registry):
        replay(trace, backend)

    dark, observed = [], []
    for _ in range(rounds):
        t0 = time.process_time()
        replay(trace, backend)
        dark.append(time.process_time() - t0)

        with telemetry.use(registry):
            t0 = time.process_time()
            replay(trace, backend)
            observed.append(time.process_time() - t0)

    ratio = min(observed) / min(dark)
    assert registry.counter("replay_requests_total").value > 0
    assert ratio < 1.05, (
        f"telemetry-enabled replay is {ratio:.3f}x the dark replay "
        f"(budget 1.05x); dark={min(dark):.4f}s "
        f"observed={min(observed):.4f}s"
    )


def test_perf_replay_telemetry_throughput(benchmark, ctx):
    """Absolute floor: observed replay still clears 1M requests/s."""
    trace = generate_request_trace(ctx.spec, seed=12)
    registry = telemetry.MetricsRegistry()

    def run():
        with telemetry.use(registry):
            return replay(trace, _NullBackend())

    result = benchmark(run)
    rate = result.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["observed_requests_per_cpu_second"] = rate
    assert rate > 1_000_000


def test_perf_replay_with_drift_monitor(benchmark, ctx):
    """Drift monitoring (windowed KS checks) keeps replay above 300K/s.

    The monitor does real statistics per window, so it is costlier than
    bare counters -- but must stay cheap enough to leave on by default.
    """
    from repro.telemetry import DriftMonitor

    spec = ctx.spec
    trace = generate_request_trace(spec, seed=13)
    target = spec.invocation_duration_cdf()

    def run():
        monitor = DriftMonitor(target, band=0.5, window=1024)
        result = replay(trace, _NullBackend(), drift=monitor)
        assert monitor.n_observed == trace.n_requests
        return result

    result = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    rate = result.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["drift_monitored_requests_per_cpu_second"] = rate
    assert rate > 300_000


def test_disabled_telemetry_is_zero_allocation():
    """Disabled call sites allocate nothing per call.

    ``stage()`` returns a shared singleton and the null registry hands
    out shared no-op metrics, so a tight instrumented loop leaves no
    trace in tracemalloc (small slack for the tracing machinery itself).
    """
    telemetry.disable()
    null = telemetry.NULL_REGISTRY

    def instrumented_loop(n):
        for _ in range(n):
            with telemetry.stage("x"):
                pass
            reg = telemetry.active()
            if reg is not None:  # pragma: no cover - telemetry is off
                reg.counter("c").inc()
            null.counter("c").inc()
            null.gauge("g").set(1.0)
            null.histogram("h").observe(1.0)

    instrumented_loop(10)  # warm up code objects, method caches
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    instrumented_loop(10_000)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert after - before <= 512, (
        f"disabled telemetry allocated {after - before} bytes "
        "across 10k instrumented iterations"
    )


def test_disabled_stage_is_shared_singleton():
    telemetry.disable()
    assert telemetry.stage("a") is telemetry.stage("b")
