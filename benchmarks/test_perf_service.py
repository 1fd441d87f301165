"""Performance floor for the supervised open-loop load service.

The service path adds sharding, checkpointing, heartbeats, and
reconciliation on top of the raw replay loop; these benches pin a floor
under that machinery so robustness never silently eats the generator's
"high-performant" claim.  Floors are conservative: CI runs on small
shared runners and the container may have a single core, so the
multi-worker bench guards supervision overhead (spawn, pipes, merge),
not parallel speedup.
"""

from repro.loadgen import ServiceConfig, generate_request_trace, run_service

#: Aggregate requests/s the service must sustain regardless of worker
#: count -- the "single-process floor" of the acceptance criteria.
SERVICE_FLOOR = 20_000


class _NullBackend:
    """Accepts everything instantly: isolates the service machinery."""

    def invoke(self, timestamp_s, workload_id):
        pass

    def drain(self):
        return []


def _null_factory():
    return _NullBackend()


def _bench_service(benchmark, ctx, tmp_path, workers):
    trace = generate_request_trace(ctx.spec, seed=6)

    def run():
        return run_service(
            trace,
            _null_factory,
            service_dir=tmp_path / f"svc-{workers}",
            config=ServiceConfig(workers=workers),
        )

    result = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    assert result.coverage.ok
    rate = result.n_requests / benchmark.stats["mean"]
    benchmark.extra_info["service_requests_per_cpu_second"] = rate
    return rate


def test_perf_service_inline(benchmark, ctx, tmp_path):
    """Shard loop overhead alone (workers=0 runs in-process): outcome
    taxonomy + checkpoint cadence must stay within ~20x of raw replay."""
    rate = _bench_service(benchmark, ctx, tmp_path, workers=0)
    assert rate > 50_000


def test_perf_service_four_workers(benchmark, ctx, tmp_path):
    """4-worker aggregate throughput meets the single-process floor:
    supervision (spawn, pipe traffic, reconcile) must not cost more than
    the sharded work it coordinates."""
    rate = _bench_service(benchmark, ctx, tmp_path, workers=4)
    assert rate > SERVICE_FLOOR
