"""Golden digests of the scalar event loop.

Both engines run one shared scalar loop, so comparing them no longer
checks the loop itself.  These digests do: each pins, for one small
configuration, the :func:`repro.cache.fingerprint` of everything a run
observes -- invocation records, final clock, drops, memory samples and
the :class:`~repro.platform.tracing.PlatformTracer` event stream.  They
were recorded from the scalar loop as it stood before the two engines
were merged, and must never be regenerated to make a behaviour change
pass: a digest that moves is a behaviour change, to be justified on its
own.

The configurations keep ``service_time_cv=0`` and avoid the ``hash``
scheduler, so every digest is a pure function of IEEE arithmetic and
seeded NumPy streams -- stable across hosts, interpreters and
processes.  Together they cover every CPU policy, the reactive
autoscaler, crash injection, queue-timeout drops, memory tracking, both
learning keep-alives and the least-loaded, random, power-of-two and
locality schedulers.
"""

import numpy as np
import pytest

from repro.cache import fingerprint
from repro.platform import (
    CpuModel,
    CrashHook,
    FaaSCluster,
    FairShareCpu,
    FifoCpu,
    FixedKeepAlive,
    HistogramKeepAlive,
    HybridHistogramKeepAlive,
    LeastLoadedScheduler,
    LocalityAwareScheduler,
    NoKeepAlive,
    ObjectFaaSCluster,
    PlatformTracer,
    PowerOfTwoScheduler,
    RandomScheduler,
    ReactiveAutoscaler,
    ShortestFirstCpu,
    WorkloadProfile,
)


def _profiles():
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}",
            runtime_ms=40.0 + 37.0 * i,
            memory_mb=128.0 * (1 + i % 4),
        )
        for i in range(6)
    }


def _load(seed, n, horizon_s):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, horizon_s, n))
    wids = [f"w{int(i)}" for i in rng.integers(0, 6, n)]
    return ts, wids


#: name -> (load seed, requests, horizon s, cluster kwargs factory)
CONFIGS = {
    "cpu-fifo": (0, 300, 4.0, lambda: dict(
        n_nodes=2, node_memory_mb=2048.0,
        scheduler=LeastLoadedScheduler(),
        keepalive=FixedKeepAlive(1.0),
        cpu=CpuModel(cores=2, policy=FifoCpu()),
    )),
    "cpu-fair-share": (1, 300, 4.0, lambda: dict(
        n_nodes=2, node_memory_mb=2048.0,
        scheduler=RandomScheduler(seed=3),
        keepalive=FixedKeepAlive(1.0),
        cpu=CpuModel(cores=1, quantum_s=0.01, policy=FairShareCpu(
            weights={"w0": 2.0, "w3": 0.5},
        )),
    )),
    "cpu-shortest-first-drops": (2, 300, 2.0, lambda: dict(
        n_nodes=1, node_memory_mb=640.0,
        scheduler=PowerOfTwoScheduler(seed=5),
        keepalive=NoKeepAlive(),
        queue_timeout_s=0.8,
        cpu=CpuModel(cores=2, policy=ShortestFirstCpu()),
    )),
    "autoscaler-memory": (3, 400, 30.0, lambda: dict(
        n_nodes=2, node_memory_mb=1024.0,
        scheduler=LocalityAwareScheduler(),
        keepalive=FixedKeepAlive(1.0),
        autoscaler=ReactiveAutoscaler(
            min_nodes=1, max_nodes=5, target_busy_per_node=2.0,
            evaluate_every_s=2.0, scale_down_grace_s=4.0,
        ),
        track_memory=True,
    )),
    "crash-hook": (4, 300, 10.0, lambda: dict(
        n_nodes=2, node_memory_mb=1536.0,
        scheduler=RandomScheduler(seed=9),
        keepalive=FixedKeepAlive(2.0),
        fault_hook=CrashHook(0.2, seed=4),
        track_memory=True,
    )),
    "queue-timeout-drops": (5, 250, 2.0, lambda: dict(
        n_nodes=1, node_memory_mb=640.0,
        scheduler=LeastLoadedScheduler(),
        keepalive=FixedKeepAlive(0.5),
        queue_timeout_s=1.0,
        track_memory=True,
    )),
    "histogram-keepalive": (6, 300, 20.0, lambda: dict(
        n_nodes=3, node_memory_mb=1024.0,
        scheduler=LocalityAwareScheduler(),
        keepalive=HistogramKeepAlive(
            default_ttl_s=1.5, min_ttl_s=0.1, window=32,
            min_observations=4,
        ),
    )),
    "hybrid-keepalive": (7, 300, 20.0, lambda: dict(
        n_nodes=3, node_memory_mb=1024.0,
        scheduler=PowerOfTwoScheduler(seed=2),
        keepalive=HybridHistogramKeepAlive(
            bin_width_s=0.25, n_bins=40, default_ttl_s=1.5,
            min_observations=3,
        ),
        track_memory=True,
    )),
}

#: Digests recorded from the pre-merge scalar loop; see module docstring.
GOLDEN = {
    "cpu-fifo":
        "d332e367245faebf38226921b5ef10a6c032c62a8e02f1a722f30a718717365d",
    "cpu-fair-share":
        "7e799e687901661bd53c53188359bcd0a0c9d0ef602379cb4219a919a5df2469",
    "cpu-shortest-first-drops":
        "745f372f90f3fa397baf48958c2a29ff5c0873171fa871f141ce1ff83a92779a",
    "autoscaler-memory":
        "12f7d27d9eb599a7a55b7ade36657d0a136df13c54aa3dbdc39c34c57d305c87",
    "crash-hook":
        "7a073b104bbfd3088dcb67d882b8115d47c4aa38a762a8b3003da2858c38557e",
    "queue-timeout-drops":
        "e98e78f975ae4617112975a60878ca2141694e3f723f49ca2f9feab54778d4e9",
    "histogram-keepalive":
        "98ae99f9bafb65cd837a532c5a5b3514fb564d34c32eb1e948f2f0dc92a125c6",
    "hybrid-keepalive":
        "fd574966930652ef1d49af5544ede6d138fa97e12e55cf5ec7945d999fa44cda",
}


def observe(cls, name, *, batch=False):
    """Digest of one traced run of configuration ``name`` on ``cls``."""
    seed, n, horizon_s, make_kwargs = CONFIGS[name]
    ts, wids = _load(seed, n, horizon_s)
    tracer = PlatformTracer()
    cluster = cls(_profiles(), tracer=tracer, **make_kwargs())
    if batch:
        cluster.invoke_many(ts, wids)
    else:
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
    records = cluster.drain()
    return fingerprint(
        [
            (r.workload_id, r.node, r.arrival_s, r.start_s, r.end_s,
             r.cold, r.ok, r.preemptions)
            for r in records
        ],
        cluster.clock_s,
        cluster.dropped,
        cluster.memory_samples,
        [(e.time_s, e.kind, e.node, e.workload_id) for e in tracer.events],
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize(
    "engine",
    ["object-invoke", "array-invoke", "array-invoke-many"],
)
def test_scalar_loop_matches_golden_digest(engine, name):
    cls = ObjectFaaSCluster if engine.startswith("object") else FaaSCluster
    assert observe(cls, name, batch=engine.endswith("many")) == GOLDEN[name]


def test_configs_exercise_what_they_name():
    """Each configuration must reach the behaviour its name promises;
    otherwise its digest silently pins less than it claims."""
    seen = {}
    for name, (seed, n, horizon_s, make_kwargs) in CONFIGS.items():
        ts, wids = _load(seed, n, horizon_s)
        tracer = PlatformTracer()
        cluster = FaaSCluster(_profiles(), tracer=tracer, **make_kwargs())
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
        records = cluster.drain()
        seen[name] = (records, cluster, tracer)
    for name in ("cpu-fifo", "cpu-fair-share", "cpu-shortest-first-drops"):
        records, _, tracer = seen[name]
        assert tracer.of_kind("invocation_contended"), name
        assert any(r.preemptions for r in records), name
    for name in ("cpu-shortest-first-drops", "queue-timeout-drops"):
        assert seen[name][1].dropped, name
    records, scaled, _ = seen["autoscaler-memory"]
    assert max(r.node for r in records) >= 2  # a scaled-out node served
    assert scaled.memory_samples
    crashed, _, tracer = seen["crash-hook"]
    assert not all(r.ok for r in crashed)
    assert tracer.of_kind("sandbox_crashed")
    for name in ("histogram-keepalive", "hybrid-keepalive"):
        records, _, tracer = seen[name]
        assert tracer.of_kind("sandbox_reused"), name
        assert tracer.of_kind("sandbox_expired"), name
