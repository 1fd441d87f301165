"""Performance of the array-native simulator core (ISSUEs 7 and 8).

Pins the tentpole's headline numbers on a synthetic 1M-invocation day:

- batched vectorised simulation must be >= 20x the per-record throughput
  of the shared scalar event loop (per-request ``invoke`` on
  ``ObjectFaaSCluster``) on the same workload;
- the widened envelope (fixed-TTL keep-alive plus lognormal service
  jitter) must hold >= 15x on the same day -- warm reuses, expiries,
  and per-request jitter draws all replayed in arrays;
- peak allocation of the vectorised run must stay under a fixed ceiling
  (columns plus transient event calendar -- far below a per-record
  object graph);
- chunked submission must stream a 10x-larger synthetic day through the
  engine under a pinned ceiling dominated by the output columns, not by
  the transient event calendar;
- and the two paths must agree on the workload's summary metrics, so the
  speedup is measured over identical semantics, not a shortcut.

A CPU-contention model (``cpu=CpuModel(...)``) always runs the scalar
event loop, so no floor here covers it.

Throughput is best-of-N on both sides: the first vectorised trial pays
one-time page-fault and allocator costs that a steady-state load service
never sees again.
"""

import gc
import time
import tracemalloc

import numpy as np

from repro.platform import (
    FaaSCluster,
    FixedKeepAlive,
    NoKeepAlive,
    ObjectFaaSCluster,
    RandomScheduler,
    WorkloadProfile,
    summarize,
    summarize_columns,
)

N_INVOCATIONS = 1_000_000
N_WORKLOADS = 200
DAY_S = 86_400.0
OBJECT_SLICE = 50_000  # the scalar loop gets a slice, not the day
MIN_SPEEDUP = 20.0
MIN_KEEPALIVE_SPEEDUP = 15.0
PEAK_CEILING_MIB = 450.0
STREAM_ROWS = 10 * N_INVOCATIONS
STREAM_CHUNK_ROWS = 65_536
# The streamed day's peak is ~115 bytes/row: the record columns and
# their one drain-time copy, plus a bounded per-slab transient.  The
# one-shot bulk path's transient calendar scales with the whole trace
# instead (813 MiB measured at 1M rows -- ~8 GiB at this scale).
STREAM_PEAK_CEILING_MIB = 1280.0


def _day_load(seed=42):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, DAY_S, N_INVOCATIONS))
    wids = [
        f"w{c}"
        for c in rng.integers(0, N_WORKLOADS, N_INVOCATIONS).tolist()
    ]
    return ts, wids


def _profiles():
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}",
            runtime_ms=float(20 + (i * 7) % 400),
            memory_mb=float(128 * (1 + i % 4)),
        )
        for i in range(N_WORKLOADS)
    }


def _make_cluster(cls):
    # roomy nodes: the whole day is admissible, so the vectorised run
    # takes the bulk path and the object run never queues
    return cls(
        _profiles(),
        n_nodes=8,
        node_memory_mb=float(1 << 20),
        keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=9),
    )


def _make_keepalive_cluster(cls):
    # the widened envelope: warm sandboxes idle for two minutes, and
    # every service time gets a seeded lognormal jitter draw
    return cls(
        _profiles(),
        n_nodes=8,
        node_memory_mb=float(1 << 20),
        keepalive=FixedKeepAlive(120.0),
        scheduler=RandomScheduler(seed=9),
        service_time_cv=0.5,
        seed=123,
    )


def _run_vec(ts, wids):
    cluster = _make_cluster(FaaSCluster)
    cluster.invoke_many(ts, wids)
    return summarize_columns(cluster.drain_columns())


def _run_object(ts, wids):
    cluster = _make_cluster(ObjectFaaSCluster)
    invoke = cluster.invoke
    for t, w in zip(ts.tolist(), wids):
        invoke(t, w)
    return summarize(cluster.drain())


def _run_keepalive_vec(ts, wids):
    cluster = _make_keepalive_cluster(FaaSCluster)
    cluster.invoke_many(ts, wids)
    return summarize_columns(cluster.drain_columns())


def _run_keepalive_object(ts, wids):
    cluster = _make_keepalive_cluster(ObjectFaaSCluster)
    invoke = cluster.invoke
    for t, w in zip(ts.tolist(), wids):
        invoke(t, w)
    return summarize(cluster.drain())


def _best_of(fn, trials):
    best = float("inf")
    result = None
    for _ in range(trials):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _peak_bytes(fn):
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_perf_simulator_throughput_floor():
    ts, wids = _day_load()
    vec_s, vec_summary = _best_of(lambda: _run_vec(ts, wids), trials=3)
    obj_s, obj_summary = _best_of(
        lambda: _run_object(ts[:OBJECT_SLICE], wids[:OBJECT_SLICE]),
        trials=2,
    )
    vec_rate = N_INVOCATIONS / vec_s
    obj_rate = OBJECT_SLICE / obj_s
    speedup = vec_rate / obj_rate
    print(
        f"\nvectorised: {vec_rate:,.0f} rec/s over the full day; "
        f"object: {obj_rate:,.0f} rec/s on a {OBJECT_SLICE:,}-slice; "
        f"speedup {speedup:.1f}x"
    )
    assert vec_summary["n_invocations"] == N_INVOCATIONS
    assert obj_summary["n_invocations"] == OBJECT_SLICE
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised engine only {speedup:.1f}x the object engine "
        f"(floor {MIN_SPEEDUP}x)"
    )


def test_perf_simulator_keepalive_jitter_throughput_floor():
    """ISSUE 8 headline: the keep-alive + jitter day must stay >= 15x
    the shared scalar loop on the identical configuration -- the warm-reuse
    replay and the bulk jitter draw cannot cost the bulk path its
    advantage."""
    ts, wids = _day_load()
    vec_s, vec_summary = _best_of(
        lambda: _run_keepalive_vec(ts, wids), trials=3
    )
    obj_s, obj_summary = _best_of(
        lambda: _run_keepalive_object(
            ts[:OBJECT_SLICE], wids[:OBJECT_SLICE]
        ),
        trials=2,
    )
    vec_rate = N_INVOCATIONS / vec_s
    obj_rate = OBJECT_SLICE / obj_s
    speedup = vec_rate / obj_rate
    print(
        f"\nkeep-alive+jitter vectorised: {vec_rate:,.0f} rec/s; "
        f"object: {obj_rate:,.0f} rec/s; speedup {speedup:.1f}x"
    )
    assert vec_summary["n_invocations"] == N_INVOCATIONS
    assert obj_summary["n_invocations"] == OBJECT_SLICE
    # keep-alive changes the work itself: warm starts must dominate on
    # a day with two-minute TTLs, else the floor measures the wrong path
    assert vec_summary["cold_fraction"] < 0.5
    assert speedup >= MIN_KEEPALIVE_SPEEDUP, (
        f"keep-alive+jitter bulk path only {speedup:.1f}x the object "
        f"engine (floor {MIN_KEEPALIVE_SPEEDUP}x)"
    )


def test_perf_simulator_streaming_peak_ceiling():
    """ISSUE 8 acceptance: a synthetic day 10x the bulk benchmark's
    size streams through ``invoke_chunked`` -- generated slab by slab,
    never materialised -- inside a peak-allocation ceiling that one-shot
    submission could not meet."""
    names = [f"w{i}" for i in range(N_WORKLOADS)]

    def slabs():
        rng = np.random.default_rng(7)
        n_chunks = -(-STREAM_ROWS // STREAM_CHUNK_ROWS)
        span = DAY_S / n_chunks
        lo = 0.0
        done = 0
        for _ in range(n_chunks):
            rows = min(STREAM_CHUNK_ROWS, STREAM_ROWS - done)
            done += rows
            ts = np.sort(rng.uniform(lo, lo + span, rows))
            wids = [
                names[c] for c in rng.integers(0, N_WORKLOADS, rows).tolist()
            ]
            lo += span
            yield ts, wids

    def run():
        cluster = _make_keepalive_cluster(FaaSCluster)
        cluster.invoke_chunked(slabs())
        return summarize_columns(cluster.drain_columns())

    peak, summary = _peak_bytes(run)
    peak_mib = peak / 2**20
    print(
        f"\nstreamed {STREAM_ROWS:,} rows: peak {peak_mib:.1f} MiB "
        f"(ceiling {STREAM_PEAK_CEILING_MIB} MiB)"
    )
    assert summary["n_invocations"] == STREAM_ROWS
    assert peak_mib < STREAM_PEAK_CEILING_MIB, (
        f"streamed peak {peak_mib:.1f} MiB exceeds the "
        f"{STREAM_PEAK_CEILING_MIB} MiB ceiling; chunked submission has "
        "grown a whole-trace transient"
    )


def test_perf_simulator_peak_memory_ceiling():
    ts, wids = _day_load()
    peak, summary = _peak_bytes(lambda: _run_vec(ts, wids))
    peak_mib = peak / 2**20
    print(f"\nvectorised day peak allocations: {peak_mib:.1f} MiB")
    assert summary["n_invocations"] == N_INVOCATIONS
    assert peak_mib < PEAK_CEILING_MIB, (
        f"peak {peak_mib:.1f} MiB exceeds the {PEAK_CEILING_MIB} MiB "
        "ceiling; the bulk path has grown a per-record cost"
    )


def test_perf_simulator_measures_identical_semantics():
    # the slice both paths can afford must agree byte for byte --
    # otherwise the throughput ratio above compares different work
    ts, wids = _day_load()
    sl = slice(0, 20_000)
    vec = _make_cluster(FaaSCluster)
    vec.invoke_many(ts[sl], wids[sl])
    obj = _make_cluster(ObjectFaaSCluster)
    for t, w in zip(ts[sl].tolist(), wids[sl]):
        obj.invoke(t, w)
    assert vec.drain() == obj.drain()
    assert vec.clock_s == obj.clock_s
