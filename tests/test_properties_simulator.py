"""Property-based invariants of the cluster simulator (ISSUE 7).

Runs under Hypothesis when it is installed; a seeded-parametrization
fallback exercises the same invariants otherwise, so the suite never
silently loses this coverage.

Properties pinned:
- causality: every record satisfies arrival <= start <= end, and batched
  submission preserves it;
- memory safety: concurrently-held sandbox memory per node never exceeds
  the node's capacity;
- keep-alive eviction follows LRU order (least recently idled first);
- conservation: every submitted request is accounted for exactly once
  across completed-ok, crashed, and dropped;
- batched scheduler draws are stream-equal to sequential ones;
- least-loaded picks equal ``np.argmin`` over busy counts (ties go to
  the lowest index);
- the bulk path's packed grouping sort equals a stable argsort, on both
  sides of its 62-bit packing limit;
- a drain leaves the clock on the latest keep-alive deadline ever set,
  even one a later, shorter TTL superseded;
- a sandbox has at most one queued keep-alive expiry event.
"""

import numpy as np
import pytest

from repro.platform import (
    CrashHook,
    FaaSCluster,
    FixedKeepAlive,
    LeastLoadedScheduler,
    NoKeepAlive,
    Node,
    ObjectFaaSCluster,
    PlatformTracer,
    RandomScheduler,
    WorkloadProfile,
    iter_trace_slabs,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

# Seeded fallback cases: (seed, n_requests, crash) -- always run, so the
# invariants stay pinned even where hypothesis is missing.
FALLBACK_CASES = [
    (0, 1, False), (1, 50, False), (2, 200, False), (3, 200, True),
    (4, 500, True), (5, 120, False), (6, 333, True),
]


def make_profiles(n=5):
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}",
            runtime_ms=30.0 + 23.0 * i,
            memory_mb=128.0 * (1 + i % 3),
        )
        for i in range(n)
    }


def make_load(seed, n):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, max(n / 20.0, 1.0), n))
    wids = [f"w{int(i)}" for i in rng.integers(0, 5, n)]
    return ts, wids


def run_cluster(seed, n, crash, **overrides):
    ts, wids = make_load(seed, n)
    kwargs = dict(
        n_nodes=2,
        node_memory_mb=1024.0,
        keepalive=FixedKeepAlive(1.0),
        scheduler=RandomScheduler(seed=seed),
        queue_timeout_s=5.0,
    )
    if crash:
        kwargs["fault_hook"] = CrashHook(0.2, seed=seed)
    kwargs.update(overrides)
    cluster = FaaSCluster(make_profiles(), **kwargs)
    for t, w in zip(ts.tolist(), wids):
        cluster.invoke(t, w)
    records = cluster.drain()
    return cluster, records, n


# ---------------------------------------------------------------------------
# invariant checkers (shared by hypothesis and the seeded fallback)
# ---------------------------------------------------------------------------
def check_causality(seed, n, crash):
    cluster, records, _ = run_cluster(seed, n, crash)
    for r in records:
        assert r.arrival_s <= r.start_s <= r.end_s
    cols = cluster.record_columns()
    assert bool(np.all(cols.arrival_s <= cols.start_s))
    assert bool(np.all(cols.start_s <= cols.end_s))
    assert bool(np.all(cols.latency_ms >= 0.0))
    # the run's clock covers the last completion
    if records:
        assert cluster.clock_s >= max(r.end_s for r in records)


def check_memory_capacity(seed, n, crash):
    # NoKeepAlive: held memory is exactly the memory of in-flight
    # invocations, so the per-node sweep below is exhaustive.
    capacity = 640.0
    cluster, records, _ = run_cluster(
        seed, n, crash, keepalive=NoKeepAlive(), node_memory_mb=capacity
    )
    profiles = make_profiles()
    for node_id in {r.node for r in records}:
        mine = [r for r in records if r.node == node_id]
        # concurrent memory at each start instant (inclusive: the
        # admission check runs before the new sandbox is charged)
        for r in mine:
            held = sum(
                profiles[o.workload_id].memory_mb
                for o in mine
                if o.start_s <= r.start_s < o.end_s
                or (o is r)
            )
            assert held <= capacity + 1e-9


def check_conservation(seed, n, crash):
    cluster, records, n_submitted = run_cluster(
        seed, n, crash, node_memory_mb=512.0, queue_timeout_s=0.5
    )
    n_ok = sum(1 for r in records if r.ok)
    n_crashed = sum(1 for r in records if not r.ok)
    n_dropped = len(cluster.dropped)
    assert n_ok + n_crashed + n_dropped == n_submitted
    if crash:
        assert all(not r.ok for r in records if not r.ok)
    else:
        assert n_crashed == 0
    # columnar view agrees with the object view
    cols = cluster.record_columns()
    assert int(cols.ok.sum()) == n_ok
    assert len(cols) == n_ok + n_crashed


def check_pick_many_stream_equality(seed, n, crash):
    del crash
    nodes = list(range(4))  # pick_many only reads len(nodes)
    batched = RandomScheduler(seed=seed)
    sequential = RandomScheduler(seed=seed)
    wids = [f"w{i}" for i in range(n)]
    many = batched.pick_many(nodes, wids)
    ones = [sequential.pick(nodes, w) for w in wids]
    assert many.tolist() == ones
    # and the generators are left in the same state: further draws agree
    assert batched.pick(nodes, "x") == sequential.pick(nodes, "x")


def check_warm_pool_bounded_by_ttl_window(seed, n, crash):
    """Warm-pool size never exceeds the completions of the trailing TTL
    window: every idle sandbox went idle within the last ``ttl`` seconds
    (anything older must have expired or been reused), so at any probe
    instant ``idle_count <= |{records: clock - ttl < end <= clock}|``."""
    del crash
    ttl = 0.75
    ts, wids = make_load(seed, n)
    cluster = FaaSCluster(
        make_profiles(),
        n_nodes=2,
        node_memory_mb=4096.0,
        keepalive=FixedKeepAlive(ttl),
        scheduler=RandomScheduler(seed=seed),
    )
    for t, w in zip(ts.tolist(), wids):
        cluster.invoke(t, w)
        now = cluster.clock_s
        idle = sum(node.idle_count for node in cluster.nodes)
        admitted = sum(
            1 for r in cluster.records if now - ttl < r.end_s <= now
        )
        assert idle <= admitted
    cluster.drain()
    assert sum(node.idle_count for node in cluster.nodes) == 0


def check_jitter_stream_equality(seed, n, crash):
    """Bulk submission consumes the jitter stream exactly like scalar
    submission: identical records *and* identical RNG end state."""
    del crash
    ts, wids = make_load(seed, n)
    kwargs = dict(
        n_nodes=2,
        node_memory_mb=16384.0,
        keepalive=FixedKeepAlive(2.0),
        service_time_cv=0.7,
    )
    scalar = FaaSCluster(
        make_profiles(), scheduler=RandomScheduler(seed=seed),
        seed=seed, **kwargs,
    )
    for t, w in zip(ts.tolist(), wids):
        scalar.invoke(t, w)
    bulk = FaaSCluster(
        make_profiles(), scheduler=RandomScheduler(seed=seed),
        seed=seed, **kwargs,
    )
    bulk.invoke_many(ts, wids)
    assert bulk._rng.bit_generator.state == scalar._rng.bit_generator.state
    assert bulk.drain() == scalar.drain()


def check_chunk_size_invariance(seed, n, crash):
    """Chunked submission is invariant to the chunk size: 1, 7, 4096,
    and all-in-one all produce byte-identical runs."""
    del crash
    ts, wids = make_load(seed, n)

    def run(chunk_rows):
        cluster = FaaSCluster(
            make_profiles(),
            n_nodes=2,
            node_memory_mb=16384.0,
            keepalive=FixedKeepAlive(1.0),
            scheduler=RandomScheduler(seed=seed),
            service_time_cv=0.4,
            seed=seed,
        )
        if chunk_rows is None:
            cluster.invoke_many(ts, wids)
        else:
            cluster.invoke_chunked(
                iter_trace_slabs(ts, wids, chunk_rows=chunk_rows)
            )
        return (
            cluster.drain(),
            cluster.clock_s,
            [
                (nd.used_memory_mb, nd.busy_count, nd.idle_count)
                for nd in cluster.nodes
            ],
        )

    baseline = run(None)
    for chunk_rows in (1, 7, 4096):
        assert run(chunk_rows) == baseline, f"chunk_rows={chunk_rows}"


CHECKS = [
    check_causality,
    check_memory_capacity,
    check_conservation,
    check_pick_many_stream_equality,
    check_warm_pool_bounded_by_ttl_window,
    check_jitter_stream_equality,
    check_chunk_size_invariance,
]


# --- always-on seeded parametrization --------------------------------------
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("case", FALLBACK_CASES, ids=str)
def test_seeded(check, case):
    check(*case)


# --- hypothesis exploration (when available) --------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
        crash=st.booleans(),
    )
    def test_hypothesis_causality(seed, n, crash):
        check_causality(seed, n, crash)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200))
    def test_hypothesis_memory_capacity(seed, n):
        check_memory_capacity(seed, n, False)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 300),
        crash=st.booleans(),
    )
    def test_hypothesis_conservation(seed, n, crash):
        check_conservation(seed, n, crash)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 200))
    def test_hypothesis_pick_many_stream_equality(seed, n):
        check_pick_many_stream_equality(seed, n, False)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 250))
    def test_hypothesis_warm_pool_bounded_by_ttl_window(seed, n):
        check_warm_pool_bounded_by_ttl_window(seed, n, False)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 250))
    def test_hypothesis_jitter_stream_equality(seed, n):
        check_jitter_stream_equality(seed, n, False)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 250))
    def test_hypothesis_chunk_size_invariance(seed, n):
        check_chunk_size_invariance(seed, n, False)


# ---------------------------------------------------------------------------
# least-loaded pick: np.argmin semantics
# ---------------------------------------------------------------------------
# Both engines share the scheduler class, so the equivalence suite cannot
# see a change in tie order; np.argmin (first minimum) is the reference.
BUSY_VECTORS = [
    [0],
    [7],
    [2, 2, 2, 2],
    [0] * 8,
    [1, 0, 1, 0],
    [4, 1, 3, 1, 1],
    # a narrow value range on up to 9 nodes: ties at the minimum abound
    *(
        np.random.default_rng(seed).integers(0, 3, 1 + seed % 9).tolist()
        for seed in range(24)
    ),
]


def check_least_loaded_pick_is_argmin(busy):
    nodes = [Node(i, 1024.0, busy_count=b) for i, b in enumerate(busy)]
    expected = int(np.argmin([n.busy_count for n in nodes]))
    assert LeastLoadedScheduler().pick(nodes, "w") == expected


@pytest.mark.parametrize("busy", BUSY_VECTORS, ids=str)
def test_least_loaded_pick_is_argmin(busy):
    check_least_loaded_pick_is_argmin(busy)


if HAVE_HYPOTHESIS:

    @settings(max_examples=100, deadline=None)
    @given(busy=st.lists(st.integers(0, 4), min_size=1, max_size=16))
    def test_hypothesis_least_loaded_pick_is_argmin(busy):
        check_least_loaded_pick_is_argmin(busy)


# ---------------------------------------------------------------------------
# packed grouping sort == stable argsort
# ---------------------------------------------------------------------------
# Label vectors: small pools, ties, the empty and one-row
# cases, labels that fill exactly 62 packed bits (the packed sort), and
# labels one bit wider (the plain stable-argsort fallback).
GROUP_LABELS = [
    [],
    [0],
    [5],
    [3, 1, 3, 0, 1, 3],
    [0] * 9,
    [2**58, 0, 2**58 + 1, 2**58, 7],       # 59 + 3 bits: packed
    [2**59, 0, 2**59 + 1, 2**59, 7],       # 60 + 3 bits: fallback
    [2**62, 1, 2**62, 0],                  # 63 + 2 bits: fallback
    *(
        np.random.default_rng(seed).integers(0, 1 + seed * 7, 1 + 37 * seed)
        .tolist()
        for seed in range(12)
    ),
]


def check_group_stable_is_stable_argsort(labels):
    from repro.platform.simulator_vec import _group_stable

    arr = np.asarray(labels, dtype=np.int64)
    got = _group_stable(arr)
    assert got.dtype == np.int64
    assert got.tolist() == np.argsort(arr, kind="stable").tolist()


@pytest.mark.parametrize("labels", GROUP_LABELS,
                         ids=lambda v: f"n{len(v)}-max{max(v, default=0)}")
def test_group_stable_is_stable_argsort(labels):
    check_group_stable_is_stable_argsort(labels)


if HAVE_HYPOTHESIS:

    @settings(max_examples=100, deadline=None)
    @given(labels=st.one_of(
        st.lists(st.integers(0, 40), max_size=300),
        st.lists(st.integers(0, 2**63 - 1), max_size=40),
    ))
    def test_hypothesis_group_stable_is_stable_argsort(labels):
        check_group_stable_is_stable_argsort(labels)


# ---------------------------------------------------------------------------
# LRU eviction order (deterministic scenario, both engines)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_keepalive_eviction_follows_lru_order(cls):
    """Memory pressure evicts the *least recently idled* sandbox first.

    Three workloads idle their sandboxes at distinct, known times; a
    large request then forces evictions.  The trace must show them
    evicted oldest-idle first.
    """
    profiles = {
        "a": WorkloadProfile("a", runtime_ms=100.0, memory_mb=256.0),
        "b": WorkloadProfile("b", runtime_ms=100.0, memory_mb=256.0),
        "c": WorkloadProfile("c", runtime_ms=100.0, memory_mb=256.0),
        "big": WorkloadProfile("big", runtime_ms=100.0, memory_mb=768.0),
    }
    tracer = PlatformTracer()
    cluster = cls(
        profiles,
        n_nodes=1,
        node_memory_mb=1024.0,
        keepalive=FixedKeepAlive(100.0),
        tracer=tracer,
    )
    # idle order: a (earliest), then b, then c
    cluster.invoke(0.0, "a")
    cluster.invoke(1.0, "b")
    cluster.invoke(2.0, "c")
    # big (768) on a 1024 node with 3x256 idle: must evict a then b
    cluster.invoke(10.0, "big")
    cluster.drain()
    evicted = [e.workload_id for e in tracer.of_kind("sandbox_evicted")]
    assert evicted == ["a", "b"]


@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_lru_tie_breaks_on_first_scanned(cls):
    """Equal idle_since ties resolve to the first-scanned stack -- part
    of the byte-identity contract, pinned so refactors keep it."""
    profiles = {
        "a": WorkloadProfile("a", runtime_ms=100.0, memory_mb=256.0),
        "b": WorkloadProfile("b", runtime_ms=100.0, memory_mb=256.0),
        "big": WorkloadProfile("big", runtime_ms=100.0, memory_mb=1024.0),
    }
    tracer = PlatformTracer()
    cluster = cls(
        profiles,
        n_nodes=1,
        node_memory_mb=1024.0,
        keepalive=FixedKeepAlive(100.0),
        tracer=tracer,
    )
    # identical arrival => identical idle_since for both sandboxes
    cluster.invoke(0.0, "a")
    cluster.invoke(0.0, "b")
    cluster.invoke(5.0, "big")  # needs the whole node: evicts both
    cluster.drain()
    evicted = [e.workload_id for e in tracer.of_kind("sandbox_evicted")]
    assert evicted == ["a", "b"]  # insertion order of the idle dict


# ---------------------------------------------------------------------------
# keep-alive expiry events (deterministic scenarios, both engines)
# ---------------------------------------------------------------------------
class _ScriptedKeepAlive:
    """Keep-alive whose successive ``ttl_s`` calls return a fixed script."""

    def __init__(self, ttls):
        self._ttls = iter(ttls)

    def ttl_s(self, workload_id):
        del workload_id
        return next(self._ttls)

    def observe_idle_gap(self, workload_id, gap_s):
        del workload_id, gap_s


@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_drain_clock_covers_a_superseded_deadline(cls):
    """One sandbox idles three times with TTLs 10, 100, 20 s.  Only the
    last deadline expires it, but the drained clock still ends on the
    latest deadline ever set (the 100 s one)."""
    tracer = PlatformTracer()
    cluster = cls(
        {"w": WorkloadProfile("w", runtime_ms=100.0, memory_mb=128.0)},
        n_nodes=1,
        keepalive=_ScriptedKeepAlive([10.0, 100.0, 20.0]),
        tracer=tracer,
    )
    for t in (0.0, 1.0, 2.0):
        cluster.invoke(t, "w")
    records = cluster.drain()
    assert cluster.clock_s == records[1].end_s + 100.0
    expired = tracer.of_kind("sandbox_expired")
    assert [e.time_s for e in expired] == [records[2].end_s + 20.0]


@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_at_most_one_queued_expiry_per_sandbox(cls):
    """A sandbox reused before its deadline keeps one queued expiry
    event, not one per completion."""
    cluster = cls(
        {"w": WorkloadProfile("w", runtime_ms=10.0, memory_mb=128.0)},
        n_nodes=1,
        keepalive=FixedKeepAlive(600.0),
    )
    for i in range(1000):
        cluster.invoke(float(i), "w")
        queued = sum(1 for e in cluster._heap if e[2] == "expire")
        assert queued <= cluster._sandbox_n, (i, queued)
    assert len(cluster.drain()) == 1000
