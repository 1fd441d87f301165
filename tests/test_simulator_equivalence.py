"""Differential equivalence: bulk vs scalar submission, columnar vs
object records.

:class:`~repro.platform.simulator_vec.FaaSCluster` and
:class:`~repro.platform.simulator.ObjectFaaSCluster` run one shared
scalar event loop and differ only in their record sinks, and
``FaaSCluster`` adds a vectorised bulk path.  This suite pins both
differences: bulk, chunked and mixed submission produce the same
*byte-identical* invocation records, clocks, drops, memory samples, and
trace streams as per-request submission, and the columnar store
materialises exactly the records the object sink appends.  Cases whose
configuration keeps ``FaaSCluster`` on the scalar loop check the sinks
and within-process determinism; the loop's own output is pinned by
``tests/test_simulator_golden.py``.  Policies are stateful, so each run
constructs its own fresh policy objects from a factory -- sharing one
RNG-bearing scheduler between runs would compare a run against its own
side effects.
"""

import gc
import itertools
import pickle
import weakref

import numpy as np
import pytest

from repro.platform import (
    CpuModel,
    CrashHook,
    FaaSCluster,
    FairShareCpu,
    FifoCpu,
    FixedKeepAlive,
    HashAffinityScheduler,
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
    RecordColumns,
    RecordList,
    ShortestFirstCpu,
    WorkloadProfile,
    iter_trace_slabs,
    summarize,
    summarize_columns,
)
from repro.platform.simcore import _FLUSH_ROWS, Node, _Sandbox
from repro.telemetry import MetricsRegistry, use

SEEDS = (0, 1, 2)

KEEPALIVES = {
    "none": NoKeepAlive,
    "fixed": lambda: FixedKeepAlive(1.5),
    "histogram": lambda: HistogramKeepAlive(
        default_ttl_s=1.5, min_ttl_s=0.1, window=32, min_observations=4
    ),
}

SCHEDULERS = {
    "least-loaded": LeastLoadedScheduler,
    "random": lambda: RandomScheduler(seed=7),
    "power-of-two": lambda: PowerOfTwoScheduler(seed=7),
    "locality": LocalityAwareScheduler,
    "hash": HashAffinityScheduler,
}


def make_profiles(n=6):
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}",
            runtime_ms=40.0 + 17.0 * i,
            memory_mb=128.0 * (1 + i % 4),
        )
        for i in range(n)
    }


def make_load(seed, n=300, horizon_s=20.0, n_workloads=6):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, horizon_s, n))
    wids = [f"w{int(i)}" for i in rng.integers(0, n_workloads, n)]
    return ts, wids


def submit(cluster, ts, wids, mode):
    """Feed one load through a cluster in the given submission mode."""
    if mode == "scalar":
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
    elif mode == "bulk":
        cluster.invoke_many(ts, wids)
    elif mode == "mixed":
        half = len(wids) // 2
        cluster.invoke_many(ts[:half], wids[:half])
        for t, w in zip(ts[half:].tolist(), wids[half:]):
            cluster.invoke(t, w)
    elif mode.startswith("chunked"):
        chunk = int(mode.split("-")[1])
        cluster.invoke_chunked(iter_trace_slabs(ts, wids, chunk_rows=chunk))
    else:
        raise ValueError(mode)


def run_engine(cls, ts, wids, make_kwargs, *, batch=False, mode=None):
    """One full run on a freshly-built cluster; returns its observables."""
    cluster = cls(make_profiles(), **make_kwargs())
    if mode is not None:
        submit(cluster, ts, wids, mode)
    elif batch:
        cluster.invoke_many(ts, wids)
    else:
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
    records = cluster.drain()
    return {
        "records": records,
        "clock": cluster.clock_s,
        "dropped": cluster.dropped,
        "memory_samples": cluster.memory_samples,
        "n_nodes": len(cluster.nodes),
        "node_state": [
            (n.node_id, n.used_memory_mb, n.busy_count, n.idle_count,
             n.cpu_weight)
            for n in cluster.nodes
        ],
    }


def assert_equivalent(ts, wids, make_kwargs, *, batch=False, mode=None):
    ref = run_engine(ObjectFaaSCluster, ts, wids, make_kwargs)
    vec = run_engine(FaaSCluster, ts, wids, make_kwargs,
                     batch=batch, mode=mode)
    assert vec["records"] == ref["records"]
    assert vec["clock"] == ref["clock"]
    assert vec["dropped"] == ref["dropped"]
    assert vec["memory_samples"] == ref["memory_samples"]
    assert vec["n_nodes"] == ref["n_nodes"]
    assert vec["node_state"] == ref["node_state"]
    return ref, vec


# ---------------------------------------------------------------------------
# the core matrix: seeds x keep-alive policies x schedulers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ka", sorted(KEEPALIVES))
@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_equivalence_matrix(seed, ka, sched):
    ts, wids = make_load(seed)
    assert_equivalent(
        ts,
        wids,
        lambda: dict(
            n_nodes=3,
            node_memory_mb=1024.0,
            keepalive=KEEPALIVES[ka](),
            scheduler=SCHEDULERS[sched](),
        ),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("crash_rate", [0.05, 0.4])
def test_equivalence_crash_profiles(seed, crash_rate):
    ts, wids = make_load(seed)
    assert_equivalent(
        ts,
        wids,
        lambda: dict(
            n_nodes=2,
            node_memory_mb=2048.0,
            keepalive=FixedKeepAlive(2.0),
            fault_hook=CrashHook(crash_rate, seed=seed),
            service_time_cv=0.5,
            seed=seed,
        ),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_autoscaler_and_memory_tracking(seed):
    ts, wids = make_load(seed, n=400, horizon_s=40.0)
    assert_equivalent(
        ts,
        wids,
        lambda: dict(
            n_nodes=2,
            node_memory_mb=1024.0,
            keepalive=FixedKeepAlive(1.0),
            autoscaler=ReactiveAutoscaler(
                min_nodes=1,
                max_nodes=5,
                target_busy_per_node=2.0,
                evaluate_every_s=2.0,
                scale_down_grace_s=4.0,
            ),
            track_memory=True,
        ),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_queue_pressure_and_drops(seed):
    # tight memory so requests queue, time out, and drop
    ts, wids = make_load(seed, n=250, horizon_s=2.0)
    ref, vec = assert_equivalent(
        ts,
        wids,
        lambda: dict(
            n_nodes=1,
            node_memory_mb=640.0,
            keepalive=NoKeepAlive(),
            queue_timeout_s=1.0,
            cpu=CpuModel(cores=2, policy=ShortestFirstCpu()),
        ),
    )
    assert ref["dropped"], "config must actually exercise drops"


def test_equivalence_trace_streams():
    ts, wids = make_load(3, n=300, horizon_s=6.0)
    tracers = {}

    def make(cls_name):
        tracer = tracers[cls_name] = PlatformTracer()
        return dict(
            n_nodes=2,
            node_memory_mb=768.0,
            keepalive=FixedKeepAlive(0.8),
            queue_timeout_s=2.0,
            tracer=tracer,
        )

    run_engine(ObjectFaaSCluster, ts, wids, lambda: make("ref"))
    run_engine(FaaSCluster, ts, wids, lambda: make("vec"))
    assert tracers["vec"].events == tracers["ref"].events


# ---------------------------------------------------------------------------
# the bulk fast path against the scalar oracle
# ---------------------------------------------------------------------------
class _SubclassedRandom(RandomScheduler):
    """Picks like its base; the bulk path must still refuse it, since a
    subclass may override what the batched draw cannot see."""


def assert_bulk_iff_random(cluster):
    """A bulk-eligible slab engaged the vectorised path iff the
    scheduler is exactly a :class:`RandomScheduler`."""
    if type(cluster.scheduler) is RandomScheduler:
        assert cluster._tail is not None and not cluster._heap, (
            "bulk path did not engage; this case would only re-test the "
            "scalar loop"
        )
    else:
        assert cluster._tail is None, (
            "only an exact RandomScheduler may take the bulk path"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "sched",
    ["least-loaded", "random", "power-of-two", "locality", "hash",
     "random-subclass"],
)
def test_bulk_path_matches_object_loop(seed, sched):
    make_sched = dict(
        SCHEDULERS, **{"random-subclass": lambda: _SubclassedRandom(seed=7)}
    )[sched]
    ts, wids = make_load(seed)
    make_kwargs = lambda: dict(  # noqa: E731
        n_nodes=3 if sched.startswith("random") else 1,
        node_memory_mb=8192.0,
        keepalive=NoKeepAlive(),
        scheduler=make_sched(),
    )
    probe = FaaSCluster(make_profiles(), **make_kwargs())
    probe.invoke_many(ts, wids)
    assert_bulk_iff_random(probe)
    assert_equivalent(ts, wids, make_kwargs, batch=True)


def test_bulk_tail_interleaves_with_scalar_traffic():
    ts, wids = make_load(4, n=400)
    half = 200
    profiles = make_profiles()

    ref = ObjectFaaSCluster(
        profiles, n_nodes=2, node_memory_mb=8192.0,
        keepalive=NoKeepAlive(), scheduler=RandomScheduler(seed=5),
    )
    vec = FaaSCluster(
        profiles, n_nodes=2, node_memory_mb=8192.0,
        keepalive=NoKeepAlive(), scheduler=RandomScheduler(seed=5),
    )
    for t, w in zip(ts[:half].tolist(), wids[:half]):
        ref.invoke(t, w)
    vec.invoke_many(ts[:half], wids[:half])
    assert vec._tail is not None
    # scalar traffic lands while bulk completions are still outstanding
    for t, w in zip(ts[half:].tolist(), wids[half:]):
        ref.invoke(t, w)
        vec.invoke(t, w)
    assert vec.drain() == ref.drain()
    assert vec.clock_s == ref.clock_s
    assert [n.used_memory_mb for n in vec.nodes] == [
        n.used_memory_mb for n in ref.nodes
    ]


def test_bulk_infeasible_slab_falls_back_identically():
    # a burst a 512 MiB node cannot admit outright: the bulk path must
    # detect infeasibility, rewind the scheduler RNG, and replay the
    # slab through the scalar loop with identical queueing and drops
    rng = np.random.default_rng(1)
    ts = np.sort(rng.uniform(0.0, 0.5, 300))
    wids = [f"w{int(i)}" for i in rng.integers(0, 6, 300)]
    make_kwargs = lambda: dict(  # noqa: E731
        n_nodes=1,
        node_memory_mb=512.0,
        keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=4),
        queue_timeout_s=3.0,
    )
    probe = FaaSCluster(make_profiles(), **make_kwargs())
    probe.invoke_many(ts, wids)
    assert probe._tail is None, "slab must be infeasible for this test"
    ref, _vec = assert_equivalent(ts, wids, make_kwargs, batch=True)
    assert ref["dropped"]


def test_bulk_unknown_workload_raises_like_the_loop():
    ts, wids = make_load(0, n=50)
    wids = list(wids)
    wids[30] = "not-a-workload"
    profiles = make_profiles()

    def run(cls, batch):
        cluster = cls(
            profiles, n_nodes=2, node_memory_mb=8192.0,
            keepalive=NoKeepAlive(), scheduler=RandomScheduler(seed=0),
        )
        with pytest.raises(KeyError, match="not-a-workload"):
            if batch:
                cluster.invoke_many(ts, wids)
            else:
                for t, w in zip(ts.tolist(), wids):
                    cluster.invoke(t, w)
        return cluster.drain()

    assert run(FaaSCluster, True) == run(ObjectFaaSCluster, False)


def test_bulk_rejects_requests_behind_the_clock():
    cluster = FaaSCluster(
        make_profiles(), n_nodes=1, node_memory_mb=8192.0,
        keepalive=NoKeepAlive(),
    )
    cluster.invoke(10.0, "w0")
    cluster.drain()  # clock is now past 10
    with pytest.raises(ValueError, match="past"):
        cluster.invoke_many(np.array([1.0, 2.0]), ["w0", "w1"])


def test_bulk_rejects_unsorted_slab_like_the_loop():
    # a non-monotone slab must raise exactly where the per-element loop
    # would: after the in-order prefix is admitted
    cluster = FaaSCluster(
        make_profiles(), n_nodes=1, node_memory_mb=8192.0,
        keepalive=NoKeepAlive(),
    )
    with pytest.raises(ValueError, match="past"):
        cluster.invoke_many(np.array([1.0, 5.0, 2.0]), ["w0"] * 3)
    assert len(cluster.drain()) == 2  # the prefix before the bad element


#: Configurations for invalid slabs.  The bulk path never takes the
#: first two (a CPU model; a scheduler other than RandomScheduler),
#: so ``invoke_many`` runs the scalar loop's own slab
#: submission; the ``bulk-*`` ones are bulk-eligible, so a valid first
#: slab leaves a carry and an invalid slab must fall back to the loop.
SLAB_CONFIGS = {
    "least-loaded-cpu": lambda: dict(
        n_nodes=3, node_memory_mb=1024.0, keepalive=FixedKeepAlive(1.5),
        scheduler=LeastLoadedScheduler(),
        cpu=CpuModel(cores=2, quantum_s=0.01, policy=FairShareCpu()),
    ),
    "power-of-two": lambda: dict(
        n_nodes=3, node_memory_mb=1024.0, keepalive=FixedKeepAlive(1.5),
        scheduler=PowerOfTwoScheduler(seed=3),
    ),
    "bulk-random-fixed": lambda: dict(
        n_nodes=3, node_memory_mb=65536.0, keepalive=FixedKeepAlive(1.5),
        scheduler=RandomScheduler(seed=3),
    ),
    "bulk-random-none": lambda: dict(
        n_nodes=3, node_memory_mb=65536.0, keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=3),
    ),
}


def _invalid_slabs():
    """(first slab, second slab, expected error) per invalid case; the
    first slab is valid and moves the clock to 10 s."""
    ts, wids = make_load(4, n=120, horizon_s=10.0)
    first = (ts[:60], wids[:60])
    later = ts[60:] + 10.0
    unknown = list(wids[60:])
    unknown[25] = "not-a-workload"
    decreasing = later.copy()
    decreasing[25] = decreasing[24] - 0.5
    nan = later.copy()
    nan[25] = np.nan
    # a step down across the NaN: no pair of neighbours decreases
    nan_then_down = nan.copy()
    nan_then_down[26] = nan_then_down[24] - 0.5
    behind = ts[60:] - 5.0
    return {
        "unknown-id": (first, (later, unknown), KeyError),
        "decreasing": (first, (decreasing, wids[60:]), ValueError),
        "nan": (first, (nan, wids[60:]), None),
        "nan-then-decrease": (first, (nan_then_down, wids[60:]), ValueError),
        "behind-clock": (first, (behind, wids[60:]), ValueError),
    }


def _row_dump(columns):
    """Every record as a tuple, in order; repr keeps NaN comparable."""
    words = columns.vocabulary
    return repr(list(zip(
        [words[c] for c in columns.workload_codes.tolist()],
        columns.node.tolist(), columns.arrival_s.tolist(),
        columns.start_s.tolist(), columns.end_s.tolist(),
        columns.cold.tolist(), columns.ok.tolist(),
        columns.preemptions.tolist(),
    )))


@pytest.mark.parametrize("case", sorted(_invalid_slabs()))
@pytest.mark.parametrize("config", sorted(SLAB_CONFIGS))
def test_scalar_slab_with_invalid_input_acts_like_the_loop(config, case):
    # an invalid slab must raise where the per-element loop raises and
    # leave the same partial state.  A NaN timestamp passes the loop's
    # checks; the object sink alone refuses it (as a record timeline),
    # so the NaN cases are checked against per-element submission into
    # FaaSCluster itself.
    first, second, error = _invalid_slabs()[case]
    if config.startswith("bulk-"):
        probe = FaaSCluster(make_profiles(), **SLAB_CONFIGS[config]())
        probe.invoke_many(*first)
        assert probe._tail is not None and not probe._heap, (
            "first slab must leave a bulk carry for this config to bite"
        )

    def run(cls, batch):
        cluster = cls(make_profiles(), **SLAB_CONFIGS[config]())
        raised = None
        for ts, wids in (first, second):
            try:
                if batch:
                    cluster.invoke_many(ts, wids)
                else:
                    for t, w in zip(ts.tolist(), wids):
                        cluster.invoke(t, w)
            except (KeyError, ValueError) as exc:
                raised = exc
        columns = (
            cluster.drain_columns() if cls is FaaSCluster
            else RecordColumns.from_records(cluster.drain())
        )
        return {
            "raised": None if raised is None else (type(raised),
                                                   str(raised)),
            "records": _row_dump(columns),
            "clock": cluster.clock_s,
            "node_state": [
                (n.node_id, n.used_memory_mb, n.busy_count, n.cpu_weight,
                 sorted((w, len(s)) for w, s in n.idle.items()),
                 list(n.pending))
                for n in cluster.nodes
            ],
        }

    ref = run(FaaSCluster if case.startswith("nan") else ObjectFaaSCluster,
              False)
    vec = run(FaaSCluster, True)
    assert (ref["raised"] or (None,))[0] is error
    assert vec == ref


def test_record_store_growth_past_initial_capacity():
    # both the scalar append and the bulk extend must grow the columns
    # transparently past the initial 1024-row capacity (a one-node
    # RandomScheduler keeps the slab on the bulk path)
    profiles = {"w0": WorkloadProfile("w0", runtime_ms=5.0, memory_mb=64.0)}
    n = 3000
    ts = np.linspace(0.0, 300.0, n)

    bulk = FaaSCluster(
        profiles, n_nodes=1, node_memory_mb=8192.0, keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=0),
    )
    bulk.invoke_many(ts, ["w0"] * n)
    scalar = FaaSCluster(
        profiles, n_nodes=1, node_memory_mb=8192.0, keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=0),
    )
    for t in ts.tolist():
        scalar.invoke(t, "w0")
    assert bulk.drain() == scalar.drain()
    cols = bulk.record_columns()
    assert len(cols) == n
    # derived columns agree with the scalar record properties
    recs = scalar.records
    assert cols.service_ms[0] == recs[0].service_ms
    assert cols.latency_ms[-1] == recs[-1].latency_ms


def test_invoke_many_input_validation():
    cluster = FaaSCluster(make_profiles())
    with pytest.raises(ValueError, match="one-dimensional"):
        cluster.invoke_many(np.zeros((2, 2)), ["w0"] * 4)
    with pytest.raises(ValueError, match="workload ids"):
        cluster.invoke_many(np.zeros(3), ["w0"] * 2)
    cluster.invoke_many(np.empty(0), [])  # no-op, not an error
    assert cluster.drain() == []


# ---------------------------------------------------------------------------
# the widened bulk envelope: keep-alive x jitter x submission x scheduler
# ---------------------------------------------------------------------------
#: Schedulers the matrix below runs: random on three nodes takes the
#: fast path; hash (three nodes) and least-loaded (one node) must stay
#: on the scalar loop and still match the reference engine.
BULK_SCHEDULERS = {
    "random": lambda: RandomScheduler(seed=7),
    "hash": lambda: HashAffinityScheduler(spill_threshold=64),
    "least-loaded": LeastLoadedScheduler,
}

BULK_MODES = ("bulk", "mixed", "chunked-7", "chunked-64")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ka", ["none", "fixed-short", "fixed-long"])
@pytest.mark.parametrize("cv", [0.0, 0.6], ids=["nojit", "jitter"])
@pytest.mark.parametrize("mode", BULK_MODES)
@pytest.mark.parametrize("sched", sorted(BULK_SCHEDULERS))
def test_bulk_envelope_matrix(seed, ka, cv, mode, sched):
    """Byte-identity across the full widened envelope, with proof that
    every random-scheduler cell engages the vectorised path and every
    other cell stays on the scalar loop."""
    keepalive = {
        "none": NoKeepAlive,
        "fixed-short": lambda: FixedKeepAlive(0.8),
        "fixed-long": lambda: FixedKeepAlive(30.0),
    }[ka]
    ts, wids = make_load(seed)
    make_kwargs = lambda: dict(  # noqa: E731
        n_nodes=1 if sched == "least-loaded" else 3,
        node_memory_mb=16384.0,
        keepalive=keepalive(),
        scheduler=BULK_SCHEDULERS[sched](),
        service_time_cv=cv,
        seed=seed,
    )
    probe = FaaSCluster(make_profiles(), **make_kwargs())
    submit(probe, ts, wids, "bulk" if mode == "mixed" else mode)
    assert_bulk_iff_random(probe)
    assert_equivalent(ts, wids, make_kwargs, mode=mode)


@pytest.mark.parametrize("mode", BULK_MODES)
def test_zero_ttl_fixed_keepalive_takes_the_bulk_commit(mode):
    """FixedKeepAlive(0) must behave exactly like NoKeepAlive -- and
    still take the fast path: TTL 0 goes through the one bulk commit as
    its degenerate case (every start cold, no warm carry)."""
    ts, wids = make_load(5)
    make_kwargs = lambda: dict(  # noqa: E731
        n_nodes=3,
        node_memory_mb=16384.0,
        keepalive=FixedKeepAlive(0.0),
        scheduler=RandomScheduler(seed=7),
    )
    probe = FaaSCluster(make_profiles(), **make_kwargs())
    probe.invoke_many(ts, wids)
    assert probe._tail is not None and not probe._heap
    assert probe._tail.ttl == 0.0 and probe._tail.idle_from.size == 0
    assert_equivalent(ts, wids, make_kwargs, mode=mode)


def test_keepalive_tail_interleaves_with_scalar_traffic():
    """Scalar traffic after a keep-alive slab must see the carried warm
    sandboxes (reuse, LRU eviction order, pending expiries) exactly as
    the reference engine does."""
    ts, wids = make_load(4, n=400)
    half = 200
    profiles = make_profiles()

    def build(cls):
        return cls(
            profiles, n_nodes=2, node_memory_mb=16384.0,
            keepalive=FixedKeepAlive(5.0), scheduler=RandomScheduler(seed=5),
            service_time_cv=0.4, seed=9,
        )

    ref, vec = build(ObjectFaaSCluster), build(FaaSCluster)
    for t, w in zip(ts[:half].tolist(), wids[:half]):
        ref.invoke(t, w)
    vec.invoke_many(ts[:half], wids[:half])
    assert vec._tail is not None and vec._tail.idle_from.size > 0, (
        "slab must leave warm sandboxes behind for this test to bite"
    )
    for t, w in zip(ts[half:].tolist(), wids[half:]):
        ref.invoke(t, w)
        vec.invoke(t, w)
    assert vec.drain() == ref.drain()
    assert vec.clock_s == ref.clock_s
    assert [
        (n.used_memory_mb, n.busy_count, n.idle_count) for n in vec.nodes
    ] == [
        (n.used_memory_mb, n.busy_count, n.idle_count) for n in ref.nodes
    ]


@pytest.mark.parametrize("ka", ["fixed", "zero"])
def test_bulk_carry_drains_mid_run_then_continues(ka):
    """A drain with a bulk carry outstanding, then more bulk traffic and
    a second drain, must leave the reference engine's records, clock and
    node state at both drains.  Under a fixed TTL the first carry holds
    running and warm idle sandboxes; under zero TTL it is busy-only."""
    ts, wids = make_load(6, n=400, horizon_s=10.0)
    profiles = make_profiles()
    keepalive = {
        "fixed": lambda: FixedKeepAlive(2.0),
        "zero": NoKeepAlive,
    }[ka]

    def build(cls):
        return cls(
            profiles, n_nodes=3, node_memory_mb=65536.0,
            keepalive=keepalive(), scheduler=RandomScheduler(seed=2),
            service_time_cv=0.5, seed=4,
        )

    def state(cluster):
        return (
            cluster.clock_s,
            [(n.used_memory_mb, n.busy_count, n.idle_count)
             for n in cluster.nodes],
        )

    ref, vec = build(ObjectFaaSCluster), build(FaaSCluster)
    head, rest = (ts[:300], wids[:300]), (ts[300:], wids[300:])
    for t, w in zip(head[0].tolist(), head[1]):
        ref.invoke(t, w)
    vec.invoke_chunked(iter_trace_slabs(*head, chunk_rows=70))
    tail = vec._tail
    assert tail is not None and not vec._heap and tail.ends.size > 0
    if ka == "fixed":
        assert tail.idle_from.size > 0, "carry must hold idle sandboxes"
    else:
        assert tail.idle_from.size == 0
    assert list(vec.drain()) == ref.drain()
    assert state(vec) == state(ref)

    # the second segment starts after the first drain's clock
    later = rest[0] - rest[0][0] + ref.clock_s + 0.25
    for t, w in zip(later.tolist(), rest[1]):
        ref.invoke(t, w)
    vec.invoke_many(later, rest[1])
    assert vec._tail is not None and not vec._heap, (
        "second segment must take the bulk path"
    )
    assert list(vec.drain()) == ref.drain()
    assert state(vec) == state(ref)


# ---------------------------------------------------------------------------
# chunk-boundary regressions
# ---------------------------------------------------------------------------
def _boundary_profiles():
    # memory 125 MiB makes the default cold model exactly 0.25 s, so
    # every timestamp below is an exact binary float and "expiry lands
    # exactly on an arrival" is a true float equality, not an approx
    return {"w0": WorkloadProfile("w0", runtime_ms=125.0, memory_mb=125.0)}


def _run_boundary(cls, ts, wids, slab_edges=None, ttl=0.65):
    # a one-node RandomScheduler: its picks are all 0, and slabs take
    # the bulk path
    cluster = cls(
        _boundary_profiles(), n_nodes=1, node_memory_mb=8192.0,
        keepalive=FixedKeepAlive(ttl), scheduler=RandomScheduler(seed=0),
    )
    if slab_edges is None:
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
    else:
        lo = 0
        for hi in list(slab_edges) + [len(wids)]:
            cluster.invoke_many(ts[lo:hi], wids[lo:hi])
            lo = hi
    records = cluster.drain()
    node = cluster.nodes[0]
    return records, cluster.clock_s, (
        node.used_memory_mb, node.busy_count, node.idle_count
    )


def test_chunk_edge_straddled_by_tail_completion():
    """A completion (and its later expiry) from chunk 1 lands *between*
    chunk 2's arrivals; the carry must fold it into chunk 2's event
    calendar at exactly the right position."""
    # arrival 0.0: start 0.25 (cold), end 0.375, expiry 1.025
    ts = np.array([0.0, 0.5, 0.625, 1.5])
    wids = ["w0"] * 4
    ref = _run_boundary(ObjectFaaSCluster, ts, wids)
    for edges in ([1], [2], [3], [1, 2], [1, 3], [1, 2, 3]):
        assert _run_boundary(FaaSCluster, ts, wids, edges) == ref, edges


def test_expiry_exactly_on_slab_last_arrival():
    """An expiry whose time equals a slab's last arrival must fire
    *before* that arrival (heap pops events <= t), forcing a cold start
    -- in every chunking."""
    # arrival 0.0: end 0.375, expiry at 0.375 + 0.65 = 1.025 == arrival 3
    ts = np.array([0.0, 1.025, 2.0])
    wids = ["w0"] * 3
    ref_records, ref_clock, ref_node = _run_boundary(
        ObjectFaaSCluster, ts, wids
    )
    # the arrival at the expiry instant must indeed have gone cold
    assert [r.cold for r in ref_records] == [True, True, False]
    for edges in ([1], [2], [1, 2]):
        got = _run_boundary(FaaSCluster, ts, wids, edges)
        assert got == (ref_records, ref_clock, ref_node), edges


def test_completion_exactly_on_slab_last_arrival_is_warm():
    """The mirror case: a completion landing exactly on the slab's last
    arrival is processed first, so that arrival reuses the sandbox."""
    # arrival 0.0: end at 0.375 == second arrival -> warm reuse
    ts = np.array([0.0, 0.375, 0.5])
    wids = ["w0"] * 3
    ref_records, ref_clock, ref_node = _run_boundary(
        ObjectFaaSCluster, ts, wids
    )
    assert [r.cold for r in ref_records] == [True, False, False]
    for edges in ([1], [2], [1, 2]):
        got = _run_boundary(FaaSCluster, ts, wids, edges)
        assert got == (ref_records, ref_clock, ref_node), edges


def test_deep_pools_stay_on_the_bulk_path():
    """One pool holding three sandboxes at once -- live inside a slab,
    or carried across a chunk edge -- must stay vectorised, and a warm
    reuse must take the latest-idled of them (LIFO)."""
    # three overlapping cold starts end at 0.375 / 0.4375 / 0.5; the
    # arrival at 1.0 must reuse the one idled at 0.5 (its expiry moves
    # to 3.125), so at 2.484375 that sandbox is busy, the other two
    # expired, and the arrival goes cold.  Reusing any other sandbox
    # would leave the 0.5 one live (expiry 2.5) and make it warm.
    ts = np.array([0.0, 0.0625, 0.125, 1.0, 2.46875, 2.484375])
    wids = ["w0"] * 6
    ttl = 2.0

    def build(cls):
        return cls(
            _boundary_profiles(), n_nodes=1, node_memory_mb=8192.0,
            keepalive=FixedKeepAlive(ttl), scheduler=RandomScheduler(seed=0),
        )

    def state(cluster):
        node = cluster.nodes[0]
        tail = getattr(cluster, "_tail", None)
        carried_idle = 0 if tail is None else int(tail.idle_from.size)
        return (
            cluster.records, cluster.clock_s,
            (node.used_memory_mb, node.busy_count,
             node.idle_count + carried_idle),
        )

    # edges: one slab; 3 busy rows carried; 1 busy + 2 idle carried
    for edges in ([], [3], [4], [3, 4]):
        ref, vec = build(ObjectFaaSCluster), build(FaaSCluster)
        lo = 0
        for hi in list(edges) + [len(wids)]:
            for t, w in zip(ts[lo:hi].tolist(), wids[lo:hi]):
                ref.invoke(t, w)
            vec.invoke_many(ts[lo:hi], wids[lo:hi])
            assert vec._tail is not None and not vec._heap, (
                f"bulk path did not engage for slab [{lo}:{hi}]"
            )
            if hi in (3, 4):
                carried = vec._tail.ends.size + vec._tail.idle_from.size
                assert carried >= 3, "chunk edge must carry a deep pool"
            assert state(vec) == state(ref), (edges, hi)
            lo = hi
        assert [r.cold for r in ref.records] == [
            True, True, True, False, False, True
        ]
        assert vec.drain() == ref.drain()
        assert state(vec) == state(ref), edges


def test_iter_trace_slabs_validation_and_coverage():
    ts = np.arange(10, dtype=np.float64)
    wids = [f"w{i}" for i in range(10)]
    slabs = list(iter_trace_slabs(ts, wids, chunk_rows=4))
    assert [len(w) for _, w in slabs] == [4, 4, 2]
    assert np.concatenate([t for t, _ in slabs]).tolist() == ts.tolist()
    assert [w for _, ws in slabs for w in ws] == wids
    with pytest.raises(ValueError, match="positive"):
        list(iter_trace_slabs(ts, wids, chunk_rows=0))
    with pytest.raises(ValueError, match="workload ids"):
        list(iter_trace_slabs(ts, wids[:5]))
    with pytest.raises(ValueError, match="one-dimensional"):
        list(iter_trace_slabs(np.zeros((2, 5)), wids))


# ---------------------------------------------------------------------------
# columnar access and metrics parity
# ---------------------------------------------------------------------------
def test_drain_columns_and_summaries_match_object_engine():
    ts, wids = make_load(2)
    make_kwargs = lambda: dict(  # noqa: E731
        n_nodes=3,
        node_memory_mb=8192.0,
        keepalive=NoKeepAlive(),
        scheduler=RandomScheduler(seed=1),
    )
    ref = ObjectFaaSCluster(make_profiles(), **make_kwargs())
    for t, w in zip(ts.tolist(), wids):
        ref.invoke(t, w)
    ref_records = ref.drain()

    vec = FaaSCluster(make_profiles(), **make_kwargs())
    vec.invoke_many(ts, wids)
    cols = vec.drain_columns()

    assert cols.to_records() == ref_records
    assert cols.workload_ids() == [r.workload_id for r in ref_records]
    assert summarize_columns(cols) == summarize(ref_records)
    assert len(cols) == len(ref_records)


def test_records_property_is_stable_and_lazy():
    ts, wids = make_load(0, n=40)
    cluster = FaaSCluster(make_profiles(), keepalive=NoKeepAlive())
    first = cluster.records
    seen = []

    def read():
        records = cluster.records
        assert records is first  # decorators rely on the identity
        # new rows are appended; earlier objects are kept, not rebuilt
        assert len(records) >= len(seen)
        assert all(a is b for a, b in zip(records, seen))
        assert records == cluster.record_columns().to_records()
        seen[:] = records

    # reads interleaved with batched and scalar submission
    cluster.invoke_many(ts[:10], wids[:10])
    read()
    read()
    cluster.invoke_many(ts[10:20], wids[10:20])
    read()
    for t, w in zip(ts[20:30].tolist(), wids[20:30]):
        cluster.invoke(t, w)
    read()
    cluster.invoke_many(ts[30:], wids[30:])
    read()
    assert cluster.drain() is first  # same list, now fully materialised
    read()
    assert len(first) == 40
    # both materialisers hand out exactly the record's field types
    for r in first + cluster.record_columns().to_records():
        assert type(r.workload_id) is str
        assert type(r.node) is int
        assert type(r.arrival_s) is float
        assert type(r.start_s) is float
        assert type(r.end_s) is float
        assert type(r.cold) is bool
        assert type(r.ok) is bool
        assert type(r.preemptions) is int


# ---------------------------------------------------------------------------
# RecordList (lazy record view) and RecordColumns.concat
# ---------------------------------------------------------------------------
COLUMN_FIELDS = ("workload_codes", "node", "arrival_s", "start_s", "end_s",
                 "cold", "ok", "preemptions")


def assert_same_columns(got, want):
    assert got.vocabulary == want.vocabulary
    for name in COLUMN_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def drained_columns(seed, n=120):
    ts, wids = make_load(seed, n=n)
    cluster = FaaSCluster(make_profiles(), keepalive=FixedKeepAlive(1.5))
    cluster.invoke_many(ts, wids)
    return cluster.drain_columns()


def test_record_list_materialises_once_on_first_read():
    columns = drained_columns(0)
    n = len(columns)
    with use(MetricsRegistry()) as reg:
        built = reg.counter("platform_records_materialised_total")
        records = RecordList(columns)
        assert len(records) == n and records
        assert built.value == 0  # len reads the columns
        first = records[0]
        assert built.value == n  # the first index builds every row
        rows = list(records)
        assert rows[0] is first
        assert all(a is b for a, b in zip(records, rows))
        assert records[-1] is rows[-1]
        assert built.value == n  # later reads reuse the same objects
    assert records == columns.to_records()
    assert columns.to_records() == records
    assert records == RecordList(columns)
    assert records != columns.to_records()[:-1]
    assert records != "not records"


def test_record_list_pickles_only_its_columns():
    columns = drained_columns(1)
    records = RecordList(columns)
    list(records)  # a materialised view still ships only columns
    payload = pickle.dumps(records)
    assert b"InvocationRecord" not in payload
    back = pickle.loads(payload)
    assert isinstance(back, RecordList)
    assert back == records
    assert_same_columns(back.columns, columns)


def test_record_columns_concat_equals_from_records():
    rows = drained_columns(0).to_records()
    low = [r for r in rows if r.workload_id in ("w0", "w1", "w2")]
    high = [r for r in rows if r.workload_id not in ("w0", "w1", "w2")]
    other = drained_columns(2).to_records()  # overlaps both
    for chunks in ([low, high], [high, [], low, other], [other, low],
                   [[], []], [low]):
        parts = [RecordColumns.from_records(c) for c in chunks]
        merged = RecordColumns.concat(parts)
        assert_same_columns(
            merged, RecordColumns.from_records(sum(chunks, []))
        )
        assert merged.to_records() == sum(chunks, [])
    assert_same_columns(RecordColumns.concat([]),
                        RecordColumns.from_records([]))


def test_record_columns_concat_of_drained_stores():
    parts = [drained_columns(seed) for seed in SEEDS]
    merged = RecordColumns.concat(parts)
    assert merged.to_records() == sum((p.to_records() for p in parts), [])
    vocab = dict.fromkeys(w for p in parts for w in p.vocabulary)
    assert merged.vocabulary == tuple(vocab)
    assert summarize_columns(merged) == summarize(merged.to_records())


def test_from_records_defaults_ok_and_preemptions():
    class Bare:
        """A record without the optional ``ok``/``preemptions`` fields."""

        def __init__(self, rec):
            for name in ("workload_id", "node", "arrival_s", "start_s",
                         "end_s", "cold"):
                setattr(self, name, getattr(rec, name))

    rows = drained_columns(0).to_records()
    bare = RecordColumns.from_records(Bare(r) for r in rows)
    assert bare.ok.all() and not bare.preemptions.any()
    assert bare.to_records() == rows


# ---------------------------------------------------------------------------
# expiry/crash double-reclaim regression (ISSUE 7 satellite)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_expiry_after_crash_never_double_reclaims(cls):
    """A sandbox that crashes must not be reclaimed again by its queued
    expiry event.

    Scenario: warm sandbox sits idle with an expiry queued, gets reused,
    then crashes mid-run.  The crash frees its memory; the stale expiry
    event still pops later and -- without the generation counter -- would
    free the same memory twice, driving ``used_memory_mb`` negative and
    letting the node over-admit.
    """

    class CrashSecond:
        """Crash exactly the second invocation, mid-service."""

        def __init__(self):
            self.calls = 0

        def crash_fraction(self, now_s, node_id, workload_id):
            self.calls += 1
            return 0.5 if self.calls == 2 else None

    profiles = {"w": WorkloadProfile("w", runtime_ms=100.0, memory_mb=256.0)}
    cluster = cls(
        profiles,
        n_nodes=1,
        node_memory_mb=512.0,
        keepalive=FixedKeepAlive(5.0),
        fault_hook=CrashSecond(),
    )
    cluster.invoke(0.0, "w")   # cold; finishes ~0.455, expiry queued @ ~5.455
    cluster.invoke(1.0, "w")   # warm reuse; crashes at half service
    records = cluster.drain()  # stale expiry event pops during drain
    node = cluster.nodes[0]
    assert node.used_memory_mb == 0.0
    assert node.busy_count == 0
    assert node.idle_count == 0
    assert [r.ok for r in records] == [True, False]


@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_eviction_cancels_queued_expiry(cls):
    """An evicted sandbox's queued expiry must be a no-op, not a second
    reclaim of memory that a new tenant now owns."""
    profiles = {
        "big": WorkloadProfile("big", runtime_ms=50.0, memory_mb=400.0),
        "small": WorkloadProfile("small", runtime_ms=4000.0, memory_mb=200.0),
    }
    cluster = cls(
        profiles,
        n_nodes=1,
        node_memory_mb=512.0,
        keepalive=FixedKeepAlive(2.0),
    )
    cluster.invoke(0.0, "big")    # idle ~0.52s, expiry queued @ ~2.52
    cluster.invoke(1.0, "small")  # evicts big to fit; runs past the expiry
    # drain pops big's stale expiry (must be a generation-guarded no-op:
    # a second remove_idle would raise or double-free 400 MiB) and then
    # small's own expiry, leaving the node exactly empty
    records = cluster.drain()
    node = cluster.nodes[0]
    assert len(records) == 2
    assert node.busy_count == 0
    assert node.used_memory_mb == 0.0
    assert node.idle_count == 0


# ----------------------------------------------------------------------
# scalar/bulk parity for the backend decorators (PAR001 registrations)
# ----------------------------------------------------------------------
class _RecordingInner:
    """Minimal inner backend: records the exact call stream it receives."""

    def __init__(self):
        self.calls = []

    def invoke(self, timestamp_s, workload_id):
        self.calls.append((float(timestamp_s), str(workload_id)))

    def drain(self):
        return []


def _faulty_load(n=80, seed=5):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, 30.0, n))
    wids = [f"w{int(i)}" for i in rng.integers(0, 4, n)]
    return ts, wids


@pytest.mark.parametrize("mode", ["scalar", "bulk", "chunked"])
def test_faulty_backend_bulk_matches_scalar_draw_stream(mode):
    """FaultyBackend parity: scalar, bulk, and chunked submission must
    consume the identical fault-draw stream -- same injected counts,
    same inner call sequence, same terminal RNG state."""
    from repro.platform import FaultProfile, FaultyBackend

    profile = FaultProfile(seed=11, latency_spike_rate=0.3,
                           latency_spike_ms=250.0)
    ts, wids = _faulty_load()

    def run(submission):
        inner = _RecordingInner()
        fb = FaultyBackend(inner, profile)
        if submission == "scalar":
            for t, w in zip(ts.tolist(), wids):
                fb.invoke(t, w)
        elif submission == "bulk":
            fb.invoke_many(ts, wids)
        else:
            third = len(wids) // 3
            fb.invoke_chunked([
                (ts[:third], wids[:third]),
                (ts[third:], wids[third:]),
            ])
        return inner.calls, dict(fb.injected), fb._rng.bit_generator.state

    ref_calls, ref_injected, ref_state = run("scalar")
    got_calls, got_injected, got_state = run(mode)
    assert got_calls == ref_calls
    assert got_injected == ref_injected
    assert got_injected["spike"] > 0  # the gauntlet actually drew faults
    assert got_state == ref_state


def test_faulty_backend_bulk_raises_at_the_same_request():
    """An injected error aborts bulk submission at exactly the request
    where the scalar loop would have raised, with the same fault type."""
    from repro.platform import FaultProfile, FaultyBackend
    from repro.platform.faults import InvocationFault

    profile = FaultProfile(seed=3, error_rate=0.05)
    ts, wids = _faulty_load()

    scalar_inner = _RecordingInner()
    fb = FaultyBackend(scalar_inner, profile)
    scalar_exc = None
    for t, w in zip(ts.tolist(), wids):
        try:
            fb.invoke(t, w)
        except InvocationFault as exc:
            scalar_exc = exc
            break
    assert scalar_exc is not None

    bulk_inner = _RecordingInner()
    fb = FaultyBackend(bulk_inner, profile)
    with pytest.raises(InvocationFault) as excinfo:
        fb.invoke_many(ts, wids)
    assert str(excinfo.value) == str(scalar_exc)
    assert bulk_inner.calls == scalar_inner.calls


# ---------------------------------------------------------------------------
# CPU-contention model (ISSUE 10): cpu-policy x keep-alive (incl. hybrid
# histogram) x scheduler x submission mode, all byte-identical
# ---------------------------------------------------------------------------
CPU_POLICIES = {
    "fifo": FifoCpu,
    "fair": lambda: FairShareCpu(
        weights={f"w{i}": float(1 + i % 3) for i in range(6)}
    ),
    "stf": ShortestFirstCpu,
}

CPU_KEEPALIVES = dict(
    KEEPALIVES,
    hybrid=lambda: HybridHistogramKeepAlive(
        bin_width_s=0.25, n_bins=16, default_ttl_s=1.5, min_observations=4
    ),
)

CPU_MODES = ["scalar", "bulk", "chunked-19"]


def make_cpu_kwargs(pol, ka, sched, *, cores=2, quantum=0.02, **extra):
    def build():
        kwargs = dict(
            n_nodes=3,
            node_memory_mb=2048.0,
            keepalive=CPU_KEEPALIVES[ka](),
            scheduler=SCHEDULERS[sched](),
            cpu=CpuModel(cores=cores, quantum_s=quantum,
                         policy=CPU_POLICIES[pol]()),
        )
        kwargs.update(extra)
        return kwargs

    return build


@pytest.mark.parametrize("mode", CPU_MODES)
@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
@pytest.mark.parametrize("ka", sorted(CPU_KEEPALIVES))
@pytest.mark.parametrize("pol", sorted(CPU_POLICIES))
def test_cpu_equivalence_matrix(pol, ka, sched, mode):
    """The full contention matrix: every CPU policy under every
    keep-alive (the hybrid histogram included) and scheduler, fed
    scalar, bulk, and chunked, against the object-engine oracle."""
    ts, wids = make_load(3, n=200, horizon_s=8.0)
    ref, _ = assert_equivalent(
        ts, wids, make_cpu_kwargs(pol, ka, sched), mode=mode,
    )
    # the load is dense enough that contention genuinely occurred
    assert sum(r.preemptions for r in ref["records"]) > 0


@pytest.mark.parametrize("mode", CPU_MODES)
@pytest.mark.parametrize("pol", sorted(CPU_POLICIES))
def test_cpu_zero_core_headroom(pol, mode):
    """Zero headroom: a single one-core node hit by equal-timestamp
    bursts, so every overlapping request contends.  The engines must
    agree bit-for-bit on the dilated completion cascade."""
    rng = np.random.default_rng(17)
    ts = np.sort(np.round(rng.uniform(0.0, 4.0, 120), 1))  # dense ties
    wids = [f"w{int(i)}" for i in rng.integers(0, 6, 120)]
    ref, _ = assert_equivalent(
        ts, wids,
        make_cpu_kwargs(pol, "none", "least-loaded",
                        cores=1, n_nodes=1, node_memory_mb=8192.0),
        mode=mode,
    )
    by_end = sorted(r.end_s for r in ref["records"])
    assert by_end == [r for r in by_end]  # drained completely
    assert sum(r.preemptions for r in ref["records"]) > 0


@pytest.mark.parametrize("mode", CPU_MODES)
def test_cpu_service_jitter_stream_parity(mode):
    """Service-time jitter draws one RNG stream; under the CPU model
    every submission path must consume it in exactly the scalar order.
    Without the CPU model this slab (zero TTL, a batch scheduler, roomy
    nodes) would take the bulk path; with it the slab stays scalar."""
    ts, wids = make_load(5, n=150, horizon_s=6.0)
    make_kwargs = make_cpu_kwargs("fifo", "none", "random",
                                  node_memory_mb=8192.0,
                                  service_time_cv=0.6, seed=23)
    assert_equivalent(ts, wids, make_kwargs, mode=mode)
    probe = FaaSCluster(make_profiles(), **make_kwargs())
    probe.invoke_many(ts, wids)
    assert probe._tail is None and probe._heap


@pytest.mark.parametrize("mode", ["scalar", "bulk", "chunked-2"])
def test_cpu_preemption_at_keepalive_expiry_reclaims_once(mode):
    """ISSUE 10 satellite: a request preempted mid-timeslice while an
    idle sandbox on the same node hits keep-alive expiry at the very
    same instant.  The expiry must reclaim memory exactly once, never
    touch the CPU weight (the sandbox was idle, not busy), and the
    arrival landing exactly on the expiry timestamp must go cold --
    identically on both engines, every submission path.

    Hand-built timeline (cold cost = 0.150 + 0.0008 * mem):
      t=0.00  w0 (mem 256, cold 0.3548) -> runs 0.3548..0.4548, idles,
              expiry queued at 0.9548
      t=0.50  w1 (runtime 600ms)        -> cold, alone: no dilation
      t=0.60  w2 (runtime 400ms)        -> concurrent=2 > cores=1:
              dilated, preempted mid-timeslice, still in flight at the
              expiry instant
      t=0.9548  w0 again, exactly at the queued expiry: the expiry event
              pops first (memory reclaimed once), so this arrival is
              cold and contends with both in-flight requests
    """
    profiles = {
        "w0": WorkloadProfile("w0", runtime_ms=100.0, memory_mb=256.0),
        "w1": WorkloadProfile("w1", runtime_ms=600.0, memory_mb=128.0),
        "w2": WorkloadProfile("w2", runtime_ms=400.0, memory_mb=128.0),
    }
    ts = np.array([0.0, 0.5, 0.6, 0.9548])
    wids = ["w0", "w1", "w2", "w0"]

    def build(cls):
        return cls(
            profiles,
            n_nodes=1,
            node_memory_mb=4096.0,
            keepalive=FixedKeepAlive(0.5),
            cpu=CpuModel(cores=1, quantum_s=0.02, policy=FifoCpu()),
            track_memory=True,
        )

    ref = build(ObjectFaaSCluster)
    for t, w in zip(ts.tolist(), wids):
        ref.invoke(t, w)
    ref_records = ref.drain()

    vec = build(FaaSCluster)
    submit(vec, ts, wids, mode)
    vec_records = vec.drain()

    assert vec_records == ref_records
    assert vec.memory_samples == ref.memory_samples
    assert vec.clock_s == ref.clock_s
    assert [(n.used_memory_mb, n.busy_count, n.cpu_weight)
            for n in vec.nodes] == \
        [(n.used_memory_mb, n.busy_count, n.cpu_weight)
         for n in ref.nodes]

    # the scenario really happened as designed
    assert ref_records[2].workload_id == "w2"
    assert ref_records[2].preemptions > 0          # preempted mid-slice
    assert ref_records[3].workload_id == "w0"
    assert ref_records[3].cold                     # expiry fired first
    assert ref_records[3].preemptions > 0          # and it contended
    # exactly-once reclaim: every sample is a plausible running total
    # (a double reclaim would drive the w0 slot negative)
    assert min(s[2] for s in ref.memory_samples) >= 0.0
    reclaim_at_expiry = [
        s for s in ref.memory_samples if s[0] == pytest.approx(0.9548)
    ]
    assert len(reclaim_at_expiry) > 0


@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
def test_cpu_weight_returns_to_zero_after_drain(cls):
    """Work conservation at the ledger level: once everything drains,
    every node's run-queue weight folds back to exactly 0.0."""
    ts, wids = make_load(9, n=180, horizon_s=6.0)
    cluster = cls(
        make_profiles(),
        n_nodes=2,
        node_memory_mb=2048.0,
        keepalive=FixedKeepAlive(0.3),
        cpu=CpuModel(cores=2, quantum_s=0.02, policy=FairShareCpu(
            weights={f"w{i}": float(1 + i % 3) for i in range(6)}
        )),
    )
    for t, w in zip(ts.tolist(), wids):
        cluster.invoke(t, w)
    cluster.drain()
    for node in cluster.nodes:
        assert node.cpu_weight == 0.0
        assert node.busy_count == 0


def test_cpu_contended_trace_event_matches_engines():
    """The ``invocation_contended`` lifecycle event fires identically on
    both engines (tracers force the scalar path on the array engine)."""
    ts, wids = make_load(2, n=120, horizon_s=4.0)

    def run(cls):
        tracer = PlatformTracer()
        cluster = cls(
            make_profiles(),
            n_nodes=2,
            node_memory_mb=2048.0,
            keepalive=NoKeepAlive(),
            cpu=CpuModel(cores=1, quantum_s=0.02, policy=FifoCpu()),
            tracer=tracer,
        )
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
        cluster.drain()
        return tracer.events

    ref, vec = run(ObjectFaaSCluster), run(FaaSCluster)
    assert vec == ref
    assert any(e.kind == "invocation_contended" for e in ref)


# ---------------------------------------------------------------------------
# the resident loop: LRU index, restart after an error, lifetime
# ---------------------------------------------------------------------------
def _linear_lru(node):
    """The LRU rule as a full scan: the strictly smallest ``idle_since``
    over every idle stack, in workload-key order, each bottom to top, so
    ties go to the first sandbox scanned."""
    best = None
    for stack in node.idle.values():
        for sandbox in stack:
            if best is None or sandbox.idle_since < best.idle_since:
                best = sandbox
    return best


def _check_lru_index(node, victim):
    """The index holds exactly the idle sandboxes, in idle-time order,
    and ``victim`` (its pick) is the scan's; returns whether the head
    was tied."""
    idle = [sb for stack in node.idle.values() for sb in stack]
    index = list(node.idle_lru)
    assert len(index) == len(idle) == node.idle_count
    assert set(map(id, index)) == set(map(id, idle))
    times = [sb.idle_since for sb in index]
    assert times == sorted(times)
    assert victim is _linear_lru(node)
    return len(times) > 1 and times[0] == times[1]


def test_lru_victim_matches_linear_scan():
    """Random push / reuse / evict / expire / retire sequences on one
    node, pushes often at an unchanged clock (equal ``idle_since``), and
    bulk-carry style batches pushed in stack order then re-sorted: the
    index's victim is always the full scan's."""
    words = ["a", "b", "c", "d"]
    ops = ["push", "push", "push", "reuse", "evict", "expire", "carry",
           "retire"]
    tied = tie_not_head = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        node = Node(0, 1e9)
        ids = itertools.count()
        clock = 0.0
        for _ in range(150):
            op = ops[int(rng.integers(len(ops)))]
            if op == "carry" and not node.idle_lru:
                # a materialised carry: stacks in creation order, each in
                # append order, with idle times not in push order
                for word in rng.permutation(words)[:3].tolist():
                    ages = np.sort(rng.choice([0.0, 0.5, 1.0], 3))[::-1]
                    for age in ages.tolist():
                        node.push_idle(_Sandbox(next(ids), word, 1.0,
                                                idle_since=clock - age))
                node.sort_lru()
            elif op in ("push", "carry"):
                clock += float(rng.choice([0.0, 0.0, 0.5]))
                word = words[int(rng.integers(len(words)))]
                node.push_idle(_Sandbox(next(ids), word, 1.0,
                                        idle_since=clock))
            elif op == "reuse" and node.idle:
                word = list(node.idle)[int(rng.integers(len(node.idle)))]
                top = node.idle[word][-1]
                assert node.pop_idle(word) is top
            elif op == "evict":
                victim = node.lru_idle()
                if victim is not None:
                    head = next(iter(node.idle_lru))
                    tie_not_head += victim is not head
                    node.remove_idle(victim)
            elif op == "expire" and node.idle_lru:
                index = list(node.idle_lru)
                node.remove_idle(index[int(rng.integers(len(index)))])
            elif op == "retire":
                for stack in list(node.idle.values()):
                    for sandbox in list(stack):
                        node.remove_idle(sandbox)
            tied += _check_lru_index(node, node.lru_idle())
        assert node.pop_idle("not-idle") is None
    # the tie rule must actually have been exercised, including ties
    # whose winner is not the index's head
    assert tied > 0 and tie_not_head > 0


def _tie_profiles():
    # 125 MiB: the default cold start is exactly 0.25 s; equal runtimes
    # make sandboxes of different workloads idle at equal times
    return {
        f"w{i}": WorkloadProfile(f"w{i}", runtime_ms=250.0, memory_mb=125.0)
        for i in range(8)
    }


@pytest.mark.parametrize("config", ["carry", "autoscale"])
def test_lru_index_inside_the_loop_matches_linear_scan(config, monkeypatch):
    """Every eviction the loop makes picks the full scan's victim, after
    a materialised bulk carry with tied idle times and under autoscaler
    retirement, and the run equals the reference engine's."""
    rng = np.random.default_rng(3)
    grid = 0.25  # every time below is an exact binary float
    head_ts = np.sort(rng.integers(0, 40, 12)) * grid
    # bursts of four simultaneous requests: their sandboxes idle together
    tail_ts = 12.0 + np.repeat(np.arange(100.0), 4) * grid
    words = list(_tie_profiles())
    head_w = [words[int(i)] for i in rng.integers(0, 4, head_ts.size)]
    tail_w = [words[int(i)] for i in rng.integers(0, 8, tail_ts.size)]
    checked = {"evictions": 0, "ties": 0}
    lru_idle = Node.lru_idle

    def checked_lru_idle(node):
        victim = lru_idle(node)
        checked["ties"] += _check_lru_index(node, victim)
        checked["evictions"] += 1
        return victim

    monkeypatch.setattr(Node, "lru_idle", checked_lru_idle)

    def build(cls):
        knobs = dict(n_nodes=1, node_memory_mb=125.0 * 6,
                     keepalive=FixedKeepAlive(30.0), queue_timeout_s=2.0)
        if config == "carry":
            # the first slab must leave a bulk carry
            knobs.update(scheduler=RandomScheduler(seed=0))
        if config == "autoscale":
            knobs.update(n_nodes=2, autoscaler=ReactiveAutoscaler(
                min_nodes=1, max_nodes=3, target_busy_per_node=2.0,
                evaluate_every_s=0.5, scale_down_grace_s=1.0,
            ))
        return cls(_tie_profiles(), **knobs)

    ref, vec = build(ObjectFaaSCluster), build(FaaSCluster)
    for t, w in zip(np.concatenate((head_ts, tail_ts)).tolist(),
                    head_w + tail_w):
        ref.invoke(t, w)
    vec.invoke_many(head_ts, head_w)
    if config == "carry":
        assert vec._tail is not None and vec._tail.idle_from.size > 0
    vec.invoke_many(tail_ts, tail_w)
    assert vec.drain() == ref.drain()
    assert vec.dropped == ref.dropped
    assert checked["evictions"] > 0 and checked["ties"] > 0


def _error_load():
    """Three slabs; the first holds an unknown id mid-slab, the second
    a timestamp behind the clock mid-slab."""
    k = _FLUSH_ROWS
    ts, wids = make_load(8, n=3 * k, horizon_s=300.0)
    wids[k // 2] = "not-a-workload"
    behind = k + k // 3
    ts[behind] = ts[behind - 1] - 1.0
    return [(ts[lo:lo + k], wids[lo:lo + k]) for lo in (0, k, 2 * k)]


@pytest.mark.parametrize("sched", ["least-loaded", "random"])
def test_loop_restarts_after_error_mid_slab_and_per_element(sched):
    """An error raised inside the resident loop -- in a slab, then again
    per element -- drops the loop; later submissions start a fresh one
    from the cluster's state, and the run equals the reference engine's,
    which takes every request one at a time."""
    first, second, third = _error_load()
    scheduler = {"least-loaded": LeastLoadedScheduler,
                 "random": lambda: RandomScheduler(seed=4)}[sched]

    def build(cls):
        return cls(make_profiles(), n_nodes=3, node_memory_mb=2048.0,
                   keepalive=FixedKeepAlive(2.0), scheduler=scheduler(),
                   service_time_cv=0.3, seed=2)

    def per_element(cluster, slab, stop_at_error):
        errors = []
        for t, w in zip(slab[0].tolist(), slab[1]):
            try:
                cluster.invoke(t, w)
            except (KeyError, ValueError) as exc:
                errors.append(type(exc))
                if stop_at_error:
                    break
        return errors

    ref = build(ObjectFaaSCluster)
    assert per_element(ref, first, True) == [KeyError]
    assert per_element(ref, second, False) == [ValueError]
    per_element(ref, third, False)

    vec = build(FaaSCluster)
    with pytest.raises(KeyError):
        vec.invoke_many(*first)
    assert vec._loop is None
    mid = vec.record_columns()  # buffered rows are flushed for a read
    assert len(mid) == vec._store.n and not vec._rows
    assert per_element(vec, second, False) == [ValueError]
    vec.invoke_many(*third)
    assert vec.drain() == ref.drain()
    assert vec.clock_s == ref.clock_s
    assert vec.dropped == ref.dropped
    assert [(n.used_memory_mb, n.busy_count, n.idle_count)
            for n in vec.nodes] == [
        (n.used_memory_mb, n.busy_count, n.idle_count) for n in ref.nodes]


@pytest.mark.parametrize("cls", [ObjectFaaSCluster, FaaSCluster])
@pytest.mark.parametrize("ending", ["drain", "error"])
def test_dead_cluster_is_freed_by_del_alone(cls, ending):
    """The resident loop references its cluster, so it must not outlive
    a drain (or an error that escaped it): with the cyclic collector
    off, dropping the last reference frees the cluster."""
    ts, wids = make_load(1, n=200)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cluster = cls(make_profiles(), n_nodes=2,
                      keepalive=FixedKeepAlive(1.0))
        for t, w in zip(ts.tolist(), wids):
            cluster.invoke(t, w)
        assert cluster._loop is not None
        if ending == "drain":
            cluster.drain()
        else:
            with pytest.raises(ValueError):
                cluster.invoke(0.0, wids[0])
        assert cluster._loop is None
        alive = weakref.ref(cluster)
        del cluster
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()
