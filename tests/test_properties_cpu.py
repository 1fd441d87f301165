"""Property-based tests for the CPU-contention model (ISSUE 10).

Runs under Hypothesis when it is installed; a seeded-parametrization
fallback exercises the same invariants otherwise, so the suite never
silently loses this coverage.

Properties pinned:
- work conservation: with free cores (``concurrent <= cores``) no policy
  dilates or preempts -- and at the ledger level, busy cores are never
  idle while the run queue is nonempty (dilation only ever kicks in past
  the core count);
- no shrinkage: contention never makes an invocation finish earlier than
  its uncontended service time;
- fair-share weight monotonicity: raising a workload's own weight never
  increases its dilation (all else fixed);
- hybrid-histogram boundedness: per-workload state stays at
  ``n_bins + 2`` integers, and a representative histogram's TTL never
  exceeds ``n_bins * bin_width_s``.
"""

import numpy as np
import pytest

from repro.platform.cpu import (
    CPU_POLICIES,
    CpuModel,
    FairShareCpu,
    FifoCpu,
    ShortestFirstCpu,
    make_cpu_policy,
)
from repro.platform.keepalive import HybridHistogramKeepAlive

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

POLICIES = {
    "fifo": FifoCpu(),
    "fair": FairShareCpu(),
    "fair-weighted": FairShareCpu(weights={"w0": 3.0, "w1": 0.5}),
    "stf": ShortestFirstCpu(),
}

# Seeded fallback cases: (seed, cores, concurrent, service_s, quantum_s)
# -- always run, so the invariants stay pinned without hypothesis.
FALLBACK_CASES = [
    (0, 1, 1, 0.05, 0.02),
    (1, 1, 2, 0.05, 0.02),
    (2, 2, 2, 0.3, 0.02),
    (3, 2, 7, 0.3, 0.005),
    (4, 4, 3, 1.0, 0.1),
    (5, 4, 64, 2.5, 0.02),
    (6, 8, 9, 0.001, 0.02),
    (7, 1, 100, 10.0, 1.0),
]


def _contend(policy, service_s, *, cores, concurrent, quantum_s=0.02,
             weight=1.0, total_weight=None):
    if total_weight is None:
        total_weight = weight * concurrent
    return policy.contend(
        service_s,
        cores=cores,
        quantum_s=quantum_s,
        concurrent=concurrent,
        weight=weight,
        total_weight=total_weight,
    )


def check_work_conservation(policy, cores, concurrent, service_s,
                            quantum_s):
    """Free cores => verbatim service time and zero preemptions."""
    if concurrent <= cores:
        dilated, pre = _contend(policy, service_s, cores=cores,
                                concurrent=concurrent,
                                quantum_s=quantum_s)
        assert dilated == service_s
        assert pre == 0


def check_no_shrinkage(policy, cores, concurrent, service_s, quantum_s):
    dilated, pre = _contend(policy, service_s, cores=cores,
                            concurrent=concurrent, quantum_s=quantum_s)
    assert dilated >= service_s
    assert pre >= 0
    assert np.isfinite(dilated)


@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("case", FALLBACK_CASES,
                         ids=lambda c: f"seed{c[0]}")
def test_conservation_and_no_shrinkage_seeded(name, case):
    _, cores, concurrent, service_s, quantum_s = case
    policy = POLICIES[name]
    check_work_conservation(policy, cores, concurrent, service_s,
                            quantum_s)
    check_no_shrinkage(policy, cores, concurrent, service_s, quantum_s)


if HAVE_HYPOTHESIS:

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(POLICIES)),
        cores=st.integers(1, 64),
        concurrent=st.integers(1, 256),
        service_s=st.floats(1e-4, 100.0, allow_nan=False,
                            allow_infinity=False),
        quantum_s=st.floats(1e-3, 1.0, allow_nan=False,
                            allow_infinity=False),
    )
    def test_conservation_and_no_shrinkage_hypothesis(
        name, cores, concurrent, service_s, quantum_s
    ):
        policy = POLICIES[name]
        check_work_conservation(policy, cores, concurrent, service_s,
                                quantum_s)
        check_no_shrinkage(policy, cores, concurrent, service_s,
                           quantum_s)

    @settings(max_examples=100, deadline=None)
    @given(
        cores=st.integers(1, 8),
        concurrent=st.integers(2, 64),
        service_s=st.floats(1e-3, 10.0, allow_nan=False,
                            allow_infinity=False),
        w_lo=st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
        w_hi=st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
        others=st.floats(0.5, 50.0, allow_nan=False,
                         allow_infinity=False),
    )
    def test_fair_share_weight_monotonic_hypothesis(
        cores, concurrent, service_s, w_lo, w_hi, others
    ):
        check_fair_share_monotonic(cores, concurrent, service_s,
                                   w_lo, w_hi, others)


def check_fair_share_monotonic(cores, concurrent, service_s, w_lo, w_hi,
                               others):
    """A bigger own weight never dilates more, all else equal."""
    lo, hi = sorted((w_lo, w_hi))
    policy = FairShareCpu()
    d_lo, _ = _contend(policy, service_s, cores=cores,
                       concurrent=concurrent, weight=lo,
                       total_weight=others + lo)
    d_hi, _ = _contend(policy, service_s, cores=cores,
                       concurrent=concurrent, weight=hi,
                       total_weight=others + hi)
    assert d_hi <= d_lo + 1e-12


@pytest.mark.parametrize(
    "case", [(1, 4, 0.5, 1.0, 2.0, 3.0), (2, 2, 1.0, 0.1, 0.9, 10.0),
             (3, 8, 0.01, 2.0, 2.5, 1.0), (4, 3, 3.0, 0.5, 4.0, 20.0)],
    ids=lambda c: f"case{c[0]}",
)
def test_fair_share_weight_monotonic_seeded(case):
    _, cores, service_s, w_lo, w_hi, others = case
    check_fair_share_monotonic(cores, cores + 3, service_s, w_lo, w_hi,
                               others)


def test_fair_share_weight_lookup_and_validation():
    policy = FairShareCpu(weights={"w0": 3.0}, default_weight=0.5)
    assert policy.weight("w0") == 3.0
    assert policy.weight("unknown") == 0.5
    with pytest.raises(ValueError):
        FairShareCpu(default_weight=0.0)
    with pytest.raises(ValueError):
        FairShareCpu(weights={"w0": -1.0})


def test_cpu_model_validation():
    with pytest.raises(ValueError):
        CpuModel(cores=0)
    with pytest.raises(ValueError):
        CpuModel(cores=2, quantum_s=0.0)
    model = CpuModel(cores=2)
    assert isinstance(model.policy, FifoCpu)


def test_cpu_policy_registry():
    # the order is part of the contract: the fuzzer's seeded draws and
    # the shootout grid enumerate it
    assert tuple(CPU_POLICIES) == ("fifo", "fair", "stf")
    assert make_cpu_policy("fifo", 4) == FifoCpu()
    assert make_cpu_policy("stf", 4) == ShortestFirstCpu()
    assert make_cpu_policy("fair", 4) == FairShareCpu(
        weights={"w0": 1.0, "w1": 2.0, "w2": 3.0, "w3": 1.0}
    )
    with pytest.raises(KeyError):
        make_cpu_policy("round-robin", 4)


def test_stf_short_tasks_slip_through():
    """Tasks at or under one quantum finish uncontended under STF --
    the scx_serverless-style short-task fast path."""
    policy = ShortestFirstCpu()
    dilated, pre = _contend(policy, 0.02, cores=1, concurrent=10,
                            quantum_s=0.02)
    assert dilated == 0.02 and pre == 0
    dilated, pre = _contend(policy, 0.5, cores=1, concurrent=10,
                            quantum_s=0.02)
    assert dilated > 0.5 and pre > 0


# ---------------------------------------------------------------------------
# ledger-level work conservation: busy cores never idle while the run
# queue is nonempty (dilation only ever starts past the core count)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["fifo", "fair-weighted", "stf"])
def test_no_dilation_below_core_count_in_simulation(name, seed):
    from repro.platform import FaaSCluster, NoKeepAlive, WorkloadProfile

    profiles = {
        f"w{i}": WorkloadProfile(f"w{i}", runtime_ms=50.0 + 10 * i,
                                 memory_mb=128.0)
        for i in range(4)
    }
    rng = np.random.default_rng(seed)
    # sparse arrivals: inter-arrival >> service, so concurrency stays 1
    ts = np.cumsum(rng.uniform(0.5, 1.0, 60))
    wids = [f"w{int(i)}" for i in rng.integers(0, 4, 60)]
    cluster = FaaSCluster(
        profiles, n_nodes=2, node_memory_mb=4096.0,
        keepalive=NoKeepAlive(),
        cpu=CpuModel(cores=4, quantum_s=0.02, policy={
            "fifo": FifoCpu(),
            "fair-weighted": FairShareCpu(weights={"w0": 2.0}),
            "stf": ShortestFirstCpu(),
        }[name]),
    )
    for t, w in zip(ts.tolist(), wids):
        cluster.invoke(t, w)
    records = cluster.drain()
    for r in records:
        wid = r.workload_id
        assert r.end_s - r.start_s == pytest.approx(
            profiles[wid].runtime_ms / 1e3
        )
        assert r.preemptions == 0


# ---------------------------------------------------------------------------
# hybrid-histogram keep-alive boundedness
# ---------------------------------------------------------------------------
def _pool_ints(policy, workload_id):
    bins, oob, total = policy._hist[workload_id]
    return len(bins) + 2  # the bins plus the two counters


def check_hybrid_bounds(gaps, percentile, bin_width_s, n_bins):
    policy = HybridHistogramKeepAlive(
        percentile, bin_width_s=bin_width_s, n_bins=n_bins,
        default_ttl_s=123.0, min_observations=1, oob_threshold=1.0,
    )
    for gap in gaps:
        policy.observe_idle_gap("w", float(gap))
    # state is strictly bounded no matter how many gaps were observed
    assert _pool_ints(policy, "w") == n_bins + 2
    ttl = policy.ttl_s("w")
    bins, oob, total = policy._hist["w"]
    if total > oob:
        # representative histogram: the paper's window bound holds
        assert 0 < ttl <= n_bins * bin_width_s
    else:
        assert ttl == 123.0  # all out of bounds: conservative fallback


HYBRID_FALLBACK = [
    (0, 50, 95.0, 1.0, 16),
    (1, 500, 99.0, 0.5, 8),
    (2, 5, 50.0, 60.0, 240),
    (3, 2000, 90.0, 0.25, 4),
]


@pytest.mark.parametrize("case", HYBRID_FALLBACK,
                         ids=lambda c: f"seed{c[0]}")
def test_hybrid_histogram_bounds_seeded(case):
    seed, n, pct, width, n_bins = case
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(width * n_bins / 4.0, n)
    check_hybrid_bounds(gaps, pct, width, n_bins)


if HAVE_HYPOTHESIS:

    @settings(max_examples=100, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.0, 1e4, allow_nan=False,
                                allow_infinity=False),
                      min_size=1, max_size=300),
        percentile=st.floats(1.0, 100.0),
        bin_width_s=st.floats(0.1, 120.0),
        n_bins=st.integers(1, 300),
    )
    def test_hybrid_histogram_bounds_hypothesis(gaps, percentile,
                                                bin_width_s, n_bins):
        check_hybrid_bounds(gaps, percentile, bin_width_s, n_bins)


def test_hybrid_histogram_fallbacks():
    policy = HybridHistogramKeepAlive(
        99.0, bin_width_s=1.0, n_bins=10, default_ttl_s=600.0,
        min_observations=4, oob_threshold=0.5,
    )
    # unknown workload / too few observations -> default
    assert policy.ttl_s("w") == 600.0
    for gap in (0.5, 1.5, 2.5):
        policy.observe_idle_gap("w", gap)
    assert policy.ttl_s("w") == 600.0  # 3 < min_observations
    policy.observe_idle_gap("w", 3.5)
    # p99 of {0.5, 1.5, 2.5, 3.5} sits in bin 3 -> upper edge 4.0
    assert policy.ttl_s("w") == 4.0
    # negative gaps are ignored outright
    policy.observe_idle_gap("w", -1.0)
    assert policy._hist["w"][2] == 4
    # drown the histogram in out-of-bounds gaps -> fallback again
    for _ in range(10):
        policy.observe_idle_gap("w", 1e6)
    assert policy.ttl_s("w") == 600.0


def test_hybrid_histogram_validation():
    with pytest.raises(ValueError):
        HybridHistogramKeepAlive(0.0)
    with pytest.raises(ValueError):
        HybridHistogramKeepAlive(bin_width_s=0.0)
    with pytest.raises(ValueError):
        HybridHistogramKeepAlive(n_bins=0)
    with pytest.raises(ValueError):
        HybridHistogramKeepAlive(default_ttl_s=-1.0)
    with pytest.raises(ValueError):
        HybridHistogramKeepAlive(min_observations=0)
    with pytest.raises(ValueError):
        HybridHistogramKeepAlive(oob_threshold=1.5)
