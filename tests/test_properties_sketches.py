"""Property-based tests for the mergeable streaming sketches.

Runs under Hypothesis when it is installed; a seeded-parametrization
fallback exercises the same invariants otherwise, so the suite never
silently loses this coverage.

Properties pinned (per ISSUE 5):
- KLL rank error stays within the sketch's self-reported bound (and the
  sketch is *exact* while no compaction has occurred),
- merge is commutative/associative up to the combined error bounds, with
  exact totals (``n``) preserved byte-for-byte,
- estimates are invariant to how the input stream is chunked,
- SpaceSaving keeps every key whose true count exceeds ``n/capacity``
  (top-k superset guarantee) and brackets true counts from both sides.
"""

import numpy as np
import numpy.testing as npt
import pytest

from repro.stats.distance import ks_distance
from repro.stats.ecdf import EmpiricalCDF
from repro.stats.sketches import (
    KLLSketch,
    RateMatrixAccumulator,
    SpaceSavingCounter,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

# Seeded fallback cases: (seed, n_values) -- always run, so the
# invariants stay pinned even where hypothesis is missing.
FALLBACK_CASES = [
    (0, 1), (1, 17), (2, 64), (3, 257), (4, 1000), (5, 4096), (6, 9973),
]

SMALL_K = 64  # small capacity so moderate streams force compaction


def _random_values(seed, n):
    rng = np.random.default_rng(seed)
    # lognormal-ish positive durations with ties sprinkled in
    vals = rng.lognormal(mean=4.0, sigma=1.5, size=n)
    ties = rng.integers(0, max(n // 4, 1), size=n)
    vals[ties % 3 == 0] = np.round(vals[ties % 3 == 0])
    return vals


def _exact_ecdf(values):
    return EmpiricalCDF.from_samples(np.asarray(values, dtype=np.float64))


def check_rank_error_within_bound(values, k=SMALL_K):
    sketch = KLLSketch(k=k)
    sketch.insert_many(np.asarray(values, dtype=np.float64))
    assert sketch.n == len(values)
    bound = sketch.rank_error_bound
    assert 0.0 <= bound < 1.0
    ks = ks_distance(_exact_ecdf(values), sketch.to_ecdf())
    assert ks <= bound + 1e-9
    return sketch


def check_exact_below_capacity(values, k):
    """No compaction can occur while n <= k: the sketch IS the data."""
    assert len(values) <= k
    sketch = KLLSketch(k=k)
    sketch.insert_many(np.asarray(values, dtype=np.float64))
    assert sketch.rank_error_bound == 0.0
    exact = _exact_ecdf(values)
    got = sketch.to_ecdf()
    npt.assert_array_equal(got.support, exact.support)
    npt.assert_allclose(got.probs, exact.probs, rtol=0, atol=1e-15)


def check_merge_commutative_associative(values, split_a, split_b):
    chunks = [values[:split_a], values[split_a:split_b], values[split_b:]]
    sketches = []
    for chunk in chunks:
        s = KLLSketch(k=SMALL_K)
        s.insert_many(np.asarray(chunk, dtype=np.float64))
        sketches.append(s)
    a, b, c = sketches

    def fused(x, y, z):
        m = KLLSketch(k=SMALL_K)
        for part in (x, y, z):
            m.merge(part)
        return m

    left = fused(a, b, c)
    right = fused(c, b, a)
    # exact totals are order-independent byte-for-byte
    assert left.n == right.n == len(values)
    # every ordering individually honours its own error bound
    exact = _exact_ecdf(values)
    for m in (left, right):
        assert ks_distance(exact, m.to_ecdf()) <= m.rank_error_bound + 1e-9
    # and the two orderings agree within their combined bounds
    cross = ks_distance(left.to_ecdf(), right.to_ecdf())
    assert cross <= left.rank_error_bound + right.rank_error_bound + 1e-9


def check_chunk_invariance(values, chunk_sizes):
    exact = _exact_ecdf(values)
    whole = KLLSketch(k=SMALL_K)
    whole.insert_many(np.asarray(values, dtype=np.float64))
    for chunk_rows in chunk_sizes:
        merged = KLLSketch(k=SMALL_K)
        for lo in range(0, len(values), chunk_rows):
            part = KLLSketch(k=SMALL_K)
            part.insert_many(
                np.asarray(values[lo:lo + chunk_rows], dtype=np.float64))
            merged.merge(part)
        assert merged.n == whole.n
        assert (ks_distance(exact, merged.to_ecdf())
                <= merged.rank_error_bound + 1e-9)


def check_weighted_matches_repeated(values, weights):
    weighted = KLLSketch(k=SMALL_K)
    weighted.insert_many(np.asarray(values, dtype=np.float64),
                         np.asarray(weights, dtype=np.int64))
    assert weighted.n == int(np.sum(weights))
    exact = EmpiricalCDF.from_samples(
        np.asarray(values, dtype=np.float64),
        weights=np.asarray(weights, dtype=np.float64),
    )
    ks = ks_distance(exact, weighted.to_ecdf())
    assert ks <= weighted.rank_error_bound + 1e-9


def _random_keys(seed, n, n_distinct):
    rng = np.random.default_rng(seed)
    # Zipf-flavoured popularity so there are genuine heavy hitters
    ranks = rng.zipf(1.3, size=n) % max(n_distinct, 1)
    return [f"fn-{r}" for r in ranks]


def check_spacesaving_guarantees(keys, capacity):
    from collections import Counter

    truth = Counter(keys)
    counter = SpaceSavingCounter(capacity=capacity)
    for key in keys:
        counter.add(key)
    n = len(keys)
    assert counter.n == n
    assert counter.error_bound == pytest.approx(n / capacity)
    tracked = {key for key, _count in counter.top(capacity)}
    for key, true_count in truth.items():
        if true_count > n / capacity:
            # superset guarantee: every heavy hitter is tracked
            assert key in tracked, (key, true_count, n / capacity)
        if key in tracked:
            est = counter.estimate(key)
            assert true_count <= est <= true_count + counter.error_bound
            assert counter.guaranteed_count(key) <= true_count


def check_spacesaving_merge(keys, capacity, split):
    from collections import Counter

    merged = SpaceSavingCounter(capacity=capacity)
    right = SpaceSavingCounter(capacity=capacity)
    for key in keys[:split]:
        merged.add(key)
    for key in keys[split:]:
        right.add(key)
    merged.merge(right)
    n = len(keys)
    assert merged.n == n
    truth = Counter(keys)
    tracked = {key for key, _count in merged.top(capacity)}
    for key, true_count in truth.items():
        if true_count > merged.error_bound:
            assert key in tracked
        if key in tracked:
            assert merged.estimate(key) >= true_count


# --- always-on seeded parametrization -------------------------------------

@pytest.mark.parametrize("seed,n", FALLBACK_CASES)
def test_rank_error_within_bound(seed, n):
    check_rank_error_within_bound(_random_values(seed, n))


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 10), (2, 64)])
def test_exact_below_capacity(seed, n):
    check_exact_below_capacity(_random_values(seed, n), k=64)


@pytest.mark.parametrize("seed,n", [(3, 300), (4, 2000), (5, 5001)])
def test_merge_commutative_associative(seed, n):
    values = _random_values(seed, n)
    check_merge_commutative_associative(values, n // 3, 2 * n // 3)


@pytest.mark.parametrize("seed,n", [(6, 1500), (7, 4096)])
def test_chunk_invariance(seed, n):
    check_chunk_invariance(_random_values(seed, n), [7, 100, 1024])


@pytest.mark.parametrize("seed,n", [(8, 50), (9, 700)])
def test_weighted_matches_repeated(seed, n):
    rng = np.random.default_rng(seed + 1000)
    weights = rng.integers(1, 50, size=n)
    check_weighted_matches_repeated(_random_values(seed, n), weights)


def test_default_k_meets_acceptance_epsilon():
    """With the default capacity, 50k inserts stay within KS <= 0.01."""
    values = _random_values(42, 50_000)
    sketch = KLLSketch()  # default k
    sketch.insert_many(values)
    assert sketch.rank_error_bound <= 0.01
    assert ks_distance(_exact_ecdf(values), sketch.to_ecdf()) <= 0.01


def test_kll_space_is_bounded():
    sketch = KLLSketch(k=SMALL_K)
    sketch.insert_many(_random_values(0, 20_000))
    # capacity-k compactors over log2(n/k) levels: well under n
    assert sketch.size <= SMALL_K * 32


@pytest.mark.parametrize("seed,n,capacity", [
    (0, 100, 16), (1, 5000, 64), (2, 20000, 256),
])
def test_spacesaving_guarantees(seed, n, capacity):
    check_spacesaving_guarantees(
        _random_keys(seed, n, n_distinct=n), capacity)


@pytest.mark.parametrize("seed,n,capacity", [(3, 3000, 64), (4, 9000, 128)])
def test_spacesaving_merge(seed, n, capacity):
    check_spacesaving_merge(
        _random_keys(seed, n, n_distinct=n), capacity, n // 2)


def test_spacesaving_exact_below_capacity():
    counter = SpaceSavingCounter(capacity=8)
    counter.add_many(["a", "b", "a", "c", "a", "b"], [1, 1, 1, 1, 1, 1])
    assert counter.estimate("a") == 3
    assert counter.guaranteed_count("a") == 3
    assert counter.min_estimate == 0
    assert counter.top(2) == [("a", 3), ("b", 2)]


def test_rate_matrix_chunk_invariance():
    rng = np.random.default_rng(5)
    n, minutes = 400, 60
    per_minute = rng.integers(0, 30, size=(n, minutes)).astype(np.int64)
    durations = rng.lognormal(4.0, 1.0, size=n)
    whole = RateMatrixAccumulator(minutes)
    whole.observe_block(durations, per_minute)
    for chunk in (11, 128):
        acc = RateMatrixAccumulator(minutes)
        for lo in range(0, n, chunk):
            part = RateMatrixAccumulator(minutes)
            part.observe_block(durations[lo:lo + chunk],
                               per_minute[lo:lo + chunk])
            acc.merge(part)
        a, b = whole.finalize(), acc.finalize()
        npt.assert_array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()


def test_kll_point_queries_match_exact():
    values = _random_values(11, 60)  # below capacity: sketch is exact
    sketch = KLLSketch(k=64)
    sketch.insert_many(values)
    exact = _exact_ecdf(values)
    qs = np.array([np.min(values) - 1.0, np.median(values),
                   np.max(values), np.max(values) + 1.0])
    npt.assert_allclose(sketch.cdf(qs), exact(qs), atol=1e-12)
    probs = np.array([0.0, 0.25, 0.5, 0.9, 1.0])
    npt.assert_allclose(sketch.quantile(probs), exact.quantile(probs))
    assert float(sketch.cdf(np.min(values) - 1.0)) == 0.0


def test_kll_empty_sketch_behaviour():
    sketch = KLLSketch()
    assert sketch.n == 0
    assert sketch.rank_error_bound == 0.0
    with pytest.raises(ValueError, match="empty sketch"):
        sketch.to_ecdf()
    with pytest.raises(ValueError, match="empty sketch"):
        sketch.cdf(1.0)
    # insert_many with no values is a no-op
    sketch.insert_many(np.array([]))
    assert sketch.n == 0


def test_kll_insert_many_validation():
    sketch = KLLSketch()
    with pytest.raises(ValueError, match="weights must match"):
        sketch.insert_many(np.array([1.0, 2.0]), np.array([1]))
    with pytest.raises(ValueError, match="must be integers"):
        sketch.insert_many(np.array([1.0]), np.array([1.5]))


def test_spacesaving_edge_cases():
    counter = SpaceSavingCounter(capacity=4)
    counter.add("a", 0)  # zero-count observation is a no-op
    assert counter.n == 0
    with pytest.raises(ValueError, match="non-negative"):
        counter.add("a", -1)
    with pytest.raises(ValueError, match="counts must match"):
        counter.add_many(["a", "b"], [1])
    with pytest.raises(ValueError, match="different capacities"):
        counter.merge(SpaceSavingCounter(capacity=8))
    assert counter.estimate("missing") == 0
    assert counter.error("missing") == 0


def test_rate_matrix_validation():
    with pytest.raises(ValueError, match="n_minutes"):
        RateMatrixAccumulator(0)
    with pytest.raises(ValueError, match="quantize_ms"):
        RateMatrixAccumulator(60, quantize_ms=0.0)
    acc = RateMatrixAccumulator(4)
    with pytest.raises(ValueError, match="block must be"):
        acc.observe_block(np.array([1.0]), np.ones((1, 5), dtype=np.int64))
    with pytest.raises(ValueError, match="align"):
        acc.observe_block(np.array([1.0, 2.0]),
                          np.ones((1, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="integer"):
        acc.observe_block(np.array([1.0]), np.ones((1, 4)))
    with pytest.raises(ValueError, match="no invoked functions"):
        acc.finalize()


def test_rate_matrix_keeps_never_invoked_rows():
    """Zero rows count in ``sizes``; a group with no invoked member
    takes its members' plain mean duration."""
    acc = RateMatrixAccumulator(4)
    acc.observe_block(np.array([5.0, 6.0, 6.2, 5.3]),
                      np.array([[1, 0, 0, 2], [0, 0, 0, 0],
                                [0, 0, 0, 0], [0, 0, 0, 0]],
                               dtype=np.int64))
    keys, matrix, counts, durations, sizes = acc.finalize()
    assert keys.tolist() == [5, 6]
    assert matrix.tolist() == [[1, 0, 0, 2], [0, 0, 0, 0]]
    assert counts.tolist() == [3, 0]
    assert sizes.tolist() == [2, 2]
    assert durations.tolist() == [5.0, (6.0 + 6.2) / 2]
    assert acc.total_invocations == 3


def test_validation_errors():
    with pytest.raises(ValueError, match="k must be"):
        KLLSketch(k=3)
    with pytest.raises(ValueError, match="capacity"):
        SpaceSavingCounter(capacity=0)
    with pytest.raises(ValueError, match="weight"):
        KLLSketch().insert_weighted(1.0, -1)
    a, b = KLLSketch(k=64), KLLSketch(k=128)
    with pytest.raises(ValueError, match="different k"):
        a.merge(b)
    with pytest.raises(ValueError, match="different shapes"):
        RateMatrixAccumulator(60).merge(RateMatrixAccumulator(61))
    # zero-weight insertion is an explicit no-op, not an error
    s = KLLSketch()
    s.insert_weighted(1.0, 0)
    assert s.n == 0


# --- hypothesis (when available) ------------------------------------------

if HAVE_HYPOTHESIS:
    finite_values = st.lists(
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
                  allow_infinity=False),
        min_size=1, max_size=500,
    ).map(lambda xs: np.array(xs, dtype=np.float64))
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @settings(max_examples=40, deadline=None)
    @given(values=finite_values)
    def test_hypothesis_rank_error_within_bound(values):
        check_rank_error_within_bound(values, k=16)

    @settings(max_examples=40, deadline=None)
    @given(values=finite_values, data=st.data())
    def test_hypothesis_merge_commutative_associative(values, data):
        split_a = data.draw(st.integers(0, len(values)))
        split_b = data.draw(st.integers(split_a, len(values)))
        check_merge_commutative_associative(values, split_a, split_b)

    @settings(max_examples=30, deadline=None)
    @given(values=finite_values,
           chunk=st.integers(min_value=1, max_value=64))
    def test_hypothesis_chunk_invariance(values, chunk):
        check_chunk_invariance(values, [chunk])

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds,
           n=st.integers(min_value=1, max_value=2000),
           capacity=st.integers(min_value=4, max_value=128))
    def test_hypothesis_spacesaving_guarantees(seed, n, capacity):
        check_spacesaving_guarantees(
            _random_keys(seed, n, n_distinct=n), capacity)
