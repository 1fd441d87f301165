"""Tests for trace-function aggregation (paper section 3.1.2, Figure 4)."""

import numpy as np
import pytest

from repro.core import aggregate_functions
from repro.traces import Trace, invocation_duration_cdf, synthetic_azure_trace


def trace_with(durations, per_minute):
    n = len(durations)
    return Trace(
        name="t",
        function_ids=np.array([f"f{i}" for i in range(n)]),
        app_ids=np.array(["a"] * n),
        durations_ms=np.array(durations, dtype=float),
        per_minute=np.asarray(per_minute, dtype=np.int64),
    )


class TestAggregation:
    def test_groups_same_quantized_duration(self):
        t = trace_with([100.2, 99.8, 250.0],
                       [[5, 0], [1, 1], [0, 3]])
        agg, audit = aggregate_functions(t, quantize_ms=1.0)
        assert agg.n_functions == 2
        assert audit.n_original == 3
        assert audit.n_aggregated == 2

    def test_per_minute_rows_summed(self):
        t = trace_with([100.0, 100.0], [[5, 2], [1, 1]])
        agg, _ = aggregate_functions(t)
        np.testing.assert_array_equal(agg.per_minute, [[6, 3]])

    def test_total_invocations_preserved(self):
        t = synthetic_azure_trace(n_functions=2000, seed=5)
        agg, _ = aggregate_functions(t)
        assert agg.total_invocations == t.total_invocations

    def test_weighted_duration_cdf_preserved(self):
        """Aggregation must not move the invocations' duration distribution."""
        t = synthetic_azure_trace(n_functions=2000, seed=6)
        agg, _ = aggregate_functions(t)
        before = invocation_duration_cdf(t)
        after = invocation_duration_cdf(agg)
        # weighted means agree to quantisation error
        assert after.mean() == pytest.approx(before.mean(), rel=0.01)

    def test_group_duration_is_invocation_weighted_mean(self):
        t = trace_with([100.4, 100.0], [[3, 0], [1, 0]])
        agg, _ = aggregate_functions(t)
        assert agg.durations_ms[0] == pytest.approx(
            (100.4 * 3 + 100.0 * 1) / 4
        )

    def test_reduces_function_count_substantially(self):
        t = synthetic_azure_trace(n_functions=5000, seed=7)
        agg, audit = aggregate_functions(t)
        # ~50K -> ~12.7K in the paper; proportionally fewer groups here
        assert agg.n_functions < t.n_functions
        assert audit.group_sizes.sum() == t.n_functions

    def test_popularity_changes_tiny(self):
        """Figure 4: the vast majority of popularity changes are ~0."""
        t = synthetic_azure_trace(n_functions=4000, seed=8)
        agg, audit = aggregate_functions(t)
        changes, probs = audit.popularity_change_series()
        assert changes.size == agg.n_functions
        # >=99% of super-Functions shift popularity by < 1 percentage point
        below = probs[np.searchsorted(changes, 0.01, side="right") - 1]
        assert below >= 0.99

    def test_quantize_knob(self):
        t = trace_with([100.2, 100.4], [[1, 0], [1, 0]])
        agg_coarse, _ = aggregate_functions(t, quantize_ms=1.0)
        assert agg_coarse.n_functions == 1
        agg_fine, _ = aggregate_functions(t, quantize_ms=0.1)
        assert agg_fine.n_functions == 2

    def test_rejects_bad_quantize(self):
        t = trace_with([1.0], [[1]])
        with pytest.raises(ValueError, match="quantize_ms"):
            aggregate_functions(t, quantize_ms=0.0)

    def test_rejects_empty_invocations(self):
        t = trace_with([1.0, 2.0], [[0], [0]])
        with pytest.raises(ValueError, match="no invocations"):
            aggregate_functions(t)

    def test_sub_quantum_durations_keep_positive_key(self):
        t = trace_with([0.2, 0.3], [[1], [1]])
        agg, _ = aggregate_functions(t, quantize_ms=1.0)
        assert agg.n_functions == 1
        assert agg.durations_ms[0] > 0


def _never_invoked_trace():
    """Ten functions, five never invoked: group 100 mixes invoked and
    never-invoked members, and group 200 (split across shards when
    ``shards=3``) has no invoked member at all."""
    per_minute = np.zeros((10, 4), dtype=np.int32)
    per_minute[0] = [3, 0, 1, 0]
    per_minute[4] = [0, 2, 0, 0]
    per_minute[5] = [1, 1, 1, 1]
    per_minute[7] = [5, 0, 0, 1]
    per_minute[9] = [0, 0, 0, 7]
    return Trace(
        name="pin",
        function_ids=np.array([f"f{i}" for i in range(10)]),
        app_ids=np.array(["a"] * 10),
        durations_ms=np.array([100.2, 99.9, 200.4, 199.8, 50.0, 100.0,
                               300.3, 50.2, 200.0, 300.0]),
        per_minute=per_minute,
    )


@pytest.mark.parametrize("kwargs", [{}, {"shards": 3}, {"jobs": 2}],
                         ids=["default", "shards3", "jobs2"])
def test_never_invoked_functions_pinned(kwargs):
    """Never-invoked functions count in ``group_sizes`` and keep their
    zero rows; a group without an invoked member takes its members'
    plain mean duration.  Every array is pinned exactly."""
    agg, audit = aggregate_functions(_never_invoked_trace(), **kwargs)
    assert agg.name == "pin/aggregated"
    assert agg.function_ids.tolist() == ["sf-50", "sf-100", "sf-200",
                                         "sf-300"]
    assert agg.app_ids.tolist() == ["sf-app-50", "sf-app-100",
                                    "sf-app-200", "sf-app-300"]
    assert agg.app_memory_mb == {}
    assert agg.durations_ms.tolist() == [50.150000000000006, 100.1,
                                         200.0666666666667, 300.0]
    assert agg.per_minute.dtype == np.int64
    assert agg.per_minute.tolist() == [[5, 2, 0, 1], [4, 1, 2, 1],
                                       [0, 0, 0, 0], [0, 0, 0, 7]]
    assert audit.original_keys.dtype == np.int64
    assert audit.original_keys.tolist() == [100, 100, 200, 200, 50, 100,
                                            300, 50, 200, 300]
    assert audit.original_shares.tolist() == [
        0.17391304347826086, 0.0, 0.0, 0.0, 0.08695652173913043,
        0.17391304347826086, 0.0, 0.2608695652173913, 0.0,
        0.30434782608695654,
    ]
    assert audit.aggregated_keys.dtype == np.int64
    assert audit.aggregated_keys.tolist() == [50, 100, 200, 300]
    assert audit.aggregated_shares.tolist() == [
        0.34782608695652173, 0.34782608695652173, 0.0,
        0.30434782608695654,
    ]
    assert audit.group_sizes.dtype == np.int64
    assert audit.group_sizes.tolist() == [2, 3, 3, 2]
