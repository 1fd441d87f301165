"""Differential equivalence: streaming ingestion vs the in-memory path.

The contract pinned here (ISSUE 5 acceptance):

- **Exact statistics are byte-identical** between the materialised and
  the streaming pipeline for every tested ``(chunk_rows, jobs)``
  combination: the aggregated super-Function rate matrix, per-group
  invocation (popularity) counts, group keys, and the final spec's
  scaled per-minute request matrix.
- **Sketched CDFs are within the sketch's own rank-error bound** of the
  exact :class:`~repro.stats.ecdf.EmpiricalCDF`, and within the
  configured default KS budget of 0.01.
- For a fixed ``chunk_rows``, ``jobs=N`` produces a **byte-identical
  summary** (same cache fingerprint) and a byte-identical spec.
"""

import numpy as np
import numpy.testing as npt
import pytest

from repro.cache import fingerprint
from repro.core import ShrinkRay, aggregate_functions
from repro.stats.distance import ks_distance
from repro.traces import (
    dump_azure_day,
    load_azure_day,
    stream_azure_day,
    summarize_trace,
    synthetic_azure_trace,
    synthetic_huawei_trace,
)
from repro.traces.ops import invocation_duration_cdf
from repro.workloads import build_default_pool

#: Acceptance default: sketched duration CDF within this KS distance of
#: the exact one (the sketch's own tracked bound is usually far tighter).
KS_BUDGET = 0.01

CHUNK_SIZES = [7, 64, 1000]
JOBS = [None, 2]

MAX_RPS = 8.0
DURATION_MIN = 20
SEED = 11


def _make_trace(source):
    if source == "azure":
        return synthetic_azure_trace(n_functions=500, seed=23)
    return synthetic_huawei_trace(seed=23)


@pytest.fixture(scope="module", params=["azure", "huawei"])
def source(request, tmp_path_factory):
    """(name, materialised trace, CSV directory, in-memory baseline)."""
    trace = _make_trace(request.param)
    directory = tmp_path_factory.mktemp(f"{request.param}-csv")
    dump_azure_day(trace, directory)
    loaded = load_azure_day(directory)
    pool = build_default_pool()
    spec = ShrinkRay().run(loaded, pool, max_rps=MAX_RPS,
                           duration_minutes=DURATION_MIN, seed=SEED)
    aggregated, _ = aggregate_functions(loaded.nonzero_functions())
    return {
        "name": request.param,
        "trace": loaded,
        "dir": directory,
        "pool": pool,
        "spec": spec,
        "aggregated": aggregated,
    }


@pytest.mark.parametrize("jobs", JOBS)
@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
def test_streaming_matches_inmemory(source, chunk_rows, jobs):
    summary = stream_azure_day(source["dir"], chunk_rows=chunk_rows,
                               jobs=jobs)
    agg = source["aggregated"]
    streamed = summary.to_aggregated_trace()

    # Exact statistics: byte-identical to the in-memory aggregation.
    npt.assert_array_equal(streamed.function_ids, agg.function_ids)
    assert streamed.per_minute.tobytes() == agg.per_minute.astype(
        np.int64).tobytes(), "aggregated rate matrix diverged"
    assert (streamed.invocations_per_function.tobytes()
            == agg.invocations_per_function.tobytes()), (
        "per-group popularity counts diverged")
    # Group durations agree up to float accumulation order.
    npt.assert_allclose(streamed.durations_ms, agg.durations_ms,
                        rtol=1e-12)

    # Full pipeline: the spec's scaled request matrix is byte-identical.
    spec = ShrinkRay(jobs=jobs).run(
        summary, source["pool"], max_rps=MAX_RPS,
        duration_minutes=DURATION_MIN, seed=SEED,
    )
    base = source["spec"]
    assert spec.per_minute.tobytes() == base.per_minute.tobytes()
    assert spec.total_requests == base.total_requests
    assert [e.function_id for e in spec.entries] == [
        e.function_id for e in base.entries
    ]
    assert spec.metadata["source_functions"] == \
        base.metadata["source_functions"]
    assert spec.metadata["source_invocations"] == \
        base.metadata["source_invocations"]

    # Sketched duration CDF: within the tracked rank-error bound of the
    # exact invocation-weighted CDF, and within the 0.01 acceptance
    # budget.
    exact = invocation_duration_cdf(source["trace"])
    ks = ks_distance(exact, summary.invocation_duration_cdf())
    assert ks <= summary.duration_rank_error + 1e-9
    assert ks <= KS_BUDGET


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
def test_jobs_fanout_is_byte_identical(source, chunk_rows):
    """For fixed chunking, worker count never changes a single byte."""
    sequential = stream_azure_day(source["dir"], chunk_rows=chunk_rows)
    fanned = stream_azure_day(source["dir"], chunk_rows=chunk_rows, jobs=3)
    assert fingerprint(sequential.fingerprint_parts()) == \
        fingerprint(fanned.fingerprint_parts())

    spec_seq = ShrinkRay().run(sequential, source["pool"], max_rps=MAX_RPS,
                               duration_minutes=DURATION_MIN, seed=SEED)
    spec_fan = ShrinkRay(jobs=3).run(fanned, source["pool"],
                                     max_rps=MAX_RPS,
                                     duration_minutes=DURATION_MIN,
                                     seed=SEED)
    assert spec_seq.to_dict() == spec_fan.to_dict()


def test_streaming_shrink_finalizes_once(source, monkeypatch):
    """The aggregation stage stacks the group rate matrix once per
    streaming shrink, not once for the audit and again for the trace."""
    from repro.stats.sketches import RateMatrixAccumulator

    summary = stream_azure_day(source["dir"], chunk_rows=64)
    calls = []
    finalize = RateMatrixAccumulator.finalize

    def counting(self):
        calls.append(self)
        return finalize(self)

    monkeypatch.setattr(RateMatrixAccumulator, "finalize", counting)
    spec = ShrinkRay(jobs=1).run(summary, source["pool"], max_rps=MAX_RPS,
                                 duration_minutes=DURATION_MIN, seed=SEED)
    assert len(calls) == 1
    assert spec.per_minute.tobytes() == source["spec"].per_minute.tobytes()


def test_exact_stats_invariant_across_chunk_sizes(source):
    """Rate matrix + popularity counts never depend on chunking."""
    matrices = []
    counts = []
    for chunk_rows in CHUNK_SIZES:
        s = stream_azure_day(source["dir"], chunk_rows=chunk_rows)
        _keys, matrix, cnt, _durations, _sizes = s.aggregated_groups()
        matrices.append(matrix.tobytes())
        counts.append(cnt.tobytes())
    assert len(set(matrices)) == 1
    assert len(set(counts)) == 1


def test_summarize_trace_matches_csv_streaming(source):
    """The in-memory chunker and the CSV reader produce the same exact
    statistics (the CSV round-trip only perturbs durations in their
    printed precision, which exact integer stats ignore)."""
    from_csv = stream_azure_day(source["dir"], chunk_rows=64)
    from_mem = summarize_trace(source["trace"], chunk_rows=64)
    a = from_csv.aggregated_groups()
    b = from_mem.aggregated_groups()
    npt.assert_array_equal(a[0], b[0])  # keys
    npt.assert_array_equal(a[1], b[1])  # rate matrix
    npt.assert_array_equal(a[2], b[2])  # popularity counts


def test_compacting_sketch_stays_within_bound(source):
    """Tiny sketch capacity forces compaction; the tracked bound holds."""
    summary = stream_azure_day(source["dir"], chunk_rows=64, sketch_k=32)
    assert summary.duration_sketch.size <= 32 * 64  # genuinely bounded
    assert summary.duration_rank_error > 0.0
    exact = invocation_duration_cdf(source["trace"])
    ks = ks_distance(exact, summary.invocation_duration_cdf())
    assert ks <= summary.duration_rank_error + 1e-9
