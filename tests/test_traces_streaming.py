"""Unit tests for the streaming ingestion layer (ISSUE 5 tentpole).

The differential contract lives in ``tests/test_streaming_equivalence``;
this file covers the plumbing: block iteration, malformed-input error
context, summary accounting/merging, shrink-ray integration (including
the cache and telemetry wiring), and the CLI's ``--streaming`` flags.
"""

import numpy as np
import numpy.testing as npt
import pytest

from repro import telemetry
from repro.cache import ContentCache, fingerprint
from repro.core import ShrinkRay
from repro.traces import (
    StreamingTraceSummary,
    dump_azure_day,
    iter_invocation_blocks,
    stream_azure_day,
    summarize_trace,
    synthetic_azure_trace,
)
from repro.traces.io import INVOCATIONS_FILE
from repro.traces.streaming import DEFAULT_CHUNK_ROWS
from repro.workloads import build_default_pool


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture(scope="module")
def trace():
    return synthetic_azure_trace(n_functions=120, seed=7)


@pytest.fixture(scope="module")
def trace_dir(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("azure-csv")
    dump_azure_day(trace, directory)
    return directory


# ---------------------------------------------------------------------------
# block iterator
# ---------------------------------------------------------------------------

class TestIterInvocationBlocks:
    def test_blocks_cover_all_rows(self, trace, trace_dir):
        blocks = list(iter_invocation_blocks(
            trace_dir / INVOCATIONS_FILE, chunk_rows=32))
        assert [b.n_rows for b in blocks] == [32, 32, 32, 24]
        assert blocks[0].first_line == 2  # line 1 is the header
        assert blocks[1].first_line == 34
        total = sum(int(b.per_minute.sum()) for b in blocks)
        assert total == int(trace.per_minute.sum())
        for b in blocks:
            assert b.per_minute.dtype == np.int64
            assert b.per_minute.shape == (b.n_rows, trace.n_minutes)

    def test_single_block_when_chunk_exceeds_rows(self, trace, trace_dir):
        blocks = list(iter_invocation_blocks(
            trace_dir / INVOCATIONS_FILE, chunk_rows=10_000))
        assert len(blocks) == 1
        assert blocks[0].n_rows == trace.n_functions

    def test_rejects_bad_chunk_rows(self, trace_dir):
        with pytest.raises(ValueError, match="chunk_rows"):
            list(iter_invocation_blocks(
                trace_dir / INVOCATIONS_FILE, chunk_rows=0))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            list(iter_invocation_blocks(p))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text("Nope,Nope,Nope,Nope,1\no,a,f,http,1\n")
        with pytest.raises(ValueError, match="header"):
            list(iter_invocation_blocks(p))

    def test_header_without_minutes(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text("HashOwner,HashApp,HashFunction,Trigger\n")
        with pytest.raises(ValueError, match="no minute columns"):
            list(iter_invocation_blocks(p))

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
            "o,a,f1,http,3,4\n"
            "o,a,f2,http,5\n"
        )
        with pytest.raises(ValueError, match=r"line 3: ragged row.*'f2'"):
            list(iter_invocation_blocks(p))

    def test_malformed_count_reports_line_and_column(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
            "o,a,f1,http,3,4\n"
            "o,a,f2,http,5,banana\n"
        )
        with pytest.raises(ValueError) as err:
            list(iter_invocation_blocks(p))
        msg = str(err.value)
        assert str(p) in msg
        assert "line 3" in msg
        assert "column 6" in msg
        assert "minute 2" in msg
        assert "'banana'" in msg


# ---------------------------------------------------------------------------
# summary accounting and merge
# ---------------------------------------------------------------------------

class TestStreamingTraceSummary:
    def test_counts_and_counters(self, trace, trace_dir):
        summary = stream_azure_day(trace_dir, chunk_rows=50)
        assert summary.rows_read == trace.n_functions
        assert summary.chunks == 3
        assert summary.functions_seen == trace.n_functions
        assert summary.functions_dropped == 0
        assert summary.total_invocations == int(trace.per_minute.sum())
        assert summary.n_apps_with_memory == len(trace.app_memory_mb)

    def test_drops_functions_without_durations(self, trace, tmp_path):
        from repro.traces.io import write_durations_csv

        dump_azure_day(trace, tmp_path)
        sub = trace.select(np.arange(1, trace.n_functions))
        write_durations_csv(sub, tmp_path / "function_durations.csv")
        summary = stream_azure_day(tmp_path)
        assert summary.functions_seen == trace.n_functions - 1
        assert summary.functions_dropped == 1
        assert summary.rows_read == trace.n_functions

    def test_no_join_raises(self, trace, tmp_path):
        from repro.traces.model import Trace

        other = Trace(
            name="disjoint",
            function_ids=np.array(["zz"]),
            app_ids=np.array(["za"]),
            durations_ms=np.array([10.0]),
            per_minute=np.ones((1, trace.n_minutes), dtype=np.int64),
            app_memory_mb={},
        )
        dump_azure_day(trace, tmp_path)
        from repro.traces.io import write_durations_csv

        write_durations_csv(other, tmp_path / "function_durations.csv")
        with pytest.raises(ValueError, match="no function has both"):
            stream_azure_day(tmp_path)

    def test_empty_invocations_raises(self, trace, tmp_path):
        dump_azure_day(trace, tmp_path)
        header = (tmp_path / INVOCATIONS_FILE).read_text().splitlines()[0]
        (tmp_path / INVOCATIONS_FILE).write_text(header + "\n")
        with pytest.raises(ValueError, match="no functions"):
            stream_azure_day(tmp_path)

    def test_merge_rejects_mismatched_params(self):
        a = StreamingTraceSummary("a", 60)
        for kwargs in ({"quantize_ms": 2.0}, {"sketch_k": 64},
                       {"topk_capacity": 16}):
            b = StreamingTraceSummary("b", 60, **kwargs)
            with pytest.raises(ValueError, match="different"):
                a.merge(b)
        with pytest.raises(ValueError, match="different"):
            a.merge(StreamingTraceSummary("c", 61))

    def test_merge_equals_single_pass(self, trace):
        whole = summarize_trace(trace, chunk_rows=64)
        left = summarize_trace(trace.select(np.arange(0, 70)),
                               chunk_rows=64)
        right = summarize_trace(
            trace.select(np.arange(70, trace.n_functions)), chunk_rows=64)
        left.merge(right)
        a = whole.aggregated_groups()
        b = left.aggregated_groups()
        npt.assert_array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()

    def test_all_zero_rows_skip_the_rate_matrix(self):
        """Never-invoked rows are counted as seen but kept out of the
        rate matrix (mirroring ``nonzero_functions()``)."""
        s = StreamingTraceSummary("z", 4)
        s.observe_functions(np.array(["f1", "f2"]), np.array([5.0, 6.0]),
                            np.array([[1, 0, 0, 2], [0, 0, 0, 0]],
                                     dtype=np.int64))
        keys, _matrix, counts, durations, sizes = s.aggregated_groups()
        assert keys.tolist() == [5]
        assert counts.tolist() == [3]
        assert sizes.tolist() == [1]
        npt.assert_allclose(durations, [5.0])
        assert s.rate.n_groups == 1
        assert s.rate.total_invocations == 3
        assert s.functions_seen == 2
        # an all-zero block leaves the rate matrix alone, and repeated
        # keys accumulate in place
        s.observe_functions(np.array(["f3"]), np.array([7.0]),
                            np.zeros((1, 4), dtype=np.int64))
        assert s.rate.n_groups == 1
        s.observe_functions(np.array(["f4", "f5"]), np.array([5.0, 5.4]),
                            np.array([[0, 1, 0, 0], [2, 0, 0, 0]],
                                     dtype=np.int64))
        assert s.rate.n_groups == 1  # both quantise to key 5
        assert s.rate.total_invocations == 6
        assert s.functions_seen == 5

    def test_misaligned_observe_raises(self):
        s = StreamingTraceSummary("x", 4)
        with pytest.raises(ValueError, match="align"):
            s.observe_functions(
                np.array(["f1", "f2"]), np.array([1.0]),
                np.ones((1, 4), dtype=np.int64),
            )

    def test_memory_cdf_requires_memory(self):
        s = StreamingTraceSummary("x", 4)
        with pytest.raises(ValueError, match="no app memory"):
            s.memory_cdf()

    def test_fingerprint_sensitive_to_sketch_params(self, trace):
        base = summarize_trace(trace, chunk_rows=64)
        same = summarize_trace(trace, chunk_rows=64)
        assert fingerprint(base.fingerprint_parts()) == \
            fingerprint(same.fingerprint_parts())
        for kwargs in ({"sketch_k": 256}, {"topk_capacity": 64},
                       {"quantize_ms": 10.0}):
            other = summarize_trace(trace, chunk_rows=64, **kwargs)
            assert fingerprint(base.fingerprint_parts()) != \
                fingerprint(other.fingerprint_parts()), kwargs

    def test_summarize_trace_rejects_bad_chunk_rows(self, trace):
        with pytest.raises(ValueError, match="chunk_rows"):
            summarize_trace(trace, chunk_rows=0)


# ---------------------------------------------------------------------------
# shrink-ray integration
# ---------------------------------------------------------------------------

class TestShrinkRayIntegration:
    def test_aggregate_false_rejected(self, trace):
        summary = summarize_trace(trace)
        ray = ShrinkRay(aggregate=False)
        with pytest.raises(ValueError, match="pre-aggregated"):
            ray.run(summary, build_default_pool(), max_rps=5.0,
                    duration_minutes=10, seed=0)

    def test_quantize_mismatch_rejected(self, trace):
        summary = summarize_trace(trace, quantize_ms=10.0)
        ray = ShrinkRay(quantize_ms=1.0)
        with pytest.raises(ValueError, match="quantize_ms"):
            ray.run(summary, build_default_pool(), max_rps=5.0,
                    duration_minutes=10, seed=0)

    def test_memory_aware_with_summary(self, trace):
        summary = summarize_trace(trace)
        assert summary.memory_sketch.n > 0
        spec = ShrinkRay(memory_aware=True).run(
            summary, build_default_pool(), max_rps=5.0,
            duration_minutes=10, seed=3,
        )
        assert spec.total_requests > 0

    def test_spec_cache_roundtrip(self, trace, tmp_path):
        cache = ContentCache(tmp_path / "cache")
        pool = build_default_pool()
        ray = ShrinkRay()
        summary = summarize_trace(trace, chunk_rows=32)
        cold = ray.run(summary, pool, max_rps=5.0, duration_minutes=10,
                       seed=1, cache=cache)
        rebuilt = summarize_trace(trace, chunk_rows=32)
        warm = ray.run(rebuilt, pool, max_rps=5.0, duration_minutes=10,
                       seed=1, cache=cache)
        assert cache.hits == 1
        assert warm.to_dict() == cold.to_dict()
        # a different sketch configuration must miss
        other = summarize_trace(trace, chunk_rows=32, sketch_k=256)
        ray.run(other, pool, max_rps=5.0, duration_minutes=10,
                seed=1, cache=cache)
        assert cache.hits == 1

    def test_telemetry_counters(self, trace, trace_dir):
        reg = telemetry.enable()
        summary = stream_azure_day(trace_dir, chunk_rows=40)
        ShrinkRay().run(summary, build_default_pool(), max_rps=5.0,
                        duration_minutes=10, seed=0)
        names = {c.name: c.value for c in reg.counters()}
        assert names["streaming_rows_total"] == trace.n_functions
        assert names["streaming_chunks_total"] == 3
        assert names["streaming_functions_dropped_total"] == 0
        assert names["shrinkray_streaming_runs_total"] == 1
        timers = {h.name for h in reg.histograms()}
        assert "streaming_ingest_seconds" in timers


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestStreamingCli:
    def test_streaming_flag(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "spec.json"
        rc = main([
            "shrinkray", "--trace", "azure", "--functions", "80",
            "--max-rps", "4", "--duration", "10", "--streaming",
            "--chunk-rows", "16", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        baseline = tmp_path / "spec-mem.json"
        rc = main([
            "shrinkray", "--trace", "azure", "--functions", "80",
            "--max-rps", "4", "--duration", "10", "--seed", "5",
            "--out", str(baseline),
        ])
        assert rc == 0
        import json

        a = json.loads(out.read_text())
        b = json.loads(baseline.read_text())
        assert a["per_minute"] == b["per_minute"]

    def test_streaming_rejects_bad_chunk_rows(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "shrinkray", "--trace", "azure", "--functions", "20",
                "--max-rps", "2", "--duration", "5", "--streaming",
                "--chunk-rows", "0",
                "--out", str(tmp_path / "s.json"),
            ])

    def test_streaming_from_directory(self, trace, trace_dir, tmp_path):
        from repro.cli import main

        out = tmp_path / "spec.json"
        rc = main([
            "shrinkray", "--trace", str(trace_dir), "--max-rps", "4",
            "--duration", "10", "--streaming", "--chunk-rows", "64",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    def test_default_chunk_rows_constant(self):
        assert DEFAULT_CHUNK_ROWS == 65_536
