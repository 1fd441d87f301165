"""Streaming, memory-bounded trace ingestion.

The in-memory loaders in :mod:`repro.traces.io` materialise the full
``(n_functions, n_minutes)`` invocation matrix before the shrink ray can
run -- fine for one synthetic day, a non-starter for the real Azure 2019
release (~908M invocations/day for 14 days).  This module reads the
same CSV layout through :func:`repro.traces.io.iter_invocation_blocks`,
in fixed-size row blocks, and folds each block into a
:class:`StreamingTraceSummary` built from the mergeable one-pass
summaries of :mod:`repro.stats.sketches`:

- the exact per-minute **rate matrix** of super-Functions (quantised
  duration groups), folded by the same accumulator as the in-memory
  aggregation stage, so its integer statistics match that stage's for
  any chunking (never-invoked functions aside: the summary skips them);
- a deterministic KLL **duration sketch** (invocation-weighted) and an
  app-**memory sketch**, each carrying its own rank-error bound;
- a space-saving **popularity** counter over raw function ids.

Peak memory is bounded by ``chunk_rows`` plus the per-key group state
(~12.7K duration keys for Azure) plus the function->duration join map --
never by the full matrix.  Chunk partials can fan out over
:mod:`repro.parallel` workers; the reduction is *ordered* (partials merge
in chunk order), so ``jobs=N`` produces a byte-identical summary to
``jobs=1``.  Exact integer statistics are additionally invariant to
``chunk_rows``; sketch state is chunking-dependent but its estimates
stay within the tracked rank-error bound for every chunking.

Both production trace families this repo speaks -- Azure 2019 and the
Huawei releases -- are ingested through the same on-disk layout (the
Azure column schema, which Huawei traces round-trip through via
:func:`repro.traces.io.dump_azure_day`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.parallel import effective_jobs, map_shards
from repro.stats.sketches import (
    KLLSketch,
    RateMatrixAccumulator,
    SpaceSavingCounter,
)
from repro.stats.ecdf import EmpiricalCDF
from repro.telemetry import registry as _telemetry
from repro.traces.io import (
    DEFAULT_CHUNK_ROWS,
    DURATIONS_FILE,
    INVOCATIONS_FILE,
    MEMORY_FILE,
    InvocationBlock,
    iter_invocation_blocks,
    read_durations_csv,
    read_memory_csv,
)
from repro.traces.model import Trace, super_function_trace

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "STREAMING_SCHEMA_VERSION",
    "InvocationBlock",
    "StreamingTraceSummary",
    "iter_invocation_blocks",
    "stream_azure_day",
    "summarize_trace",
]

#: Bump when the chunk schema or summary layout changes: it is part of
#: every streaming fingerprint, so stale cache entries self-invalidate.
STREAMING_SCHEMA_VERSION = 1

#: Default KLL compactor capacity: rank error stays under 0.01 out to
#: ~10^9 weighted samples (see ``KLLSketch``).
DEFAULT_SKETCH_K = 2048

#: Default space-saving capacity: any function holding more than
#: ``1/capacity`` of the day's invocations is guaranteed tracked.
DEFAULT_TOPK_CAPACITY = 256


#: (keys, matrix, counts, durations, sizes) from the rate accumulator.
GroupArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                    np.ndarray]

#: (name, n_minutes, quantize_ms, sketch_k, topk_capacity).
_SummaryConfig = tuple[str, int, float, int, int]

#: (functions, durations, per_minute, rows_read, dropped, config).
_ChunkArgs = tuple[np.ndarray, np.ndarray, np.ndarray, int, int,
                   _SummaryConfig]


class StreamingTraceSummary:
    """Bounded-memory, mergeable stand-in for a materialised ``Trace``.

    Holds everything the shrink ray's aggregation / rate-scaling /
    mapping stages consume, accumulated one chunk at a time:
    :attr:`rate` (exact aggregated rate matrix), :attr:`duration_sketch`
    (invocation-weighted duration CDF), :attr:`memory_sketch` (app
    memory CDF), and :attr:`popularity` (heavy-hitter function ids).
    Pass one to :meth:`repro.core.ShrinkRay.run` wherever a ``Trace``
    is accepted.
    """

    __slots__ = (
        "name", "n_minutes", "quantize_ms", "sketch_k", "topk_capacity",
        "rate", "duration_sketch", "memory_sketch", "popularity",
        "functions_seen", "functions_dropped", "rows_read", "chunks",
        "n_apps_with_memory",
    )

    def __init__(
        self,
        name: str,
        n_minutes: int,
        *,
        quantize_ms: float = 1.0,
        sketch_k: int = DEFAULT_SKETCH_K,
        topk_capacity: int = DEFAULT_TOPK_CAPACITY,
    ) -> None:
        self.name = name
        self.n_minutes = int(n_minutes)
        self.quantize_ms = float(quantize_ms)
        self.sketch_k = int(sketch_k)
        self.topk_capacity = int(topk_capacity)
        self.rate = RateMatrixAccumulator(n_minutes, quantize_ms)
        self.duration_sketch = KLLSketch(sketch_k)
        self.memory_sketch = KLLSketch(sketch_k)
        self.popularity = SpaceSavingCounter(topk_capacity)
        #: Rows that joined with a reported duration.
        self.functions_seen = 0
        #: Rows dropped for lack of a reported duration (the paper keeps
        #: only functions that report execution times).
        self.functions_dropped = 0
        self.rows_read = 0
        self.chunks = 0
        self.n_apps_with_memory = 0

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def observe_functions(
        self,
        function_ids: np.ndarray,
        durations_ms: np.ndarray,
        per_minute: np.ndarray,
    ) -> None:
        """Fold one joined block (rows that have a duration) in.

        Never-invoked rows count in :attr:`functions_seen` but stay out
        of the rate matrix, mirroring ``Trace.nonzero_functions()``.
        """
        durations = np.asarray(durations_ms, dtype=np.float64)
        matrix = np.asarray(per_minute)
        fns = np.asarray(function_ids)
        if fns.shape != durations.shape:
            raise ValueError(
                "function_ids must align with durations: "
                f"{fns.shape} vs {durations.shape}"
            )
        totals = matrix.sum(axis=1, dtype=np.int64)
        invoked = totals > 0
        if invoked.any():
            self.rate.observe_block(durations[invoked], matrix[invoked])
        self.duration_sketch.insert_many(durations, totals)
        self.popularity.add_many(fns, totals)
        self.functions_seen += int(fns.size)

    def observe_memory(self, app_memory_mb: dict[str, float]) -> None:
        """Fold reported per-app memory values in (sorted by app id)."""
        for app in sorted(app_memory_mb):
            self.memory_sketch.insert(app_memory_mb[app])
        self.n_apps_with_memory += len(app_memory_mb)

    def merge(self, other: StreamingTraceSummary) -> None:
        """Ordered fold of another summary built with identical params."""
        if (other.n_minutes != self.n_minutes
                or other.quantize_ms != self.quantize_ms
                or other.sketch_k != self.sketch_k
                or other.topk_capacity != self.topk_capacity):
            raise ValueError(
                "cannot merge streaming summaries with different "
                "parameters"
            )
        self.rate.merge(other.rate)
        self.duration_sketch.merge(other.duration_sketch)
        self.memory_sketch.merge(other.memory_sketch)
        self.popularity.merge(other.popularity)
        self.functions_seen += other.functions_seen
        self.functions_dropped += other.functions_dropped
        self.rows_read += other.rows_read
        self.chunks += other.chunks
        self.n_apps_with_memory += other.n_apps_with_memory

    # ------------------------------------------------------------------
    # views the shrink ray consumes
    # ------------------------------------------------------------------
    @property
    def total_invocations(self) -> int:
        return self.duration_sketch.n

    @property
    def n_functions(self) -> int:
        """Source function count (rows that reported a duration)."""
        return self.functions_seen

    def aggregated_groups(self) -> GroupArrays:
        """``(keys, matrix, counts, durations, sizes)`` -- see
        :meth:`repro.stats.sketches.RateMatrixAccumulator.finalize`."""
        return self.rate.finalize()

    def to_aggregated_trace(self) -> Trace:
        """The super-Function trace, matching the in-memory aggregation
        stage: integer statistics byte-identical, group durations equal
        up to float accumulation order."""
        keys, matrix, _counts, durations, _sizes = self.rate.finalize()
        return super_function_trace(self.name, keys, durations, matrix)

    def invocation_duration_cdf(self) -> EmpiricalCDF:
        """Sketched invocation-weighted duration CDF (with
        :attr:`duration_rank_error` as its KS bound vs the exact one)."""
        return self.duration_sketch.to_ecdf()

    def memory_cdf(self) -> EmpiricalCDF:
        """Sketched app-memory CDF; raises if no memory was reported."""
        if self.memory_sketch.n == 0:
            raise ValueError(
                f"streaming summary {self.name!r} observed no app memory"
            )
        return self.memory_sketch.to_ecdf()

    @property
    def duration_rank_error(self) -> float:
        return self.duration_sketch.rank_error_bound

    def fingerprint_parts(self) -> tuple[object, ...]:
        """Plain-data identity for :func:`repro.cache.fingerprint`.

        Includes the streaming chunk-schema version and every sketch
        parameter alongside the accumulated state, per the cache rules
        in docs/EXTENDING.md: two summaries fingerprint equal only if
        built from the same content with the same sketch configuration.
        """
        return (
            "streaming-summary", STREAMING_SCHEMA_VERSION, self.name,
            self.n_minutes, self.quantize_ms, self.sketch_k,
            self.topk_capacity, self.functions_seen,
            self.functions_dropped, self.n_apps_with_memory,
            self.rate.fingerprint_parts(),
            self.duration_sketch.fingerprint_parts(),
            self.memory_sketch.fingerprint_parts(),
            self.popularity.fingerprint_parts(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingTraceSummary({self.name!r}, "
            f"functions={self.functions_seen}, "
            f"invocations={self.total_invocations}, "
            f"groups={self.rate.n_groups}, chunks={self.chunks})"
        )


def _summarize_chunk(args: _ChunkArgs) -> StreamingTraceSummary:
    """Fold one joined chunk into a fresh partial summary.

    Module-level so it pickles into :func:`repro.parallel.map_shards`
    workers.  The caller merges partials in chunk order (ordered
    reduction), which makes the result independent of worker count.
    """
    fns, durations, matrix, n_rows, n_dropped, config = args
    name, n_minutes, quantize_ms, sketch_k, topk_capacity = config
    partial = StreamingTraceSummary(
        name, n_minutes, quantize_ms=quantize_ms, sketch_k=sketch_k,
        topk_capacity=topk_capacity,
    )
    if fns.size:
        partial.observe_functions(fns, durations, matrix)
    partial.rows_read = n_rows
    partial.functions_dropped = n_dropped
    partial.chunks = 1
    return partial


class _ChunkFold:
    """Ordered parallel reduction of joined chunks into one summary."""

    def __init__(self, summary: StreamingTraceSummary,
                 jobs: int | None) -> None:
        self.summary = summary
        self.jobs = jobs
        # Batch width scales with the worker pool; it only groups
        # scheduling, never the merge order, so it cannot affect results.
        self.batch_size = max(1, effective_jobs(jobs))
        self._config: _SummaryConfig = (
            summary.name, summary.n_minutes, summary.quantize_ms,
            summary.sketch_k, summary.topk_capacity,
        )
        self._batch: list[_ChunkArgs] = []

    def push(self, fns: np.ndarray, durations: np.ndarray,
             matrix: np.ndarray, n_rows: int, n_dropped: int) -> None:
        self._batch.append(
            (fns, durations, matrix, n_rows, n_dropped, self._config)
        )
        if len(self._batch) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        if not self._batch:
            return
        partials = map_shards(_summarize_chunk, self._batch, jobs=self.jobs)
        for partial in partials:
            self.summary.merge(partial)
        self._batch = []


def _join_block(
    block: InvocationBlock, duration_of: dict[str, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Join a block against the duration map; split kept/dropped rows."""
    has_duration = np.array(
        [f in duration_of for f in block.functions.tolist()], dtype=bool
    )
    kept = block.functions[has_duration]
    durations = np.array(
        [duration_of[f] for f in kept.tolist()], dtype=np.float64
    )
    matrix = block.per_minute[has_duration]
    n_dropped = int(block.n_rows - kept.size)
    return kept, durations, matrix, n_dropped


def _emit_ingest_metrics(summary: StreamingTraceSummary) -> None:
    reg = _telemetry.active()
    if reg is None:
        return
    reg.counter("streaming_rows_total",
                "invocation CSV rows ingested by the streaming "
                "reader").inc(summary.rows_read)
    reg.counter("streaming_chunks_total",
                "fixed-size row blocks folded into streaming "
                "summaries").inc(summary.chunks)
    reg.counter("streaming_functions_dropped_total",
                "rows dropped for lacking a reported duration"
                ).inc(summary.functions_dropped)
    reg.gauge("streaming_duration_rank_error",
              "tracked worst-case rank error of the duration sketch"
              ).set(summary.duration_rank_error)


def stream_azure_day(
    directory: Path | str,
    *,
    name: str = "azure-csv",
    quantize_ms: float = 1.0,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    sketch_k: int = DEFAULT_SKETCH_K,
    topk_capacity: int = DEFAULT_TOPK_CAPACITY,
    jobs: int | None = None,
) -> StreamingTraceSummary:
    """One-pass, memory-bounded ingestion of an Azure-layout trace day.

    The drop-in streaming counterpart of
    :func:`repro.traces.io.load_azure_day`: instead of materialising a
    :class:`~repro.traces.model.Trace`, it folds ``chunk_rows``-sized
    blocks of the invocations CSV into a :class:`StreamingTraceSummary`
    the shrink ray accepts directly.  Functions without a reported
    duration are dropped, mirroring the in-memory loader.

    ``jobs`` fans chunk summarisation over worker processes; the merge
    is ordered, so any value yields a byte-identical summary.
    ``chunk_rows`` bounds peak memory and never changes the exact
    integer statistics; sketched CDFs stay within their tracked
    rank-error bound for every value.
    """
    directory = Path(directory)
    with _telemetry.stage("streaming_ingest",
                          "wall time of streaming trace ingestion"):
        dur_fns, dur_avgs = read_durations_csv(directory / DURATIONS_FILE)
        duration_of = dict(zip(dur_fns.tolist(), dur_avgs.tolist()))

        summary: StreamingTraceSummary | None = None
        fold: _ChunkFold | None = None
        for block in iter_invocation_blocks(
            directory / INVOCATIONS_FILE, chunk_rows
        ):
            if summary is None:
                summary = StreamingTraceSummary(
                    name, block.per_minute.shape[1],
                    quantize_ms=quantize_ms, sketch_k=sketch_k,
                    topk_capacity=topk_capacity,
                )
                fold = _ChunkFold(summary, jobs)
            kept, durations, matrix, n_dropped = _join_block(
                block, duration_of
            )
            assert fold is not None
            fold.push(kept, durations, matrix, block.n_rows, n_dropped)
        if summary is None or fold is None:
            raise ValueError(
                f"{directory / INVOCATIONS_FILE}: no functions"
            )
        fold.flush()
        if summary.functions_seen == 0:
            raise ValueError(
                f"{directory}: no function has both invocations and a "
                "reported duration"
            )

        mem_path = directory / MEMORY_FILE
        if mem_path.exists():
            summary.observe_memory(read_memory_csv(mem_path))
    _emit_ingest_metrics(summary)
    return summary


def summarize_trace(
    trace: Trace,
    *,
    quantize_ms: float = 1.0,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    sketch_k: int = DEFAULT_SKETCH_K,
    topk_capacity: int = DEFAULT_TOPK_CAPACITY,
    jobs: int | None = None,
) -> StreamingTraceSummary:
    """Build a :class:`StreamingTraceSummary` from an in-memory trace.

    Chunks the trace's function rows exactly like the CSV reader chunks
    files, through the same ordered parallel fold -- the differential
    equivalence harness leans on this to compare streaming against the
    materialised pipeline without touching disk, and the CLI uses it to
    exercise ``--streaming`` on synthetic sources.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    with _telemetry.stage("streaming_ingest",
                          "wall time of streaming trace ingestion"):
        summary = StreamingTraceSummary(
            trace.name, trace.n_minutes, quantize_ms=quantize_ms,
            sketch_k=sketch_k, topk_capacity=topk_capacity,
        )
        fold = _ChunkFold(summary, jobs)
        for lo in range(0, trace.n_functions, chunk_rows):
            hi = min(lo + chunk_rows, trace.n_functions)
            fold.push(trace.function_ids[lo:hi], trace.durations_ms[lo:hi],
                      trace.per_minute[lo:hi], hi - lo, 0)
        fold.flush()
        if trace.app_memory_mb:
            summary.observe_memory(trace.app_memory_mb)
    _emit_ingest_metrics(summary)
    return summary
