"""The offline "shrink ray": end-to-end experiment-spec construction.

Wires the methodology of paper section 3 together, in the order of its
Figure 2:

1. aggregate the input trace's functions into super-Functions
   (:mod:`repro.core.aggregation`);
2. scale the day down in time -- thumbnails or minute-range
   (:mod:`repro.core.time_scaling`);
3. scale the request rate down to the target maximum RPS
   (:mod:`repro.core.rate_scaling`);
4. map every Function to a pool Workload (:mod:`repro.core.mapping`);
5. emit a replayable :class:`~repro.core.spec.ExperimentSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.aggregation import AggregationAudit, aggregate_functions
from repro.core.mapping import FunctionMapping, map_functions
from repro.core.rate_scaling import scale_request_rate
from repro.core.spec import ExperimentSpec, SpecEntry
from repro.core.time_scaling import thumbnail_scale
from repro.telemetry import registry as _telemetry
from repro.traces.model import Trace, super_function_trace
from repro.traces.streaming import StreamingTraceSummary
from repro.workloads.pool import WorkloadPool

if TYPE_CHECKING:
    from repro.cache import ContentCache

__all__ = ["ShrinkRay", "ShrinkReport", "shrink"]


@dataclass
class ShrinkReport:
    """Everything a run produced besides the spec itself (for analysis)."""

    aggregation_audit: AggregationAudit
    mapping: FunctionMapping
    aggregated_trace: Trace


@dataclass
class ShrinkRay:
    """Configured offline pipeline.

    Parameters
    ----------
    error_threshold_pct:
        Mapping error threshold (section 3.1.3).
    quantize_ms:
        Duration quantisation for the aggregation stage.
    time_mode:
        ``"thumbnails"`` (default; whole-day miniature) or
        ``"minute-range"`` (verbatim window).
    range_start_minute:
        First trace minute of the window in minute-range mode.
    aggregate:
        Disable to skip the aggregation stage (ablation knob).
    balance:
        Disable balance-aware workload selection (ablation knob).
    variable_input:
        Attach a per-Function variant table to the spec
        (``metadata["variants"]``) so each invocation samples among
        threshold-compatible inputs instead of replaying one fixed input
        -- the paper's section-3.3 extension.
    max_variants:
        Variant-table width when ``variable_input`` is set.
    memory_aware:
        Bias workload selection (inside the runtime threshold) toward
        candidates whose memory footprint matches the trace's app-memory
        distribution -- the section-3.3 memory-fidelity extension.
        Requires the input trace to report app memory.
    memory_weight:
        Near-closest runtime band width (percentage points) for the
        memory tie-break; see :func:`repro.core.mapping.map_functions`.
    jobs:
        Worker processes for the sharded aggregation and mapping stages
        (``None``/1 = sequential, 0 = all cores).  Purely an execution
        knob: the spec is byte-identical for any value.
    shards:
        Shard-count override for those stages (default: data-sized).
        Same ``shards`` = same spec, whatever ``jobs`` is.
    """

    error_threshold_pct: float = 10.0
    quantize_ms: float = 1.0
    time_mode: str = "thumbnails"
    range_start_minute: int = 0
    aggregate: bool = True
    balance: bool = True
    variable_input: bool = False
    max_variants: int = 4
    memory_aware: bool = False
    memory_weight: float = 2.0
    jobs: int | None = None
    shards: int | None = None
    _last_report: ShrinkReport | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.time_mode not in ("thumbnails", "minute-range"):
            raise ValueError(
                f"unknown time mode {self.time_mode!r}; expected "
                "'thumbnails' or 'minute-range'"
            )

    @property
    def last_report(self) -> ShrinkReport:
        """Diagnostics of the most recent :meth:`run` call."""
        if self._last_report is None:
            raise RuntimeError("run() has not been called yet")
        return self._last_report

    def _cache_key(
        self,
        trace: Trace | StreamingTraceSummary,
        pool: WorkloadPool,
        max_rps: float,
        duration_minutes: int,
        seed: int,
    ) -> str:
        from repro.cache import code_version, fingerprint

        # A streaming summary fingerprints through its accumulated state
        # plus every sketch parameter and the chunk-schema version (see
        # docs/EXTENDING.md): summaries of the same content built with
        # different sketch configurations must never share cache entries.
        trace_part: object = (
            trace.fingerprint_parts()
            if isinstance(trace, StreamingTraceSummary) else trace
        )
        config = {
            "error_threshold_pct": self.error_threshold_pct,
            "quantize_ms": self.quantize_ms,
            "time_mode": self.time_mode,
            "range_start_minute": self.range_start_minute,
            "aggregate": self.aggregate,
            "balance": self.balance,
            "variable_input": self.variable_input,
            "max_variants": self.max_variants,
            "memory_aware": self.memory_aware,
            "memory_weight": self.memory_weight,
            "shards": self.shards,
        }
        return fingerprint(
            "shrinkray", code_version(), config, trace_part,
            pool.fingerprint_parts(),
            max_rps, duration_minutes, seed,
        )

    def _aggregate_summary(
        self, summary: StreamingTraceSummary
    ) -> tuple[Trace, AggregationAudit]:
        """Adapt a streaming summary into the aggregation stage's output.

        The summary already holds the super-Function groups (exact
        integer rate matrix, invocation-weighted durations), so this is
        a reshape, not a recomputation.  The audit is group-level: the
        summary does not retain per-original-function shares (that is
        the point of streaming), so original and aggregated sides
        coincide.
        """
        if not self.aggregate:
            raise ValueError(
                "streaming summaries are pre-aggregated; aggregate=False "
                "requires a materialised Trace"
            )
        if summary.quantize_ms != self.quantize_ms:
            raise ValueError(
                f"summary was accumulated at quantize_ms="
                f"{summary.quantize_ms:g} but this ShrinkRay expects "
                f"{self.quantize_ms:g}; re-ingest with matching "
                "quantisation"
            )
        keys, matrix, counts, durations, sizes = (
            summary.aggregated_groups()
        )
        shares = counts.astype(np.float64) / counts.sum()
        audit = AggregationAudit(
            original_keys=keys,
            original_shares=shares,
            aggregated_keys=keys,
            aggregated_shares=shares,
            group_sizes=sizes,
        )
        trace = super_function_trace(summary.name, keys, durations, matrix)
        return trace, audit

    def run(
        self,
        trace: Trace | StreamingTraceSummary,
        pool: WorkloadPool,
        *,
        max_rps: float,
        duration_minutes: int,
        seed: int | np.random.Generator = 0,
        cache: ContentCache | None = None,
    ) -> ExperimentSpec:
        """Produce an experiment spec for ``trace`` against ``pool``.

        ``trace`` may be a materialised :class:`~repro.traces.model.Trace`
        or a :class:`~repro.traces.streaming.StreamingTraceSummary` built
        by one bounded-memory pass over the raw CSVs -- the two paths
        share every stage after aggregation, and their exact integer
        statistics (rate matrix, per-group invocation counts) are
        byte-identical (pinned by ``tests/test_streaming_equivalence``).

        ``max_rps`` and ``duration_minutes`` are the two user inputs of the
        paper's interface: the target maximum request rate and the target
        total experiment duration.

        ``cache`` -- a :class:`repro.cache.ContentCache` -- memoises the
        finished spec under a fingerprint of trace content, pool,
        configuration, inputs, seed, and code version.  A warm hit
        returns the stored spec byte-identical to a cold run but skips
        every stage, so :attr:`last_report` diagnostics are unavailable
        for cached results.  Generator seeds bypass the cache (their
        state is not fingerprintable); integer seeds use it.
        """
        if duration_minutes <= 0:
            raise ValueError("duration_minutes must be positive")

        key = None
        if cache is not None and isinstance(seed, (int, np.integer)):
            key = self._cache_key(trace, pool, max_rps, duration_minutes,
                                  int(seed))
            try:
                cached: ExperimentSpec = cache.get(key)
            except KeyError:
                pass
            else:
                self._last_report = None
                return cached

        rng = np.random.default_rng(seed)

        if isinstance(trace, StreamingTraceSummary):
            working, audit = self._aggregate_summary(trace)
        elif self.aggregate:
            working, audit = aggregate_functions(
                trace.nonzero_functions(), quantize_ms=self.quantize_ms,
                jobs=self.jobs, shards=self.shards,
            )
        else:
            working = trace.nonzero_functions()
            counts = working.invocations_per_function.astype(np.float64)
            shares = counts / counts.sum()
            keys = np.arange(working.n_functions)
            audit = AggregationAudit(
                original_keys=keys,
                original_shares=shares,
                aggregated_keys=keys,
                aggregated_shares=shares,
                group_sizes=np.ones(working.n_functions, dtype=np.int64),
            )

        # Time scaling first, so the rate cap applies to the experiment's
        # wall-clock minutes (the busiest *experiment* minute is what the
        # user's max_rps bounds).
        with _telemetry.stage("shrinkray_scaling",
                              "wall time of time + rate scaling"):
            if self.time_mode == "thumbnails":
                matrix = thumbnail_scale(working.per_minute,
                                         duration_minutes)
            else:
                window = working.minute_range(
                    self.range_start_minute,
                    self.range_start_minute + duration_minutes,
                )
                matrix = window.per_minute.astype(np.int64)

            matrix = scale_request_rate(matrix, max_rps, rng)

        memory_targets = None
        if self.memory_aware:
            if isinstance(trace, StreamingTraceSummary):
                # Raises with context if no app memory was observed.
                mem_cdf = trace.memory_cdf()
            elif not trace.app_memory_mb:
                raise ValueError(
                    "memory_aware shrinking needs a trace that reports app "
                    "memory"
                )
            else:
                from repro.stats.ecdf import EmpiricalCDF

                mem_cdf = EmpiricalCDF.from_samples(
                    trace.memory_per_app_array()
                )
            memory_targets = np.asarray(
                mem_cdf.quantile(rng.random(working.n_functions))
            )

        with _telemetry.stage("shrinkray_mapping",
                              "wall time of the mapping stage"):
            mapping = map_functions(
                working,
                pool,
                error_threshold_pct=self.error_threshold_pct,
                balance=self.balance,
                memory_targets=memory_targets,
                memory_weight=self.memory_weight,
                jobs=self.jobs,
                shards=self.shards,
            )

        entries = [
            SpecEntry(
                function_id=str(working.function_ids[i]),
                workload_id=mapping.workload_ids[i],
                family=pool.workloads[int(mapping.workload_indices[i])].family,
                runtime_ms=float(mapping.mapped_runtime_ms[i]),
                memory_mb=pool.workloads[
                    int(mapping.workload_indices[i])
                ].memory_mb,
            )
            for i in range(working.n_functions)
        ]
        variants = None
        if self.variable_input:
            from repro.core.variable_input import build_variant_table

            variants = build_variant_table(
                working, pool,
                error_threshold_pct=self.error_threshold_pct,
                max_variants=self.max_variants,
            )
        spec = ExperimentSpec(
            name=f"{trace.name}/{duration_minutes}min@{max_rps:g}rps",
            source_trace=trace.name,
            max_rps=max_rps,
            entries=entries,
            per_minute=matrix,
            metadata={
                "error_threshold_pct": self.error_threshold_pct,
                "quantize_ms": self.quantize_ms,
                "time_mode": self.time_mode,
                "range_start_minute": self.range_start_minute,
                "aggregate": self.aggregate,
                "balance": self.balance,
                "n_fallbacks": mapping.n_fallbacks,
                "source_functions": trace.n_functions,
                "source_invocations": trace.total_invocations,
            },
        )
        if variants is not None:
            spec.metadata["variants"] = variants
        self._last_report = ShrinkReport(
            aggregation_audit=audit,
            mapping=mapping,
            aggregated_trace=working,
        )
        reg = _telemetry.active()
        if reg is not None:
            reg.counter("shrinkray_runs_total",
                        "cold shrink-ray pipeline executions").inc()
            if isinstance(trace, StreamingTraceSummary):
                reg.counter("shrinkray_streaming_runs_total",
                            "shrink-ray runs fed by a streaming "
                            "summary").inc()
            reg.gauge("shrinkray_spec_requests",
                      "total requests of the last produced spec"
                      ).set(spec.total_requests)
        if key is not None:
            cache.put(key, spec)
        return spec


def shrink(
    trace: Trace | StreamingTraceSummary,
    pool: WorkloadPool,
    *,
    max_rps: float,
    duration_minutes: int,
    seed: int | np.random.Generator = 0,
    cache: ContentCache | None = None,
    **config: Any,
) -> ExperimentSpec:
    """One-call convenience over :class:`ShrinkRay` with default config."""
    return ShrinkRay(**config).run(
        trace, pool, max_rps=max_rps, duration_minutes=duration_minutes,
        seed=seed, cache=cache,
    )
