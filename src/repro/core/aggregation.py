"""Trace-function aggregation into "super-Functions".

Paper section 3.1.2 ("Aggregation"): all trace functions with the same
reported mean execution duration are merged into one super-Function whose
invocation series is the sum of its members'.  This collapses Azure's ~50K
functions into ~12.7K Functions while *exactly* preserving the
invocation-weighted duration distribution, and -- as Figure 4 shows -- with
negligible distortion of function popularity.

The grouping itself is :class:`~repro.stats.sketches.RateMatrixAccumulator`,
the same accumulator streaming ingestion folds chunks into: each shard of
the trace folds into its own accumulator, and the shard accumulators merge
in shard order.  The audit object returned alongside the aggregated trace
carries everything the Figure-4 analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel import auto_shards, map_shards, shard_bounds
from repro.stats.popularity import popularity_change_cdf, popularity_shares
from repro.stats.sketches import RateMatrixAccumulator
from repro.telemetry import registry as _telemetry
from repro.traces.model import Trace, super_function_trace

__all__ = ["AggregationAudit", "aggregate_functions"]

#: Functions per shard below which sharding is pointless (the segment
#: sums are a handful of vector ops).  Shard count is derived from the
#: trace size only -- never from ``jobs`` -- so results are identical for
#: any worker count (see :mod:`repro.parallel`).
_MIN_FUNCTIONS_PER_SHARD = 256


@dataclass(frozen=True)
class AggregationAudit:
    """Bookkeeping from one aggregation pass (drives paper Figure 4)."""

    #: Quantised duration key of each *original* function.
    original_keys: np.ndarray
    #: Popularity share of each original function.
    original_shares: np.ndarray
    #: Quantised duration key of each super-Function.
    aggregated_keys: np.ndarray
    #: Popularity share of each super-Function.
    aggregated_shares: np.ndarray
    #: Members per super-Function.
    group_sizes: np.ndarray

    @property
    def n_original(self) -> int:
        return int(self.original_keys.size)

    @property
    def n_aggregated(self) -> int:
        return int(self.aggregated_keys.size)

    def popularity_change_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted popularity changes + CDF probabilities (Figure 4)."""
        return popularity_change_cdf(
            self.original_shares,
            self.original_keys,
            self.aggregated_shares,
            self.aggregated_keys,
        )


def _fold_shard(
    args: tuple[np.ndarray, np.ndarray, int, float],
) -> RateMatrixAccumulator:
    """Fold one contiguous slice of functions into a fresh accumulator.

    Module-level so it pickles into pool workers; the caller merges the
    shard accumulators in shard order.
    """
    durations, per_minute, n_minutes, quantize_ms = args
    acc = RateMatrixAccumulator(n_minutes, quantize_ms)
    acc.observe_block(durations, per_minute)
    return acc


def aggregate_functions(
    trace: Trace,
    *,
    quantize_ms: float = 1.0,
    jobs: int | None = None,
    shards: int | None = None,
) -> tuple[Trace, AggregationAudit]:
    """Merge functions sharing a (quantised) mean execution duration.

    Parameters
    ----------
    trace:
        Single-day input trace.
    quantize_ms:
        Duration quantisation step.  Azure reports millisecond-granularity
        averages, so 1.0 reproduces the paper's grouping; pass a smaller
        step to aggregate less aggressively (ablation knob).
    jobs:
        Worker processes for the sharded segment sums (``None``/1 =
        sequential, 0 = all cores).  The result is identical for any
        value: shard layout depends only on the trace and ``shards``.
    shards:
        Shard-count override (defaults to a data-sized choice).  Part of
        the deterministic contract: the same ``shards`` always yields
        bit-identical output, whatever ``jobs`` is.

    Returns
    -------
    (aggregated_trace, audit):
        The super-Function trace (durations set to each group's
        invocation-weighted mean; per-minute rows summed) and the
        popularity audit.
    """
    if quantize_ms <= 0:
        raise ValueError(f"quantize_ms must be positive, got {quantize_ms}")

    with _telemetry.stage("shrinkray_aggregation",
                          "wall time of the aggregation stage"):
        return _aggregate(trace, quantize_ms=quantize_ms, jobs=jobs,
                          shards=shards)


def _aggregate(
    trace: Trace,
    *,
    quantize_ms: float,
    jobs: int | None,
    shards: int | None,
) -> tuple[Trace, AggregationAudit]:
    counts = trace.invocations_per_function
    total = counts.sum()
    if total <= 0:
        raise ValueError("trace has no invocations to aggregate")

    n_shards = shards if shards is not None else auto_shards(
        trace.n_functions, min_per_shard=_MIN_FUNCTIONS_PER_SHARD
    ) or 1
    parts = map_shards(
        _fold_shard,
        [
            (trace.durations_ms[lo:hi], trace.per_minute[lo:hi],
             trace.n_minutes, quantize_ms)
            for lo, hi in shard_bounds(trace.n_functions, n_shards)
        ],
        jobs=jobs,
    )
    # Ordered reduction: shard partials merge in shard order, keeping the
    # floating-point accumulation order fixed for a given shard layout.
    # Popping frees each partial's rows as soon as they are merged.
    parts.reverse()
    acc = parts.pop()
    while parts:
        acc.merge(parts.pop())
    keys, matrix, group_counts, durations, group_sizes = acc.finalize()

    audit = AggregationAudit(
        original_keys=acc.quantize(trace.durations_ms),
        original_shares=popularity_shares(counts),
        aggregated_keys=keys,
        aggregated_shares=group_counts / total,
        group_sizes=group_sizes,
    )
    aggregated = super_function_trace(trace.name, keys, durations, matrix)
    reg = _telemetry.active()
    if reg is not None:
        reg.counter("aggregation_functions_in_total",
                    "functions entering the aggregation stage"
                    ).inc(trace.n_functions)
        reg.counter("aggregation_functions_out_total",
                    "super-Functions leaving the aggregation stage"
                    ).inc(keys.size)
    return aggregated, audit
