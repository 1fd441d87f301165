"""Data model for production FaaS traces.

A :class:`Trace` is the in-memory form FaaSRail consumes: one record per
*function* with its average warm execution duration, plus the per-minute
invocation-count matrix for one day (Azure's trace reports invocations for
each of the 1440 minutes of a day; Huawei's is aggregated to the same shape).

Design notes
------------
The invocation matrix is a single dense ``(n_functions, n_minutes)`` int32
array.  Everything the shrink ray does to it -- rate scaling, thumbnail
aggregation, popularity computation -- is then an array operation, never a
Python loop over functions (see the hpc-parallel vectorisation guidance).
int32 comfortably holds any per-(function, minute) count seen in practice;
reductions are taken with an int64 accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MINUTES_PER_DAY", "MultiDaySummary", "Trace",
           "super_function_trace"]

MINUTES_PER_DAY = 1440


@dataclass
class Trace:
    """A single-day FaaS trace.

    Attributes
    ----------
    name:
        Human label, e.g. ``"azure-synth"`` or ``"huawei-private-synth"``.
    function_ids:
        ``(n,)`` array of unique function identifiers (hashes in the real
        Azure dataset).
    app_ids:
        ``(n,)`` array mapping each function to its application (Azure groups
        functions into apps; memory is reported per app).
    durations_ms:
        ``(n,)`` float64 average *warm* execution duration per function.
    per_minute:
        ``(n, n_minutes)`` int32 invocation counts.
    app_memory_mb:
        Mapping from app id to its average allocated memory in MiB.  May be
        empty for traces that do not report memory.
    """

    name: str
    function_ids: np.ndarray
    app_ids: np.ndarray
    durations_ms: np.ndarray
    per_minute: np.ndarray
    app_memory_mb: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.function_ids = np.asarray(self.function_ids)
        self.app_ids = np.asarray(self.app_ids)
        self.durations_ms = np.asarray(self.durations_ms, dtype=np.float64)
        self.per_minute = np.asarray(self.per_minute)
        n = self.function_ids.size
        if n == 0:
            raise ValueError("a trace must contain at least one function")
        if self.app_ids.shape != (n,):
            raise ValueError("app_ids must align with function_ids")
        if self.durations_ms.shape != (n,):
            raise ValueError("durations_ms must align with function_ids")
        if self.per_minute.ndim != 2 or self.per_minute.shape[0] != n:
            raise ValueError(
                "per_minute must be (n_functions, n_minutes), got "
                f"{self.per_minute.shape}"
            )
        if np.any(self.durations_ms <= 0):
            raise ValueError("durations must be strictly positive")
        if np.any(self.per_minute < 0):
            raise ValueError("invocation counts must be non-negative")
        if np.unique(self.function_ids).size != n:
            raise ValueError("function_ids must be unique")
        if not np.issubdtype(self.per_minute.dtype, np.integer):
            raise ValueError("per_minute must be an integer array")

    # ------------------------------------------------------------------
    # derived views (cheap; no copies unless noted)
    # ------------------------------------------------------------------
    @property
    def n_functions(self) -> int:
        return int(self.function_ids.size)

    @property
    def n_minutes(self) -> int:
        return int(self.per_minute.shape[1])

    @property
    def invocations_per_function(self) -> np.ndarray:
        """``(n,)`` int64 total invocations per function over the day."""
        return self.per_minute.sum(axis=1, dtype=np.int64)

    @property
    def aggregate_per_minute(self) -> np.ndarray:
        """``(n_minutes,)`` int64 total invocations per minute, all functions."""
        return self.per_minute.sum(axis=0, dtype=np.int64)

    @property
    def total_invocations(self) -> int:
        return int(self.per_minute.sum(dtype=np.int64))

    @property
    def busiest_minute_rate(self) -> int:
        """Peak aggregate invocations in any single minute."""
        return int(self.aggregate_per_minute.max())

    def memory_per_app_array(self) -> np.ndarray:
        """All reported app memory values, as an array (for CDFs, Fig 7)."""
        if not self.app_memory_mb:
            raise ValueError(f"trace {self.name!r} reports no memory data")
        return np.fromiter(self.app_memory_mb.values(), dtype=np.float64)

    # ------------------------------------------------------------------
    # transforms (produce new Traces)
    # ------------------------------------------------------------------
    def select(self, indices) -> Trace:
        """Sub-trace with only the functions at ``indices`` (in that order)."""
        idx = np.asarray(indices)
        if idx.size == 0:
            raise ValueError("cannot select an empty set of functions")
        sub_apps = self.app_ids[idx]
        keep = set(np.unique(sub_apps).tolist())
        return Trace(
            name=self.name,
            function_ids=self.function_ids[idx],
            app_ids=sub_apps,
            durations_ms=self.durations_ms[idx],
            per_minute=self.per_minute[idx],
            app_memory_mb={
                a: m for a, m in self.app_memory_mb.items() if a in keep
            },
        )

    def minute_range(self, start: int, stop: int) -> Trace:
        """Sub-trace covering minutes ``[start, stop)`` (Minute Range mode).

        Functions with zero invocations inside the window are kept: an idle
        function is still deployed and still occupies the mapping space.
        """
        if not (0 <= start < stop <= self.n_minutes):
            raise ValueError(
                f"invalid minute range [{start}, {stop}) for a "
                f"{self.n_minutes}-minute trace"
            )
        return Trace(
            name=self.name,
            function_ids=self.function_ids,
            app_ids=self.app_ids,
            durations_ms=self.durations_ms,
            per_minute=self.per_minute[:, start:stop],
            app_memory_mb=dict(self.app_memory_mb),
        )

    def nonzero_functions(self) -> Trace:
        """Drop functions that are never invoked during this day."""
        mask = self.invocations_per_function > 0
        if not mask.any():
            raise ValueError("trace has no invoked functions")
        return self.select(np.flatnonzero(mask))


def super_function_trace(
    name: str,
    keys: np.ndarray,
    durations_ms: np.ndarray,
    per_minute: np.ndarray,
) -> Trace:
    """The aggregated trace of ``name``: one super-Function per
    quantised duration key, alone in its own app, rows in key order."""
    ids = np.asarray(keys).tolist()
    return Trace(
        name=f"{name}/aggregated",
        function_ids=np.array([f"sf-{k}" for k in ids]),
        app_ids=np.array([f"sf-app-{k}" for k in ids]),
        durations_ms=durations_ms,
        per_minute=per_minute,
        app_memory_mb={},
    )


@dataclass
class MultiDaySummary:
    """Per-function daily summaries across a multi-day trace window.

    Only what the day-selection analysis (paper Figure 3) needs: the daily
    average execution duration and the daily invocation count for every
    function -- not the full minute-resolution matrix for every day.
    """

    daily_avg_duration_ms: np.ndarray  # (n_functions, n_days)
    daily_invocations: np.ndarray  # (n_functions, n_days)

    def __post_init__(self) -> None:
        self.daily_avg_duration_ms = np.asarray(
            self.daily_avg_duration_ms, dtype=np.float64
        )
        self.daily_invocations = np.asarray(
            self.daily_invocations, dtype=np.float64
        )
        if self.daily_avg_duration_ms.shape != self.daily_invocations.shape:
            raise ValueError("duration and invocation matrices must align")
        if self.daily_avg_duration_ms.ndim != 2:
            raise ValueError("expected (n_functions, n_days) matrices")
        if self.n_days < 2:
            raise ValueError("need at least two days to study variability")

    @property
    def n_functions(self) -> int:
        return int(self.daily_avg_duration_ms.shape[0])

    @property
    def n_days(self) -> int:
        return int(self.daily_avg_duration_ms.shape[1])
