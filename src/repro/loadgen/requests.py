"""The request-trace artifact produced by the online load generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ecdf import EmpiricalCDF

__all__ = ["RequestTrace"]


@dataclass
class RequestTrace:
    """A time-ordered series of workload invocation requests.

    Attributes
    ----------
    timestamps_s:
        Ascending request times in seconds from experiment start.
    workload_ids:
        Workload id per request, stored as a NumPy str array.
    function_ids:
        Originating (super-)Function id per request ("" where the mode has
        no Function notion, e.g. Smirnov samples).
    runtimes_ms:
        Expected warm runtime of each request's workload.
    families:
        Benchmark family per request.
    """

    timestamps_s: np.ndarray
    workload_ids: np.ndarray
    function_ids: np.ndarray
    runtimes_ms: np.ndarray
    families: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps_s = np.asarray(self.timestamps_s, dtype=np.float64)
        n = self.timestamps_s.size
        if n == 0:
            raise ValueError("a request trace must contain requests")
        for name in ("workload_ids", "function_ids", "runtimes_ms",
                     "families"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError(f"{name} must align with timestamps")
            setattr(self, name, arr)
        # a str array's tolist() yields str, so replay loops convert ids
        # in one pass
        self.workload_ids = np.asarray(self.workload_ids, dtype=str)
        if not np.all(np.isfinite(self.timestamps_s)):
            raise ValueError("timestamps must be finite (no NaN/inf)")
        if np.any(np.diff(self.timestamps_s) < 0):
            raise ValueError("timestamps must be ascending")
        if np.any(self.timestamps_s < 0):
            raise ValueError("timestamps must be non-negative")
        self.runtimes_ms = np.asarray(self.runtimes_ms, dtype=np.float64)
        if np.any(~np.isfinite(self.runtimes_ms) | (self.runtimes_ms < 0)):
            raise ValueError("runtimes_ms must be finite and non-negative")

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return int(self.timestamps_s.size)

    @property
    def duration_s(self) -> float:
        return float(self.timestamps_s[-1])

    def per_second_rate(self, horizon_s: float | None = None) -> np.ndarray:
        """Requests per second, binned at 1 s."""
        horizon = horizon_s if horizon_s is not None else self.duration_s + 1
        bins = np.arange(0, int(np.ceil(horizon)) + 1)
        hist, _ = np.histogram(self.timestamps_s, bins=bins)
        return hist

    def per_minute_rate(self, horizon_s: float | None = None) -> np.ndarray:
        """Requests per minute, binned at 60 s."""
        horizon = horizon_s if horizon_s is not None else self.duration_s + 1
        n_minutes = int(np.ceil(horizon / 60.0))
        bins = np.arange(0, (n_minutes + 1) * 60, 60)
        hist, _ = np.histogram(self.timestamps_s, bins=bins)
        return hist

    def duration_cdf(self) -> EmpiricalCDF:
        """CDF of the requests' expected execution durations."""
        return EmpiricalCDF.from_samples(self.runtimes_ms)

    def family_shares(self) -> dict[str, float]:
        names, counts = np.unique(self.families, return_counts=True)
        return {str(f): float(c) / self.n_requests
                for f, c in zip(names, counts)}

    def slice_time(self, start_s: float, stop_s: float) -> RequestTrace:
        """Requests with ``start_s <= t < stop_s``."""
        if not 0 <= start_s < stop_s:
            raise ValueError("need 0 <= start < stop")
        lo = np.searchsorted(self.timestamps_s, start_s, side="left")
        hi = np.searchsorted(self.timestamps_s, stop_s, side="left")
        if hi <= lo:
            raise ValueError("slice contains no requests")
        sl = slice(lo, hi)
        return RequestTrace(
            timestamps_s=self.timestamps_s[sl],
            workload_ids=self.workload_ids[sl],
            function_ids=self.function_ids[sl],
            runtimes_ms=self.runtimes_ms[sl],
            families=self.families[sl],
        )
