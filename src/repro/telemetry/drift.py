"""Online representativeness-drift monitoring.

FaaSRail's promise is that generated load *stays* representative of the
source trace; before this module that could only be checked offline,
after a run, through the analysis figures.  A :class:`DriftMonitor`
checks it continuously: as replay (or generation) proceeds it maintains a
windowed empirical CDF of an observed quantity -- invocation durations by
default, inter-arrival gaps work identically -- and computes the
Kolmogorov-Smirnov distance of each completed window against the shrink
ray spec's target CDF.  Windows whose KS distance exceeds a configurable
band emit a ``drift_warning`` event (recorded on the monitor itself and
mirrored into the active telemetry registry), so a mis-mapped workload
pool or a drifting replay surfaces in the run's own output, each window
stamped with the trace time it ends at, rather than in a post-mortem.
Replay feeds it the requests it dispatched in one vectorised pass,
which gives the same windows as feeding them one at a time.

The monitor is purely observational: it draws no randomness and mutates
nothing it observes, so enabling it cannot perturb generated traces
(pinned by the determinism suite).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import ArrayLike

from repro.stats.distance import dkw_band, ks_distance
from repro.stats.ecdf import EmpiricalCDF
from repro.telemetry import registry as _registry

__all__ = ["DriftMonitor"]


class DriftMonitor:
    """Windowed KS drift detector against a fixed target CDF.

    Parameters
    ----------
    target:
        The reference distribution -- typically
        :meth:`repro.core.spec.ExperimentSpec.invocation_duration_cdf`.
    band:
        KS-distance threshold above which a window is flagged.  Must
        exceed the sampling noise floor of a faithful window
        (:func:`repro.stats.distance.dkw_band` of the window size, plus
        whatever within-run mix variation the workload legitimately has).
    window:
        Samples per drift check.
    min_samples:
        Smallest partial window :meth:`flush` will still evaluate.
    metric:
        Label naming the observed quantity in events and metrics.
    """

    def __init__(
        self,
        target: EmpiricalCDF,
        *,
        band: float = 0.15,
        window: int = 1024,
        min_samples: int = 64,
        metric: str = "duration_ms",
    ) -> None:
        if not band > 0:
            raise ValueError("band must be positive")
        if window <= 1:
            raise ValueError("window must exceed 1")
        if not 1 <= min_samples <= window:
            raise ValueError("need 1 <= min_samples <= window")
        self.target = target
        self.band = float(band)
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.metric = str(metric)
        self._buf = np.empty(self.window, dtype=np.float64)
        self._fill = 0
        self._last_time = 0.0
        self.n_observed = 0
        self.n_windows = 0
        self.last_ks: float | None = None
        self.max_ks = 0.0
        self.warnings: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, value: float, time_s: float = 0.0) -> None:
        """Record one sample (for callers that see one at a time)."""
        self._buf[self._fill] = value
        self._fill += 1
        self.n_observed += 1
        self._last_time = float(time_s)
        if self._fill == self.window:
            self._check(self._buf, self._last_time)
            self._fill = 0

    def observe_many(self, values: ArrayLike,
                     times_s: ArrayLike | None = None) -> None:
        """Record a batch of samples (the replay path).

        ``times_s`` -- optional per-sample trace times aligned with
        ``values``; each completed window is stamped with the trace time
        of its last sample, so warnings localise *when* the run drifted.
        """
        v = np.asarray(values, dtype=np.float64).ravel()
        t: np.ndarray | None = None
        if times_s is not None:
            t = np.asarray(times_s, dtype=np.float64).ravel()
            if t.shape != v.shape:
                raise ValueError("times_s must align with values")
        lo = 0
        while lo < v.size:
            take = min(self.window - self._fill, v.size - lo)
            self._buf[self._fill:self._fill + take] = v[lo:lo + take]
            self._fill += take
            lo += take
            self._last_time = float(
                t[lo - 1] if t is not None else self._last_time
            )
            if self._fill == self.window:
                self._check(self._buf, self._last_time)
                self._fill = 0
        self.n_observed += v.size

    def flush(self) -> None:
        """Evaluate a trailing partial window of >= ``min_samples``."""
        if self._fill >= self.min_samples:
            self._check(self._buf[:self._fill], self._last_time)
        self._fill = 0

    # ------------------------------------------------------------------
    # internals / summaries
    # ------------------------------------------------------------------
    def _check(self, samples: np.ndarray, time_s: float) -> None:
        ks = ks_distance(EmpiricalCDF.from_samples(samples), self.target)
        self.n_windows += 1
        self.last_ks = ks
        if ks > self.max_ks:
            self.max_ks = ks
        # explicit None check: an empty MetricsRegistry is falsy (len 0)
        reg = _registry.active()
        if reg is None:
            reg = _registry.NULL_REGISTRY
        reg.gauge(
            "drift_ks", "KS distance of the latest drift window",
            labels={"metric": self.metric},
        ).set(ks)
        if ks > self.band:
            warning = {
                "kind": "drift_warning",
                "metric": self.metric,
                "ks": float(ks),
                "band": self.band,
                "time_s": float(time_s),
                "window_size": int(samples.size),
                "window_index": self.n_windows - 1,
            }
            self.warnings.append(warning)
            reg.event(**warning)
            reg.counter(
                "drift_warnings_total",
                "drift windows whose KS distance exceeded the band",
                labels={"metric": self.metric},
            ).inc()

    def noise_floor(self, alpha: float = 0.01) -> float:
        """DKW sampling-noise KS bound for one faithful window.

        A sensible ``band`` sits well above this (plus the workload's own
        legitimate within-run mix variation); a band below it flags pure
        sampling noise.
        """
        return dkw_band(self.window, alpha)

    def summary(self) -> dict[str, Any]:
        """End-of-run digest (the console exporter prints this)."""
        return {
            "metric": self.metric,
            "band": self.band,
            "window": self.window,
            "n_observed": self.n_observed,
            "n_windows": self.n_windows,
            "n_warnings": len(self.warnings),
            "max_ks": self.max_ks,
            "last_ks": self.last_ks,
        }
