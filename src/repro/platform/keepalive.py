"""Sandbox keep-alive policies.

After an invocation completes, the platform keeps the sandbox warm for some
time before reclaiming its memory -- the classic cold-start / memory-waste
trade-off the paper's motivation discusses.  Three policies:

- :class:`NoKeepAlive` -- reclaim immediately (every invocation but
  back-to-back ones is cold);
- :class:`FixedKeepAlive` -- a constant TTL (Azure's classic 10/20-minute
  policy);
- :class:`HistogramKeepAlive` -- a per-workload policy in the spirit of the
  Azure trace paper's hybrid histogram: the TTL is a percentile of the
  workload's observed idle times, clamped to a range;
- :class:`HybridHistogramKeepAlive` -- the actual hybrid-histogram policy
  of "Serverless in the Wild" (Shahrad et al., ATC'20): a fixed-size
  binned histogram of idle times per workload with an out-of-bounds
  counter, falling back to a conservative default whenever the histogram
  is not representative.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

__all__ = [
    "NoKeepAlive",
    "FixedKeepAlive",
    "HistogramKeepAlive",
    "HybridHistogramKeepAlive",
]


class NoKeepAlive:
    """Tear sandboxes down as soon as they go idle."""

    #: Constant TTL every workload sees (the bulk fast path's eligibility
    #: probe reads this instead of calling ``ttl_s`` per workload; a
    #: policy without the attribute -- or a subclass overriding behaviour
    #: -- is treated as non-constant and takes the scalar path).
    constant_ttl_s: float = 0.0

    def ttl_s(self, workload_id: str) -> float:
        del workload_id
        return 0.0

    def observe_idle_gap(self, workload_id: str, gap_s: float) -> None:
        """No state to learn."""


class FixedKeepAlive:
    """Constant keep-alive TTL for every workload."""

    def __init__(self, ttl_s: float = 600.0) -> None:
        if ttl_s < 0:
            raise ValueError("ttl must be non-negative")
        self._ttl = float(ttl_s)

    @property
    def constant_ttl_s(self) -> float:
        """The workload-independent TTL (bulk-path eligibility probe)."""
        return self._ttl

    def ttl_s(self, workload_id: str) -> float:
        del workload_id
        return self._ttl

    def observe_idle_gap(self, workload_id: str, gap_s: float) -> None:
        """Fixed policy learns nothing."""


class HistogramKeepAlive:
    """Adaptive per-workload TTL from observed inter-invocation gaps.

    Keeps a bounded window of each workload's recent idle gaps and sets the
    TTL to the requested percentile of that window -- enough to cover the
    typical gap without holding memory through the long tail.  Falls back
    to ``default_ttl_s`` until enough observations accumulate.

    Each window is held twice: in arrival order (which gap leaves next)
    and sorted (a gap goes in with ``insort`` and the leaving one is
    deleted at its ``bisect_left`` position), so ``ttl_s`` indexes the
    percentile instead of sorting the window on every call.  Equal gaps
    stay in arrival order in the sorted copy, so it is exactly what a
    stable sort of the window would give.
    """

    def __init__(
        self,
        percentile: float = 90.0,
        *,
        default_ttl_s: float = 600.0,
        min_ttl_s: float = 10.0,
        max_ttl_s: float = 3600.0,
        window: int = 64,
        min_observations: int = 4,
    ) -> None:
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if min_ttl_s < 0 or max_ttl_s < min_ttl_s:
            raise ValueError("need 0 <= min_ttl <= max_ttl")
        if window <= 0 or min_observations <= 0:
            raise ValueError("window and min_observations must be positive")
        self._pct = percentile
        self._default = default_ttl_s
        self._min = min_ttl_s
        self._max = max_ttl_s
        self._min_obs = min_observations
        self._window = window
        #: workload -> (window in arrival order, the same gaps sorted)
        self._gaps: dict[str, tuple[deque[float], list[float]]] = {}

    def observe_idle_gap(self, workload_id: str, gap_s: float) -> None:
        if not gap_s >= 0:  # negative or NaN: not an idle gap
            return
        entry = self._gaps.get(workload_id)
        if entry is None:
            entry = self._gaps[workload_id] = (deque(), [])
        arrivals, ordered = entry
        if len(arrivals) == self._window:
            del ordered[bisect_left(ordered, arrivals.popleft())]
        arrivals.append(gap_s)
        insort(ordered, gap_s)

    def ttl_s(self, workload_id: str) -> float:
        entry = self._gaps.get(workload_id)
        if entry is None:
            return self._default
        ordered = entry[1]
        n = len(ordered)
        if n < self._min_obs:
            return self._default
        k = min(int(n * self._pct / 100.0), n - 1)
        return float(min(max(ordered[k], self._min), self._max))


class HybridHistogramKeepAlive:
    """The hybrid-histogram policy of "Serverless in the Wild".

    Per workload, idle gaps are counted into a *fixed-size* binned
    histogram (``n_bins`` bins of ``bin_width_s`` each; the paper uses
    one-minute bins over a four-hour range) plus a single out-of-bounds
    counter -- state is strictly bounded at ``n_bins + 2`` integers per
    workload no matter how many gaps are observed, unlike the sliding
    window of :class:`HistogramKeepAlive`.  The keep-alive TTL is the
    upper edge of the bin holding the requested ``percentile`` of the
    in-bounds gaps (the paper's "keep-alive window"), so a
    representative histogram always yields ``ttl <= n_bins *
    bin_width_s``.

    The *hybrid* part is the fallback: until ``min_observations`` gaps
    accumulate, or whenever more than ``oob_threshold`` of the observed
    gaps fell outside the histogram's range (the paper hands such
    workloads to a time-series model; a fixed conservative TTL is the
    simulator-honest stand-in), the policy answers ``default_ttl_s``.
    """

    def __init__(
        self,
        percentile: float = 99.0,
        *,
        bin_width_s: float = 60.0,
        n_bins: int = 240,
        default_ttl_s: float = 600.0,
        min_observations: int = 4,
        oob_threshold: float = 0.5,
    ) -> None:
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if bin_width_s <= 0:
            raise ValueError("bin_width_s must be positive")
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        if default_ttl_s < 0:
            raise ValueError("default_ttl_s must be non-negative")
        if min_observations <= 0:
            raise ValueError("min_observations must be positive")
        if not 0 <= oob_threshold <= 1:
            raise ValueError("oob_threshold must be in [0, 1]")
        self._pct = percentile
        self._bin_w = bin_width_s
        self._n_bins = n_bins
        self._default = default_ttl_s
        self._min_obs = min_observations
        self._oob_thresh = oob_threshold
        #: workload -> (per-bin counts, out-of-bounds count, total count)
        self._hist: dict[str, tuple[list[int], int, int]] = {}

    def observe_idle_gap(self, workload_id: str, gap_s: float) -> None:
        if gap_s < 0:
            return
        entry = self._hist.get(workload_id)
        if entry is None:
            entry = ([0] * self._n_bins, 0, 0)
        bins, oob, total = entry
        idx = int(gap_s // self._bin_w)
        if idx >= self._n_bins:
            oob += 1
        else:
            bins[idx] += 1
        self._hist[workload_id] = (bins, oob, total + 1)

    def ttl_s(self, workload_id: str) -> float:
        entry = self._hist.get(workload_id)
        if entry is None:
            return self._default
        bins, oob, total = entry
        if total < self._min_obs:
            return self._default
        if oob > self._oob_thresh * total:
            # histogram not representative: conservative fallback
            return self._default
        in_bounds = total - oob
        if in_bounds == 0:
            return self._default
        target = self._pct / 100.0 * in_bounds
        cum = 0
        for idx, count in enumerate(bins):
            cum += count
            if cum >= target:
                return (idx + 1) * self._bin_w
        return self._n_bins * self._bin_w  # pragma: no cover - cum==inb
