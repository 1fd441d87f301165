"""Mergeable one-pass summaries for streaming trace ingestion.

The statistics FaaSRail's shrink ray consumes -- invocation-duration
CDFs, heavy-tailed function popularity, and the per-minute rate matrix
of super-Functions -- are all computable in a single bounded-memory pass
over the raw trace rows.  This module provides the three accumulators
that :mod:`repro.traces.streaming` folds chunk blocks into:

- :class:`KLLSketch` -- a deterministic KLL-style mergeable quantile
  sketch (uniform-capacity compactor hierarchy with alternating-parity
  selection, no RNG).  It tracks its own worst-case rank-error budget,
  so every estimate ships with an honest bound.
- :class:`SpaceSavingCounter` -- the Metwally et al. heavy-hitter
  summary with the Agarwal et al. mergeable-summaries merge rule and a
  deterministic eviction tie-break.
- :class:`RateMatrixAccumulator` -- exact online segment sums of
  per-minute invocation rows grouped by quantised duration key: the one
  implementation of super-Function aggregation, which the in-memory
  stage folds shards into and the streaming summaries fold chunks into.

Determinism contract (see docs/SCALING.md): none of these touch a random
generator.  Each structure's state is a deterministic function of the
*sequence* of observations/merges; the exact integer statistics are
additionally invariant to how that sequence was chunked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.stats.ecdf import EmpiricalCDF

__all__ = [
    "KLLSketch",
    "RateMatrixAccumulator",
    "SpaceSavingCounter",
]


class KLLSketch:
    """Deterministic mergeable quantile sketch over scalar samples.

    A uniform-capacity compactor hierarchy: level ``i`` holds items of
    weight ``2**i`` in an unsorted buffer of capacity ``k``.  When a
    buffer overflows it is sorted and every other item (alternating the
    starting parity between compactions, the classic derandomisation of
    KLL's coin flip) is promoted one level up.  Each compaction of level
    ``i`` can shift any query's rank by at most ``2**i``, so the sketch
    maintains an exact worst-case *rank-error budget*: the sum of
    ``2**level`` over all compactions it ever performed.
    :attr:`rank_error_bound` is that budget over the total inserted
    weight -- a sound bound on the KS distance between the sketched and
    the exact empirical CDF.

    With ``k`` items per level and ``n`` total weight the bound behaves
    like ``log2(n / k) / k``; the default ``k = 2048`` keeps it under
    0.01 out to ~10^9 samples.  Inputs smaller than ``k`` never compact,
    so the sketch is *exact* on them.

    Weighted insertion (:meth:`insert_weighted`) decomposes the weight in
    binary and places one copy of the value per set bit directly at the
    matching level, so a function invoked two million times costs ~21
    buffer appends, not two million.
    """

    __slots__ = ("k", "n", "_levels", "_parity", "_error_budget")

    def __init__(self, k: int = 2048) -> None:
        if k < 8:
            raise ValueError(f"sketch capacity k must be >= 8, got {k}")
        self.k = int(k)
        #: Total inserted weight (number of represented samples).
        self.n = 0
        self._levels: list[list[float]] = [[]]
        self._parity: list[int] = [0]
        self._error_budget = 0

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, value: float) -> None:
        """Insert one unit-weight sample."""
        self._levels[0].append(float(value))
        self.n += 1
        if len(self._levels[0]) > self.k:
            self._compress()

    def insert_weighted(self, value: float, weight: int) -> None:
        """Insert ``value`` with positive integer multiplicity ``weight``."""
        w = int(weight)
        if w < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        if w == 0:
            return
        v = float(value)
        level = 0
        while w:
            if w & 1:
                self._ensure_level(level)
                self._levels[level].append(v)
            w >>= 1
            level += 1
        self.n += int(weight)
        self._compress()

    def insert_many(self, values: object, weights: object = None) -> None:
        """Bulk insert: ``values`` flat array-like, optional int weights."""
        vals = np.asarray(values, dtype=np.float64).ravel()
        if weights is None:
            for v in vals.tolist():
                self.insert(v)
            return
        wts = np.asarray(weights).ravel()
        if wts.shape != vals.shape:
            raise ValueError(
                f"weights must match values: {wts.shape} vs {vals.shape}"
            )
        if not np.issubdtype(wts.dtype, np.integer):
            raise ValueError("sketch weights must be integers")
        for v, w in zip(vals.tolist(), wts.tolist()):
            self.insert_weighted(v, int(w))

    def _ensure_level(self, level: int) -> None:
        while len(self._levels) <= level:
            self._levels.append([])
            self._parity.append(0)

    def _compress(self) -> None:
        level = 0
        while level < len(self._levels):
            if len(self._levels[level]) > self.k:
                self._compact_level(level)
            level += 1

    def _compact_level(self, level: int) -> None:
        buf = sorted(self._levels[level])
        if len(buf) % 2:
            # An odd straggler stays behind (no rank error from it); keep
            # the largest so the choice is deterministic.
            keep = [buf[-1]]
            buf = buf[:-1]
        else:
            keep = []
        parity = self._parity[level]
        self._parity[level] ^= 1
        promoted = buf[parity::2]
        self._levels[level] = keep
        self._ensure_level(level + 1)
        self._levels[level + 1].extend(promoted)
        self._error_budget += 1 << level

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: KLLSketch) -> None:
        """Fold ``other`` into this sketch (``other`` is left untouched).

        The result summarises the union multiset; error budgets add.
        Merging is deterministic in operand order -- the streaming layer
        therefore reduces chunk partials in chunk order, which is what
        makes ``jobs=N`` byte-identical to ``jobs=1``.
        """
        if other.k != self.k:
            raise ValueError(
                f"cannot merge sketches with different k: {self.k} vs "
                f"{other.k}"
            )
        for level in sorted(range(len(other._levels))):
            items = other._levels[level]
            if items:
                self._ensure_level(level)
                self._levels[level].extend(items)
        self.n += other.n
        self._error_budget += other._error_budget
        self._compress()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def rank_error_bound(self) -> float:
        """Worst-case normalised rank error (KS bound) of any estimate."""
        if self.n == 0:
            return 0.0
        return self._error_budget / self.n

    @property
    def size(self) -> int:
        """Number of retained items across all levels."""
        return sum(len(lvl) for lvl in self._levels)

    def _items_weights(self) -> tuple[np.ndarray, np.ndarray]:
        values: list[float] = []
        weights: list[int] = []
        for level in sorted(range(len(self._levels))):
            items = self._levels[level]
            values.extend(sorted(items))
            weights.extend([1 << level] * len(items))
        return (np.asarray(values, dtype=np.float64),
                np.asarray(weights, dtype=np.int64))

    def to_ecdf(self) -> EmpiricalCDF:
        """The sketched weighted empirical CDF (exact if never compacted)."""
        from repro.stats.ecdf import EmpiricalCDF

        if self.n == 0:
            raise ValueError("cannot build a CDF from an empty sketch")
        values, weights = self._items_weights()
        return EmpiricalCDF.from_samples(values, weights)

    def cdf(self, x: object) -> np.ndarray:
        """Estimate ``P[X <= x]`` at the query points ``x``."""
        if self.n == 0:
            raise ValueError("cannot query an empty sketch")
        values, weights = self._items_weights()
        order = np.argsort(values, kind="stable")
        values = values[order]
        cum = np.cumsum(weights[order], dtype=np.float64)
        q = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(values, q, side="right")
        out = np.where(idx == 0, 0.0, cum[np.maximum(idx - 1, 0)])
        result: np.ndarray = out / float(cum[-1])
        return result

    def quantile(self, q: object) -> np.ndarray:
        """Estimate the ``q``-quantile(s), ``q`` in [0, 1]."""
        return np.asarray(self.to_ecdf().quantile(q))

    def fingerprint_parts(self) -> tuple[object, ...]:
        """Plain-data state for :func:`repro.cache.fingerprint`."""
        values, weights = self._items_weights()
        return ("kll", self.k, self.n, self._error_budget, values, weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KLLSketch(k={self.k}, n={self.n}, size={self.size}, "
                f"rank_error<={self.rank_error_bound:.4g})")


class SpaceSavingCounter:
    """Deterministic space-saving heavy-hitter counter over string keys.

    Tracks at most ``capacity`` keys.  Guarantees (Metwally et al.):

    - every key whose true count exceeds ``n / capacity`` is present
      (the *top-k superset* guarantee);
    - for a tracked key, ``true <= estimate <= true + error(key)``, and
      ``error(key) <= n / capacity``.

    Eviction picks the minimum-estimate key, ties broken by
    lexicographically smallest key, so the summary is a deterministic
    function of the observation sequence.  :meth:`merge` follows the
    mergeable-summaries rule (Agarwal et al. 2012): an absent key is
    credited the other summary's minimum estimate (its worst-case hidden
    count) before pruning back down to ``capacity``.
    """

    __slots__ = ("capacity", "n", "_counts", "_errors")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: Total observed weight.
        self.n = 0
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def add(self, key: str, count: int = 1) -> None:
        """Observe ``key`` with multiplicity ``count``."""
        c = int(count)
        if c < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if c == 0:
            return
        self.n += c
        if key in self._counts:
            self._counts[key] += c
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = c
            self._errors[key] = 0
            return
        victim = min(sorted(self._counts), key=lambda k: self._counts[k])
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + c
        self._errors[key] = floor

    def add_many(self, keys: object, counts: object) -> None:
        """Bulk observe aligned ``keys`` / integer ``counts`` arrays."""
        ks = np.asarray(keys).ravel()
        cs = np.asarray(counts).ravel()
        if ks.shape != cs.shape:
            raise ValueError(
                f"counts must match keys: {cs.shape} vs {ks.shape}"
            )
        for k, c in zip(ks.tolist(), cs.tolist()):
            self.add(str(k), int(c))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> int:
        """Upper-bound count estimate for ``key`` (0 if untracked)."""
        return self._counts.get(key, 0)

    def error(self, key: str) -> int:
        """Overestimate bound for a tracked ``key`` (0 if untracked)."""
        return self._errors.get(key, 0)

    def guaranteed_count(self, key: str) -> int:
        """Certain lower bound: ``estimate - error``."""
        return self.estimate(key) - self.error(key)

    @property
    def min_estimate(self) -> int:
        """Smallest tracked estimate (0 while below capacity)."""
        if len(self._counts) < self.capacity:
            return 0
        return min(self._counts.values())

    @property
    def error_bound(self) -> float:
        """``n / capacity`` -- the universal overestimate bound."""
        return self.n / self.capacity

    def top(self, k: int | None = None) -> list[tuple[str, int]]:
        """``(key, estimate)`` pairs, highest estimate first.

        Ties break on the lexicographically smaller key so the ordering
        is deterministic.
        """
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if k is None else ranked[:k]

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: SpaceSavingCounter) -> None:
        """Fold ``other`` in; the result keeps the superset guarantee."""
        if other.capacity != self.capacity:
            raise ValueError(
                "cannot merge counters with different capacities: "
                f"{self.capacity} vs {other.capacity}"
            )
        self_min = self.min_estimate
        other_min = other.min_estimate
        merged: dict[str, int] = {}
        errors: dict[str, int] = {}
        for key in sorted(set(self._counts) | set(other._counts)):
            in_self = key in self._counts
            in_other = key in other._counts
            est = (self._counts.get(key, self_min)
                   + other._counts.get(key, other_min))
            err = (self._errors[key] if in_self else self_min) + (
                other._errors[key] if in_other else other_min)
            merged[key] = est
            errors[key] = err
        kept = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = kept[:self.capacity]
        self._counts = dict(kept)
        self._errors = {k: errors[k] for k, _ in kept}
        self.n += other.n

    def fingerprint_parts(self) -> tuple[object, ...]:
        """Plain-data state for :func:`repro.cache.fingerprint`."""
        return ("spacesaving", self.capacity, self.n,
                dict(sorted(self._counts.items())),
                dict(sorted(self._errors.items())))

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpaceSavingCounter(capacity={self.capacity}, n={self.n}, "
                f"tracked={len(self)})")


@dataclass(slots=True)
class _Group:
    """Running sums of one duration key's super-Function."""

    row: np.ndarray
    count: int
    weighted_dur: float
    plain_dur: float
    size: int


class RateMatrixAccumulator:
    """Exact online aggregation of per-minute rows by quantised duration.

    The one implementation of the shrink ray's aggregation (paper
    section 3.1.2): functions sharing a quantised mean duration merge
    into one super-Function whose per-minute row is the sum of its
    members'.  :func:`repro.core.aggregation.aggregate_functions` folds
    each shard of a trace into one, streaming summaries each chunk.

    Integer outputs (rate matrix, per-group invocation counts and sizes)
    are exact for any blocking.  Group durations come from float sums
    taken in observation order, so they are deterministic for a fixed
    sequence of blocks and merges.  A group's duration is its members'
    invocation-weighted mean, or their plain mean if none was invoked:
    never-invoked rows are kept and count in ``sizes``.

    State is bounded by the number of distinct duration keys (~12.7K for
    the Azure day at 1 ms quantisation), not by the number of functions.
    """

    __slots__ = ("n_minutes", "quantize_ms", "_groups")

    def __init__(self, n_minutes: int, quantize_ms: float = 1.0) -> None:
        if n_minutes < 1:
            raise ValueError(f"n_minutes must be >= 1, got {n_minutes}")
        if quantize_ms <= 0:
            raise ValueError(
                f"quantize_ms must be positive, got {quantize_ms}"
            )
        self.n_minutes = int(n_minutes)
        self.quantize_ms = float(quantize_ms)
        self._groups: dict[int, _Group] = {}

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def total_invocations(self) -> int:
        return sum(g.count for g in self._groups.values())

    def quantize(self, durations_ms: object) -> np.ndarray:
        """Quantised duration keys: round half away from zero, floored
        at one step so sub-quantum functions keep a positive key."""
        d = np.asarray(durations_ms, dtype=np.float64)
        keys: np.ndarray = np.maximum(
            np.round(d / self.quantize_ms), 1.0
        ).astype(np.int64)
        return keys

    def observe_block(
        self,
        durations_ms: object,
        per_minute: object,
    ) -> None:
        """Fold one block of function rows in.

        ``durations_ms`` is ``(rows,)`` float; ``per_minute`` is
        ``(rows, n_minutes)`` integer counts.
        """
        durations = np.asarray(durations_ms, dtype=np.float64)
        matrix = np.asarray(per_minute)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_minutes:
            raise ValueError(
                f"per_minute block must be (rows, {self.n_minutes}), got "
                f"{matrix.shape}"
            )
        if durations.shape != (matrix.shape[0],):
            raise ValueError(
                "durations must align with per_minute rows: "
                f"{durations.shape} vs {matrix.shape}"
            )
        if not np.issubdtype(matrix.dtype, np.integer):
            raise ValueError("per_minute block must be an integer array")
        matrix = matrix.astype(np.int64, copy=False)
        totals = matrix.sum(axis=1, dtype=np.int64)

        uniq, inverse = np.unique(self.quantize(durations),
                                  return_inverse=True)
        rows = np.zeros((uniq.size, self.n_minutes), dtype=np.int64)
        np.add.at(rows, inverse, matrix)
        counts = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(counts, inverse, totals)
        weighted = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(weighted, inverse, durations * totals.astype(np.float64))
        plain = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(plain, inverse, durations)
        sizes = np.bincount(inverse, minlength=uniq.size)
        for i, key in enumerate(uniq.tolist()):
            self._fold(key, _Group(rows[i], int(counts[i]),
                                   float(weighted[i]), float(plain[i]),
                                   int(sizes[i])))

    def merge(self, other: RateMatrixAccumulator) -> None:
        """Fold ``other`` in (exact; order only affects float rounding)."""
        if (other.n_minutes != self.n_minutes
                or other.quantize_ms != self.quantize_ms):
            raise ValueError(
                "cannot merge rate accumulators with different shapes: "
                f"({self.n_minutes}, {self.quantize_ms}) vs "
                f"({other.n_minutes}, {other.quantize_ms})"
            )
        for key in sorted(other._groups):
            self._fold(key, other._groups[key])

    def _fold(self, key: int, part: _Group) -> None:
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = _Group(part.row.copy(), part.count,
                                       part.weighted_dur, part.plain_dur,
                                       part.size)
        else:
            group.row += part.row
            group.count += part.count
            group.weighted_dur += part.weighted_dur
            group.plain_dur += part.plain_dur
            group.size += part.size

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
        """``(keys, matrix, counts, durations, sizes)`` sorted by key.

        ``matrix`` is the exact ``(n_groups, n_minutes)`` int64 rate
        matrix; ``durations`` the invocation-weighted mean duration per
        group (the plain mean for a group never invoked).
        """
        if not self._groups:
            raise ValueError("accumulator has observed no invoked functions")
        keys = sorted(self._groups)
        groups = [self._groups[k] for k in keys]
        matrix = np.vstack([g.row for g in groups])
        counts = np.asarray([g.count for g in groups], dtype=np.int64)
        weighted = np.asarray([g.weighted_dur for g in groups],
                              dtype=np.float64)
        plain = np.asarray([g.plain_dur for g in groups], dtype=np.float64)
        sizes = np.asarray([g.size for g in groups], dtype=np.int64)
        invoked = counts > 0
        durations = np.where(
            invoked, weighted / np.where(invoked, counts, 1), plain / sizes
        )
        return (np.asarray(keys, dtype=np.int64), matrix, counts,
                durations, sizes)

    def fingerprint_parts(self) -> tuple[object, ...]:
        """Plain-data state for :func:`repro.cache.fingerprint`."""
        keys, matrix, counts, durations, sizes = self.finalize()
        return ("ratematrix", self.n_minutes, self.quantize_ms,
                keys, matrix, counts, durations, sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RateMatrixAccumulator(n_minutes={self.n_minutes}, "
                f"quantize_ms={self.quantize_ms}, groups={self.n_groups})")
