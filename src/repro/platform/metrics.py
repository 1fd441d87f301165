"""Per-invocation records and aggregate metrics for the FaaS simulator."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, overload

import numpy as np
import numpy.typing as npt

from repro.telemetry import registry as _telemetry

__all__ = [
    "InvocationRecord",
    "RecordColumns",
    "RecordList",
    "breaker_uptime",
    "cpu_utilization",
    "dispatch_lag_summary",
    "memory_utilization",
    "outcome_summary",
    "per_workload_cold_rates",
    "record_outcome_metrics",
    "retry_histogram",
    "summarize",
    "summarize_columns",
]


@dataclass(frozen=True)
class InvocationRecord:
    """One completed invocation, as observed by the backend.

    ``ok`` is False when the invocation ran but failed -- a workload
    exception in the live executor, or an injected sandbox crash in the
    simulator; its latency then covers the time until the failure.
    ``preemptions`` counts the timeslice expiries the invocation
    suffered under the CPU-contention model
    (:class:`~repro.platform.cpu.CpuModel`); 0 whenever no CPU model is
    configured or the node had core headroom.
    """

    workload_id: str
    node: int
    arrival_s: float
    start_s: float
    end_s: float
    cold: bool
    ok: bool = True
    preemptions: int = 0

    def __post_init__(self) -> None:
        if not self.arrival_s <= self.start_s <= self.end_s:
            raise ValueError(
                f"invalid invocation timeline: arrival={self.arrival_s}, "
                f"start={self.start_s}, end={self.end_s}"
            )

    @property
    def latency_ms(self) -> float:
        """End-to-end latency: queueing + cold start + execution."""
        return (self.end_s - self.arrival_s) * 1e3

    @property
    def queueing_ms(self) -> float:
        return (self.start_s - self.arrival_s) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.end_s - self.start_s) * 1e3


# ----------------------------------------------------------------------
# columnar records
# ----------------------------------------------------------------------
def _materialise(
    words: Sequence[str],
    codes: npt.NDArray[np.int32],
    node: npt.NDArray[np.int32],
    arrival_s: npt.NDArray[np.float64],
    start_s: npt.NDArray[np.float64],
    end_s: npt.NDArray[np.float64],
    cold: npt.NDArray[np.bool_],
    ok: npt.NDArray[np.bool_],
    preemptions: npt.NDArray[np.int32],
) -> list[InvocationRecord]:
    """One ``InvocationRecord`` per row of the given column slices.

    Each column crosses into Python in one ``tolist`` pass, which yields
    exactly the record's field types (``int``, ``float``, ``bool``), so
    no row touches a NumPy scalar.  With telemetry on, the rows built
    are counted in ``platform_records_materialised_total``.
    """
    reg = _telemetry.active()
    if reg is not None:
        reg.counter(
            "platform_records_materialised_total",
            "InvocationRecord objects built from columnar records",
        ).inc(int(codes.size))
    return list(map(
        InvocationRecord,
        [words[c] for c in codes.tolist()],
        node.tolist(), arrival_s.tolist(), start_s.tolist(),
        end_s.tolist(), cold.tolist(), ok.tolist(), preemptions.tolist(),
    ))


@dataclass(frozen=True)
class RecordColumns:
    """Struct-of-arrays view of a run's invocation records.

    The columnar equivalent of ``list[InvocationRecord]``: row ``i`` of
    every array is record ``i``, in the same order the scalar loop
    appends records.  ``workload_codes`` indexes into ``vocabulary``
    (first-appearance order).  Arrays are defensive copies -- safe to
    keep after the cluster keeps running.
    """

    workload_codes: npt.NDArray[np.int32]
    vocabulary: tuple[str, ...]
    node: npt.NDArray[np.int32]
    arrival_s: npt.NDArray[np.float64]
    start_s: npt.NDArray[np.float64]
    end_s: npt.NDArray[np.float64]
    cold: npt.NDArray[np.bool_]
    ok: npt.NDArray[np.bool_]
    preemptions: npt.NDArray[np.int32]

    @classmethod
    def from_records(cls, records: Iterable[Any]) -> RecordColumns:
        """Columns holding the given records' fields, row for row.

        Takes ``InvocationRecord``-like objects; ``ok`` defaults to True
        and ``preemptions`` to 0 for records without those fields.  The
        vocabulary is the workload ids in first-appearance order.
        """
        rows = list(records)
        vocab: dict[str, int] = {}
        return cls(
            workload_codes=np.array(
                [vocab.setdefault(r.workload_id, len(vocab)) for r in rows],
                np.int32,
            ),
            vocabulary=tuple(vocab),
            node=np.array([r.node for r in rows], np.int32),
            arrival_s=np.array([r.arrival_s for r in rows], np.float64),
            start_s=np.array([r.start_s for r in rows], np.float64),
            end_s=np.array([r.end_s for r in rows], np.float64),
            cold=np.array([r.cold for r in rows], np.bool_),
            ok=np.array([getattr(r, "ok", True) for r in rows], np.bool_),
            preemptions=np.array(
                [getattr(r, "preemptions", 0) for r in rows], np.int32
            ),
        )

    @classmethod
    def concat(cls, parts: Sequence[RecordColumns]) -> RecordColumns:
        """The parts' rows, in order, as one set of columns.

        The vocabularies merge in first-appearance order (part by part)
        and each part's codes are remapped onto the merged vocabulary.
        """
        if not parts:
            return cls.from_records(())
        index: dict[str, int] = {}
        codes = []
        for part in parts:
            remap = np.array(
                [index.setdefault(w, len(index)) for w in part.vocabulary],
                np.int32,
            )
            codes.append(remap[part.workload_codes])

        def cat(name: str) -> Any:
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(
            workload_codes=np.concatenate(codes),
            vocabulary=tuple(index),
            node=cat("node"),
            arrival_s=cat("arrival_s"),
            start_s=cat("start_s"),
            end_s=cat("end_s"),
            cold=cat("cold"),
            ok=cat("ok"),
            preemptions=cat("preemptions"),
        )

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    @property
    def latency_ms(self) -> npt.NDArray[np.float64]:
        return (self.end_s - self.arrival_s) * 1e3

    @property
    def queueing_ms(self) -> npt.NDArray[np.float64]:
        return (self.start_s - self.arrival_s) * 1e3

    @property
    def service_ms(self) -> npt.NDArray[np.float64]:
        return (self.end_s - self.start_s) * 1e3

    def workload_ids(self) -> list[str]:
        words = self.vocabulary
        return [words[c] for c in self.workload_codes.tolist()]

    def to_records(self) -> list[InvocationRecord]:
        """Materialise fresh ``InvocationRecord`` objects (one per row)."""
        return _materialise(
            self.vocabulary, self.workload_codes, self.node,
            self.arrival_s, self.start_s, self.end_s, self.cold, self.ok,
            self.preemptions,
        )


class RecordList(Sequence[InvocationRecord]):
    """Read-only sequence of ``InvocationRecord`` over one
    :class:`RecordColumns`.

    ``len`` reads the columns.  The first index or iteration
    materialises every row once and caches the list, so later reads
    return the same objects.  ``==`` compares row by row with any
    sequence, and pickling ships only the columns.
    """

    __slots__ = ("columns", "_rows")

    def __init__(self, columns: RecordColumns) -> None:
        self.columns = columns
        self._rows: list[InvocationRecord] | None = None

    def _materialised(self) -> list[InvocationRecord]:
        rows = self._rows
        if rows is None:
            rows = self._rows = self.columns.to_records()
        return rows

    def __len__(self) -> int:
        return len(self.columns)

    @overload
    def __getitem__(self, index: int) -> InvocationRecord: ...

    @overload
    def __getitem__(self, index: slice) -> list[InvocationRecord]: ...

    def __getitem__(
        self, index: int | slice
    ) -> InvocationRecord | list[InvocationRecord]:
        return self._materialised()[index]

    def __iter__(self) -> Iterator[InvocationRecord]:
        return iter(self._materialised())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def __reduce__(self) -> tuple[type[RecordList], tuple[RecordColumns]]:
        return (RecordList, (self.columns,))


def _as_columns(records: Any) -> RecordColumns:
    """Any record form -- columns, a :class:`RecordList`, or a sequence
    of ``InvocationRecord``-like objects -- as :class:`RecordColumns`."""
    if isinstance(records, RecordColumns):
        return records
    if isinstance(records, RecordList):
        return records.columns
    return RecordColumns.from_records(records)


def summarize(records: Sequence[InvocationRecord]) -> dict:
    """Aggregate a run's records into the usual serving metrics.

    Reads a :class:`RecordList`'s columns directly; any other sequence
    of records is first turned into columns
    (:meth:`RecordColumns.from_records`), so every form goes through the
    one reduction in :func:`summarize_columns`.
    """
    return summarize_columns(_as_columns(records))


def summarize_columns(columns: RecordColumns) -> dict:
    """The serving metrics of a run's records, computed on columns.

    Takes the :class:`RecordColumns` a cluster's ``drain_columns()`` /
    ``record_columns()`` returns; :func:`summarize` hands every other
    record form here, so the summary of one run is the same dict
    whichever form its records came in.
    """
    if not len(columns):
        raise ValueError("no records to summarise")
    latency_ms = columns.latency_ms
    node_ids, node_counts = np.unique(columns.node, return_counts=True)
    return {
        "n_invocations": int(latency_ms.size),
        "ok_fraction": float(columns.ok.mean()),
        "cold_fraction": float(columns.cold.mean()),
        "latency_ms": {
            "p50": float(np.percentile(latency_ms, 50)),
            "p90": float(np.percentile(latency_ms, 90)),
            "p99": float(np.percentile(latency_ms, 99)),
            "mean": float(latency_ms.mean()),
        },
        "queueing_ms_mean": float(columns.queueing_ms.mean()),
        "per_node_invocations": dict(
            zip(node_ids.tolist(), node_counts.tolist())
        ),
        "node_imbalance": float(node_counts.max() / node_counts.mean()),
    }


def per_workload_cold_rates(
    records: list[InvocationRecord],
    min_invocations: int = 1,
) -> dict[str, float]:
    """Cold-start fraction per workload (the cold-start-research view)."""
    if not records:
        raise ValueError("no records")
    totals: dict[str, int] = {}
    colds: dict[str, int] = {}
    for r in records:
        totals[r.workload_id] = totals.get(r.workload_id, 0) + 1
        if r.cold:
            colds[r.workload_id] = colds.get(r.workload_id, 0) + 1
    return {
        wid: colds.get(wid, 0) / n
        for wid, n in totals.items()
        if n >= min_invocations
    }


def outcome_summary(result) -> dict:
    """Resilient-replay outcome counters a fault-tolerance study reports.

    Takes a :class:`~repro.loadgen.replay.ReplayResult` that carries
    outcomes: a replay with a resilience option set, or a
    :class:`~repro.loadgen.service.ServiceResult`.
    ``delivered_fraction`` counts requests that reached the backend and
    succeeded (``ok`` + ``retried``); ``failed`` groups everything else.
    """
    counts = result.outcome_counts()
    n = sum(counts.values())
    delivered = counts["ok"] + counts["retried"]
    return {
        "counts": counts,
        "n_requests": n,
        "delivered_fraction": delivered / n if n else 0.0,
        "shed_fraction": counts["shed"] / n if n else 0.0,
        "mean_attempts": (
            float(result.attempts[result.attempts > 0].mean())
            if result.attempts is not None and np.any(result.attempts > 0)
            else 0.0
        ),
    }


def dispatch_lag_summary(lag_ms: np.ndarray, overslept: np.ndarray,
                         *, late_threshold_ms: float = 1.0) -> dict:
    """Intended-vs-actual dispatch lag, the open-loop health signal.

    ``lag_ms`` is the per-request lag array a service run records (0 for
    on-time sends).  High lag with low backend ``service_ms`` means the
    *dispatcher* stalled (under-provisioned load driver); high latency
    with near-zero lag means the *backend* is slow -- the distinction
    coordinated-omission-safe measurement exists to preserve.

    ``overslept`` (one bool per request: the pacer slept before the
    send) splits the late sends by cause into ``late_oversleep`` (the
    pacer woke late) and ``late_backlog`` (no sleep: the sends before it
    ran past its send time), given as counts and as fractions of all
    requests; the two fractions sum to ``late_fraction``.
    """
    lag_ms = np.asarray(lag_ms, dtype=np.float64)
    if lag_ms.size == 0:
        raise ValueError("no dispatch lag samples")
    late = lag_ms > late_threshold_ms
    n_late = int(np.count_nonzero(late))
    oversleep = int(np.count_nonzero(late & overslept))
    return {
        "n_requests": int(lag_ms.size),
        "mean_ms": float(lag_ms.mean()),
        "p99_ms": float(np.percentile(lag_ms, 99)),
        "max_ms": float(lag_ms.max()),
        "late_fraction": float(late.mean()),
        "late_backlog": n_late - oversleep,
        "late_oversleep": oversleep,
        "late_backlog_fraction": (n_late - oversleep) / lag_ms.size,
        "late_oversleep_fraction": oversleep / lag_ms.size,
    }


def retry_histogram(attempts: np.ndarray) -> dict[int, int]:
    """How many requests needed k attempts (k=0: shed, never submitted)."""
    attempts = np.asarray(attempts)
    if attempts.size == 0:
        raise ValueError("no attempt counts")
    ks, counts = np.unique(attempts, return_counts=True)
    return {int(k): int(c) for k, c in zip(ks, counts)}


def breaker_uptime(breaker, horizon_s: float) -> dict:
    """Fraction of trace time a circuit breaker spent in each state.

    ``breaker`` is a :class:`~repro.loadgen.resilience.CircuitBreaker`
    after a replay; ``horizon_s`` the trace duration.  States are
    piecewise-constant between recorded transitions (initial state:
    closed at t=0).
    """
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    spans = {"closed": 0.0, "open": 0.0, "half-open": 0.0}
    prev_t, prev_state = 0.0, "closed"
    for t, state in breaker.transitions:
        t = min(max(t, 0.0), horizon_s)
        spans[prev_state] += t - prev_t
        prev_t, prev_state = t, state
    spans[prev_state] += horizon_s - prev_t
    return {
        state: span / horizon_s for state, span in spans.items()
    } | {"n_transitions": len(breaker.transitions)}


def record_outcome_metrics(registry, result, *, breaker=None,
                           horizon_s: float | None = None) -> None:
    """Fold a resilient replay's diagnostics into a metrics registry.

    Bridges this module's summary helpers to :mod:`repro.telemetry`:
    the attempts-per-request histogram lands in ``replay_attempts`` and,
    when ``breaker`` and ``horizon_s`` are given, per-state uptime
    fractions land in ``breaker_state_fraction{state=...}`` gauges.
    No-op fields are skipped, so the helper is safe on fast-path results.
    """
    if result.attempts is not None and result.attempts.size:
        registry.histogram(
            "replay_attempts",
            "attempts made per request (0 = shed before submission)",
            edges=np.arange(0.0, 11.0),
        ).observe_many(result.attempts)
    if result.outcomes is not None:
        summary = outcome_summary(result)
        registry.gauge(
            "replay_delivered_fraction",
            "fraction of requests that reached the backend and succeeded",
        ).set(summary["delivered_fraction"])
    if breaker is not None and horizon_s is not None:
        uptime = breaker_uptime(breaker, horizon_s)
        for state in ("closed", "open", "half-open"):
            # repro: allow-telemetry-hot-loop (bounded: exactly
            # three labelled gauges, one per breaker state)
            registry.gauge(
                "breaker_state_fraction",
                "fraction of trace time the circuit breaker spent in "
                "each state",
                labels={"state": state},
            ).set(uptime[state])


def cpu_utilization(
    records,
    *,
    cores: int,
    n_nodes: int,
) -> dict:
    """Time-averaged CPU utilisation from a run's invocation records.

    ``records`` is a :class:`RecordColumns` or any sequence of
    ``InvocationRecord`` (a :class:`RecordList` included) -- all yield
    the same float64 arrays, so the result is identical across engines.
    Busy core-time is the total *wall-clock* occupancy (start to end,
    dilation included); capacity is ``cores * n_nodes`` over the run's
    makespan (first arrival to last completion).  Under
    oversubscription the ratio exceeds 1.0 -- invocations hold
    run-queue slots beyond the physical cores -- so read it as demand
    pressure, not physical core busy time.
    ``preemptions_per_invocation`` summarises how often the CPU model
    preempted work (0 when no model was configured).
    """
    if cores <= 0 or n_nodes <= 0:
        raise ValueError("cores and n_nodes must be positive")
    columns = _as_columns(records)
    if not len(columns):
        raise ValueError("no records")
    start, end = columns.start_s, columns.end_s
    preempt = columns.preemptions.astype(np.int64)
    busy_core_s = float(np.sum(end - start))
    makespan_s = float(end.max() - columns.arrival_s.min())
    capacity_s = cores * n_nodes * makespan_s
    return {
        "busy_core_s": busy_core_s,
        "makespan_s": makespan_s,
        "utilization": busy_core_s / capacity_s if capacity_s > 0 else 0.0,
        "preemptions_total": int(preempt.sum()),
        "preemptions_per_invocation": float(preempt.mean()),
    }


def memory_utilization(
    memory_samples: list[tuple[float, int, float]],
    node_capacity_mb: float,
) -> dict:
    """Time-weighted memory utilisation from a cluster's memory samples.

    ``memory_samples`` is the ``(time, node, used_mb)`` stream a
    :class:`~repro.platform.simulator.FaaSCluster` records under
    ``track_memory=True``.  Utilisation is averaged over time per node
    (piecewise-constant between samples) and across nodes.
    """
    if node_capacity_mb <= 0:
        raise ValueError("node capacity must be positive")
    if not memory_samples:
        raise ValueError("no memory samples (enable track_memory)")
    by_node: dict[int, list[tuple[float, float]]] = {}
    for t, node, used in memory_samples:
        by_node.setdefault(node, []).append((t, used))
    per_node = {}
    for node, series in by_node.items():
        times = np.array([t for t, _ in series])
        used = np.array([u for _, u in series])
        if times.size == 1 or times[-1] == times[0]:
            avg = float(used.mean())
        else:
            widths = np.diff(times)
            avg = float((used[:-1] @ widths) / widths.sum())
        per_node[node] = avg / node_capacity_mb
    return {
        "per_node": per_node,
        "mean": float(np.mean(list(per_node.values()))),
        "peak_mb": float(max(u for _, _, u in memory_samples)),
    }
