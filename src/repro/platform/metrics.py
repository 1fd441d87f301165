"""Per-invocation records and aggregate metrics for the FaaS simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.platform.simulator_vec import RecordColumns

__all__ = [
    "InvocationRecord",
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


def summarize(records: list[InvocationRecord]) -> dict:
    """Aggregate a run's records into the usual serving metrics."""
    if not records:
        raise ValueError("no records to summarise")
    arrival = np.array([r.arrival_s for r in records])
    start = np.array([r.start_s for r in records])
    end = np.array([r.end_s for r in records])
    return _summary(
        latency_ms=(end - arrival) * 1e3,
        queueing_ms=(start - arrival) * 1e3,
        cold=np.array([r.cold for r in records]),
        ok=np.array([getattr(r, "ok", True) for r in records]),
        nodes=np.array([r.node for r in records]),
    )


def summarize_columns(columns: RecordColumns) -> dict:
    """Columnar :func:`summarize`: identical output, no record objects.

    Takes the :class:`~repro.platform.simulator_vec.RecordColumns` a
    cluster's ``drain_columns()`` / ``record_columns()`` returns and
    computes the same summary dict as :func:`summarize` does from the
    materialised record list, byte for byte: both build the same float64
    arrays (``(end - arrival) * 1e3`` is one IEEE operation per row
    either way) and hand them to one shared reduction.
    """
    if not len(columns):
        raise ValueError("no records to summarise")
    return _summary(
        latency_ms=columns.latency_ms,
        queueing_ms=columns.queueing_ms,
        cold=columns.cold,
        ok=columns.ok,
        nodes=columns.node,
    )


def _summary(*, latency_ms: np.ndarray, queueing_ms: np.ndarray,
             cold: np.ndarray, ok: np.ndarray, nodes: np.ndarray) -> dict:
    """The reduction behind :func:`summarize` and
    :func:`summarize_columns`: one array per record field in, the
    summary dict out."""
    node_ids, node_counts = np.unique(nodes, return_counts=True)
    return {
        "n_invocations": int(latency_ms.size),
        "ok_fraction": float(ok.mean()),
        "cold_fraction": float(cold.mean()),
        "latency_ms": {
            "p50": float(np.percentile(latency_ms, 50)),
            "p90": float(np.percentile(latency_ms, 90)),
            "p99": float(np.percentile(latency_ms, 99)),
            "mean": float(latency_ms.mean()),
        },
        "queueing_ms_mean": float(queueing_ms.mean()),
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

    Takes a :class:`~repro.loadgen.replay.ReplayResult` produced by the
    resilient path.  ``delivered_fraction`` counts requests that reached
    the backend and succeeded (``ok`` + ``retried``); ``failed`` groups
    everything else.
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


def dispatch_lag_summary(lag_ms: np.ndarray,
                         *, late_threshold_ms: float = 1.0) -> dict:
    """Intended-vs-actual dispatch lag, the open-loop health signal.

    ``lag_ms`` is the per-request lag array a service run records (0 for
    on-time sends).  High lag with low backend ``service_ms`` means the
    *dispatcher* stalled (under-provisioned load driver); high latency
    with near-zero lag means the *backend* is slow -- the distinction
    coordinated-omission-safe measurement exists to preserve.
    """
    lag_ms = np.asarray(lag_ms, dtype=np.float64)
    if lag_ms.size == 0:
        raise ValueError("no dispatch lag samples")
    late = lag_ms > late_threshold_ms
    return {
        "n_requests": int(lag_ms.size),
        "mean_ms": float(lag_ms.mean()),
        "p99_ms": float(np.percentile(lag_ms, 99)),
        "max_ms": float(lag_ms.max()),
        "late_fraction": float(late.mean()),
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

    ``records`` is either a :class:`RecordColumns` or a
    ``list[InvocationRecord]`` -- both yield the same float64 arrays,
    so the result is identical across engines.  Busy core-time is the
    total *wall-clock* occupancy (start to end, dilation included);
    capacity is ``cores * n_nodes`` over the run's makespan (first
    arrival to last completion).  Under oversubscription the ratio
    exceeds 1.0 -- invocations hold run-queue slots beyond the physical
    cores -- so read it as demand pressure, not physical core busy
    time.  ``preemptions_per_invocation`` summarises how often the CPU
    model preempted work (0 when no model was configured).
    """
    if cores <= 0 or n_nodes <= 0:
        raise ValueError("cores and n_nodes must be positive")
    if isinstance(records, list):
        if not records:
            raise ValueError("no records")
        start = np.array([r.start_s for r in records], np.float64)
        end = np.array([r.end_s for r in records], np.float64)
        arrival = np.array([r.arrival_s for r in records], np.float64)
        preempt = np.array(
            [getattr(r, "preemptions", 0) for r in records], np.int64
        )
    else:
        if not len(records):
            raise ValueError("no records")
        start = np.asarray(records.start_s, np.float64)
        end = np.asarray(records.end_s, np.float64)
        arrival = np.asarray(records.arrival_s, np.float64)
        preempt = np.asarray(records.preemptions, np.int64)
    busy_core_s = float(np.sum(end - start))
    makespan_s = float(end.max() - arrival.min())
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
