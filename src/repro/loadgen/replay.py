"""Replay engine: drive a request trace against a backend FaaS system.

The backend protocol is deliberately tiny so both the discrete-event
simulator (:mod:`repro.platform`) and the in-process live executor satisfy
it; the replayer itself is backend-agnostic, as in the paper's design
("replay such specifications against a backend FaaS system").

An unpaced replay without resilience options hands the whole trace to
the backend's ``invoke_many`` when its type defines one.  Every other
replay is a one-shard call of the load service's dispatch loop
(:func:`repro.loadgen.service._dispatch`), the one per-request loop in
the package: it paces (finite ``speed`` only) from an epoch taken at
loop start, then submits.  With no resilience option it sends through
the backend's ``invoke`` (or ``invoke_at`` with the scheduled send time),
so a backend failure propagates.  Otherwise each request gets an
outcome from the :data:`~repro.loadgen.resilience.OUTCOMES` taxonomy --
from :func:`~repro.loadgen.resilience.deliver`, which applies the
:class:`~repro.loadgen.resilience.RetryPolicy` and
:class:`~repro.loadgen.resilience.CircuitBreaker`, or, with neither, from
its one send -- and the loop periodically checkpoints progress so a
killed replay can resume.  A replay has no heartbeat and never sheds for
lag.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from repro.loadgen.requests import RequestTrace
from repro.loadgen.resilience import OUTCOMES, CircuitBreaker, RetryPolicy
from repro.platform.metrics import RecordList
from repro.telemetry import registry as _telemetry

__all__ = ["Backend", "ReplayResult", "replay"]

#: Trace-time bucket (seconds) for the per-window request-count metric.
TELEMETRY_WINDOW_S = 60.0


def _record_replay_telemetry(reg, trace: RequestTrace,
                             result: ReplayResult,
                             breaker: CircuitBreaker | None) -> None:
    """Fold one finished replay into the registry.

    Everything here is vectorised array work over the already-known
    trace, so the replay hot loop itself stays untouched: per-window
    request counts, the inter-arrival histogram, outcome/retry/breaker
    counters.
    """
    ts = trace.timestamps_s
    reg.counter("replay_requests_total",
                "requests submitted to a backend").inc(result.n_requests)
    reg.gauge("replay_wall_clock_s",
              "wall-clock seconds of the last replay"
              ).set(result.wall_clock_s)
    reg.gauge("replay_horizon_s",
              "trace-time horizon of the last replay").set(float(ts[-1]))
    if ts.size > 1:
        # deterministic stride subsample caps the histogram pass at
        # 8-16Ki gaps (DKW noise ~1.5%), keeping huge replays inside the
        # <5% telemetry budget the perf suite pins; gathering the strided
        # gap endpoints directly also spares a full-array diff
        stride = max(1, (ts.size - 1) >> 13)
        lo = np.arange(0, ts.size - 1, stride)
        reg.histogram(
            "replay_interarrival_s",
            "inter-arrival gaps of the replayed trace (seconds; stride-"
            "subsampled beyond 8192 requests)",
        ).observe_many(ts[lo + 1] - ts[lo])
    # timestamps are ascending (RequestTrace invariant), so per-window
    # counts are a searchsorted over the ~horizon/window boundaries --
    # O(windows log n), not a full-array pass
    n_windows = int(ts[-1] // TELEMETRY_WINDOW_S) + 1
    cuts = np.searchsorted(
        ts, np.arange(1, n_windows) * TELEMETRY_WINDOW_S, side="left"
    )
    windows = np.diff(np.concatenate(([0], cuts, [ts.size])))
    reg.histogram(
        "replay_window_requests",
        f"requests per {TELEMETRY_WINDOW_S:.0f}s trace-time window",
        edges=np.array([1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]),
    ).observe_many(windows)
    if result.outcomes is not None:
        counts = np.bincount(result.outcomes, minlength=len(OUTCOMES))
        for name, count in zip(OUTCOMES, counts):
            if count:
                # repro: allow-telemetry-hot-loop (bounded: one
                # labelled counter per outcome kind, <= 6 iterations)
                reg.counter(
                    "replay_outcomes_total",
                    "resilient-replay requests per outcome",
                    labels={"outcome": name},
                ).inc(int(count))
    if result.attempts is not None:
        retried = result.attempts[result.attempts > 1]
        if retried.size:
            reg.counter("replay_retries_total",
                        "extra attempts beyond each request's first"
                        ).inc(int(retried.sum() - retried.size))
    if breaker is not None:
        reg.counter("replay_breaker_transitions_total",
                    "circuit-breaker state transitions"
                    ).inc(len(breaker.transitions))


class Backend(Protocol):
    """What the replayer needs from a FaaS system.

    A backend may also define ``drain_columns()``, returning its records
    as :class:`~repro.platform.metrics.RecordColumns` (the array-native
    simulator does).  The replayer then drains columns instead of
    calling :meth:`drain` and hands out a
    :class:`~repro.platform.metrics.RecordList` view over them.  Like
    ``invoke_many``, it is looked up on the backend's type, so a
    decorator that only forwards attribute access keeps its own
    :meth:`drain`.
    """

    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        """Submit one request arriving at ``timestamp_s``."""

    def drain(self) -> list:
        """Finish all outstanding work and return per-request records."""


def _drain_records(backend: Backend) -> Sequence:
    """Finish ``backend``'s work and return its records: a
    :class:`~repro.platform.metrics.RecordList` over ``drain_columns()``
    when the backend's type defines it, else ``drain()``'s list as is.

    Looked up on the type, not the instance: a decorator that forwards
    attribute access (``FaultyBackend.__getattr__``) must not let the
    columns bypass its own ``drain()``, which rewrites spiked records.
    """
    drain_columns = getattr(type(backend), "drain_columns", None)
    if drain_columns is not None:
        return RecordList(drain_columns(backend))
    return backend.drain()


@dataclass
class ReplayResult:
    """Outcome of one replay run.

    ``outcomes`` and ``attempts`` are populated only when a resilience
    option is set: one outcome code (index into
    :data:`~repro.loadgen.resilience.OUTCOMES`) and one attempt count per
    trace request, in trace order.
    """

    n_requests: int
    wall_clock_s: float
    records: Sequence
    outcomes: np.ndarray | None = field(default=None, repr=False)
    attempts: np.ndarray | None = field(default=None, repr=False)

    def latencies_ms(self) -> np.ndarray:
        """End-to-end latency per request, for records exposing one."""
        records = self.records
        if isinstance(records, RecordList):
            vals = records.columns.latency_ms
        else:
            vals = np.array([r.latency_ms for r in records
                             if hasattr(r, "latency_ms")])
        if not vals.size:
            raise ValueError("backend records carry no latencies")
        return vals

    def cold_start_fraction(self) -> float:
        records = self.records
        if isinstance(records, RecordList):
            flags = records.columns.cold
        else:
            flags = np.array([r.cold for r in records if hasattr(r, "cold")])
        if not flags.size:
            raise ValueError("backend records carry no cold-start flags")
        return float(flags.mean())

    def outcome_counts(self) -> dict[str, int]:
        """Requests per outcome; values sum to ``n_requests``."""
        if self.outcomes is None:
            raise ValueError(
                "no outcomes recorded; replay with retry/breaker/"
                "checkpointing to get the outcome taxonomy"
            )
        counts = np.bincount(self.outcomes, minlength=len(OUTCOMES))
        return {name: int(counts[i]) for i, name in enumerate(OUTCOMES)}

    def retry_counts(self) -> np.ndarray:
        """Attempts made per request (0 for shed requests)."""
        if self.attempts is None:
            raise ValueError("no attempt counts recorded")
        return self.attempts


def replay(
    trace: RequestTrace,
    backend: Backend,
    *,
    speed: float = math.inf,
    retry: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    checkpoint_path: Path | str | None = None,
    checkpoint_every: int = 1000,
    resume: bool = False,
    drift=None,
) -> ReplayResult:
    """Feed every request of ``trace`` to ``backend`` in timestamp order.

    Parameters
    ----------
    trace:
        The generated request series.
    backend:
        Simulator or live executor.
    speed:
        Wall-clock pacing factor: ``inf`` (default) submits as fast as the
        backend accepts (correct for simulators, which keep their own
        virtual clock); ``1.0`` paces submissions in real time; ``60`` runs
        a 1-hour trace in a minute.  Only finite speeds sleep: each send
        is scheduled open-loop at ``epoch + timestamp / speed``, the
        epoch taken when dispatch starts, and a backend whose type
        defines ``invoke_at`` is handed that scheduled send time (and
        the remaining retry deadline), so it measures latency from the
        schedule, not from a late send.
    retry:
        Per-request retry policy.  Failed invocations are re-submitted at
        their *original* timestamp (backend clocks stay monotone); the
        backoff delay counts against the policy deadline and, at finite
        speed, is slept scaled by ``speed``.
    breaker:
        Circuit breaker consulted before every submission; requests
        arriving while it is open are shed, not submitted.
    checkpoint_path:
        When set, replay progress is checkpointed here every
        ``checkpoint_every`` completed requests (and once at the end):
        each checkpoint appends one record for the requests since the
        previous one to a log that a run without ``resume`` starts
        afresh (:func:`~repro.loadgen.resilience.open_checkpoint_log`).
        With ``resume=True`` and an existing checkpoint, the replay
        continues from the stored offset instead of request 0; the
        backend must still hold its earlier state (a live deployment, or
        the same in-process backend object).  Requests completed after
        the last checkpoint but before a kill are re-submitted on resume
        (at-least-once delivery between checkpoints).
    resume:
        Continue from ``checkpoint_path`` if it exists (no-op when it
        does not).
    drift:
        Optional :class:`~repro.telemetry.drift.DriftMonitor` fed the
        replayed requests' expected durations in arrival order, so
        representativeness regressions (e.g. a mis-mapped workload pool)
        emit ``drift_warning`` events.  It reads only trace data, so it
        is fed in one vectorised pass after dispatch, over the requests
        this call sent (from the resume offset on), with each window
        stamped with its last request's trace time.

    Any of ``retry`` / ``breaker`` / ``checkpoint_path`` makes the
    dispatch loop keep a per-request ledger: invocation failures no
    longer propagate, and the result carries per-request ``outcomes``
    and ``attempts``, decided by
    :func:`~repro.loadgen.resilience.deliver` under a retry policy or
    breaker.

    When telemetry is enabled (:func:`repro.telemetry.enable`), every
    replay also folds per-window request counts, the inter-arrival
    histogram, and outcome / retry / breaker counters into the active
    registry -- all as vectorised post-passes, never per-request work,
    so telemetry-on output is byte-identical to telemetry-off output.
    """
    if not speed > 0:
        raise ValueError("speed must be positive")
    if checkpoint_every <= 0:
        raise ValueError("checkpoint_every must be positive")
    resilient = (retry is not None or breaker is not None
                 or checkpoint_path is not None)
    n = trace.n_requests
    # Batched dispatch when the backend supports it (the array-native
    # simulator and any decorator that *explicitly* implements it).
    # Looked up on the type, not the instance: a decorator that only
    # forwards attribute access (e.g. FaultyBackend.__getattr__) must
    # not let the batch bypass its per-request invoke() logic.
    batch_invoke = getattr(type(backend), "invoke_many", None)
    t_start = time.perf_counter()  # repro: allow-wall-clock
    if batch_invoke is not None and not resilient and math.isinf(speed):
        batch_invoke(backend, trace.timestamps_s,
                     trace.workload_ids.tolist())
        outcomes = attempts = None
        start = 0
    else:
        # imported here: the service module imports this one
        from repro.loadgen.service import _dispatch

        payload = _dispatch(
            backend, trace.timestamps_s, trace.workload_ids, speed=speed,
            retry=retry, breaker=breaker, plain=not resilient,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume=resume,
        )
        outcomes, attempts = payload["outcomes"], payload["attempts"]
        start = payload["start"]
    if drift is not None:
        # the monitor sees trace data only, so one pass over the
        # requests this call dispatched equals observing them one by one
        drift.observe_many(trace.runtimes_ms[start:],
                           trace.timestamps_s[start:])
        drift.flush()
    records = _drain_records(backend)
    result = ReplayResult(
        n_requests=n,
        wall_clock_s=time.perf_counter() - t_start,  # repro: allow-wall-clock
        records=records,
        outcomes=outcomes,
        attempts=attempts,
    )
    reg = _telemetry.active()
    if reg is not None:
        _record_replay_telemetry(reg, trace, result, breaker)
    return result
