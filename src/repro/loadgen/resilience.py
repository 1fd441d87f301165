"""Resilience policies for the replay engine.

The replayer's client-side fault handling, mirroring what production FaaS
clients do when the platform misbehaves (see ``repro.platform.faults``
for making it misbehave on purpose):

- :class:`RetryPolicy` -- bounded retries with exponential backoff,
  deterministic per-request jitter, and a per-request deadline;
- :class:`CircuitBreaker` -- consecutive-failure tripping with timed
  half-open probing, clocked on *trace time* so simulator runs stay
  deterministic;
- :data:`OUTCOMES` -- the per-request outcome taxonomy the resilient
  replay path records;
- :func:`deliver` -- the one per-request delivery loop that applies
  both policies and decides the outcome, shared by
  :func:`repro.loadgen.replay.replay` and the load service;
- checkpoint save/load -- periodic NPZ snapshots of replay progress so a
  killed replay resumes from the last completed offset.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "OUTCOMES",
    "OUTCOME_CODES",
    "CircuitBreaker",
    "RetryPolicy",
    "deliver",
    "load_checkpoint",
    "save_checkpoint",
]

#: Per-request outcomes, in code order (index == stored uint8 code).
#:
#: ok       -- succeeded on the first attempt
#: retried  -- succeeded after at least one retry
#: error    -- every allowed attempt failed with a retryable fault
#: timeout  -- the per-request deadline expired before success
#: shed     -- load-shed without submission (circuit breaker open)
#: dropped  -- failed with a non-retryable fault (no retry can help)
OUTCOMES = ("ok", "retried", "error", "timeout", "shed", "dropped")
OUTCOME_CODES = {name: np.uint8(i) for i, name in enumerate(OUTCOMES)}
_OK, _RETRIED, _ERROR, _TIMEOUT, _SHED, _DROPPED = range(len(OUTCOMES))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``backoff_s`` grows as ``base_delay_s * multiplier**(attempt-1)``,
    capped at ``max_delay_s`` and scaled by a jitter factor drawn
    uniformly from ``[1-jitter, 1+jitter]``.  The jitter draw is keyed on
    ``(seed, request_index, attempt)`` rather than on call history, so a
    replay resumed from a checkpoint sees exactly the delays an
    uninterrupted run would have.

    ``deadline_s`` bounds the *cumulative backoff* a single request may
    accrue; exceeding it yields outcome ``timeout``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    multiplier: float = 2.0
    max_delay_s: float = 10.0
    jitter: float = 0.1
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, attempt: int, request_index: int = 0) -> float:
        """Delay before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt must be at least 1")
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        if self.jitter > 0:
            rng = np.random.default_rng(
                [self.seed, request_index, attempt]
            )
            delay *= float(rng.uniform(1 - self.jitter, 1 + self.jitter))
        return delay


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    States follow the classic pattern: *closed* (all traffic) trips to
    *open* after ``failure_threshold`` consecutive failures; after
    ``reset_timeout_s`` of trace time the breaker goes *half-open* and
    admits up to ``half_open_probes`` probe requests -- any probe failure
    re-opens it, ``half_open_probes`` successes close it.  While open,
    the replayer sheds load (outcome ``shed``) instead of submitting.

    The clock is the *request timestamp*, not the wall clock, so
    breaker behaviour is reproducible for simulated replays at infinite
    speed.  Transitions are recorded in :attr:`transitions` and, with a
    ``tracer`` attached, emitted as ``breaker_*`` platform events.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 half_open_probes: int = 1, *, tracer=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_probes = half_open_probes
        self.tracer = tracer
        self.state = "closed"
        self.transitions: list[tuple[float, str]] = []
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_successes = 0

    # ------------------------------------------------------------------
    def allow(self, now_s: float) -> bool:
        """May a request be submitted at trace time ``now_s``?"""
        if self.state == "open":
            if now_s - self._opened_at >= self.reset_timeout_s:
                self._transition("half-open", now_s)
                self._probe_successes = 0
                return True
            return False
        return True

    def record_success(self, now_s: float) -> None:
        self._consecutive_failures = 0
        if self.state == "half-open":
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._transition("closed", now_s)

    def record_failure(self, now_s: float) -> None:
        self._consecutive_failures += 1
        if self.state == "half-open":
            self._open(now_s)
        elif (self.state == "closed"
              and self._consecutive_failures >= self.failure_threshold):
            self._open(now_s)

    # ------------------------------------------------------------------
    def _open(self, now_s: float) -> None:
        self._opened_at = now_s
        self._consecutive_failures = 0
        self._transition("open", now_s)

    def _transition(self, state: str, now_s: float) -> None:
        self.state = state
        self.transitions.append((now_s, state))
        if self.tracer is not None:
            kind = "breaker_" + state.replace("-", "_")
            self.tracer.emit(now_s, kind, -1, "")


def deliver(send: Callable[..., object], ts: float, workload_id: str,
            index: int, retry: RetryPolicy | None,
            breaker: CircuitBreaker | None,
            speed: float) -> tuple[int, int]:
    """Deliver one request; returns ``(outcome code, attempts)``.

    ``send(ts, workload_id, index, attempt, deadline_left_s)`` submits
    one attempt and raises on failure; ``deadline_left_s`` is the
    backoff budget still unspent (``None`` without a deadline).  An
    exception whose ``retryable`` attribute is false ends the request
    as ``dropped``; other failures are retried after the
    :meth:`RetryPolicy.backoff_s` keyed on ``(attempt, index)`` until
    attempts run out (``error``) or the next backoff would exceed the
    deadline (``timeout``).  The breaker is consulted before the first attempt
    (``shed`` with 0 attempts) and after every backoff, and is fed every
    attempt's result, all at trace time ``ts``.  At finite ``speed`` the
    backoff is slept, scaled by ``speed``.
    """
    if breaker is not None and not breaker.allow(ts):
        return _SHED, 0
    max_attempts = 1 if retry is None else retry.max_attempts
    deadline_s = None if retry is None else retry.deadline_s
    attempt = 0
    waited_s = 0.0
    while True:
        attempt += 1
        try:
            send(ts, workload_id, index, attempt,
                 None if deadline_s is None else deadline_s - waited_s)
        except Exception as exc:
            if breaker is not None:
                breaker.record_failure(ts)
            if not getattr(exc, "retryable", True):
                return _DROPPED, attempt
            if attempt >= max_attempts:
                return _ERROR, attempt
            backoff = retry.backoff_s(attempt, index)
            if deadline_s is not None and waited_s + backoff > deadline_s:
                return _TIMEOUT, attempt
            waited_s += backoff
            if backoff > 0 and math.isfinite(speed):
                time.sleep(backoff / speed)
            if breaker is not None and not breaker.allow(ts):
                return _SHED, attempt
        else:
            if breaker is not None:
                breaker.record_success(ts)
            return (_OK if attempt == 1 else _RETRIED), attempt


# ----------------------------------------------------------------------
# replay checkpoints
# ----------------------------------------------------------------------

_CKPT_VERSION = 1


def save_checkpoint(path: Path | str, *, offset: int,
                    outcomes: np.ndarray, attempts: np.ndarray,
                    trace_fingerprint: tuple[int, float, float],
                    shard: tuple[int, int, int] | None = None) -> None:
    """Atomically write replay progress through request ``offset``.

    The fingerprint (``n_requests, first_ts, last_ts``) guards a resume
    against a different trace.  ``shard`` -- ``(shard_index, lo, hi)``
    in global request coordinates -- extends the fingerprint for the
    supervised load service, whose per-shard checkpoints must never be
    resumed into a different shard of the same trace.  The write goes
    through a temp file + ``os.replace`` so a kill mid-write never
    leaves a torn checkpoint.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    n, first_ts, last_ts = trace_fingerprint
    arrays = dict(
        version=np.int64(_CKPT_VERSION),
        offset=np.int64(offset),
        outcomes=np.asarray(outcomes[:offset], dtype=np.uint8),
        attempts=np.asarray(attempts[:offset], dtype=np.int32),
        n_requests=np.int64(n),
        first_ts=np.float64(first_ts),
        last_ts=np.float64(last_ts),
    )
    if shard is not None:
        arrays["shard"] = np.asarray(shard, dtype=np.int64)
    with open(tmp, "wb") as fh:  # file handle: savez must not append .npz
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_checkpoint(path: Path | str,
                    trace_fingerprint: tuple[int, float, float],
                    *, shard: tuple[int, int, int] | None = None,
                    ) -> tuple[int, np.ndarray, np.ndarray]:
    """Read a checkpoint, returning ``(offset, outcomes, attempts)``.

    Raises ValueError if the file does not match ``trace_fingerprint`` --
    resuming one trace's replay with another is almost certainly a bug.
    With ``shard`` given, the stored per-shard fingerprint must match it
    exactly; a whole-trace checkpoint (no stored shard) is likewise
    rejected, and vice versa.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        required = {"version", "offset", "outcomes", "attempts",
                    "n_requests", "first_ts", "last_ts"}
        missing = required - set(data.files)
        if missing:
            raise ValueError(
                f"{path}: not a replay checkpoint (missing "
                f"{sorted(missing)})"
            )
        if int(data["version"]) != _CKPT_VERSION:
            raise ValueError(
                f"{path}: checkpoint version {int(data['version'])} "
                f"unsupported (expected {_CKPT_VERSION})"
            )
        n, first_ts, last_ts = trace_fingerprint
        stored = (int(data["n_requests"]), float(data["first_ts"]),
                  float(data["last_ts"]))
        if stored != (n, first_ts, last_ts):
            raise ValueError(
                f"{path}: checkpoint was taken for a different trace "
                f"(fingerprint {stored}, trace {trace_fingerprint})"
            )
        stored_shard = (tuple(int(v) for v in data["shard"])
                        if "shard" in data.files else None)
        if shard is not None and stored_shard is None:
            raise ValueError(
                f"{path}: whole-trace checkpoint cannot resume shard "
                f"{shard}"
            )
        if stored_shard is not None and stored_shard != shard:
            raise ValueError(
                f"{path}: checkpoint belongs to shard {stored_shard}, "
                f"not {shard}"
            )
        offset = int(data["offset"])
        if not 0 <= offset <= n:
            raise ValueError(f"{path}: corrupt offset {offset}")
        outcomes = np.array(data["outcomes"], dtype=np.uint8)
        attempts = np.array(data["attempts"], dtype=np.int32)
        if outcomes.shape != (offset,) or attempts.shape != (offset,):
            raise ValueError(f"{path}: arrays do not match offset")
    return offset, outcomes, attempts
