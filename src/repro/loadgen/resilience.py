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
- checkpoint save/load -- an append-only log of replay progress, one
  record per checkpoint, so a killed replay resumes from the last
  completed offset.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "OUTCOMES",
    "OUTCOME_CODES",
    "CheckpointLog",
    "CircuitBreaker",
    "RetryPolicy",
    "deliver",
    "failure_code",
    "load_checkpoint",
    "open_checkpoint_log",
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
        if not (self.base_delay_s >= 0 and self.max_delay_s >= 0):
            raise ValueError("delays must be non-negative")
        if not self.multiplier >= 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s is not None and not self.deadline_s > 0:
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
        if not reset_timeout_s > 0:
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


def failure_code(exc: BaseException) -> int:
    """Outcome code of a request whose last attempt raised ``exc``:
    ``dropped`` when the exception's ``retryable`` attribute is false,
    else ``error``."""
    return _ERROR if getattr(exc, "retryable", True) else _DROPPED


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
            code = failure_code(exc)
            if code == _DROPPED or attempt >= max_attempts:
                return code, attempt
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
#
# A checkpoint is an append-only log: one header, then one record per
# checkpoint covering only the requests since the previous one, so a
# save costs O(window) and the file is O(n) bytes.
#
#   header  magic, version u32, n_requests i64, first_ts f64,
#           last_ts f64, has_shard u8, shard (index, lo, hi) 3 x i64
#   record  lo i64, hi i64, CRC32 of the payload u32, then the payload:
#           outcomes[lo:hi] as u8 and attempts[lo:hi] as i32
#
# Every field is little-endian.  Records are contiguous from 0.  A kill
# in the middle of an append leaves a torn final record, which readers
# ignore and a resumed writer cuts off before it appends.

_CKPT_MAGIC = b"REPROCKP"
_CKPT_VERSION = 2
_HEADER = struct.Struct("<8sIqddB3q")
_RECORD = struct.Struct("<qqI")
_ZIP_MAGIC = b"PK\x03\x04"  # format 1 was an NPZ (zip) snapshot


def _header(trace_fingerprint: tuple[int, float, float],
            shard: tuple[int, int, int] | None) -> bytes:
    n, first_ts, last_ts = trace_fingerprint
    return _HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, n, first_ts, last_ts,
                        shard is not None, *(shard or (0, 0, 0)))


class CheckpointLog:
    """A checkpoint log open for appending; see
    :func:`open_checkpoint_log`.  ``end`` is the offset its records
    cover so far."""

    def __init__(self, fh, end: int) -> None:
        self.fh = fh
        self.end = end

    def close(self) -> None:
        self.fh.close()

    def __enter__(self) -> CheckpointLog:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_checkpoint_log(path: Path | str,
                        trace_fingerprint: tuple[int, float, float],
                        *, shard: tuple[int, int, int] | None = None,
                        resume: bool = False,
                        ) -> tuple[CheckpointLog, np.ndarray, np.ndarray]:
    """Open the checkpoint log of one replay or shard at ``path``.

    Returns ``(log, outcomes, attempts)``.  With ``resume`` and an
    existing file, the stored progress is read and checked as by
    :func:`load_checkpoint`, a torn final record is truncated away, and
    ``log.end`` is the stored offset.  Otherwise a fresh file holding
    only the header replaces whatever was at ``path``, and the arrays
    are empty.

    The fingerprint (``n_requests, first_ts, last_ts``) guards a resume
    against a different trace.  ``shard`` -- ``(shard_index, lo, hi)``
    in global request coordinates -- extends it for the supervised load
    service, whose per-shard logs must never be resumed into a
    different shard of the same trace.
    """
    path = Path(path)
    offset, valid = 0, 0
    outcomes = np.empty(0, dtype=np.uint8)
    attempts = np.empty(0, dtype=np.int32)
    if resume and path.exists():
        offset, outcomes, attempts, valid = _read_log(
            path, trace_fingerprint, shard)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    if valid:
        fh = open(path, "r+b")
        fh.seek(valid)
        fh.truncate()
    else:
        fh = open(path, "wb")
        fh.write(_header(trace_fingerprint, shard))
        fh.flush()
    return CheckpointLog(fh, offset), outcomes, attempts


def save_checkpoint(log: CheckpointLog, *, offset: int,
                    outcomes: np.ndarray, attempts: np.ndarray) -> None:
    """Record replay progress through request ``offset``.

    Appends one record holding ``outcomes`` and ``attempts`` for the
    window ``[log.end, offset)`` and flushes it; a window that is empty
    (``offset`` at or before the log's end) writes nothing.
    """
    lo = log.end
    if offset <= lo:
        return
    out = np.asarray(outcomes[lo:offset], dtype=np.uint8).tobytes()
    att = np.asarray(attempts[lo:offset], dtype="<i4").tobytes()
    fh = log.fh
    fh.write(_RECORD.pack(lo, offset, zlib.crc32(att, zlib.crc32(out))))
    fh.write(out)
    fh.write(att)
    fh.flush()
    log.end = offset


def load_checkpoint(path: Path | str,
                    trace_fingerprint: tuple[int, float, float],
                    *, shard: tuple[int, int, int] | None = None,
                    ) -> tuple[int, np.ndarray, np.ndarray]:
    """Read a checkpoint log, returning ``(offset, outcomes, attempts)``.

    Raises ValueError naming ``path`` if the file is not a format-2 log,
    does not match ``trace_fingerprint`` -- resuming one trace's replay
    with another is almost certainly a bug -- or holds a record that is
    out of order, out of range or fails its CRC.  With ``shard`` given,
    the stored per-shard fingerprint must match it exactly; a
    whole-trace log (no stored shard) is likewise rejected, and vice
    versa.  A torn final record is ignored: ``offset`` is then the end
    of the record before it.
    """
    return _read_log(Path(path), trace_fingerprint, shard)[:3]


def _read_log(path: Path, trace_fingerprint: tuple[int, float, float],
              shard: tuple[int, int, int] | None,
              ) -> tuple[int, np.ndarray, np.ndarray, int]:
    """:func:`load_checkpoint`, plus the byte length of the intact
    prefix (0 when not even the header was written whole)."""
    data = path.read_bytes()
    n, first_ts, last_ts = trace_fingerprint
    if len(data) < _HEADER.size or not data.startswith(_CKPT_MAGIC):
        if data.startswith(_ZIP_MAGIC):
            raise ValueError(
                f"{path}: format-1 (NPZ) replay checkpoint; this version "
                f"reads only format-{_CKPT_VERSION} logs, so start the "
                "replay afresh"
            )
        if _header(trace_fingerprint, shard).startswith(data):
            # killed while the header was written: nothing recorded yet
            return (0, np.empty(0, dtype=np.uint8),
                    np.empty(0, dtype=np.int32), 0)
        raise ValueError(f"{path}: not a replay checkpoint")
    (_magic, version, *stored, has_shard, s_index, s_lo, s_hi,
     ) = _HEADER.unpack_from(data)
    if version != _CKPT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {version} unsupported "
            f"(expected {_CKPT_VERSION})"
        )
    if tuple(stored) != (n, first_ts, last_ts):
        raise ValueError(
            f"{path}: checkpoint was taken for a different trace "
            f"(fingerprint {tuple(stored)}, trace {trace_fingerprint})"
        )
    stored_shard = (s_index, s_lo, s_hi) if has_shard else None
    if shard is not None and stored_shard is None:
        raise ValueError(
            f"{path}: whole-trace checkpoint cannot resume shard {shard}"
        )
    if stored_shard is not None and stored_shard != shard:
        raise ValueError(
            f"{path}: checkpoint belongs to shard {stored_shard}, "
            f"not {shard}"
        )
    view = memoryview(data)
    outcomes: list[np.ndarray] = []
    attempts: list[np.ndarray] = []
    offset = 0
    pos = _HEADER.size
    while len(data) - pos >= _RECORD.size:
        lo, hi, crc = _RECORD.unpack_from(data, pos)
        if lo != offset:
            raise ValueError(
                f"{path}: record [{lo}, {hi}) is not contiguous with "
                f"offset {offset}"
            )
        if not lo < hi <= n:
            raise ValueError(f"{path}: corrupt offset {hi} in record "
                             f"starting at {lo}")
        body = pos + _RECORD.size
        width = hi - lo
        stop = body + 5 * width
        if stop > len(data):
            break  # torn final record: a kill mid-append
        if zlib.crc32(view[body:stop]) != crc:
            raise ValueError(f"{path}: record [{lo}, {hi}) fails its CRC")
        outcomes.append(np.frombuffer(data, np.uint8, width, body))
        attempts.append(np.frombuffer(data, "<i4", width, body + width))
        offset = hi
        pos = stop
    return (offset,
            np.concatenate([np.empty(0, np.uint8), *outcomes]),
            np.concatenate([np.empty(0, np.int32), *attempts]),
            pos)
