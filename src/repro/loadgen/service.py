"""Supervised, open-loop, crash-tolerant replay service.

Promotes single-process replay to a production-style load *service*
built from three cooperating pieces:

- a **supervisor** that partitions the request stream into ordered,
  data-derived shards (:func:`repro.parallel.plan_shards` -- the
  partition depends on the trace alone, never on the worker count),
  spawns worker processes, monitors them through heartbeat messages on
  a control queue, and on a worker crash or hang deterministically
  restarts the affected shard from its last checkpoint (one
  append-only :func:`repro.loadgen.resilience.open_checkpoint_log` log
  per shard, its header extended with the shard's fingerprint, one
  record per :func:`~repro.loadgen.resilience.save_checkpoint`);
- a per-worker **constant-throughput open-loop dispatcher** in the wrk2
  mould: send times are scheduled from the *trace clock* (service epoch
  + trace timestamp / speed), never from response completion, so queueing
  delay shows up as measured latency instead of silently stretching the
  schedule (coordinated omission).  The dispatcher records
  intended-vs-actual dispatch lag per request and, under overload, sheds
  admissions explicitly (outcome ``shed`` in the standard taxonomy --
  never a silent drop).  Its loop, :func:`_dispatch`, is the package's
  one per-request loop: :func:`repro.loadgen.replay.replay` runs every
  replay it does not batch as a one-shard call of it;
- a **reconciliation pass** that merges the per-shard outcome ledgers
  and *proves* schedule coverage: every scheduled request is accounted
  for exactly once (ok/retried/error/timeout/shed/dropped) regardless of
  shard count, worker count, or injected crashes.  The proof is a
  machine-readable :class:`CoverageReport` carrying restart/heartbeat
  counters and a SHA-256 of the reconciled ledger.

Determinism contract
--------------------
For a fixed seed the reconciled ledger (per-request outcome + attempt
count) is byte-identical across ``workers`` values and across runs with
and without injected worker crashes, provided the backend's failure
behaviour is a pure function of each request (timestamp, workload, or
global index) rather than of its call history -- the property the
keyed :class:`ServiceFaultPlan` and the trace-time-clocked policies in
:mod:`repro.loadgen.resilience` are built around.  Requests completed
after a shard's last checkpoint are re-submitted on restart
(at-least-once delivery between checkpoints); their ledger entries are
recomputed identically.  Wall-clock dispatch-lag measurements are kept
*outside* the ledger for exactly this reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.loadgen.replay import (
    Backend,
    ReplayResult,
    _drain_records,
    _record_replay_telemetry,
)
from repro.loadgen.requests import RequestTrace
from repro.loadgen.resilience import (
    OUTCOMES,
    CircuitBreaker,
    RetryPolicy,
    deliver,
    failure_code,
    open_checkpoint_log,
    save_checkpoint,
)
from repro.parallel import DEFAULT_MAX_SHARDS, plan_shards
from repro.platform.metrics import (
    RecordColumns,
    RecordList,
    dispatch_lag_summary,
)
from repro.telemetry import registry as _telemetry

__all__ = [
    "BreakerSpec",
    "CoverageReport",
    "ServiceConfig",
    "ServiceError",
    "ServiceFaultPlan",
    "ServiceInjectedError",
    "ServiceResult",
    "run_service",
]

#: Sentinel outcome code marking a ledger slot no shard has filled yet;
#: reconciliation proves none survive.  Distinct from every real code.
UNACCOUNTED = np.uint8(255)
_OK = OUTCOMES.index("ok")
_SHED = OUTCOMES.index("shed")

#: Longest the supervisor waits on worker pipes before re-checking
#: liveness, heartbeat timeouts and the service deadline.
_POLL_INTERVAL_S = 0.02


class ServiceError(RuntimeError):
    """The service could not complete the schedule (config error, shard
    exceeding its restart budget, or the global service deadline)."""


class ServiceInjectedError(RuntimeError):
    """Fault injected by a :class:`ServiceFaultPlan` (always retryable)."""

    retryable = True


@dataclass(frozen=True)
class BreakerSpec:
    """Picklable recipe for one per-shard circuit breaker.

    The service builds a *fresh* breaker per shard (breaker state is
    trace-time-clocked and shard-local); passing a live
    :class:`~repro.loadgen.resilience.CircuitBreaker` across process
    boundaries would smuggle mutable state into workers.
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 30.0
    half_open_probes: int = 1

    def make(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            reset_timeout_s=self.reset_timeout_s,
            half_open_probes=self.half_open_probes,
        )


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Deterministic fault injection at the *service* boundary.

    ``error_rate`` injects retryable :class:`ServiceInjectedError`
    failures keyed on ``(seed, global_request_index, attempt)`` -- a pure
    per-request function, so a shard resumed from a checkpoint sees
    exactly the failures an uninterrupted run would have (unlike the
    sequential draw stream of
    :class:`~repro.platform.faults.FaultyBackend`, which is only
    restart-stable for whole-trace replays).
    """

    error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.error_rate <= 1:
            raise ValueError("error_rate must be in [0, 1]")

    def should_error(self, index: int, attempt: int) -> bool:
        """Does attempt ``attempt`` of global request ``index`` fail?"""
        if self.error_rate <= 0:
            return False
        rng = np.random.default_rng([self.seed, index, attempt])
        return bool(rng.random() < self.error_rate)


@dataclass(frozen=True)
class ServiceConfig:
    """Supervision and dispatch knobs for :func:`run_service`.

    ``workers=0`` runs every shard inline in the calling process (no
    subprocesses) -- the shard plan, checkpoints, and reconciliation are
    identical, which is what makes the ledger worker-count-invariant
    testable cheaply.  ``speed`` follows :func:`repro.loadgen.replay.
    replay`: ``inf`` dispatches as fast as the backend accepts (no
    pacing, dispatch lag defined as 0); a finite value paces each send
    at ``epoch + timestamp/speed`` wall time.  ``max_lag_s`` is the
    admission bound: a request whose scheduled send time has already
    slipped past it is shed (recorded, counted, never silently dropped).
    """

    workers: int = 2
    speed: float = math.inf
    max_lag_s: float | None = None
    max_shards: int = DEFAULT_MAX_SHARDS
    checkpoint_every: int = 1000
    heartbeat_every: int = 256
    heartbeat_timeout_s: float = 10.0
    max_restarts_per_shard: int = 3
    service_timeout_s: float = 300.0
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if not self.speed > 0:
            raise ValueError("speed must be positive")
        if self.max_lag_s is not None and not self.max_lag_s > 0:
            raise ValueError("max_lag_s must be positive")
        if self.checkpoint_every <= 0 or self.heartbeat_every <= 0:
            raise ValueError("checkpoint/heartbeat cadences must be "
                             "positive")
        if not self.heartbeat_timeout_s > 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if self.max_restarts_per_shard < 0:
            raise ValueError("max_restarts_per_shard must be "
                             "non-negative")
        if not self.service_timeout_s > 0:
            raise ValueError("service_timeout_s must be positive")

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        import multiprocessing

        return ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")


# ----------------------------------------------------------------------
# coverage report
# ----------------------------------------------------------------------


@dataclass
class CoverageReport:
    """Machine-readable proof that the schedule was fully covered.

    ``accounted`` is True iff the shard bounds partition ``[0, n)``
    exactly and no ledger slot retains the :data:`UNACCOUNTED` sentinel
    -- i.e. every scheduled request carries exactly one outcome.
    ``ledger_sha256`` hashes the reconciled ``outcomes`` + ``attempts``
    bytes, giving crash/worker-count invariance a one-line check.
    """

    n_scheduled: int
    n_shards: int
    n_workers: int
    outcome_counts: dict[str, int]
    accounted: bool
    unaccounted: list[int]
    restarts: int
    heartbeat_misses: int
    shed_overload: int
    shed_breaker: int
    ledger_sha256: str
    per_shard: list[dict[str, int]]
    dispatch_lag_ms: dict[str, float]

    @property
    def ok(self) -> bool:
        return (self.accounted
                and sum(self.outcome_counts.values()) == self.n_scheduled)

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_scheduled": self.n_scheduled,
            "n_shards": self.n_shards,
            "n_workers": self.n_workers,
            "outcome_counts": dict(self.outcome_counts),
            "accounted": self.accounted,
            "unaccounted": list(self.unaccounted),
            "restarts": self.restarts,
            "heartbeat_misses": self.heartbeat_misses,
            "shed_overload": self.shed_overload,
            "shed_breaker": self.shed_breaker,
            "ledger_sha256": self.ledger_sha256,
            "per_shard": [dict(s) for s in self.per_shard],
            "dispatch_lag_ms": dict(self.dispatch_lag_ms),
            "ok": self.ok,
        }

    def to_json(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")


@dataclass(kw_only=True)
class ServiceResult(ReplayResult):
    """Everything one service run produced, reconciled in shard order.

    A :class:`~repro.loadgen.replay.ReplayResult` whose ``outcomes`` and
    ``attempts`` are always set, so the replay summary helpers
    (``outcome_summary``, telemetry post-passes) take it as is; the
    service-only fields are keyword-only.
    """

    lag_ms: np.ndarray = field(repr=False)
    coverage: CoverageReport = field(repr=False)
    shard_bounds: list[tuple[int, int]] = field(repr=False)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


@dataclass
class _ShardWork:
    """Everything a worker needs; must stay picklable for spawn/fork."""

    timestamps: np.ndarray
    workload_ids: np.ndarray
    bounds: list[tuple[int, int]]
    epoch_wall_s: float
    config: ServiceConfig
    service_dir: str
    backend_factory: Callable[[], Backend]
    retry: RetryPolicy | None
    breaker_spec: BreakerSpec | None
    fault_plan: ServiceFaultPlan | None


def _shard_checkpoint_path(service_dir: str, shard: int) -> Path:
    return Path(service_dir) / f"shard-{shard:04d}.ckpt"


def _sleep_until(target_wall_s: float, heartbeat, max_slice_s: float,
                 ) -> bool:
    """Open-loop pacer: sleep toward an *absolute* wall-clock target.

    Sleeps in bounded slices so a paced worker keeps heartbeating even
    through sparse stretches of the trace; the loop re-reads the clock,
    so oversleep never accumulates across requests.  Returns whether it
    slept at all: a request sent late without a sleep was late because
    the sends before it ran past its send time (backlog), one sent late
    after a sleep because the pacer woke late (oversleep).
    """
    slept = False
    while True:
        # repro: allow-wall-clock (pacer: real time is the point)
        delay = target_wall_s - time.time()
        if delay <= 0:
            return slept
        time.sleep(min(delay, max_slice_s))
        slept = True
        if heartbeat is not None:
            heartbeat(-1)


def _dispatch(backend: Backend, timestamps: np.ndarray,
              workload_ids: np.ndarray, *, speed: float,
              retry: RetryPolicy | None = None,
              breaker: CircuitBreaker | None = None,
              fault_plan: ServiceFaultPlan | None = None,
              plain: bool = False,
              epoch_wall_s: float | None = None,
              max_lag_s: float | None = None,
              heartbeat=None, heartbeat_every: int = 1,
              checkpoint_path: Path | str | None = None,
              checkpoint_every: int = 1000,
              shard: tuple[int, int, int] | None = None,
              resume: bool = True,
              clock: Callable[[], float] = time.time,
              ) -> dict[str, Any]:
    """The one per-request dispatch loop: a service shard's, and every
    :func:`~repro.loadgen.replay.replay` that is paced or resilient or
    has no batched ``invoke_many``.

    Sends ``timestamps``/``workload_ids`` to ``backend`` in order.  A
    finite ``speed`` schedules each send open-loop at ``epoch_wall_s +
    ts / speed`` (the epoch defaults to ``clock()`` at loop start),
    sleeps toward it with :func:`_sleep_until`, records the dispatch lag
    (and, in ``overslept``, which late sends followed a sleep) and sheds
    the request (outcome ``shed``) once it lags past ``max_lag_s``.

    The ``send`` adds the keyed ``fault_plan`` errors and calls the
    backend's ``invoke_at``, when its type defines one, with the
    scheduled send time and the remaining deadline; without either it
    calls the backend's ``invoke``.  With a ``retry`` policy or a
    ``breaker`` each request's outcome comes from
    :func:`~repro.loadgen.resilience.deliver`.  Without them a request
    can only end ``ok`` or, when the send raised, with the
    :func:`~repro.loadgen.resilience.failure_code` of the exception,
    after one attempt -- what ``deliver`` returns with no policy -- so
    the loop sends once and writes a ledger slot only for a request
    that fails or is shed; the rest keep the ledger's initial
    ``ok``/1.  ``plain`` lets a send's failure propagate, and
    ``outcomes``/``attempts`` come back ``None``.

    ``heartbeat(progress)`` is called every ``heartbeat_every`` requests
    and through long pacing sleeps.  With ``checkpoint_path`` the ledger
    is appended to that checkpoint log every ``checkpoint_every``
    requests and at the end, and with ``resume`` the loop continues from
    the log's offset, returned as ``start``.  ``shard`` -- ``(index, lo,
    hi)`` in global coordinates -- extends the log's fingerprint, and
    ``lo`` offsets the request index that keys backoff and fault draws.

    ``clock`` is the wall-clock source for the default epoch, lag
    accounting and overload shedding; injecting a virtual clock makes
    the admission path deterministic under test.
    """
    n = len(timestamps)
    lo = 0 if shard is None else shard[1]
    ts_list = timestamps.tolist()
    wid_list = workload_ids.tolist()
    outcomes = attempts = None
    if not plain:
        # a request with no retry policy or breaker that neither fails
        # nor is shed ends ok after one attempt; every other request
        # overwrites its slots
        outcomes = np.full(n, _OK, dtype=np.uint8)
        attempts = np.ones(n, dtype=np.int32)
    lag_ms = np.zeros(n, dtype=np.float64)
    overslept = np.zeros(n, dtype=bool)

    invoke = backend.invoke
    # looked up on the type, as invoke_many is: a decorator that only
    # forwards attribute access must not let a send bypass its invoke()
    invoke_at = (backend.invoke_at
                 if getattr(type(backend), "invoke_at", None) is not None
                 else None)
    inject = (fault_plan is not None and fault_plan.error_rate > 0)
    use_deliver = retry is not None or breaker is not None
    scheduled_wall = None

    if invoke_at is None and not inject:
        def send(ts, wid, i, attempt, deadline_left_s):
            invoke(ts, wid)
    else:
        def send(ts, wid, i, attempt, deadline_left_s):
            if inject and fault_plan.should_error(i, attempt):
                raise ServiceInjectedError(
                    f"injected service fault for request {i}"
                )
            if invoke_at is None:
                invoke(ts, wid)
            else:
                # scheduled_wall is read at call time: the current
                # request's send time
                invoke_at(ts, wid, scheduled_wall_s=scheduled_wall,
                          deadline_s=deadline_left_s)

    pace = math.isfinite(speed)
    hb_slice = 0.5
    shed_overload = 0
    shed_breaker = 0
    start = 0
    log = None
    if checkpoint_path is not None:
        log, done_outcomes, done_attempts = open_checkpoint_log(
            checkpoint_path, (n, float(ts_list[0]), float(ts_list[-1])),
            shard=shard, resume=resume,
        )
        start = log.end
        outcomes[:start] = done_outcomes
        attempts[:start] = done_attempts
    # count to the next heartbeat and checkpoint (the multiples of their
    # cadences) instead of taking a modulus per request
    next_beat = (-(-start // heartbeat_every) * heartbeat_every
                 if heartbeat is not None else -1)
    next_ckpt = (start - start % checkpoint_every + checkpoint_every
                 if log is not None else -1)
    epoch = clock() if epoch_wall_s is None else epoch_wall_s
    try:
        for j in range(start, n):
            if j == next_ckpt:
                save_checkpoint(log, offset=j, outcomes=outcomes,
                                attempts=attempts)
                next_ckpt += checkpoint_every
            if j == next_beat:
                heartbeat(j)
                next_beat += heartbeat_every
            i = lo + j  # global request index: keys backoff + fault draws
            ts = ts_list[j]
            if pace:
                scheduled_wall = epoch + ts / speed
                slept = _sleep_until(scheduled_wall, heartbeat, hb_slice)
                lag = clock() - scheduled_wall
                if lag > 0:
                    lag_ms[j] = lag * 1e3
                    if slept:  # late after a sleep: the pacer woke late
                        overslept[j] = True
                    if max_lag_s is not None and lag > max_lag_s:
                        # overload: shed the admission explicitly
                        # instead of letting the schedule silently slip
                        # (coordinated omission) -- the ledger records
                        # it as `shed`
                        outcomes[j] = _SHED
                        attempts[j] = 0
                        shed_overload += 1
                        continue
            if use_deliver:
                code, n_attempts = deliver(send, ts, wid_list[j], i,
                                           retry, breaker, speed)
                outcomes[j] = code
                attempts[j] = n_attempts
                if code == _SHED:  # overload sheds never reach deliver()
                    shed_breaker += 1
                continue
            try:
                send(ts, wid_list[j], i, 1, None)
            except Exception as exc:
                if plain:
                    raise
                outcomes[j] = failure_code(exc)
        if log is not None:
            save_checkpoint(log, offset=n, outcomes=outcomes,
                            attempts=attempts)
    finally:
        if log is not None:
            log.close()
    return {
        "outcomes": outcomes,
        "attempts": attempts,
        "lag_ms": lag_ms,
        "overslept": overslept,
        "shed_overload": shed_overload,
        "shed_breaker": shed_breaker,
        "start": start,
    }


def _run_shard(shard: int, work: _ShardWork, heartbeat=None,
               clock: Callable[[], float] = time.time,
               ) -> dict[str, Any]:
    """Dispatch one shard's requests; returns its outcome ledger slice.

    Builds the shard's backend and breaker and runs :func:`_dispatch`
    over the shard's slice of the trace from the shared service epoch,
    with the config's overload bound, heartbeat and checkpoint cadences
    and the shard's own checkpoint log, always resumed when present.
    """
    lo, hi = work.bounds[shard]
    config = work.config
    ckpt = _shard_checkpoint_path(work.service_dir, shard)
    resumed = int(ckpt.exists())
    backend = work.backend_factory()
    payload = _dispatch(
        backend, work.timestamps[lo:hi], work.workload_ids[lo:hi],
        speed=config.speed, retry=work.retry,
        breaker=(work.breaker_spec.make()
                 if work.breaker_spec is not None else None),
        fault_plan=work.fault_plan, epoch_wall_s=work.epoch_wall_s,
        max_lag_s=config.max_lag_s, heartbeat=heartbeat,
        heartbeat_every=config.heartbeat_every, checkpoint_path=ckpt,
        checkpoint_every=config.checkpoint_every, shard=(shard, lo, hi),
        clock=clock,
    )
    payload.update(shard=shard, records=_drain_records(backend),
                   resumed=resumed)
    return payload


def _worker_main(conn, work: _ShardWork) -> None:  # pragma: no cover
    """Worker process entry: serve shard assignments until ``None``.

    The worker talks to the supervisor over a *dedicated duplex pipe* --
    never a shared queue.  A SIGKILLed process can die mid-write while
    holding a shared queue's lock, poisoning every sibling; with
    per-worker pipes a dying worker can only corrupt its own channel,
    which the supervisor observes as EOF and handles as a crash.

    Runs only inside worker processes, so the in-process coverage gate
    cannot see it -- kept to the thinnest possible shim over
    :func:`_run_shard`, which the inline (``workers=0``) path measures.
    """
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            return
        if cmd is None:
            return
        shard = int(cmd)

        def beat(progress: int, _shard: int = shard) -> None:
            try:
                conn.send(("hb", _shard, progress))
            except (BrokenPipeError, OSError):
                pass  # supervisor gone; the run is over either way

        try:
            payload = _run_shard(shard, work, heartbeat=beat)
        except Exception:
            conn.send(("fatal", shard, traceback.format_exc()))
            return
        conn.send(("done", shard, payload))


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------


@dataclass
class _WorkerState:
    proc: Any
    conn: Any
    shard: int | None = None
    last_hb_s: float = 0.0


def _prepare_service_dir(service_dir: Path, resume: bool) -> None:
    service_dir.mkdir(parents=True, exist_ok=True)
    if not resume:
        for p in service_dir.glob("shard-*.ckpt"):
            p.unlink()
    elif any(service_dir.glob("shard-*.npz")):
        raise ValueError(
            f"{service_dir}: holds format-1 (NPZ) shard checkpoints, "
            "which this version cannot resume; run without resume"
        )


def _supervise(work: _ShardWork, config: ServiceConfig,
               stats: dict[str, int]) -> dict[int, dict[str, Any]]:
    """Run the worker fleet to completion; returns per-shard payloads.

    Shards are assigned explicitly over each worker's private control
    pipe (ownership is always unambiguous).  A dead, channel-broken, or
    heartbeat-silent worker forfeits its shard, which is re-queued
    (bounded by ``max_restarts_per_shard``) and handed to a replacement
    worker that resumes from the shard's last complete checkpoint record.
    """
    import multiprocessing
    from multiprocessing import connection as mp_connection

    ctx = multiprocessing.get_context(config.resolved_start_method())
    n_shards = len(work.bounds)
    queue: deque[int] = deque(range(n_shards))
    pending: set[int] = set(range(n_shards))
    results: dict[int, dict[str, Any]] = {}
    restarts: dict[int, int] = dict.fromkeys(range(n_shards), 0)
    workers: dict[int, _WorkerState] = {}
    next_worker_id = 0

    def spawn() -> None:
        nonlocal next_worker_id
        wid = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, work),
            daemon=True, name=f"repro-loadsvc-{wid}",
        )
        proc.start()
        child_conn.close()
        workers[wid] = _WorkerState(
            proc=proc, conn=parent_conn,
            # repro: allow-wall-clock (supervision liveness clock)
            last_hb_s=time.time(),
        )

    def retire(wid: int, st: _WorkerState, kill: bool) -> None:
        if kill and st.proc.is_alive():
            st.proc.kill()
        st.proc.join(timeout=2.0)
        if st.proc.is_alive():  # pragma: no cover - second-chance kill
            st.proc.kill()
            st.proc.join(timeout=2.0)
        st.conn.close()
        workers.pop(wid, None)

    def forfeit(wid: int, st: _WorkerState, reason: str) -> None:
        """Reclaim a failed worker's shard and re-queue it."""
        shard = st.shard
        st.shard = None
        if shard is None or shard in results:
            return
        stats["restarts"] += 1
        restarts[shard] += 1
        if restarts[shard] > config.max_restarts_per_shard:
            raise ServiceError(
                f"shard {shard} exceeded its restart budget "
                f"({config.max_restarts_per_shard}); last worker "
                f"{wid} ({reason})"
            )
        queue.append(shard)

    def assign(now: float) -> None:
        for st in workers.values():
            if not queue:
                return
            if st.shard is None and st.proc.is_alive():
                shard = queue.popleft()
                try:
                    st.conn.send(shard)
                except (BrokenPipeError, OSError):
                    queue.appendleft(shard)
                    continue  # liveness pass will retire this worker
                st.shard = shard
                st.last_hb_s = now

    def shutdown(kill: bool = False) -> None:
        for wid, st in list(workers.items()):
            if not kill:
                try:
                    st.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            retire(wid, st, kill)

    for _ in range(min(config.workers, n_shards)):
        spawn()

    # repro: allow-wall-clock (supervision deadline)
    deadline = time.time() + config.service_timeout_s
    try:
        while pending:
            # repro: allow-wall-clock (supervision liveness clock)
            now = time.time()
            assign(now)
            conn_owner = {st.conn: wid for wid, st in workers.items()}
            ready = mp_connection.wait(list(conn_owner),
                                       timeout=_POLL_INTERVAL_S)
            # repro: allow-wall-clock (supervision liveness clock)
            now = time.time()
            for conn in ready:
                wid = conn_owner[conn]
                st = workers.get(wid)
                if st is None:  # pragma: no cover - retired this pass
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # died mid-message (e.g. SIGKILL during a send)
                    forfeit(wid, st, "control channel closed")
                    retire(wid, st, kill=True)
                    if pending:
                        spawn()
                    continue
                kind = msg[0]
                if kind == "hb":
                    st.last_hb_s = now
                elif kind == "done":
                    shard, payload = msg[1], msg[2]
                    results[shard] = payload
                    pending.discard(shard)
                    st.shard = None
                    st.last_hb_s = now
                elif kind == "fatal":
                    shard, tb = msg[1], msg[2]
                    stats["worker_errors"] += 1
                    st.shard = shard
                    forfeit(wid, st, f"worker error:\n{tb}")
                    retire(wid, st, kill=True)
                    if pending:
                        spawn()
            for wid, st in list(workers.items()):
                if not st.proc.is_alive():
                    forfeit(wid, st, f"exit code {st.proc.exitcode}")
                    retire(wid, st, kill=False)
                    if pending:
                        spawn()
                elif (st.shard is not None
                      and now - st.last_hb_s > config.heartbeat_timeout_s):
                    stats["heartbeat_misses"] += 1
                    forfeit(wid, st, "heartbeat timeout")
                    retire(wid, st, kill=True)
                    if pending:
                        spawn()
            if now > deadline and pending:
                raise ServiceError(
                    f"service deadline ({config.service_timeout_s:g}s) "
                    f"exceeded with shards {sorted(pending)} unfinished"
                )
    except Exception:
        shutdown(kill=True)
        raise
    shutdown()
    return results


# ----------------------------------------------------------------------
# reconciliation
# ----------------------------------------------------------------------


def _reconcile(trace: RequestTrace, bounds: list[tuple[int, int]],
               results: dict[int, dict[str, Any]],
               stats: dict[str, int], n_workers: int,
               wall_clock_s: float, pace: bool) -> ServiceResult:
    """Merge per-shard ledgers in shard order and prove coverage.

    Shard records are merged as columns (:meth:`RecordColumns.concat`)
    when every shard shipped a :class:`RecordList`, else chained as
    lists.
    """
    n = trace.n_requests
    outcomes = np.full(n, UNACCOUNTED, dtype=np.uint8)
    attempts = np.zeros(n, dtype=np.int32)
    lag_ms = np.zeros(n, dtype=np.float64)
    overslept = np.zeros(n, dtype=bool)
    parts: list[Sequence] = []
    per_shard: list[dict[str, int]] = []
    shed_overload = 0
    shed_breaker = 0
    partition_ok = bool(bounds) and bounds[0][0] == 0 and bounds[-1][1] == n
    prev_hi = 0
    for s, (lo, hi) in enumerate(bounds):
        partition_ok = partition_ok and lo == prev_hi and hi > lo
        prev_hi = hi
        payload = results.get(s)
        if payload is not None and payload["outcomes"].shape == (hi - lo,):
            outcomes[lo:hi] = payload["outcomes"]
            attempts[lo:hi] = payload["attempts"]
            lag_ms[lo:hi] = payload["lag_ms"]
            overslept[lo:hi] = payload["overslept"]
            parts.append(payload["records"])
            shed_overload += payload["shed_overload"]
            shed_breaker += payload["shed_breaker"]
        per_shard.append({
            "shard": s, "lo": lo, "hi": hi,
            "n_requests": hi - lo,
            "resumed": int(payload["resumed"]) if payload else 0,
        })
    records: Sequence
    if parts and all(isinstance(p, RecordList) for p in parts):
        records = RecordList(RecordColumns.concat([p.columns for p in parts]))
    else:
        records = [r for part in parts for r in part]
    unaccounted = np.flatnonzero(outcomes == UNACCOUNTED)
    accounted = partition_ok and unaccounted.size == 0
    counts = np.bincount(outcomes[outcomes != UNACCOUNTED],
                         minlength=len(OUTCOMES))
    outcome_counts = {name: int(counts[i])
                      for i, name in enumerate(OUTCOMES)}
    digest = hashlib.sha256()
    digest.update(outcomes.tobytes())
    digest.update(attempts.tobytes())
    lag_summary = {"mean": 0.0, "max": 0.0, "p99": 0.0,
                   "late_fraction": 0.0, "late_backlog": 0,
                   "late_oversleep": 0, "late_backlog_fraction": 0.0,
                   "late_oversleep_fraction": 0.0}
    if pace:
        lag = dispatch_lag_summary(lag_ms, overslept)
        lag_summary.update(mean=lag["mean_ms"], max=lag["max_ms"],
                           p99=lag["p99_ms"])
        for key in ("late_fraction", "late_backlog", "late_oversleep",
                    "late_backlog_fraction", "late_oversleep_fraction"):
            lag_summary[key] = lag[key]
    coverage = CoverageReport(
        n_scheduled=n,
        n_shards=len(bounds),
        n_workers=n_workers,
        outcome_counts=outcome_counts,
        accounted=accounted,
        unaccounted=unaccounted[:64].tolist(),
        restarts=stats["restarts"],
        heartbeat_misses=stats["heartbeat_misses"],
        shed_overload=shed_overload,
        shed_breaker=shed_breaker,
        ledger_sha256=digest.hexdigest(),
        per_shard=per_shard,
        dispatch_lag_ms=lag_summary,
    )
    return ServiceResult(
        n_requests=n,
        wall_clock_s=wall_clock_s,
        outcomes=outcomes,
        attempts=attempts,
        lag_ms=lag_ms,
        records=records,
        coverage=coverage,
        shard_bounds=list(bounds),
    )


def _record_service_telemetry(reg, trace: RequestTrace,
                              result: ServiceResult,
                              config: ServiceConfig) -> None:
    cov = result.coverage
    reg.counter("service_shards_total",
                "shards dispatched by the load service"
                ).inc(cov.n_shards)
    reg.counter("service_restarts_total",
                "worker/shard restarts after crash or hang"
                ).inc(cov.restarts)
    reg.counter("service_heartbeat_misses_total",
                "workers killed for missing heartbeats"
                ).inc(cov.heartbeat_misses)
    reg.gauge("service_workers",
              "worker processes configured for the last service run"
              ).set(float(config.workers))
    if cov.shed_overload:
        reg.counter("service_shed_total",
                    "requests shed by the service, by reason",
                    labels={"reason": "overload"}).inc(cov.shed_overload)
    if cov.shed_breaker:
        reg.counter("service_shed_total",
                    "requests shed by the service, by reason",
                    labels={"reason": "breaker"}).inc(cov.shed_breaker)
    if np.isfinite(config.speed):
        reg.histogram(
            "service_dispatch_lag_ms",
            "intended-vs-actual dispatch lag per request (ms)",
        ).observe_many(result.lag_ms)
        lag = cov.dispatch_lag_ms
        reg.counter("service_late_total",
                    "requests sent over 1 ms late, by cause",
                    labels={"cause": "backlog"}).inc(lag["late_backlog"])
        reg.counter("service_late_total",
                    "requests sent over 1 ms late, by cause",
                    labels={"cause": "oversleep"}).inc(lag["late_oversleep"])
    # the classic replay post-pass (per-window counts, inter-arrival
    # histogram, outcome counters) applies unchanged to the merged result
    _record_replay_telemetry(reg, trace, result, breaker=None)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run_service(
    trace: RequestTrace,
    backend_factory: Callable[[], Backend],
    *,
    service_dir: Path | str,
    config: ServiceConfig | None = None,
    retry: RetryPolicy | None = None,
    breaker: BreakerSpec | None = None,
    fault_plan: ServiceFaultPlan | None = None,
    resume: bool = False,
) -> ServiceResult:
    """Replay ``trace`` through the supervised open-loop load service.

    Parameters
    ----------
    trace:
        The generated request series (global schedule).
    backend_factory:
        Picklable zero-argument callable building one backend per shard
        *inside* the worker process (backends are never shipped across
        process boundaries).  Use a module-level function or
        ``functools.partial`` over one.
    service_dir:
        Directory for per-shard checkpoints and the coverage report;
        cleared of stale checkpoints unless ``resume=True``.
    config / retry / breaker / fault_plan:
        Supervision + dispatch knobs, per-request retry policy,
        per-shard circuit-breaker recipe, and deterministic fault
        injection -- see the respective classes.
    resume:
        Continue a previously killed service run from its per-shard
        checkpoints instead of starting every shard from scratch.

    Returns a :class:`ServiceResult` whose :class:`CoverageReport`
    proves (or refutes -- ``coverage.ok``) full schedule coverage.
    """
    config = config or ServiceConfig()
    service_dir = Path(service_dir)
    _prepare_service_dir(service_dir, resume)
    bounds = plan_shards(trace.n_requests, max_shards=config.max_shards)
    if not bounds:
        raise ServiceError("trace contains no requests to schedule")
    # Small head start so paced workers come up before their first send
    # time; the epoch is shared by every worker (and every restart), so
    # the schedule is one global clock, not per-worker clocks.
    # repro: allow-wall-clock (service epoch anchors the open loop)
    epoch = time.time() + (0.2 if np.isfinite(config.speed) else 0.0)
    work = _ShardWork(
        timestamps=trace.timestamps_s,
        workload_ids=trace.workload_ids,
        bounds=bounds,
        epoch_wall_s=epoch,
        config=config,
        service_dir=str(service_dir),
        backend_factory=backend_factory,
        retry=retry,
        breaker_spec=breaker,
        fault_plan=fault_plan,
    )
    stats = {"restarts": 0, "heartbeat_misses": 0, "worker_errors": 0}
    t0 = time.perf_counter()  # repro: allow-wall-clock
    if config.workers == 0:
        results = {s: _run_shard(s, work) for s in range(len(bounds))}
    else:
        results = _supervise(work, config, stats)
    wall = time.perf_counter() - t0  # repro: allow-wall-clock
    result = _reconcile(trace, bounds, results, stats,
                        n_workers=config.workers, wall_clock_s=wall,
                        pace=bool(np.isfinite(config.speed)))
    result.coverage.to_json(service_dir / "coverage.json")
    reg = _telemetry.active()
    if reg is not None:
        _record_service_telemetry(reg, trace, result, config)
    return result
