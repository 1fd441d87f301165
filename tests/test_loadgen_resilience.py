"""Tests for the resilient replay engine: retries, breaker, checkpoints."""

import math
import struct
import zlib

import numpy as np
import pytest

from repro.loadgen import (
    OUTCOMES,
    CircuitBreaker,
    RequestTrace,
    RetryPolicy,
    ServiceConfig,
    load_checkpoint,
    open_checkpoint_log,
    replay,
    save_checkpoint,
)
from repro.loadgen import resilience
from repro.loadgen.resilience import deliver
from repro.platform import (
    FaultProfile,
    FaultyBackend,
    PlatformTracer,
    outcome_summary,
    retry_histogram,
)


def make_trace(n=200, horizon=60.0, seed=0):
    ts = np.sort(np.random.default_rng(seed).uniform(0, horizon, n))
    return RequestTrace(ts, np.array(["w"] * n), np.array([""] * n),
                        np.full(n, 10.0), np.array(["f"] * n))


class _FlakyBackend:
    """Fails the first ``fail_first`` attempts of every request."""

    def __init__(self, fail_first=1, retryable=True):
        self.fail_first = fail_first
        self.retryable = retryable
        self.attempts_seen: dict[float, int] = {}
        self.completed = 0

    def invoke(self, timestamp_s, workload_id):
        seen = self.attempts_seen.get(timestamp_s, 0)
        self.attempts_seen[timestamp_s] = seen + 1
        if seen < self.fail_first:
            exc = RuntimeError("flaky")
            exc.retryable = self.retryable
            raise exc
        self.completed += 1

    def drain(self):
        return []


class _KeyedAttemptBackend:
    """Fails as a pure function of (request timestamp, attempt number).

    The attempt number is the count of submissions seen for that
    timestamp, and the verdict is a crc32 key of both, so any client
    that submits the same requests the same number of times sees the
    same faults: 30% retryable, 10% non-retryable.
    """

    def __init__(self):
        self._attempts: dict[float, int] = {}

    def invoke(self, timestamp_s, workload_id):
        attempt = self._attempts.get(timestamp_s, 0) + 1
        self._attempts[timestamp_s] = attempt
        key = zlib.crc32(f"{timestamp_s!r}:{attempt}".encode()) % 10
        if key < 4:
            exc = RuntimeError("keyed fault")
            exc.retryable = key > 0
            raise exc

    def drain(self):
        return []


class _DeadBackend:
    def invoke(self, timestamp_s, workload_id):
        raise RuntimeError("always down")

    def drain(self):
        return []


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline_s=0.0)

    def test_exponential_growth_and_cap(self):
        p = RetryPolicy(base_delay_s=1.0, multiplier=2.0, max_delay_s=5.0,
                        jitter=0.0)
        assert p.backoff_s(1) == 1.0
        assert p.backoff_s(2) == 2.0
        assert p.backoff_s(3) == 4.0
        assert p.backoff_s(4) == 5.0  # capped

    def test_jitter_is_deterministic_per_request_and_attempt(self):
        p = RetryPolicy(jitter=0.5, seed=1)
        a = p.backoff_s(1, request_index=10)
        assert a == p.backoff_s(1, request_index=10)
        assert a != p.backoff_s(1, request_index=11)
        assert a != p.backoff_s(2, request_index=10)

    def test_retries_recover_flaky_requests(self):
        backend = _FlakyBackend(fail_first=1)
        trace = make_trace(n=50)
        result = replay(trace, backend,
                        retry=RetryPolicy(max_attempts=3, jitter=0.0))
        counts = result.outcome_counts()
        assert counts["retried"] == 50
        assert backend.completed == 50
        assert np.all(result.attempts == 2)

    def test_attempts_exhausted_yields_error(self):
        trace = make_trace(n=10)
        result = replay(trace, _DeadBackend(),
                        retry=RetryPolicy(max_attempts=3, jitter=0.0))
        assert result.outcome_counts()["error"] == 10
        assert np.all(result.attempts == 3)

    def test_non_retryable_yields_dropped_immediately(self):
        backend = _FlakyBackend(fail_first=99, retryable=False)
        trace = make_trace(n=10)
        result = replay(trace, backend,
                        retry=RetryPolicy(max_attempts=5))
        assert result.outcome_counts()["dropped"] == 10
        assert np.all(result.attempts == 1)

    def test_deadline_yields_timeout(self):
        # backoff 1s + 2s + ... with a 2.5s budget: second retry busts it
        trace = make_trace(n=5)
        result = replay(
            trace, _DeadBackend(),
            retry=RetryPolicy(max_attempts=10, base_delay_s=1.0,
                              jitter=0.0, deadline_s=2.5),
        )
        assert result.outcome_counts()["timeout"] == 5
        assert np.all(result.attempts == 2)

    def test_outcome_taxonomy_is_complete(self):
        assert OUTCOMES == ("ok", "retried", "error", "timeout", "shed",
                            "dropped")


class TestDeadlineEdgeCases:
    """Satellite: deadline boundaries, zero-retry budgets, and breaker
    reopening on the final trace second."""

    def test_backoff_exactly_filling_deadline_is_allowed(self):
        # cumulative backoff == deadline is within budget: the policy
        # only times out when the deadline is strictly exceeded
        trace = make_trace(n=4)
        result = replay(
            trace, _DeadBackend(),
            retry=RetryPolicy(max_attempts=2, base_delay_s=1.0,
                              jitter=0.0, deadline_s=1.0),
        )
        # the single 1.0 s backoff fits the 1.0 s deadline exactly, so
        # the second attempt runs and exhausts max_attempts -> error
        assert result.outcome_counts()["error"] == 4
        assert np.all(result.attempts == 2)

    def test_backoff_a_hair_over_deadline_times_out(self):
        trace = make_trace(n=4)
        result = replay(
            trace, _DeadBackend(),
            retry=RetryPolicy(max_attempts=2, base_delay_s=1.0,
                              jitter=0.0, deadline_s=0.999),
        )
        assert result.outcome_counts()["timeout"] == 4
        assert np.all(result.attempts == 1)  # never granted a retry

    def test_zero_retry_budget_fails_without_backoff(self):
        # max_attempts=1 is the zero-retry budget: a failure is final
        # and the deadline never enters the picture
        trace = make_trace(n=6)
        result = replay(
            trace, _DeadBackend(),
            retry=RetryPolicy(max_attempts=1, base_delay_s=100.0,
                              deadline_s=0.001),
        )
        assert result.outcome_counts()["error"] == 6
        assert np.all(result.attempts == 1)

    def test_backoff_attempt_below_one_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff_s(0)

    def test_breaker_reopens_on_final_trace_second(self):
        from repro.platform import breaker_uptime

        horizon = 60.0
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=30.0)
        br.record_failure(0.0)                # open at t=0
        assert br.allow(horizon)              # half-open on final second
        br.record_failure(horizon)            # probe fails: reopen
        assert br.state == "open"
        assert br.transitions[-1] == (horizon, "open")
        # uptime accounting stays consistent with transitions landing
        # exactly on the horizon boundary: the half-open probe window
        # has zero width, so the whole span reads as open
        uptime = breaker_uptime(br, horizon)
        assert uptime["open"] == pytest.approx(1.0)
        assert uptime["half-open"] == pytest.approx(0.0)
        assert uptime["closed"] == pytest.approx(0.0)
        assert uptime["n_transitions"] == 3


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout_s"):
            CircuitBreaker(reset_timeout_s=0.0)

    def test_trips_after_consecutive_failures_then_recovers(self):
        br = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
        for t in (0.0, 1.0, 2.0):
            assert br.allow(t)
            br.record_failure(t)
        assert br.state == "open"
        assert not br.allow(5.0)          # still open
        assert br.allow(12.5)             # timeout elapsed -> half-open
        assert br.state == "half-open"
        br.record_success(12.5)
        assert br.state == "closed"

    def test_half_open_failure_reopens(self):
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        br.record_failure(0.0)
        assert br.allow(6.0)
        br.record_failure(6.0)
        assert br.state == "open"
        assert not br.allow(10.0)

    def test_breaker_sheds_load_during_dead_period(self):
        trace = make_trace(n=200, horizon=60.0)
        br = CircuitBreaker(failure_threshold=5, reset_timeout_s=5.0)
        result = replay(trace, _DeadBackend(),
                        retry=RetryPolicy(max_attempts=1), breaker=br)
        counts = result.outcome_counts()
        assert counts["shed"] > 100           # most load shed, not hammered
        assert counts["shed"] + counts["error"] == 200
        assert br.transitions  # went open at least once

    def test_transitions_traced(self):
        tracer = PlatformTracer()
        br = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0,
                            tracer=tracer)
        br.record_failure(0.0)
        br.allow(2.0)
        br.record_success(2.0)
        kinds = [e.kind for e in tracer.events]
        assert kinds == ["breaker_open", "breaker_half_open",
                         "breaker_closed"]


class TestOutcomeMetrics:
    def test_outcome_summary_and_retry_histogram(self):
        backend = _FlakyBackend(fail_first=1)
        trace = make_trace(n=40)
        result = replay(trace, backend,
                        retry=RetryPolicy(max_attempts=3, jitter=0.0))
        s = outcome_summary(result)
        assert s["n_requests"] == 40
        assert s["delivered_fraction"] == 1.0
        assert s["mean_attempts"] == pytest.approx(2.0)
        assert retry_histogram(result.attempts) == {2: 40}

    def test_fast_path_has_no_outcomes(self):
        class _Null:
            def invoke(self, t, w):
                pass

            def drain(self):
                return []

        result = replay(make_trace(n=5), _Null())
        assert result.outcomes is None
        with pytest.raises(ValueError, match="no outcomes"):
            result.outcome_counts()

    def test_paced_plain_replay_raises_backend_errors(self):
        # without retry/breaker/checkpoint a paced replay has no outcome
        # taxonomy: a backend failure propagates, a clean run records none
        trace = make_trace(n=20, horizon=1.0)
        with pytest.raises(RuntimeError, match="always down"):
            replay(trace, _DeadBackend(), speed=1e6)
        clean = replay(trace, _FlakyBackend(fail_first=0), speed=1e6)
        assert clean.outcomes is None
        assert clean.attempts is None


def _write_log(path, offset, outcomes, attempts, fingerprint,
               shard=None):
    """A fresh checkpoint log holding one record: ``[0, offset)``."""
    log, _, _ = open_checkpoint_log(path, fingerprint, shard=shard)
    with log:
        save_checkpoint(log, offset=offset, outcomes=outcomes,
                        attempts=attempts)


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        outcomes = np.array([0, 1, 2], dtype=np.uint8)
        attempts = np.array([1, 2, 3], dtype=np.int32)
        _write_log(path, 3, outcomes, attempts, (10, 0.0, 9.0))
        off, o, a = load_checkpoint(path, (10, 0.0, 9.0))
        assert off == 3
        np.testing.assert_array_equal(o, outcomes)
        np.testing.assert_array_equal(a, attempts)
        assert o.dtype == np.uint8 and a.dtype == np.int32

    def test_load_rejects_wrong_trace(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _write_log(path, 1, np.zeros(1, np.uint8), np.ones(1, np.int32),
                   (10, 0.0, 9.0))
        with pytest.raises(ValueError, match="different trace"):
            load_checkpoint(path, (11, 0.0, 9.0))

    @pytest.mark.parametrize("speed", [float("inf"), 1e6],
                             ids=["inf", "1e6"])
    def test_killed_replay_resumes_to_identical_result(self, tmp_path,
                                                        speed):
        """Acceptance: kill at a checkpoint boundary, resume, and get the
        same final records and outcomes as an uninterrupted run, whether
        or not the replay paces its submissions."""
        trace = make_trace(n=400, horizon=120.0)
        policy = RetryPolicy(max_attempts=3, seed=5)

        from repro.platform import FaaSCluster, WorkloadProfile

        def make_backend():
            cluster = FaaSCluster(
                {"w": WorkloadProfile("w", 10.0, 128.0)}, n_nodes=2)
            return FaultyBackend(
                cluster, FaultProfile(error_rate=0.05, seed=5))

        reference = replay(trace, make_backend(), retry=policy, speed=speed)

        class _KillAtRequest:
            """Client dies when request number ``n`` is submitted."""

            def __init__(self, inner, n):
                self.inner = inner
                self.seen = set()
                self.n = n

            def invoke(self, timestamp_s, workload_id):
                self.seen.add(timestamp_s)
                if len(self.seen) > self.n:
                    raise KeyboardInterrupt
                self.inner.invoke(timestamp_s, workload_id)

            def drain(self):
                return self.inner.drain()

        path = tmp_path / "replay.ckpt"
        backend = make_backend()
        with pytest.raises(KeyboardInterrupt):
            replay(trace, _KillAtRequest(backend, 200), retry=policy,
                   checkpoint_path=path, checkpoint_every=100, speed=speed)
        # the backend (the "cluster") survived the client's death;
        # resume from the checkpoint with the same backend state
        resumed = replay(trace, backend, retry=policy,
                         checkpoint_path=path, checkpoint_every=100,
                         resume=True, speed=speed)
        assert resumed.outcomes.tobytes() == reference.outcomes.tobytes()
        assert resumed.attempts.tobytes() == reference.attempts.tobytes()
        assert resumed.records == reference.records

    def test_shard_fingerprint_round_trip(self, tmp_path):
        path = tmp_path / "shard.ckpt"
        _write_log(path, 2, np.zeros(2, np.uint8), np.ones(2, np.int32),
                   (25, 0.0, 9.0), shard=(3, 75, 100))
        off, o, a = load_checkpoint(path, (25, 0.0, 9.0),
                                    shard=(3, 75, 100))
        assert off == 2

    def test_shard_checkpoint_rejects_other_shard(self, tmp_path):
        path = tmp_path / "shard.ckpt"
        _write_log(path, 1, np.zeros(1, np.uint8), np.ones(1, np.int32),
                   (25, 0.0, 9.0), shard=(3, 75, 100))
        with pytest.raises(ValueError, match="belongs to shard"):
            load_checkpoint(path, (25, 0.0, 9.0), shard=(2, 50, 75))
        # and a shard checkpoint cannot be resumed as a whole trace
        with pytest.raises(ValueError, match="belongs to shard"):
            load_checkpoint(path, (25, 0.0, 9.0))

    def test_whole_trace_checkpoint_rejected_for_shard(self, tmp_path):
        path = tmp_path / "whole.ckpt"
        _write_log(path, 1, np.zeros(1, np.uint8), np.ones(1, np.int32),
                   (25, 0.0, 9.0))
        with pytest.raises(ValueError, match="whole-trace"):
            load_checkpoint(path, (25, 0.0, 9.0), shard=(0, 0, 25))

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        trace = make_trace(n=20)
        backend = _FlakyBackend(fail_first=0)
        result = replay(trace, backend,
                        retry=RetryPolicy(max_attempts=2),
                        checkpoint_path=tmp_path / "none.ckpt",
                        resume=True)
        assert result.outcome_counts()["ok"] == 20

    def test_checkpoint_every_validated(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            replay(make_trace(n=5), _DeadBackend(),
                   checkpoint_path="x.ckpt", checkpoint_every=0)


class TestOneLedgerFromBothModes:
    """``replay()`` and the load service decide each request's outcome
    the same way: one shard, inline, gives the whole-trace ledger."""

    def test_replay_and_service_ledgers_are_byte_equal(self, tmp_path):
        from repro.loadgen.service import (
            BreakerSpec,
            ServiceConfig,
            run_service,
        )

        trace = make_trace(n=400)
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.05,
                            deadline_s=0.15, seed=3)
        single = replay(trace, _KeyedAttemptBackend(), retry=retry,
                        breaker=CircuitBreaker(failure_threshold=3,
                                               reset_timeout_s=2.0))
        service = run_service(
            trace, _KeyedAttemptBackend, service_dir=tmp_path,
            config=ServiceConfig(workers=0, max_shards=1), retry=retry,
            breaker=BreakerSpec(failure_threshold=3, reset_timeout_s=2.0),
        )
        # the comparison is only as strong as the outcomes it covers:
        # every outcome occurs, and sheds happen both at the breaker
        # gate (0 attempts) and inside the retry loop
        counts = single.outcome_counts()
        assert all(counts[name] > 0 for name in OUTCOMES), counts
        shed = single.outcomes == OUTCOMES.index("shed")
        assert (single.attempts[shed] == 0).any()
        assert (single.attempts[shed] > 0).any()
        assert service.outcomes.tobytes() == single.outcomes.tobytes()
        assert service.attempts.tobytes() == single.attempts.tobytes()
        assert service.coverage.shed_breaker == counts["shed"]

    def test_paced_replay_hands_invoke_at_the_schedule_like_a_shard(
            self, tmp_path):
        """A paced replay sends through ``invoke_at`` with each
        request's scheduled send time and the remaining retry deadline,
        as a service shard does, so an open-loop backend measures
        latency from the schedule."""
        from repro.loadgen.service import run_service

        class _Recorder:
            calls = []

            def invoke(self, timestamp_s, workload_id):
                raise AssertionError("paced sends go through invoke_at")

            def invoke_at(self, timestamp_s, workload_id, *,
                          scheduled_wall_s=None, deadline_s=None):
                self.calls.append((timestamp_s, scheduled_wall_s,
                                   deadline_s))

            def drain(self):
                return []

        trace = make_trace(n=30, horizon=3.0)
        speed = 100.0
        retry = RetryPolicy(max_attempts=2, deadline_s=0.5)
        results = {}
        for mode in ("replay", "shard"):
            _Recorder.calls = []
            if mode == "replay":
                replay(trace, _Recorder(), speed=speed, retry=retry)
            else:
                run_service(trace, _Recorder, service_dir=tmp_path,
                            config=ServiceConfig(workers=0, max_shards=1,
                                                 speed=speed),
                            retry=retry)
            results[mode] = list(_Recorder.calls)
        for calls in results.values():
            ts, wall, deadline = (np.array(c, dtype=np.float64)
                                  for c in zip(*calls))
            np.testing.assert_array_equal(ts, trace.timestamps_s)
            np.testing.assert_allclose(np.diff(wall), np.diff(ts) / speed,
                                       rtol=0, atol=1e-6)
            assert (deadline == 0.5).all()

    def test_forwarding_decorator_keeps_its_own_invoke(self):
        """``invoke_at`` is looked up on the backend's type: a decorator
        that forwards attribute access, like ``FaultyBackend``, still
        sees every send through its own ``invoke``."""

        class _InvokeAt:
            def invoke(self, timestamp_s, workload_id):
                pass

            def invoke_at(self, timestamp_s, workload_id, **kw):
                pass  # a send that got around the decorator succeeds

            def drain(self):
                return []

        backend = FaultyBackend(_InvokeAt(),
                                FaultProfile(error_rate=1.0, seed=0))
        result = replay(make_trace(n=20, horizon=0.01), backend,
                        speed=1e6, retry=RetryPolicy(max_attempts=1))
        assert result.outcome_counts()["error"] == 20


class TestDeliver:
    """The per-request delivery loop, driven directly."""

    @staticmethod
    def _send_failing(n_failures, calls, retryable=True):
        def send(ts, wid, index, attempt, deadline_left_s):
            calls.append((ts, wid, index, attempt, deadline_left_s))
            if attempt <= n_failures:
                exc = RuntimeError("down")
                exc.retryable = retryable
                raise exc
        return send

    def test_send_sees_attempts_and_remaining_deadline(self):
        calls = []
        retry = RetryPolicy(max_attempts=5, base_delay_s=1.0,
                            multiplier=2.0, jitter=0.0, deadline_s=10.0)
        code, attempts = deliver(self._send_failing(2, calls), 4.5, "w",
                                 17, retry, None, float("inf"))
        assert (OUTCOMES[code], attempts) == ("retried", 3)
        # backoffs of 1 s then 2 s come out of the 10 s budget
        assert calls == [(4.5, "w", 17, 1, 10.0), (4.5, "w", 17, 2, 9.0),
                         (4.5, "w", 17, 3, 7.0)]

    def test_without_a_policy_one_failure_is_final(self):
        calls = []
        code, attempts = deliver(self._send_failing(1, calls), 0.0, "w",
                                 0, None, None, float("inf"))
        assert (OUTCOMES[code], attempts) == ("error", 1)
        assert calls == [(0.0, "w", 0, 1, None)]

    def test_non_retryable_failure_feeds_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        send = self._send_failing(9, [], retryable=False)
        code, attempts = deliver(send, 1.0, "w", 0,
                                 RetryPolicy(max_attempts=3), breaker,
                                 float("inf"))
        assert (OUTCOMES[code], attempts) == ("dropped", 1)
        assert breaker.state == "open"
        code, attempts = deliver(send, 2.0, "w", 1, None, breaker,
                                 float("inf"))
        assert (OUTCOMES[code], attempts) == ("shed", 0)

    def test_backoff_is_slept_only_when_paced(self, monkeypatch):
        slept = []
        monkeypatch.setattr(resilience.time, "sleep", slept.append)
        retry = RetryPolicy(max_attempts=2, base_delay_s=1.0, jitter=0.0)
        for speed in (float("inf"), 4.0):
            code, _ = deliver(self._send_failing(1, []), 0.0, "w", 0,
                              retry, None, speed)
            assert OUTCOMES[code] == "retried"
        assert slept == [0.25]


_NAN = float("nan")


class TestValidationEdges:
    @pytest.mark.parametrize("build", [
        lambda: replay(make_trace(n=5), _DeadBackend(), speed=_NAN),
        lambda: ServiceConfig(speed=_NAN),
        lambda: ServiceConfig(max_lag_s=_NAN),
        lambda: ServiceConfig(heartbeat_timeout_s=_NAN),
        lambda: ServiceConfig(service_timeout_s=_NAN),
        lambda: RetryPolicy(base_delay_s=_NAN),
        lambda: RetryPolicy(max_delay_s=_NAN),
        lambda: RetryPolicy(multiplier=_NAN),
        lambda: RetryPolicy(deadline_s=_NAN),
        lambda: CircuitBreaker(reset_timeout_s=_NAN),
    ], ids=["replay.speed", "ServiceConfig.speed",
            "ServiceConfig.max_lag_s", "ServiceConfig.heartbeat_timeout_s",
            "ServiceConfig.service_timeout_s", "RetryPolicy.base_delay_s",
            "RetryPolicy.max_delay_s", "RetryPolicy.multiplier",
            "RetryPolicy.deadline_s", "CircuitBreaker.reset_timeout_s"])
    def test_nan_is_rejected(self, build):
        """A NaN passes every ``x <= 0`` check; each field refuses it."""
        with pytest.raises(ValueError):
            build()

    def test_policy_and_breaker_arguments(self):
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="half_open_probes"):
            CircuitBreaker(half_open_probes=0)

    def test_foreign_or_future_checkpoint_rejected(self, tmp_path):
        foreign = tmp_path / "foreign.ckpt"
        foreign.write_bytes(b"not a checkpoint log, just some bytes " * 4)
        with pytest.raises(ValueError, match="not a replay checkpoint"):
            load_checkpoint(foreign, (1, 0.0, 0.0))
        old = tmp_path / "old.npz"  # format 1 was an NPZ snapshot
        np.savez(old, offset=np.int64(0))
        with pytest.raises(ValueError, match="format-1"):
            load_checkpoint(old, (1, 0.0, 0.0))
        header = _header((2, 0.0, 1.0))
        future = bytearray(header)
        future[8:12] = (99).to_bytes(4, "little")
        (tmp_path / "future.ckpt").write_bytes(bytes(future))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(tmp_path / "future.ckpt", (2, 0.0, 1.0))
        # a complete record reaching past the trace's last request
        (tmp_path / "offset.ckpt").write_bytes(
            header + _record(0, 3, [0, 0, 0], [1, 1, 1]))
        with pytest.raises(ValueError, match="corrupt offset 3"):
            load_checkpoint(tmp_path / "offset.ckpt", (2, 0.0, 1.0))
        # a record whose arrays are shorter than its window, followed
        # by another record: the window reads into the next record
        short = _record(0, 2, [0, 0], [1, 1])[:-5]
        (tmp_path / "short.ckpt").write_bytes(
            _header((4, 0.0, 1.0)) + short + _record(2, 4, [0, 0], [1, 1]))
        with pytest.raises(ValueError, match="CRC"):
            load_checkpoint(tmp_path / "short.ckpt", (4, 0.0, 1.0))


# Format-2 layout, spelled out so the tests pin it: a 61-byte header
# (magic, version, n, first_ts, last_ts, has-shard flag, shard triple)
# and, per record, a 20-byte frame (lo, hi, CRC32) before 5 bytes per
# request (u8 outcome, little-endian i32 attempts).
HEADER_BYTES = 61
RECORD_BYTES = 20


def _header(fingerprint, version=2):
    n, first_ts, last_ts = fingerprint
    return (b"REPROCKP" + struct.pack("<Iqdd", version, n, first_ts,
                                      last_ts)
            + bytes(25))


def _record(lo, hi, outcomes, attempts):
    payload = (np.asarray(outcomes, np.uint8).tobytes()
               + np.asarray(attempts, "<i4").tobytes())
    return struct.pack("<qqI", lo, hi, zlib.crc32(payload)) + payload


class TestCheckpointLog:
    """The append-only format: size, torn tails, corrupt records."""

    N, EVERY = 250, 100
    RETRY = RetryPolicy(max_attempts=3, seed=5)

    def _replay(self, path, resume=False):
        return replay(make_trace(n=self.N), _KeyedAttemptBackend(),
                      retry=self.RETRY, checkpoint_path=path,
                      checkpoint_every=self.EVERY, resume=resume)

    @pytest.mark.parametrize("n,every", [(250, 100), (200, 100), (7, 1000),
                                         (5, 1)])
    def test_size_is_header_frames_and_five_bytes_a_request(
            self, tmp_path, n, every):
        path = tmp_path / "replay.ckpt"
        replay(make_trace(n=n), _KeyedAttemptBackend(), retry=self.RETRY,
               checkpoint_path=path, checkpoint_every=every)
        assert _header((n, 0.0, 0.0))[:12] == path.read_bytes()[:12]
        assert path.stat().st_size == (HEADER_BYTES
                                       + math.ceil(n / every) * RECORD_BYTES
                                       + 5 * n)

    def test_torn_tail_at_every_byte_resumes_identically(self, tmp_path):
        """Cut the log at every byte inside its last record: the reader
        falls back to the record before, and a resumed replay rebuilds
        the uninterrupted run's ledger and log byte for byte."""
        full = tmp_path / "full.ckpt"
        reference = self._replay(full)
        data = full.read_bytes()
        fingerprint = (self.N, *(float(t) for t in
                                 make_trace(n=self.N).timestamps_s[[0, -1]]))
        last = HEADER_BYTES + 2 * (RECORD_BYTES + 5 * self.EVERY)
        assert last + RECORD_BYTES + 5 * (self.N - 2 * self.EVERY) == len(data)
        torn = tmp_path / "torn.ckpt"
        for cut in range(last, len(data)):
            torn.write_bytes(data[:cut])
            off, o, a = load_checkpoint(torn, fingerprint)
            assert off == 2 * self.EVERY
            assert o.tobytes() == reference.outcomes[:off].tobytes()
            assert a.tobytes() == reference.attempts[:off].tobytes()
            resumed = self._replay(torn, resume=True)
            assert resumed.outcomes.tobytes() == reference.outcomes.tobytes()
            assert resumed.attempts.tobytes() == reference.attempts.tobytes()
            assert torn.read_bytes() == data

    def test_torn_header_starts_from_zero(self, tmp_path):
        fingerprint = (3, 0.0, 2.0)
        path = tmp_path / "c.ckpt"
        for cut in (0, 5, HEADER_BYTES - 1):
            path.write_bytes(_header(fingerprint)[:cut])
            assert load_checkpoint(path, fingerprint)[0] == 0
            log, o, a = open_checkpoint_log(path, fingerprint, resume=True)
            with log:
                assert log.end == 0 and o.size == a.size == 0
                save_checkpoint(log, offset=3, outcomes=np.zeros(3, np.uint8),
                                attempts=np.ones(3, np.int32))
            assert load_checkpoint(path, fingerprint)[0] == 3
        # a partial header of another trace is not a torn header
        path.write_bytes(_header((4, 0.0, 2.0))[:30])
        with pytest.raises(ValueError, match="not a replay checkpoint"):
            load_checkpoint(path, fingerprint)

    def test_corrupt_complete_record_raises(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self._replay(path)
        data = path.read_bytes()
        fingerprint = (self.N, *(float(t) for t in
                                 make_trace(n=self.N).timestamps_s[[0, -1]]))
        middle = HEADER_BYTES + RECORD_BYTES + 5 * self.EVERY + RECORD_BYTES
        for pos in (middle + 3, len(data) - 1):  # a middle and the final
            bad = bytearray(data)
            bad[pos] ^= 0x40
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match=f"{path.name}.*CRC"):
                load_checkpoint(path, fingerprint)
            with pytest.raises(ValueError, match="CRC"):
                self._replay(path, resume=True)

    def test_non_contiguous_window_raises(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(_header((4, 0.0, 1.0))
                         + _record(0, 2, [0, 0], [1, 1])
                         + _record(3, 4, [0], [1]))
        with pytest.raises(ValueError, match="not contiguous"):
            load_checkpoint(path, (4, 0.0, 1.0))

    def test_empty_window_writes_nothing(self, tmp_path):
        path = tmp_path / "c.ckpt"
        outcomes = np.zeros(4, np.uint8)
        attempts = np.ones(4, np.int32)
        log, _, _ = open_checkpoint_log(path, (4, 0.0, 1.0))
        with log:
            save_checkpoint(log, offset=2, outcomes=outcomes,
                            attempts=attempts)
            size = path.stat().st_size
            save_checkpoint(log, offset=2, outcomes=outcomes,
                            attempts=attempts)
            assert path.stat().st_size == size and log.end == 2
            save_checkpoint(log, offset=4, outcomes=outcomes,
                            attempts=attempts)
        assert path.stat().st_size == size + RECORD_BYTES + 10
        assert load_checkpoint(path, (4, 0.0, 1.0))[0] == 4

    def test_run_without_resume_starts_a_fresh_log(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"stale bytes of an earlier run")
        self._replay(path)
        assert path.stat().st_size == (HEADER_BYTES + 3 * RECORD_BYTES
                                       + 5 * self.N)
