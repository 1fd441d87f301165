"""Tests for the supervised open-loop load service."""

import functools
import json
import os
import signal
import time
import zlib

import numpy as np
import pytest

from repro.loadgen import RequestTrace
from repro.loadgen.resilience import (
    OUTCOME_CODES,
    RetryPolicy,
    load_checkpoint,
)
from repro.loadgen.service import (
    BreakerSpec,
    ServiceConfig,
    ServiceError,
    ServiceFaultPlan,
    _reconcile,
    run_service,
)


def make_trace(n=200, horizon=60.0, seed=0):
    ts = np.sort(np.random.default_rng(seed).uniform(0, horizon, n))
    wids = np.array([f"w{i % 5}" for i in range(n)])
    return RequestTrace(ts, wids, np.array([""] * n),
                        np.full(n, 10.0), np.array(["f"] * n))


class _NullBackend:
    def invoke(self, timestamp_s, workload_id):
        pass

    def drain(self):
        return []


class _KeyedFlakyBackend:
    """Fails deterministically as a pure function of the request.

    Keyed on crc32 (never Python's per-process-randomised ``hash``), so
    every worker process -- including one resuming a shard after a crash
    -- sees exactly the same failures for the same requests.
    """

    def __init__(self, modulus=7):
        self.modulus = modulus

    def invoke(self, timestamp_s, workload_id):
        key = zlib.crc32(f"{timestamp_s:.9f}:{workload_id}".encode())
        if key % self.modulus == 0:
            raise RuntimeError("keyed flake")

    def drain(self):
        return []


class _SlowBackend:
    def __init__(self, delay_s=0.02):
        self.delay_s = delay_s

    def invoke(self, timestamp_s, workload_id):
        time.sleep(self.delay_s)

    def drain(self):
        return []


class _BrokenBackend:
    def __init__(self):
        raise RuntimeError("factory always explodes")


class _CrashOnce:
    """Backend decorator that kills or hangs its worker process once.

    Wraps a backend built by ``inner_factory``.  When the request at
    ``at_ts`` is submitted and ``sentinel`` does not
    exist yet, it creates the sentinel and then either SIGKILLs its own
    process (``mode="sigkill"``) or stops making progress, and so stops
    heartbeating (``mode="hang"``), until the supervisor kills it.  The
    sentinel makes the fault one-shot, so the restarted shard runs
    through.
    """

    def __init__(self, inner_factory, at_ts, sentinel, mode):
        self.inner = inner_factory()
        self.at_ts = at_ts
        self.sentinel = sentinel
        self.mode = mode

    def invoke(self, timestamp_s, workload_id):
        if timestamp_s == self.at_ts and not self.sentinel.exists():
            self.sentinel.touch()
            if self.mode == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(3600.0)
        self.inner.invoke(timestamp_s, workload_id)

    def drain(self):
        return self.inner.drain()


# module-level factories: they must pickle into spawned workers
def _null_factory():
    return _NullBackend()


def _flaky_factory(modulus=7):
    return _KeyedFlakyBackend(modulus=modulus)


def _slow_factory(delay_s=0.02):
    return _SlowBackend(delay_s=delay_s)


def _broken_factory():
    return _BrokenBackend()


def _crashing(inner_factory, trace, at_index, tmp_path, mode="sigkill"):
    """A factory whose backends crash once, on request ``at_index``."""
    return functools.partial(_CrashOnce, inner_factory,
                             float(trace.timestamps_s[at_index]),
                             tmp_path / "crash.sentinel", mode)


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=-1)
        with pytest.raises(ValueError, match="speed"):
            ServiceConfig(speed=0.0)
        with pytest.raises(ValueError, match="max_lag_s"):
            ServiceConfig(max_lag_s=0.0)
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            ServiceConfig(heartbeat_timeout_s=0.0)
        with pytest.raises(ValueError, match="cadences"):
            ServiceConfig(checkpoint_every=0)

    def test_fault_plan_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="error_rate"):
            ServiceFaultPlan(error_rate=1.5)

    def test_fault_plan_draws_are_keyed_not_sequential(self):
        plan = ServiceFaultPlan(error_rate=0.5, seed=3)
        first = [plan.should_error(i, 1) for i in range(50)]
        again = [plan.should_error(i, 1) for i in range(50)]
        assert first == again
        assert any(first) and not all(first)

    def test_empty_schedule_rejected(self, tmp_path):
        # RequestTrace itself forbids empty traces; guard the service's
        # own check with a trace-shaped stand-in
        class _Empty:
            n_requests = 0
            timestamps_s = np.array([])
            workload_ids = np.array([])

        with pytest.raises(ServiceError, match="no requests"):
            run_service(_Empty(), _null_factory, service_dir=tmp_path)


class TestDeterminism:
    """Acceptance: the reconciled ledger is byte-identical across worker
    counts and across crash/no-crash runs for a fixed seed."""

    def test_ledger_identical_across_worker_counts(self, tmp_path):
        trace = make_trace(n=300)
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.001, seed=2)
        digests = {}
        for workers in (0, 1, 2, 4):
            result = run_service(
                trace, _flaky_factory,
                service_dir=tmp_path / f"w{workers}",
                config=ServiceConfig(workers=workers),
                retry=retry,
            )
            assert result.coverage.ok
            digests[workers] = result.coverage.ledger_sha256
        assert len(set(digests.values())) == 1

    def test_outcomes_match_inline_reference(self, tmp_path):
        trace = make_trace(n=120)
        inline = run_service(trace, _flaky_factory,
                             service_dir=tmp_path / "inline",
                             config=ServiceConfig(workers=0))
        multi = run_service(trace, _flaky_factory,
                            service_dir=tmp_path / "multi",
                            config=ServiceConfig(workers=2))
        assert inline.outcomes.tobytes() == multi.outcomes.tobytes()
        assert inline.attempts.tobytes() == multi.attempts.tobytes()
        counts = inline.outcome_counts()
        assert counts["error"] > 0          # the flaky backend does bite
        assert sum(counts.values()) == trace.n_requests

    def test_resume_skips_completed_shards(self, tmp_path):
        trace = make_trace(n=80)
        first = run_service(trace, _null_factory, service_dir=tmp_path,
                            config=ServiceConfig(workers=0))
        again = run_service(trace, _null_factory, service_dir=tmp_path,
                            config=ServiceConfig(workers=0), resume=True)
        assert (first.coverage.ledger_sha256
                == again.coverage.ledger_sha256)
        assert all(s["resumed"] == 1
                   for s in again.coverage.per_shard)


class TestCrashRecovery:
    def test_sigkill_mid_shard_restarts_and_matches_reference(
            self, tmp_path):
        """Satellite: SIGKILL a worker mid-shard; the restarted shard
        resumes from its checkpoint and the merged ledger is
        byte-identical to an uninterrupted run."""
        trace = make_trace(n=200)
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.001, seed=1)
        reference = run_service(
            trace, _flaky_factory, service_dir=tmp_path / "ref",
            config=ServiceConfig(workers=1), retry=retry,
        )
        crashed = run_service(
            trace, _crashing(_flaky_factory, trace, 30, tmp_path),
            service_dir=tmp_path / "crash",
            config=ServiceConfig(workers=2, checkpoint_every=5,
                                 heartbeat_timeout_s=5.0),
            retry=retry,
        )
        assert crashed.coverage.ok
        assert crashed.coverage.restarts >= 1
        assert (crashed.coverage.ledger_sha256
                == reference.coverage.ledger_sha256)
        assert (crashed.outcomes.tobytes()
                == reference.outcomes.tobytes())
        assert (crashed.attempts.tobytes()
                == reference.attempts.tobytes())

    def test_hung_worker_is_killed_on_heartbeat_timeout(self, tmp_path):
        trace = make_trace(n=160)
        reference = run_service(trace, _null_factory,
                                service_dir=tmp_path / "ref",
                                config=ServiceConfig(workers=0))
        hung = run_service(
            trace, _crashing(_null_factory, trace, 3, tmp_path, "hang"),
            service_dir=tmp_path / "hang",
            config=ServiceConfig(workers=2, checkpoint_every=5,
                                 heartbeat_timeout_s=1.0),
        )
        assert hung.coverage.ok
        assert hung.coverage.heartbeat_misses >= 1
        assert hung.coverage.restarts >= 1
        assert (hung.coverage.ledger_sha256
                == reference.coverage.ledger_sha256)

    def test_restart_budget_exhaustion_raises(self, tmp_path):
        trace = make_trace(n=40)
        with pytest.raises(ServiceError, match="restart budget"):
            run_service(
                trace, _broken_factory, service_dir=tmp_path,
                config=ServiceConfig(workers=1,
                                     max_restarts_per_shard=1,
                                     service_timeout_s=60.0),
            )

    def test_service_deadline_enforced(self, tmp_path):
        trace = make_trace(n=40)
        with pytest.raises(ServiceError, match="deadline"):
            run_service(
                trace,
                functools.partial(_slow_factory, delay_s=0.05),
                service_dir=tmp_path,
                config=ServiceConfig(workers=1, max_shards=2,
                                     service_timeout_s=0.3),
            )


class TestCoverageReport:
    def test_report_proves_exactly_once_accounting(self, tmp_path):
        trace = make_trace(n=150)
        result = run_service(trace, _flaky_factory,
                             service_dir=tmp_path,
                             config=ServiceConfig(workers=0),
                             retry=RetryPolicy(max_attempts=2,
                                               base_delay_s=0.001))
        cov = result.coverage
        assert cov.ok and cov.accounted
        assert sum(cov.outcome_counts.values()) == cov.n_scheduled
        assert cov.unaccounted == []
        # the shard list partitions [0, n) exactly
        assert cov.per_shard[0]["lo"] == 0
        assert cov.per_shard[-1]["hi"] == trace.n_requests
        for prev, cur in zip(cov.per_shard, cov.per_shard[1:]):
            assert cur["lo"] == prev["hi"]

    def test_report_written_as_json(self, tmp_path):
        trace = make_trace(n=50)
        result = run_service(trace, _null_factory, service_dir=tmp_path,
                             config=ServiceConfig(workers=0))
        data = json.loads((tmp_path / "coverage.json").read_text())
        assert data["ok"] is True
        assert data["ledger_sha256"] == result.coverage.ledger_sha256
        assert data["outcome_counts"]["ok"] == 50

    def test_missing_shard_payload_is_flagged_not_hidden(self):
        trace = make_trace(n=40)
        bounds = [(0, 20), (20, 40)]
        payload = {
            "outcomes": np.zeros(20, np.uint8),
            "attempts": np.ones(20, np.int32),
            "lag_ms": np.zeros(20), "overslept": np.zeros(20, bool),
            "records": [], "shed_overload": 0, "shed_breaker": 0, "resumed": 0,
        }
        stats = {"restarts": 0, "heartbeat_misses": 0,
                 "worker_errors": 0}
        partial = _reconcile(trace, bounds, {0: payload}, stats,
                             n_workers=1, wall_clock_s=0.0, pace=False)
        assert not partial.coverage.accounted
        assert not partial.coverage.ok
        assert partial.coverage.unaccounted[0] == 20


class TestSheddingAndBreaker:
    def test_overload_sheds_explicitly_at_finite_speed(self, tmp_path):
        # 30 requests in a 0.3 s window against a 20 ms/request backend:
        # the dispatcher must fall behind schedule and shed once lag
        # exceeds the admission bound.
        n = 30
        ts = np.linspace(0.0, 0.3, n)
        trace = RequestTrace(ts, np.array(["w"] * n),
                             np.array([""] * n), np.full(n, 1.0),
                             np.array(["f"] * n))
        result = run_service(
            trace, _slow_factory, service_dir=tmp_path,
            config=ServiceConfig(workers=0, speed=1.0, max_lag_s=0.05,
                                 max_shards=1),
        )
        counts = result.outcome_counts()
        assert counts["shed"] > 0
        assert result.coverage.shed_overload == counts["shed"]
        assert result.coverage.ok  # shed requests are still accounted
        assert result.coverage.dispatch_lag_ms["max"] > 50.0

    def test_breaker_spec_sheds_per_shard(self, tmp_path):
        trace = make_trace(n=100)
        result = run_service(
            trace, functools.partial(_flaky_factory, 1),  # always fails
            service_dir=tmp_path,
            config=ServiceConfig(workers=0, max_shards=2),
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerSpec(failure_threshold=3,
                                reset_timeout_s=1000.0),
        )
        counts = result.outcome_counts()
        assert counts["shed"] > 0
        assert counts["shed"] + counts["error"] == 100
        assert result.coverage.shed_breaker == counts["shed"]

    def test_injected_service_faults_are_retried(self, tmp_path):
        trace = make_trace(n=100)
        result = run_service(
            trace, _null_factory, service_dir=tmp_path,
            config=ServiceConfig(workers=0),
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.0001,
                              seed=9),
            fault_plan=ServiceFaultPlan(error_rate=0.3, seed=9),
        )
        counts = result.outcome_counts()
        assert counts["retried"] > 0
        assert result.coverage.ok


class TestTelemetryAndReplayView:
    def test_service_counters_recorded(self, tmp_path):
        from repro.telemetry import MetricsRegistry, use

        trace = make_trace(n=120)
        registry = MetricsRegistry()
        with use(registry):
            run_service(
                trace, _crashing(_null_factory, trace, 2, tmp_path),
                service_dir=tmp_path,
                config=ServiceConfig(workers=2, checkpoint_every=5,
                                     heartbeat_timeout_s=5.0),
            )
        counters = {c.name: c.value for c in registry.counters()}
        assert counters["service_shards_total"] > 0
        assert counters["service_restarts_total"] >= 1
        gauges = {g.name: g.value for g in registry.gauges()}
        assert gauges["service_workers"] == 2.0

    def test_shed_counters_and_lag_histogram_recorded(self, tmp_path):
        from repro.telemetry import MetricsRegistry, use

        # paced overload: a 20 ms backend against ~10 ms spacing must
        # blow the 50 ms admission bound and shed
        n = 20
        ts = np.linspace(0.0, 0.2, n)
        trace = RequestTrace(ts, np.array(["w"] * n),
                             np.array([""] * n), np.full(n, 1.0),
                             np.array(["f"] * n))
        registry = MetricsRegistry()
        with use(registry):
            run_service(
                trace, _slow_factory, service_dir=tmp_path / "overload",
                config=ServiceConfig(workers=0, speed=1.0,
                                     max_lag_s=0.05, max_shards=1),
            )
        shed = {c.labels.get("reason"): c.value
                for c in registry.counters()
                if c.name == "service_shed_total"}
        assert shed.get("overload", 0) >= 1
        assert any(h.name == "service_dispatch_lag_ms"
                   for h in registry.histograms())

        breaker_reg = MetricsRegistry()
        with use(breaker_reg):
            run_service(
                trace, _AlwaysFailBackend,
                service_dir=tmp_path / "breaker",
                config=ServiceConfig(workers=0, max_shards=1),
                breaker=BreakerSpec(failure_threshold=1,
                                    reset_timeout_s=10_000.0),
            )
        shed = {c.labels.get("reason"): c.value
                for c in breaker_reg.counters()
                if c.name == "service_shed_total"}
        assert shed.get("breaker", 0) >= 1

    def test_result_feeds_outcome_summary(self, tmp_path):
        from repro.platform import outcome_summary

        trace = make_trace(n=60)
        result = run_service(trace, _flaky_factory,
                             service_dir=tmp_path,
                             config=ServiceConfig(workers=0),
                             retry=RetryPolicy(max_attempts=2,
                                               base_delay_s=0.001))
        summary = outcome_summary(result)
        assert summary["n_requests"] == 60
        assert 0 < summary["delivered_fraction"] <= 1.0


class TestServiceSmokeHTTP:
    def test_service_smoke_http_stub_with_crash(self, tmp_path):
        """CI smoke: full service path against the in-repo HTTP stub
        with one injected worker crash; full coverage asserted."""
        from repro.platform import StubServer

        trace = make_trace(n=60, horizon=10.0)
        with StubServer() as stub:
            factory = _crashing(functools.partial(_http_factory, stub.url),
                                trace, 2, tmp_path)
            result = run_service(
                trace, factory, service_dir=tmp_path,
                config=ServiceConfig(workers=2, checkpoint_every=5,
                                     heartbeat_timeout_s=10.0,
                                     max_shards=4),
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
            )
        assert result.coverage.ok
        assert result.coverage.restarts >= 1
        assert result.outcome_counts()["ok"] == 60
        # the stub saw every request at least once (restarts may re-send
        # requests completed after the last checkpoint)
        assert stub.n_requests >= 60
        assert len(result.records) >= 60


def _http_factory(url):
    from repro.platform import HTTPBackend

    return HTTPBackend(url, timeout_s=5.0)


class TestOutcomeCodesStable:
    def test_shed_code_round_trips_through_ledger(self, tmp_path):
        # guards the ledger encoding: coverage counts are derived from
        # the uint8 codes, so taxonomy order is load-bearing
        assert OUTCOME_CODES["shed"] == 4


class _NonRetryableError(RuntimeError):
    retryable = False


class _NonRetryableBackend:
    def invoke(self, timestamp_s, workload_id):
        raise _NonRetryableError("permanent rejection")

    def drain(self):
        return []


class _AlwaysFailBackend:
    def invoke(self, timestamp_s, workload_id):
        raise RuntimeError("down hard")

    def drain(self):
        return []


class _FailOnceBackend:
    def __init__(self):
        self.calls = 0

    def invoke(self, timestamp_s, workload_id):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transient")

    def drain(self):
        return []


class TestShardLoopEdges:
    """Direct ``_run_shard`` exercises for branches the end-to-end runs
    only reach inside worker processes (where coverage can't see them)."""

    @staticmethod
    def _config(**kw):
        return ServiceConfig(heartbeat_every=2, **kw)

    @staticmethod
    def _work(tmp_path, trace, **kw):
        from repro.loadgen.service import _ShardWork

        fields = dict(
            timestamps=trace.timestamps_s,
            workload_ids=trace.workload_ids,
            bounds=[(0, trace.n_requests)],
            epoch_wall_s=0.0,
            config=TestShardLoopEdges._config(),
            service_dir=str(tmp_path),
            backend_factory=_null_factory,
            retry=None,
            breaker_spec=None,
            fault_plan=None,
        )
        fields.update(kw)
        return _ShardWork(**fields)

    def test_heartbeat_cadence_and_periodic_checkpoints(self, tmp_path):
        from repro.loadgen.service import (
            _run_shard,
            _shard_checkpoint_path,
        )

        trace = make_trace(n=6)
        work = self._work(tmp_path, trace,
                          config=self._config(checkpoint_every=2))
        beats = []
        payload = _run_shard(0, work, heartbeat=beats.append)
        assert payload["outcomes"].tolist() == [OUTCOME_CODES["ok"]] * 6
        assert beats == [0, 2, 4]  # every heartbeat_every-th request
        assert _shard_checkpoint_path(str(tmp_path), 0).exists()

    def test_torn_shard_log_resumes_identically(self, tmp_path):
        """Cut a shard's checkpoint log at every byte inside its last
        record: the resumed shard rebuilds the uninterrupted run's
        ledger and log byte for byte."""
        from repro.loadgen.service import (
            _run_shard,
            _shard_checkpoint_path,
        )

        trace = make_trace(n=60)
        kw = dict(config=self._config(checkpoint_every=25),
                  backend_factory=_flaky_factory,
                  retry=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                    seed=1))
        (tmp_path / "ref").mkdir()
        (tmp_path / "torn").mkdir()
        reference = _run_shard(0, self._work(tmp_path / "ref", trace, **kw))
        assert len(set(reference["outcomes"].tolist())) > 1
        data = _shard_checkpoint_path(str(tmp_path / "ref"), 0).read_bytes()
        torn = _shard_checkpoint_path(str(tmp_path / "torn"), 0)
        last = len(data) - (20 + 5 * 10)  # frame + the last 10 requests
        ts = trace.timestamps_s
        fingerprint = (60, float(ts[0]), float(ts[-1]))
        for cut in range(last, len(data)):
            torn.write_bytes(data[:cut])
            assert load_checkpoint(torn, fingerprint, shard=(0, 0, 60))[0] \
                == 50
            resumed = _run_shard(0, self._work(tmp_path / "torn", trace,
                                               **kw))
            assert resumed["resumed"] == 1
            for key in ("outcomes", "attempts"):
                assert resumed[key].tobytes() == reference[key].tobytes()
            assert torn.read_bytes() == data

    def test_non_retryable_error_is_dropped(self, tmp_path):
        from repro.loadgen.service import _run_shard

        trace = make_trace(n=4)
        work = self._work(tmp_path, trace,
                          backend_factory=_NonRetryableBackend,
                          retry=RetryPolicy(max_attempts=3))
        payload = _run_shard(0, work)
        assert payload["outcomes"].tolist() == \
            [OUTCOME_CODES["dropped"]] * 4
        assert payload["attempts"].tolist() == [1] * 4

    def test_deadline_exhaustion_times_out_in_shard(self, tmp_path):
        from repro.loadgen.service import _run_shard

        trace = make_trace(n=3)
        work = self._work(
            tmp_path, trace, backend_factory=_AlwaysFailBackend,
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.2,
                              jitter=0.0, deadline_s=0.05),
        )
        payload = _run_shard(0, work)
        # first backoff (0.2s) would blow the 0.05s budget: one attempt
        assert payload["outcomes"].tolist() == \
            [OUTCOME_CODES["timeout"]] * 3
        assert payload["attempts"].tolist() == [1] * 3

    def test_breaker_sheds_inside_the_retry_loop(self, tmp_path):
        from repro.loadgen.service import _run_shard

        trace = make_trace(n=5)
        work = self._work(
            tmp_path, trace, backend_factory=_AlwaysFailBackend,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0,
                              jitter=0.0),
            breaker_spec=BreakerSpec(failure_threshold=1,
                                     reset_timeout_s=10_000.0),
        )
        payload = _run_shard(0, work)
        # attempt 1 trips the breaker; the retry loop sheds mid-request
        assert payload["outcomes"][0] == OUTCOME_CODES["shed"]
        # later requests are shed at admission (breaker still open)
        assert set(payload["outcomes"][1:].tolist()) == \
            {OUTCOME_CODES["shed"]}
        assert payload["shed_breaker"] == 5

    def test_paced_retry_sleeps_and_breaker_records_success(
            self, tmp_path):
        from repro.loadgen.service import _run_shard

        trace = make_trace(n=3, horizon=1.0)
        work = self._work(
            tmp_path, trace, backend_factory=_FailOnceBackend,
            epoch_wall_s=time.time(), config=self._config(speed=1000.0),
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.1,
                              jitter=0.0),
            breaker_spec=BreakerSpec(failure_threshold=5,
                                     reset_timeout_s=30.0),
        )
        payload = _run_shard(0, work)
        # paced run: the transient failure retried (backoff scaled by
        # speed), everything after recorded as breaker successes
        assert payload["outcomes"][0] == OUTCOME_CODES["retried"]
        assert set(payload["outcomes"][1:].tolist()) == \
            {OUTCOME_CODES["ok"]}

    def test_sleep_until_heartbeats_through_long_waits(self):
        from repro.loadgen.service import _sleep_until

        beats = []
        assert _sleep_until(time.time() + 0.25, beats.append,
                            max_slice_s=0.05) is True
        assert beats and set(beats) == {-1}
        assert _sleep_until(time.time() - 1.0, beats.append,
                            max_slice_s=0.05) is False

    def test_prepare_service_dir_clears_stale_state(self, tmp_path):
        from repro.loadgen.service import _prepare_service_dir

        ckpt = tmp_path / "shard-0000.ckpt"
        ckpt.touch()
        _prepare_service_dir(tmp_path, resume=True)
        assert ckpt.exists()          # checkpoints survive a resume
        _prepare_service_dir(tmp_path, resume=False)
        assert not ckpt.exists()

    def test_resume_refuses_format_1_shard_checkpoints(self, tmp_path):
        from repro.loadgen.service import _prepare_service_dir

        (tmp_path / "shard-0000.npz").touch()
        with pytest.raises(ValueError, match="format-1"):
            _prepare_service_dir(tmp_path, resume=True)
        _prepare_service_dir(tmp_path, resume=False)  # a fresh run is fine

    def test_fault_plan_accessors(self):
        plan = ServiceFaultPlan(error_rate=0.0)
        assert plan.should_error(0, 1) is False  # zero rate: never

    def test_config_budget_validation_and_start_method(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ServiceConfig(max_restarts_per_shard=-1)
        with pytest.raises(ValueError, match="service_timeout_s"):
            ServiceConfig(service_timeout_s=0.0)
        cfg = ServiceConfig(start_method="spawn")
        assert cfg.resolved_start_method() == "spawn"


class _KeyedVerdictBackend:
    """Fails as a pure function of the request: about one request in
    five raises a retryable error and one in five a non-retryable one
    (keyed on crc32, so every worker process agrees)."""

    def invoke(self, timestamp_s, workload_id):
        key = zlib.crc32(f"{timestamp_s:.9f}:{workload_id}".encode()) % 5
        if key == 0:
            raise RuntimeError("keyed retryable failure")
        if key == 1:
            raise _NonRetryableError("keyed permanent rejection")

    def drain(self):
        return []


class _InterruptAt(_KeyedVerdictBackend):
    """Stops the whole run (not just a request) at one timestamp."""

    def __init__(self, at_ts):
        self.at_ts = at_ts

    def invoke(self, timestamp_s, workload_id):
        if timestamp_s == self.at_ts:
            raise KeyboardInterrupt
        super().invoke(timestamp_s, workload_id)


def _deliver_reference(trace, backend, fault_plan=None):
    """The ledger that ``deliver`` with no retry policy or breaker gives,
    one request at a time over the whole trace."""
    from repro.loadgen.resilience import deliver
    from repro.loadgen.service import ServiceInjectedError

    def send(ts, wid, i, attempt, deadline_left_s):
        if fault_plan is not None and fault_plan.should_error(i, attempt):
            raise ServiceInjectedError(f"request {i}")
        backend.invoke(ts, wid)

    n = trace.n_requests
    outcomes = np.empty(n, dtype=np.uint8)
    attempts = np.empty(n, dtype=np.int32)
    for i, (ts, wid) in enumerate(zip(trace.timestamps_s.tolist(),
                                      trace.workload_ids.tolist())):
        outcomes[i], attempts[i] = deliver(send, ts, wid, i, None, None,
                                           float("inf"))
    return outcomes, attempts


class TestNoPolicyLedger:
    """Without a retry policy or breaker a shard sends each request once
    and writes only the failures; its ledger must equal ``deliver``'s."""

    @staticmethod
    def _assert_equals_reference(result, reference):
        outcomes, attempts = reference
        assert result.coverage.ok
        assert result.outcomes.tobytes() == outcomes.tobytes()
        assert result.attempts.tobytes() == attempts.tobytes()

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_no_policy_ledger_equals_deliver_reference(
            self, tmp_path, workers, with_faults):
        trace = make_trace(n=300)
        plan = (ServiceFaultPlan(error_rate=0.2, seed=4)
                if with_faults else None)
        reference = _deliver_reference(trace, _KeyedVerdictBackend(), plan)
        # the comparison covers every outcome a no-policy send can have
        assert {OUTCOME_CODES[k] for k in ("ok", "error", "dropped")} == \
            set(reference[0].tolist())
        result = run_service(trace, _KeyedVerdictBackend,
                             service_dir=tmp_path,
                             config=ServiceConfig(workers=workers),
                             fault_plan=plan)
        assert len(result.shard_bounds) > 1
        self._assert_equals_reference(result, reference)

    def test_worker_killed_mid_shard_resumes_to_the_reference(
            self, tmp_path):
        trace = make_trace(n=300)
        reference = _deliver_reference(trace, _KeyedVerdictBackend())
        crashed = run_service(
            trace, _crashing(_KeyedVerdictBackend, trace, 50, tmp_path),
            service_dir=tmp_path / "crash",
            config=ServiceConfig(workers=1, checkpoint_every=5,
                                 heartbeat_timeout_s=5.0),
        )
        assert crashed.coverage.restarts >= 1
        self._assert_equals_reference(crashed, reference)

    def test_interrupted_run_resumes_to_the_reference(self, tmp_path):
        trace = make_trace(n=300)
        reference = _deliver_reference(trace, _KeyedVerdictBackend())
        config = ServiceConfig(workers=0, checkpoint_every=5)
        stop = functools.partial(_InterruptAt,
                                 float(trace.timestamps_s[50]))
        with pytest.raises(KeyboardInterrupt):
            run_service(trace, stop, service_dir=tmp_path, config=config)
        resumed = run_service(trace, _KeyedVerdictBackend,
                              service_dir=tmp_path, config=config,
                              resume=True)
        # shard 0 finished before the stop; shard 1 resumed from its log
        assert [s["resumed"] for s in resumed.coverage.per_shard[:3]] == \
            [1, 1, 0]
        self._assert_equals_reference(resumed, reference)


class TestLatenessByCause:
    """A late send is *backlog* when the pacer never slept for it and
    *oversleep* when it slept and woke late."""

    @staticmethod
    def _trace(ts):
        n = len(ts)
        return RequestTrace(np.asarray(ts, dtype=float),
                            np.array(["w"] * n), np.array([""] * n),
                            np.full(n, 1.0), np.array(["f"] * n))

    def test_sends_behind_a_slow_backend_are_backlog(self, tmp_path):
        from repro.telemetry import MetricsRegistry, use

        # every send is due at once; each takes 20 ms, so the nine sends
        # after the first are late without the pacer sleeping for them.
        # The first waits out the service's head start, so it may be on
        # time, oversleep, or -- on a host slow to set the run up --
        # find its send time already past: backlog
        trace = self._trace(np.zeros(10))
        registry = MetricsRegistry()
        with use(registry):
            result = run_service(
                trace, _slow_factory, service_dir=tmp_path,
                config=ServiceConfig(workers=0, speed=1.0, max_shards=1),
            )
        lag = result.coverage.dispatch_lag_ms
        assert lag["late_backlog"] in (9, 10)
        assert lag["late_backlog"] + lag["late_oversleep"] == \
            round(lag["late_fraction"] * 10)
        assert lag["late_backlog_fraction"] == lag["late_backlog"] / 10
        assert lag["late_oversleep_fraction"] == \
            lag["late_oversleep"] / 10
        late = {c.labels["cause"]: c.value for c in registry.counters()
                if c.name == "service_late_total"}
        assert late == {"backlog": lag["late_backlog"],
                        "oversleep": lag["late_oversleep"]}

    def test_a_pacer_that_wakes_late_is_oversleep(self, tmp_path,
                                                  monkeypatch):
        real_sleep = time.sleep
        monkeypatch.setattr(time, "sleep",
                            lambda s: real_sleep(s + 0.01))
        # sends 100 ms apart against a null backend: the pacer sleeps
        # before each one, and every wake-up is 10 ms late
        trace = self._trace(0.1 * np.arange(1, 6))
        result = run_service(
            trace, _null_factory, service_dir=tmp_path,
            config=ServiceConfig(workers=0, speed=1.0, max_shards=1),
        )
        lag = result.coverage.dispatch_lag_ms
        assert lag["late_fraction"] == 1.0
        assert lag["late_backlog_fraction"] == 0.0
        assert lag["late_oversleep_fraction"] == 1.0
        assert json.loads((tmp_path / "coverage.json").read_text()) \
            ["dispatch_lag_ms"]["late_oversleep_fraction"] == 1.0

    def test_unpaced_runs_report_no_lateness(self, tmp_path):
        result = run_service(make_trace(n=40), _null_factory,
                             service_dir=tmp_path,
                             config=ServiceConfig(workers=0))
        lag = result.coverage.dispatch_lag_ms
        assert lag["late_backlog_fraction"] == 0.0
        assert lag["late_oversleep_fraction"] == 0.0
