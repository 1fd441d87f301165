"""Tests for the HTTP backend, stub server, and CO-safe recording."""

import gc
import time

import pytest

from repro.platform import (
    HTTPBackend,
    HTTPConnectionError,
    HTTPStatusError,
    HTTPTimeoutError,
    StubServer,
)


class TestStubServer:
    def test_serves_and_counts_requests(self):
        with StubServer() as stub:
            backend = HTTPBackend(stub.url)
            backend.invoke(0.0, "w0")
            backend.invoke(1.0, "w1")
            assert stub.n_requests == 2
        records = backend.drain()
        assert [r.workload_id for r in records] == ["w0", "w1"]
        assert backend.drain() == []  # drain clears

    def test_fail_every_returns_retryable_503(self):
        with StubServer(fail_every=2) as stub:
            backend = HTTPBackend(stub.url)
            backend.invoke(0.0, "w0")  # request 1: ok
            with pytest.raises(HTTPStatusError) as exc_info:
                backend.invoke(1.0, "w1")  # request 2: injected 503
            assert exc_info.value.status == 503
            assert exc_info.value.retryable
            backend.invoke(2.0, "w2")  # request 3: ok again

    def test_validation(self):
        with pytest.raises(ValueError, match="delay_s"):
            StubServer(delay_s=-1.0)
        with pytest.raises(ValueError, match="timeout_s"):
            HTTPBackend("http://localhost", timeout_s=0.0)


class TestErrorTaxonomy:
    def test_status_retryability(self):
        assert HTTPStatusError(500).retryable
        assert HTTPStatusError(503).retryable
        assert HTTPStatusError(429).retryable
        assert not HTTPStatusError(404).retryable
        assert not HTTPStatusError(400).retryable

    def test_connection_refused_is_retryable(self):
        backend = HTTPBackend("http://127.0.0.1:1", timeout_s=1.0)
        with pytest.raises(HTTPConnectionError) as exc_info:
            backend.invoke(0.0, "w")
        assert exc_info.value.retryable

    def test_slow_backend_times_out(self):
        with StubServer(delay_s=1.0) as stub:
            backend = HTTPBackend(stub.url, timeout_s=0.1)
            with pytest.raises(HTTPTimeoutError) as exc_info:
                backend.invoke(0.0, "w")
            assert exc_info.value.retryable

    def test_exhausted_deadline_fails_before_sending(self):
        backend = HTTPBackend("http://127.0.0.1:1")
        with pytest.raises(HTTPTimeoutError, match="deadline"):
            backend.invoke_at(0.0, "w", deadline_s=0.0)
        assert backend.n_sent == 0  # never left the client


class TestCoordinatedOmissionSafety:
    """Acceptance: latencies are measured from the *scheduled* send
    time, and the record structure separates dispatcher stall
    (queueing) from backend slowness (service time)."""

    @pytest.fixture(autouse=True)
    def _no_collector_pause(self):
        """Keep the garbage collector out of the timed requests.

        A full collection of the test process's heap can take a few
        hundred milliseconds after a long suite; inside a request it
        would read as backend service time, which these tests compare
        against a 200 ms dispatch lag.  Collect first, then hold the
        collector off until the test ends.
        """
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_latency_measured_from_scheduled_send(self):
        lag_s = 0.2
        with StubServer() as stub:
            backend = HTTPBackend(stub.url)
            # dispatcher running late: the scheduled send was lag_s ago
            backend.invoke_at(0.0, "w",
                              scheduled_wall_s=time.time() - lag_s)
        (record,) = backend.drain()
        # lag shows up as latency (CO-safe), not a stretched schedule
        assert record.latency_ms >= lag_s * 1e3
        assert record.queueing_ms == pytest.approx(lag_s * 1e3, abs=50.0)
        # a fast backend stays fast in service time even when dispatched
        # late -- the signal that separates stall from slowness
        assert record.service_ms < record.queueing_ms

    def test_slow_backend_shows_in_service_time_not_queueing(self):
        delay_s = 0.15
        with StubServer(delay_s=delay_s) as stub:
            backend = HTTPBackend(stub.url)
            backend.invoke_at(0.0, "w", scheduled_wall_s=time.time())
        (record,) = backend.drain()
        assert record.service_ms >= delay_s * 1e3
        assert record.queueing_ms < record.service_ms

    def test_plain_invoke_anchors_arrival_at_send(self):
        with StubServer() as stub:
            backend = HTTPBackend(stub.url)
            backend.invoke(0.0, "w")
        (record,) = backend.drain()
        assert record.queueing_ms == 0.0
        assert record.arrival_s == record.start_s

    def test_dispatch_lag_summary_flags_the_stall(self):
        import numpy as np

        from repro.platform import dispatch_lag_summary

        lag_ms = np.array([0.0, 0.0, 0.0, 120.0, 250.0])
        s = dispatch_lag_summary(lag_ms, np.zeros(5, dtype=bool))
        assert s["n_requests"] == 5
        assert s["max_ms"] == 250.0
        assert s["late_fraction"] == pytest.approx(0.4)
        assert (s["late_backlog"], s["late_oversleep"]) == (2, 0)
        # a flagged send only 0.5 ms late is on time, so no cause
        lag_ms[1] = 0.5
        s = dispatch_lag_summary(
            lag_ms, np.array([0, 1, 0, 1, 0], dtype=bool))
        assert (s["late_backlog"], s["late_oversleep"]) == (1, 1)
        assert s["late_oversleep_fraction"] == pytest.approx(0.2)
        assert s["late_backlog_fraction"] == pytest.approx(0.2)
        with pytest.raises(ValueError, match="no dispatch lag"):
            dispatch_lag_summary(np.array([]), np.array([], dtype=bool))


class TestServiceIntegration:
    def test_paced_service_records_lag_against_slow_stub(self, tmp_path):
        """The full open loop: a paced service run against a slow stub
        accrues dispatch lag that the coverage report surfaces."""
        import numpy as np

        from repro.loadgen import RequestTrace
        from repro.loadgen.service import ServiceConfig, run_service

        n = 12
        ts = np.linspace(0.0, 0.25, n)
        trace = RequestTrace(ts, np.array(["w"] * n),
                             np.array([""] * n), np.full(n, 1.0),
                             np.array(["f"] * n))
        with StubServer(delay_s=0.05) as stub:
            import functools

            result = run_service(
                trace,
                functools.partial(_backend_factory, stub.url),
                service_dir=tmp_path,
                config=ServiceConfig(workers=0, speed=1.0,
                                     max_shards=1),
            )
        assert result.coverage.ok
        assert result.outcome_counts()["ok"] == n
        # a 50 ms backend against ~23 ms spacing must fall behind
        assert result.coverage.dispatch_lag_ms["max"] > 0.0
        # records anchor latency at the scheduled send: backend service
        # time plus accumulated dispatch lag
        lat = [r.latency_ms for r in result.records]
        assert max(lat) > 50.0


def _backend_factory(url):
    return HTTPBackend(url, timeout_s=5.0)
