"""Unit tests for the telemetry subsystem (ISSUE 3 tentpole).

Covers the metric primitives and registry, every exporter (JSONL schema,
Prometheus text escaping, console summary) including empty-registry and
single-sample edge cases, the activation lifecycle, the platform
telemetry tracer, and the drift monitor -- ending with the acceptance
scenario: a mis-mapped workload pool fires ``drift_warning`` events
while a faithful replay of the same seed emits none.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from repro import telemetry
from repro.telemetry import (
    DriftMonitor,
    MetricsRegistry,
    NULL_REGISTRY,
    console_summary,
    prometheus_text,
    registry_snapshot,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.exporters import JSONL_SCHEMA_VERSION
from repro.telemetry.registry import default_edges


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def test_counter_monotone():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "help text")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("queue_depth")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13


def test_registry_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.counter("a", labels={"k": "v"}) is not reg.counter("a")
    assert reg.counter("a", labels={"k": "v"}) is \
        reg.counter("a", labels={"k": "v"})
    assert len(reg) == 2


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("x")
    with pytest.raises(ValueError, match="already registered"):
        reg.histogram("x", labels={"a": "b"})


def test_default_edges_geometric():
    edges = default_edges(1e-2, 1e2, per_decade=2)
    assert edges[0] == pytest.approx(1e-2)
    assert edges[-1] == pytest.approx(1e2)
    assert np.all(np.diff(edges) > 0)
    with pytest.raises(ValueError):
        default_edges(0.0, 1.0)


def test_histogram_bucketing_and_stats():
    h = MetricsRegistry().histogram(
        "lat", edges=np.array([1.0, 10.0, 100.0])
    )
    for v in (0.5, 5.0, 50.0, 500.0):
        h.observe(v)
    npt.assert_array_equal(h.counts, [1, 1, 1, 1])  # incl. overflow
    assert h.n == 4
    assert h.sum == pytest.approx(555.5)
    assert h.min == 0.5 and h.max == 500.0
    assert h.mean() == pytest.approx(555.5 / 4)


def test_histogram_observe_many_matches_observe():
    rng = np.random.default_rng(0)
    values = rng.lognormal(size=1000)
    a = MetricsRegistry().histogram("a")
    b = MetricsRegistry().histogram("b")
    for v in values:
        a.observe(v)
    b.observe_many(values)
    npt.assert_array_equal(a.counts, b.counts)
    assert a.n == b.n
    assert a.sum == pytest.approx(b.sum)
    assert a.min == b.min and a.max == b.max


def test_histogram_rejects_non_finite():
    h = MetricsRegistry().histogram("h")
    with pytest.raises(ValueError, match="finite"):
        h.observe(float("nan"))
    with pytest.raises(ValueError, match="finite"):
        h.observe_many([1.0, float("inf")])
    h.observe_many([])  # no-op, not an error
    assert h.n == 0


def test_histogram_single_sample_quantiles():
    h = MetricsRegistry().histogram("h")
    h.observe(3.0)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == pytest.approx(3.0)


def test_histogram_quantile_monotone_and_clamped():
    rng = np.random.default_rng(1)
    h = MetricsRegistry().histogram("h")
    values = rng.lognormal(mean=0.0, sigma=2.0, size=5000)
    h.observe_many(values)
    qs = np.linspace(0, 1, 21)
    ests = [h.quantile(q) for q in qs]
    assert all(b >= a for a, b in zip(ests, ests[1:]))
    assert ests[0] >= h.min and ests[-1] <= h.max
    # bucketed estimate tracks the exact quantile within a bucket width
    exact = np.quantile(values, 0.5)
    assert h.quantile(0.5) == pytest.approx(exact, rel=0.8)


def test_histogram_empty_quantile_raises():
    h = MetricsRegistry().histogram("h")
    with pytest.raises(ValueError, match="empty"):
        h.quantile(0.5)
    with pytest.raises(ValueError, match="empty"):
        h.mean()
    h.observe(1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        h.quantile(1.5)


def test_stage_timer_records_seconds():
    reg = MetricsRegistry()
    with reg.timer("stage_x", "busy work"):
        pass
    h = reg.histogram("stage_x_seconds")
    assert h.n == 1
    assert 0.0 <= h.max < 1.0


def test_events():
    reg = MetricsRegistry()
    reg.event("drift_warning", ks=0.5)
    reg.event("other")
    assert len(reg.events) == 2
    assert reg.events_of_kind("drift_warning") == [
        {"kind": "drift_warning", "ks": 0.5}
    ]


# ----------------------------------------------------------------------
# activation lifecycle
# ----------------------------------------------------------------------
def test_enable_disable_active():
    assert telemetry.active() is None
    reg = telemetry.enable()
    assert telemetry.active() is reg
    telemetry.disable()
    assert telemetry.active() is None


def test_use_scopes_and_restores():
    outer = telemetry.enable()
    inner = MetricsRegistry()
    with telemetry.use(inner):
        assert telemetry.active() is inner
    assert telemetry.active() is outer


def test_stage_is_shared_noop_when_disabled():
    a = telemetry.stage("x")
    b = telemetry.stage("y")
    assert a is b  # one shared singleton: no allocation per call site
    with a:
        pass
    telemetry.enable()
    assert telemetry.stage("x") is not a


def test_null_registry_accepts_everything():
    NULL_REGISTRY.counter("c").inc(5)
    NULL_REGISTRY.gauge("g").set(1)
    NULL_REGISTRY.histogram("h").observe_many([1.0, 2.0])
    with NULL_REGISTRY.timer("t"):
        pass
    NULL_REGISTRY.event("anything", x=1)
    assert NULL_REGISTRY.events == []


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", "total requests").inc(7)
    reg.counter("outcomes", "by outcome",
                labels={"outcome": "ok"}).inc(5)
    reg.gauge("horizon_s", "trace horizon").set(120.5)
    h = reg.histogram("lat_ms", "latency",
                      edges=np.array([1.0, 10.0, 100.0]))
    h.observe_many([0.5, 5.0, 5.0, 50.0, 500.0])
    reg.event("drift_warning", metric="duration_ms", ks=0.4, band=0.2,
              time_s=60.0)
    return reg


def test_jsonl_schema(tmp_path):
    path = write_jsonl(_populated_registry(), tmp_path / "t.jsonl")
    records = [json.loads(line) for line in
               path.read_text().strip().split("\n")]
    assert records[0] == {"type": "meta", "schema": JSONL_SCHEMA_VERSION,
                          "producer": "repro.telemetry"}
    by_type = {}
    for r in records:
        by_type.setdefault(r["type"], []).append(r)
    assert [c["name"] for c in by_type["counter"]] == \
        ["outcomes", "requests_total"]  # sorted by name
    assert by_type["counter"][0]["labels"] == {"outcome": "ok"}
    assert by_type["counter"][1]["value"] == 7
    [gauge] = by_type["gauge"]
    assert gauge["value"] == 120.5
    [hist] = by_type["histogram"]
    assert hist["count"] == 5
    assert hist["edges"] == [1.0, 10.0, 100.0]
    assert hist["bucket_counts"] == [1, 2, 1, 1]
    assert hist["min"] == 0.5 and hist["max"] == 500.0
    assert {"mean", "p50", "p90", "p99"} <= set(hist)
    [event] = by_type["event"]
    assert event["kind"] == "drift_warning" and event["ks"] == 0.4


def test_jsonl_deterministic(tmp_path):
    a = write_jsonl(_populated_registry(), tmp_path / "a.jsonl")
    b = write_jsonl(_populated_registry(), tmp_path / "b.jsonl")
    assert a.read_bytes() == b.read_bytes()


def test_jsonl_empty_registry(tmp_path):
    path = write_jsonl(MetricsRegistry(), tmp_path / "empty.jsonl")
    records = [json.loads(line) for line in
               path.read_text().strip().split("\n")]
    assert len(records) == 1 and records[0]["type"] == "meta"


def test_prometheus_text_format(tmp_path):
    text = prometheus_text(_populated_registry())
    lines = text.strip().split("\n")
    assert "# HELP outcomes_total by outcome" in lines
    assert "# TYPE outcomes_total counter" in lines
    assert 'outcomes_total{outcome="ok"} 5' in lines
    assert "requests_total 7" in lines  # _total not doubled
    assert "# TYPE horizon_s gauge" in lines
    assert "horizon_s 120.5" in lines
    # cumulative buckets + sum/count
    assert 'lat_ms_bucket{le="1"} 1' in lines
    assert 'lat_ms_bucket{le="10"} 3' in lines
    assert 'lat_ms_bucket{le="100"} 4' in lines
    assert 'lat_ms_bucket{le="+Inf"} 5' in lines
    assert "lat_ms_sum 560.5" in lines
    assert "lat_ms_count 5" in lines
    assert text.endswith("\n")
    path = write_prometheus(_populated_registry(), tmp_path / "t.prom")
    assert path.read_text() == text


def test_prometheus_escaping():
    reg = MetricsRegistry()
    reg.counter(
        "weird.name", 'help with \\ and\nnewline',
        labels={"path": 'a"b\\c\nd'},
    ).inc()
    text = prometheus_text(reg)
    # dots sanitised, help escapes \ and newline, labels also escape "
    assert "# HELP weird_name_total help with \\\\ and\\nnewline" in text
    assert 'weird_name_total{path="a\\"b\\\\c\\nd"} 1' in text


def test_prometheus_empty_registry():
    assert prometheus_text(MetricsRegistry()) == ""


def test_console_summary_populated():
    text = console_summary(_populated_registry())
    assert "telemetry summary" in text
    assert "requests_total = 7" in text
    assert "outcomes{outcome=ok} = 5" in text
    assert "horizon_s = 120.5" in text
    assert "lat_ms: n=5" in text
    assert "events: drift_warning=1" in text
    assert "DRIFT duration_ms ks=0.4000 > band=0.2000 at t=60.0s" in text


def test_console_summary_empty_and_single_sample():
    assert "(no metrics recorded)" in console_summary(MetricsRegistry())
    reg = MetricsRegistry()
    reg.histogram("h").observe(2.0)
    text = console_summary(reg)
    assert "h: n=1 mean=2" in text
    empty_hist = MetricsRegistry()
    empty_hist.histogram("h")
    assert "h: empty" in console_summary(empty_hist)


# ----------------------------------------------------------------------
# platform telemetry tracer
# ----------------------------------------------------------------------
def test_telemetry_tracer_counts_without_storing():
    from repro.platform import TelemetryTracer

    reg = MetricsRegistry()
    tracer = TelemetryTracer(reg)
    tracer.emit(0.0, "sandbox_created", 0, "w1")
    tracer.emit(1.0, "sandbox_created", 1, "w2")
    tracer.emit(2.0, "sandbox_reused", 0, "w1")
    tracer.emit(3.0, "sandbox_evicted", 1, "w2")
    assert len(tracer) == 4
    created = reg.counter("platform_events_total",
                          labels={"kind": "sandbox_created"})
    assert created.value == 2
    assert reg.gauge("platform_live_sandboxes").value == 1  # 2 up, 1 down
    with pytest.raises(ValueError, match="unknown event kind"):
        tracer.emit(0.0, "sandbox_teleported", 0, "w")


def test_telemetry_tracer_drives_simulator():
    from repro.platform import (
        FaaSCluster,
        TelemetryTracer,
        WorkloadProfile,
    )

    reg = MetricsRegistry()
    backend = FaaSCluster(
        {"w": WorkloadProfile("w", runtime_ms=10.0, memory_mb=128.0)},
        n_nodes=2,
        tracer=TelemetryTracer(reg),
    )
    for i in range(20):
        backend.invoke(i * 0.001, "w")
    backend.drain()
    assert reg.counter("platform_events_total",
                       labels={"kind": "sandbox_created"}).value > 0


def test_simulator_drain_gauges():
    from repro.platform import FaaSCluster, WorkloadProfile

    reg = telemetry.enable()
    backend = FaaSCluster(
        {"w": WorkloadProfile("w", runtime_ms=5.0, memory_mb=64.0)},
        n_nodes=3,
    )
    backend.invoke(0.0, "w")
    backend.drain()
    assert reg.gauge("platform_nodes").value == 3
    assert reg.gauge("platform_completed_invocations").value == 1
    assert reg.gauge("platform_dropped_requests").value == 0


# ----------------------------------------------------------------------
# drift monitor
# ----------------------------------------------------------------------
def _lognormal_cdf(seed=0, n=20_000):
    from repro.stats.ecdf import EmpiricalCDF

    rng = np.random.default_rng(seed)
    return EmpiricalCDF.from_samples(rng.lognormal(np.log(100), 1.0, n))


def test_drift_monitor_validates_params():
    target = _lognormal_cdf()
    for band in (0.0, float("nan")):
        with pytest.raises(ValueError, match="band"):
            DriftMonitor(target, band=band)
    with pytest.raises(ValueError, match="window"):
        DriftMonitor(target, window=1)
    with pytest.raises(ValueError, match="min_samples"):
        DriftMonitor(target, window=10, min_samples=11)


def test_drift_monitor_faithful_stream_quiet():
    target = _lognormal_cdf()
    monitor = DriftMonitor(target, band=0.15, window=512)
    rng = np.random.default_rng(1)
    monitor.observe_many(rng.lognormal(np.log(100), 1.0, 4096))
    monitor.flush()
    assert monitor.n_windows == 8
    assert monitor.max_ks < 0.15
    assert monitor.warnings == []


def test_drift_monitor_shifted_stream_fires():
    target = _lognormal_cdf()
    monitor = DriftMonitor(target, band=0.15, window=512)
    rng = np.random.default_rng(2)
    # x3 runtime shift: what a mis-mapped pool looks like
    times = np.arange(4096) * 0.1
    monitor.observe_many(3.0 * rng.lognormal(np.log(100), 1.0, 4096),
                         times)
    assert len(monitor.warnings) == 8  # every window trips
    w = monitor.warnings[0]
    assert w["kind"] == "drift_warning"
    assert w["ks"] > 0.15 and w["band"] == 0.15
    assert w["time_s"] == pytest.approx(51.1)  # last sample of window 0
    assert monitor.max_ks == max(x["ks"] for x in monitor.warnings)


def test_drift_monitor_observe_matches_observe_many():
    target = _lognormal_cdf()
    rng = np.random.default_rng(3)
    values = 2.0 * rng.lognormal(np.log(100), 1.0, 1500)
    a = DriftMonitor(target, band=0.1, window=256)
    b = DriftMonitor(target, band=0.1, window=256)
    for i, v in enumerate(values):
        a.observe(v, i * 1.0)
    b.observe_many(values, np.arange(values.size, dtype=np.float64))
    a.flush()
    b.flush()
    assert a.n_windows == b.n_windows
    assert a.last_ks == pytest.approx(b.last_ks)
    assert [w["ks"] for w in a.warnings] == \
        pytest.approx([w["ks"] for w in b.warnings])


def test_drift_monitor_flush_partial_window():
    target = _lognormal_cdf()
    monitor = DriftMonitor(target, band=0.05, window=512, min_samples=64)
    monitor.observe_many(np.full(63, 1e6))  # below min_samples: ignored
    monitor.flush()
    assert monitor.n_windows == 0 and monitor.warnings == []
    monitor.observe_many(np.full(64, 1e6))
    monitor.flush()
    assert monitor.n_windows == 1 and len(monitor.warnings) == 1


def test_drift_monitor_mirrors_into_active_registry():
    target = _lognormal_cdf()
    reg = telemetry.enable()
    monitor = DriftMonitor(target, band=0.1, window=128)
    monitor.observe_many(np.full(128, 1e6))
    assert len(reg.events_of_kind("drift_warning")) == 1
    assert reg.counter("drift_warnings_total",
                       labels={"metric": "duration_ms"}).value == 1
    assert reg.gauge("drift_ks",
                     labels={"metric": "duration_ms"}).value > 0.1


def test_drift_monitor_noise_floor_and_summary():
    monitor = DriftMonitor(_lognormal_cdf(), band=0.2, window=1024)
    from repro.stats.distance import dkw_band

    assert monitor.noise_floor() == pytest.approx(dkw_band(1024, 0.01))
    assert monitor.band > monitor.noise_floor()
    s = monitor.summary()
    assert s["n_observed"] == 0 and s["last_ks"] is None


# ----------------------------------------------------------------------
# acceptance: mis-mapped pool fires during replay, faithful run is quiet
# ----------------------------------------------------------------------
class _NullBackend:
    """Accepts everything instantly; keeps replay overhead at zero."""

    def invoke(self, timestamp_s, workload_id):
        pass

    def drain(self):
        return []


def _spec_and_trace(seed=0):
    from repro.core import ShrinkRay
    from repro.loadgen import generate_request_trace
    from repro.traces import synthetic_azure_trace
    from repro.workloads import build_default_pool

    trace = synthetic_azure_trace(n_functions=600, seed=seed)
    spec = ShrinkRay().run(trace, build_default_pool(), max_rps=6.0,
                           duration_minutes=8, seed=seed)
    return spec, generate_request_trace(spec, seed=seed)


def test_replay_drift_acceptance():
    """The ISSUE 3 acceptance scenario, end to end through replay()."""
    from dataclasses import replace as dc_replace

    from repro.loadgen import replay

    spec, req = _spec_and_trace(seed=0)
    target = spec.invocation_duration_cdf()

    # faithful replay, same seed: no warnings
    reg = telemetry.enable()
    quiet = DriftMonitor(target, band=0.2, window=512)
    replay(req, _NullBackend(), drift=quiet)
    assert quiet.n_observed == req.n_requests
    assert quiet.n_windows > 0
    assert quiet.warnings == [], (
        f"faithful replay drifted: max KS {quiet.max_ks:.4f}"
    )
    assert reg.events_of_kind("drift_warning") == []
    telemetry.disable()

    # mis-mapped pool: every runtime off by x4 -- the drift the monitor
    # exists to catch -- fires during the run and lands in the registry
    bad_req = dc_replace(req, runtimes_ms=req.runtimes_ms * 4.0)
    reg = telemetry.enable()
    loud = DriftMonitor(target, band=0.2, window=512)
    replay(bad_req, _NullBackend(), drift=loud)
    assert len(loud.warnings) > 0
    assert loud.max_ks > 0.2
    events = reg.events_of_kind("drift_warning")
    assert len(events) == len(loud.warnings)
    assert reg.counter("replay_requests_total").value == req.n_requests


def test_resilient_replay_observes_drift_online():
    from dataclasses import replace as dc_replace

    from repro.loadgen import RetryPolicy, replay

    spec, req = _spec_and_trace(seed=1)
    bad_req = dc_replace(req, runtimes_ms=req.runtimes_ms * 4.0)
    monitor = DriftMonitor(spec.invocation_duration_cdf(), band=0.2,
                           window=512)
    result = replay(bad_req, _NullBackend(),
                    retry=RetryPolicy(max_attempts=2), drift=monitor)
    assert result.outcomes is not None
    assert monitor.n_observed == req.n_requests
    assert len(monitor.warnings) > 0


def test_replay_drift_is_the_same_in_every_dispatch_mode(tmp_path):
    """Unpaced, paced, resilient and killed-then-resumed replays leave
    the monitor in the same state as observing the dispatched requests
    directly: a resumed replay, the requests from its resume offset."""
    from dataclasses import replace as dc_replace

    from repro.loadgen import RetryPolicy, replay

    spec, req = _spec_and_trace(seed=2)
    # skewed runtimes, so windows differ and some fire
    req = dc_replace(req, runtimes_ms=req.runtimes_ms * 2.0)
    target = spec.invocation_duration_cdf()

    def monitor():
        return DriftMonitor(target, band=0.2, window=256)

    def state(m):
        return (m.n_observed, m.n_windows, m.last_ks, m.warnings)

    def fed(start):
        m = monitor()
        m.observe_many(req.runtimes_ms[start:], req.timestamps_s[start:])
        m.flush()
        return state(m)

    retry = RetryPolicy(max_attempts=2)
    reference = fed(0)
    assert reference[1] > 2 and reference[3]
    for kw in ({}, {"speed": 1e6}, {"retry": retry}):
        m = monitor()
        replay(req, _NullBackend(), drift=m, **kw)
        assert state(m) == reference, kw

    class _KillAt(_NullBackend):
        def __init__(self, n):
            self.left = n

        def invoke(self, timestamp_s, workload_id):
            self.left -= 1
            if self.left < 0:
                raise KeyboardInterrupt

    path = tmp_path / "replay.ckpt"
    killed = monitor()
    with pytest.raises(KeyboardInterrupt):
        replay(req, _KillAt(700), retry=retry, checkpoint_path=path,
               checkpoint_every=300, drift=killed)
    m = monitor()
    replay(req, _NullBackend(), retry=retry, checkpoint_path=path,
           checkpoint_every=300, resume=True, drift=m)
    assert state(m) == fed(600)
