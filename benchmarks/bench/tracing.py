"""Per-layer tracing from the benchmark's own code.

The program under test has no stage timers yet, so a traced run wraps
the public functions of each ``repro`` layer by patching the module or
class attribute the call goes through (``repro.core.shrinkray.
map_functions``, ``LeastLoadedScheduler.pick``, ...).  Objects never
change type, so the simulator's bulk-path eligibility -- which checks
exact types -- is the same as in an untraced run.

Two kinds of wrapper:

- calls made once per request (scheduler picks, keep-alive calls,
  ``contend``, scalar ``invoke``) are folded into in-memory counters;
- every other call also records a span (id, parent, name, start, end,
  run id), kept in memory and written as JSONL when the run ends.

Both keep ``calls``, ``busy`` (wall time inside the call) and ``child``
(time inside wrapped calls it made), so a layer's self time is its busy
time minus the time its wrapped callees cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

#: The simulator's own methods; a call entering this group from outside
#: it is host time spent simulating.
SIMULATOR_GROUP = "platform.FaaSCluster"


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    child: float = 0.0
    rows: int = 0
    raised: int = 0


@dataclass(frozen=True)
class Target:
    """One traced call: where it is looked up and what it reports.

    ``owners`` lists ``(module path, attribute path)`` pairs that resolve
    to the callable; every pair is patched, because a function imported
    into several namespaces is looked up through each of them.
    """

    key: str
    owners: tuple[tuple[str, str], ...]
    fields: tuple[str, ...]
    per_request: bool = False
    #: Rows (records, requests) in a call's result, reported under the
    #: ``rows`` or ``requests`` field.
    rows_of: Callable[[Any], int] | None = None


def _n_requests(trace: Any) -> int:
    return int(trace.n_requests)


_SCHEDULERS = ("RandomScheduler", "LeastLoadedScheduler",
               "PowerOfTwoScheduler", "LocalityAwareScheduler",
               "HashAffinityScheduler")
_KEEPALIVES = ("NoKeepAlive", "FixedKeepAlive", "HistogramKeepAlive",
               "HybridHistogramKeepAlive")
_CPU_POLICIES = ("FifoCpu", "FairShareCpu", "ShortestFirstCpu")
_SIM = "repro.platform.simulator_vec"


def _methods(module: str, classes: tuple[str, ...],
             name: str) -> tuple[tuple[str, str], ...]:
    return tuple((module, f"{cls}.{name}") for cls in classes)


TARGETS: tuple[Target, ...] = (
    Target("platform.schedulers.pick",
           _methods("repro.platform.schedulers", _SCHEDULERS, "pick"),
           ("calls", "busy_s"), per_request=True),
    Target("platform.schedulers.pick_many",
           _methods("repro.platform.schedulers",
                    ("RandomScheduler", "HashAffinityScheduler"),
                    "pick_many"),
           ("calls", "busy_s")),
    Target("platform.FaaSCluster.invoke",
           ((_SIM, "FaaSCluster.invoke"),),
           ("calls", "self_s"), per_request=True),
    Target("platform.FaaSCluster.invoke_many",
           ((_SIM, "FaaSCluster.invoke_many"),), ("self_s",)),
    Target("platform.FaaSCluster.invoke_chunked",
           ((_SIM, "FaaSCluster.invoke_chunked"),), ("busy_s",)),
    Target("platform.FaaSCluster.drain_columns",
           ((_SIM, "FaaSCluster.drain_columns"),), ("busy_s",),
           rows_of=len),
    Target("platform.FaaSCluster.records",
           ((_SIM, "FaaSCluster.records"),), ("busy_s", "rows"),
           rows_of=len),
    Target("platform.FaaSCluster.drain",
           ((_SIM, "FaaSCluster.drain"),), ("busy_s",),
           rows_of=len),
    Target("platform.metrics.summarize",
           (("repro.platform", "summarize"),
            ("repro.platform.metrics", "summarize")),
           ("busy_s",)),
    Target("platform.metrics.summarize_columns",
           (("repro.platform", "summarize_columns"),
            ("repro.platform.metrics", "summarize_columns"),
            ("repro.platform.shootout", "summarize_columns")),
           ("busy_s",)),
    Target("platform.metrics.cpu_utilization",
           (("repro.platform.metrics", "cpu_utilization"),
            ("repro.platform.shootout", "cpu_utilization")),
           ("busy_s",)),
    Target("platform.keepalive.ttl_s",
           _methods("repro.platform.keepalive", _KEEPALIVES, "ttl_s"),
           ("calls", "busy_s"), per_request=True),
    Target("platform.keepalive.observe_idle_gap",
           _methods("repro.platform.keepalive", _KEEPALIVES,
                    "observe_idle_gap"),
           ("calls", "busy_s"), per_request=True),
    Target("platform.cpu.contend",
           _methods("repro.platform.cpu", _CPU_POLICIES, "contend"),
           ("calls", "busy_s"), per_request=True),
    Target("platform.shootout.run_cell",
           (("repro.platform.shootout", "run_cell"),),
           ("calls", "busy_s")),
    Target("cache.get", (("repro.cache", "ContentCache.get"),),
           ("calls", "busy_s")),
    Target("cache.put", (("repro.cache", "ContentCache.put"),),
           ("calls", "busy_s")),
    Target("core.aggregate_functions",
           (("repro.core.shrinkray", "aggregate_functions"),),
           ("busy_s",)),
    Target("core.thumbnail_scale",
           (("repro.core.shrinkray", "thumbnail_scale"),), ("busy_s",)),
    Target("core.scale_request_rate",
           (("repro.core.shrinkray", "scale_request_rate"),),
           ("busy_s",)),
    Target("core.map_functions",
           (("repro.core.shrinkray", "map_functions"),), ("busy_s",)),
    Target("core.ShrinkRay.run",
           (("repro.core.shrinkray", "ShrinkRay.run"),), ("self_s",)),
    Target("traces.synthetic_azure_trace",
           (("repro.traces", "synthetic_azure_trace"),), ("busy_s",)),
    Target("workloads.build_default_pool",
           (("repro.workloads", "build_default_pool"),), ("busy_s",)),
    Target("loadgen.generate_request_trace",
           (("repro.loadgen", "generate_request_trace"),),
           ("busy_s", "requests"),
           rows_of=_n_requests),
    Target("loadgen.replay", (("repro.loadgen", "replay"),),
           ("self_s",)),
    Target("loadgen.service.backend_factory",
           ((f"{__package__}.workloads", "service_backend"),),
           ("calls", "busy_s")),
    Target("loadgen.service.save_checkpoint",
           (("repro.loadgen.service", "save_checkpoint"),),
           ("calls", "busy_s")),
    Target("loadgen.service.run_service",
           (("repro.loadgen.service", "run_service"),), ("self_s",)),
)

#: Per-layer values a workload measures itself (0 where it has none).
WORKLOAD_LAYER_METRICS: dict[str, str] = {
    "loadgen.service.dispatch_lag_p50_ms": "ms",
    "loadgen.service.dispatch_lag_p99_ms": "ms",
    "loadgen.service.dispatch_lag_p9999_ms": "ms",
    "loadgen.service.dispatch_lag_max_ms": "ms",
    "loadgen.service.late_fraction": "ratio",
}

_FIELD_UNITS = {"calls": "count", "rows": "count", "requests": "count",
                "busy_s": "s", "self_s": "s"}


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.stats: dict[str, Stat] = {t.key: Stat() for t in TARGETS}
        #: (id, parent id or -1, key, start, end), times from ``t0``.
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: Host seconds inside the simulator, counted at its entry calls.
        self.simulator_host_s = 0.0
        self.t0 = time.perf_counter()
        # innermost-last frames: [seconds in wrapped callees, span id]
        self._stack: list[list[Any]] = []
        self._sim_depth = 0

    def _wrap(self, target: Target, fn: Callable[..., Any]
              ) -> Callable[..., Any]:
        stat = self.stats[target.key]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        key = target.key
        record_span = not target.per_request
        rows_of = target.rows_of
        simulator = key.startswith(SIMULATOR_GROUP + ".")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            span_id = len(spans) if record_span else parent
            if record_span:
                spans.append((span_id, parent, key, 0.0, 0.0))
            frame = [0.0, span_id]
            stack.append(frame)
            entered = simulator and tracer._sim_depth == 0
            if simulator:
                tracer._sim_depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if simulator:
                    tracer._sim_depth -= 1
                    if entered:
                        tracer.simulator_host_s += dt
                stat.calls += 1
                stat.busy += dt
                stat.child += frame[0]
                if stack:
                    stack[-1][0] += dt
                if record_span:
                    spans[span_id] = (span_id, parent, key,
                                      t0 - tracer.t0, t1 - tracer.t0)
            if rows_of is not None:
                stat.rows += rows_of(out)
            return out

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Patch every target for the duration of the block."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for target in TARGETS:
                for module, path in target.owners:
                    owner, attr = _resolve(module, path)
                    original = inspect.getattr_static(owner, attr)
                    if isinstance(original, property):
                        patched: Any = property(
                            self._wrap(target, original.fget)
                        )
                    else:
                        patched = self._wrap(target, original)
                    undo.append((owner, attr, original))
                    setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self, workload_values: dict[str, float],
                      overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the run, as ``name -> (value, unit)``.

        Bypassed layers report zero calls and zero time.
        """
        out: dict[str, tuple[float, str]] = {}
        for target in TARGETS:
            stat = self.stats[target.key]
            values = {
                "calls": float(stat.calls),
                "busy_s": stat.busy,
                "self_s": stat.busy - stat.child,
                "rows": float(stat.rows),
                "requests": float(stat.rows),
            }
            for name in target.fields:
                out[f"{target.key}.{name}"] = (values[name],
                                               _FIELD_UNITS[name])
        invocations = (self.stats["platform.FaaSCluster.drain"].rows
                       + self.stats["platform.FaaSCluster.drain_columns"].rows)
        out["platform.host_us_per_invocation"] = (
            1e6 * self.simulator_host_s / invocations if invocations else 0.0,
            "us",
        )
        cells = [end - start for _, _, key, start, end in self.spans
                 if key == "platform.shootout.run_cell"]
        for q in (50, 95):
            out[f"platform.shootout.run_cell.p{q}_ms"] = (
                float(np.percentile(cells, q)) * 1e3 if cells else 0.0,
                "ms",
            )
        get = self.stats["cache.get"]
        out["cache.hit_ratio"] = (
            (get.calls - get.raised) / get.calls if get.calls else 0.0,
            "ratio",
        )
        for name, unit in WORKLOAD_LAYER_METRICS.items():
            out[name] = (float(workload_values.get(name, 0.0)), unit)
        out["trace_overhead_pct"] = (overhead_pct, "%")
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, parent, key, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": key, "start_s": round(start, 9),
                    "end_s": round(end, 9),
                }) + "\n")
