"""FaaS backend substrate: discrete-event cluster simulator + live executor.

Helpers here turn a FaaSRail experiment spec into the simulator's workload
profiles, so replaying generated load against a configurable cluster is a
three-line affair (see ``examples/coldstart_study.py``).
"""

from repro.platform.autoscaler import ReactiveAutoscaler
from repro.platform.cpu import (
    CpuModel,
    CpuPolicy,
    FairShareCpu,
    FifoCpu,
    ShortestFirstCpu,
)
from repro.platform.faults import (
    CrashHook,
    FaultError,
    FaultProfile,
    FaultyBackend,
    InvocationFault,
    MemoryExhaustedFault,
    NodeOutageFault,
    OutageWindow,
    SandboxCrashFault,
)
from repro.platform.keepalive import (
    FixedKeepAlive,
    HistogramKeepAlive,
    HybridHistogramKeepAlive,
    NoKeepAlive,
)
from repro.platform.http_backend import (
    HTTPBackend,
    HTTPConnectionError,
    HTTPStatusError,
    HTTPTimeoutError,
    StubServer,
)
from repro.platform.live import LiveBackend
from repro.platform.metrics import (
    InvocationRecord,
    RecordColumns,
    RecordList,
    breaker_uptime,
    cpu_utilization,
    dispatch_lag_summary,
    memory_utilization,
    outcome_summary,
    per_workload_cold_rates,
    record_outcome_metrics,
    retry_histogram,
    summarize,
    summarize_columns,
)
from repro.platform.schedulers import (
    HashAffinityScheduler,
    LeastLoadedScheduler,
    LocalityAwareScheduler,
    PowerOfTwoScheduler,
    RandomScheduler,
)
from repro.platform.shootout import (
    ShootoutCell,
    ShootoutConfig,
    ShootoutResult,
    run_shootout,
)
from repro.platform.tracing import (
    PlatformEvent,
    PlatformTracer,
    TelemetryTracer,
    lifecycle_summary,
)
from repro.platform.simulator import (
    FaaSCluster,
    Node,
    ObjectFaaSCluster,
    WorkloadProfile,
    default_cold_start_s,
)
from repro.platform.simulator_vec import iter_trace_slabs

__all__ = [
    "CpuModel",
    "CpuPolicy",
    "CrashHook",
    "FaaSCluster",
    "FairShareCpu",
    "FaultError",
    "FaultProfile",
    "FaultyBackend",
    "FifoCpu",
    "FixedKeepAlive",
    "HTTPBackend",
    "HTTPConnectionError",
    "HTTPStatusError",
    "HTTPTimeoutError",
    "HashAffinityScheduler",
    "HistogramKeepAlive",
    "HybridHistogramKeepAlive",
    "InvocationFault",
    "InvocationRecord",
    "LeastLoadedScheduler",
    "LiveBackend",
    "LocalityAwareScheduler",
    "MemoryExhaustedFault",
    "NoKeepAlive",
    "Node",
    "NodeOutageFault",
    "ObjectFaaSCluster",
    "OutageWindow",
    "PlatformEvent",
    "PlatformTracer",
    "PowerOfTwoScheduler",
    "RandomScheduler",
    "ReactiveAutoscaler",
    "RecordColumns",
    "RecordList",
    "SandboxCrashFault",
    "ShootoutCell",
    "ShootoutConfig",
    "ShootoutResult",
    "ShortestFirstCpu",
    "StubServer",
    "TelemetryTracer",
    "WorkloadProfile",
    "breaker_uptime",
    "cpu_utilization",
    "default_cold_start_s",
    "dispatch_lag_summary",
    "iter_trace_slabs",
    "lifecycle_summary",
    "memory_utilization",
    "outcome_summary",
    "per_workload_cold_rates",
    "profiles_from_spec",
    "record_outcome_metrics",
    "retry_histogram",
    "run_shootout",
    "summarize",
    "summarize_columns",
]


def profiles_from_spec(spec) -> dict[str, WorkloadProfile]:
    """Workload profiles for every distinct workload a spec references."""
    profiles: dict[str, WorkloadProfile] = {}
    for entry in spec.entries:
        existing = profiles.get(entry.workload_id)
        if existing is None:
            profiles[entry.workload_id] = WorkloadProfile(
                workload_id=entry.workload_id,
                runtime_ms=entry.runtime_ms,
                memory_mb=entry.memory_mb,
            )
    return profiles
