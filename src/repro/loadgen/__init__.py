"""Online load generator: arrivals, request traces, replay engine."""

from repro.loadgen.arrivals import ARRIVAL_MODES, cell_counts, minute_offsets
from repro.loadgen.generator import (
    generate_from_second_matrix,
    generate_request_trace,
    generate_smirnov_trace,
)
from repro.loadgen.io import (
    load_request_trace_csv,
    load_request_trace_npz,
    save_request_trace_csv,
    save_request_trace_npz,
)
from repro.loadgen.replay import Backend, ReplayResult, replay
from repro.loadgen.requests import RequestTrace
from repro.loadgen.resilience import (
    OUTCOMES,
    CheckpointLog,
    CircuitBreaker,
    RetryPolicy,
    load_checkpoint,
    open_checkpoint_log,
    save_checkpoint,
)
from repro.loadgen.service import (
    BreakerSpec,
    CoverageReport,
    ServiceConfig,
    ServiceError,
    ServiceFaultPlan,
    ServiceResult,
    run_service,
)

__all__ = [
    "ARRIVAL_MODES",
    "Backend",
    "BreakerSpec",
    "CheckpointLog",
    "CircuitBreaker",
    "CoverageReport",
    "OUTCOMES",
    "ReplayResult",
    "RequestTrace",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceError",
    "ServiceFaultPlan",
    "ServiceResult",
    "cell_counts",
    "generate_from_second_matrix",
    "generate_request_trace",
    "generate_smirnov_trace",
    "load_checkpoint",
    "load_request_trace_csv",
    "load_request_trace_npz",
    "minute_offsets",
    "open_checkpoint_log",
    "replay",
    "run_service",
    "save_checkpoint",
    "save_request_trace_csv",
    "save_request_trace_npz",
]
