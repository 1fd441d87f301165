"""Discrete-event FaaS cluster simulator (public façade).

The backend the replayer drives when no physical cluster is available (see
DESIGN.md's substitution table).  It models the parts of a FaaS platform
that FaaSRail-generated load exercises:

- per-node memory capacity and sandbox lifecycle (cold start, busy, idle,
  keep-alive expiry, LRU eviction under memory pressure);
- one in-flight invocation per sandbox, horizontal scale-out per workload;
- pluggable cluster scheduler and keep-alive policy;
- FIFO queueing when a node can neither reuse nor admit a sandbox.

Requests must arrive in non-decreasing timestamp order (the replayer
guarantees this); the simulator advances its virtual clock through an event
heap of completions and expiries.

One scalar event loop (:class:`repro.platform.simcore._ScalarCluster`)
implements these semantics, with two record sinks:

- :class:`FaaSCluster` (re-exported here from
  :mod:`repro.platform.simulator_vec`) is the production engine: it
  keeps records as struct-of-arrays columns and adds a vectorised bulk
  path for whole slabs of requests;
- :class:`ObjectFaaSCluster` (below) keeps one ``InvocationRecord``
  object per invocation in its ``records`` list, the form the
  equivalence suite checks the columnar store against.

``tests/test_simulator_equivalence.py`` pins bulk submission
byte-identical to per-request submission, and columnar records
byte-identical to object records; ``tests/test_simulator_golden.py``
pins the loop's own output.
"""

from __future__ import annotations

from typing import Any

from repro.platform.metrics import InvocationRecord
from repro.platform.simcore import _Sandbox as _Sandbox
from repro.platform.simcore import (
    _RECORD_ROW,
    Node,
    WorkloadProfile,
    _ScalarCluster,
    default_cold_start_s,
)
from repro.platform.simulator_vec import FaaSCluster, RecordColumns

__all__ = [
    "FaaSCluster",
    "Node",
    "ObjectFaaSCluster",
    "RecordColumns",
    "WorkloadProfile",
    "default_cold_start_s",
]


class ObjectFaaSCluster(_ScalarCluster):
    """Simulated cluster satisfying the replayer's Backend protocol that
    keeps its records as ``InvocationRecord`` objects in ``records``.

    Runs the same scalar event loop as
    :class:`~repro.platform.simulator_vec.FaaSCluster` (the shared
    constructor documents the parameters); only the record sink
    differs, so comparing the two checks the columnar store.
    """

    def __init__(
        self, profiles: dict[str, WorkloadProfile], **knobs: Any
    ) -> None:
        super().__init__(profiles, **knobs)
        self._records: list[InvocationRecord] = []

    @property
    def records(self) -> list[InvocationRecord]:
        """The run's records so far, as one list extended in place."""
        self._flush_rows()
        return self._records

    def drain(self) -> list[InvocationRecord]:
        self._drain_events()
        self._drain_telemetry(len(self._records))
        return self._records

    def _flush_rows(self) -> None:
        rows = self._rows
        words = list(self.profiles)
        self._records.extend([
            InvocationRecord(words[w], *fields)
            for w, *fields in _RECORD_ROW.iter_unpack(b"".join(rows))
        ])
        rows.clear()
