"""Deterministic CPU-contention model for the cluster simulators.

The simulators' base resource model is memory-only; this module adds
a CPU model -- per-node core counts, a timeslice quantum, preemption
counts, and run-queue-aware service-time dilation -- shared by both
engines so contention-sensitive studies (tail latency under CPU
pressure, scheduling-policy shootouts) are possible without giving up
the byte-identity contract.  The policies' :meth:`CpuPolicy.contend`
and :meth:`CpuPolicy.weight` are the only implementation of
contention: every run with a :class:`CpuModel` takes the engines'
scalar event loop, which calls ``contend`` once per admission and
reads ``weight`` once per workload when the loop starts.

Semantics (identical in both engines, applied at admission time like
every other service-time modifier):

- each node owns ``cores`` cores; an invocation admitted while the
  node's run queue (its busy sandboxes, including the new one) fits on
  the cores runs undilated;
- under oversubscription the active :class:`CpuPolicy` decides how much
  wall-clock the invocation's CPU demand stretches to and how many
  times it is preempted (timeslice expiries), as a pure function of the
  admission-time run-queue state -- the dilation is fixed at admission
  (the engines never re-schedule an invocation mid-flight);
- every policy is **work conserving** (``concurrent <= cores`` never
  dilates) and never shrinks service time; the property suite
  (``tests/test_properties_cpu.py``) pins both invariants.

Policies are frozen dataclasses so shootout cells embedding them can be
content-fingerprinted (:func:`repro.cache.fingerprint` hashes public
dataclass fields).  :data:`CPU_POLICIES` names the built-in policies and
:func:`make_cpu_policy` builds one by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

__all__ = [
    "CPU_POLICIES",
    "CpuModel",
    "CpuPolicy",
    "FairShareCpu",
    "FifoCpu",
    "ShortestFirstCpu",
    "make_cpu_policy",
]


@runtime_checkable
class CpuPolicy(Protocol):
    """What the engines require of a CPU scheduling policy.

    Both hooks must be *pure*: both engines call them from their scalar
    event loops, and byte-identity across engines holds only if the
    same arguments always produce the same floats.  The loop relies on
    it: it calls ``contend`` per admission but reads ``weight`` once per
    workload per loop start, and reuses that value at every admission,
    completion and crash.
    """

    def weight(self, workload_id: str) -> float:
        """Scheduling weight of one workload (fair-share accounting)."""
        ...

    def contend(
        self,
        service_s: float,
        *,
        cores: int,
        quantum_s: float,
        concurrent: int,
        weight: float,
        total_weight: float,
    ) -> tuple[float, int]:
        """Dilate one invocation's service time under contention.

        ``concurrent`` counts the node's busy sandboxes including this
        invocation; ``weight`` is this workload's scheduling weight and
        ``total_weight`` the node's running weight total including it.
        Returns ``(dilated_service_s, preemptions)`` with
        ``dilated_service_s >= service_s`` and ``preemptions >= 0``.
        """
        ...


@dataclass(frozen=True)
class FifoCpu:
    """FIFO run queue with round-robin timeslicing.

    Every runnable sandbox gets one ``quantum`` per round.  With
    ``excess = concurrent - cores`` sandboxes beyond the cores, each of
    the invocation's timeslices waits one round of the excess queue
    (``excess * quantum`` of foreign work spread over ``cores`` cores)
    before it runs again, so an invocation needing ``slices`` quanta of
    CPU stretches by ``slices * excess * quantum / cores`` and is
    preempted at every slice boundary but the last.
    """

    def weight(self, workload_id: str) -> float:
        del workload_id
        return 1.0

    def contend(
        self,
        service_s: float,
        *,
        cores: int,
        quantum_s: float,
        concurrent: int,
        weight: float,
        total_weight: float,
    ) -> tuple[float, int]:
        del weight, total_weight
        excess = concurrent - cores
        if excess <= 0:
            return service_s, 0
        slices = math.ceil(service_s / quantum_s)
        dilated = service_s + (slices * excess) * (quantum_s / cores)
        return dilated, slices - 1


@dataclass(frozen=True)
class FairShareCpu:
    """CFS-like weighted fair sharing.

    Under oversubscription each runnable sandbox receives CPU in
    proportion to its weight: this invocation's share of one core is
    ``cores * weight / total_weight`` (clamped to a full core), so its
    service time stretches by the inverse share.  Higher weight can
    never dilate more (the monotonicity invariant the property suite
    pins).  Preemptions count the timeslice boundaries the stretched
    execution crosses.
    """

    default_weight: float = 1.0
    weights: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.default_weight <= 0:
            raise ValueError("default_weight must be positive")
        if self.weights is not None:
            for wid, w in self.weights.items():
                if w <= 0:
                    raise ValueError(
                        f"weight for {wid!r} must be positive"
                    )

    def weight(self, workload_id: str) -> float:
        if self.weights is None:
            return self.default_weight
        return self.weights.get(workload_id, self.default_weight)

    def contend(
        self,
        service_s: float,
        *,
        cores: int,
        quantum_s: float,
        concurrent: int,
        weight: float,
        total_weight: float,
    ) -> tuple[float, int]:
        if concurrent <= cores:  # work conservation: a free core exists
            return service_s, 0
        share = cores * weight / total_weight
        if share >= 1.0:
            return service_s, 0
        dilated = service_s / share
        return dilated, math.ceil(dilated / quantum_s) - 1


@dataclass(frozen=True)
class ShortestFirstCpu:
    """Shortest-task-first, in the spirit of ``scx_serverless``.

    Tasks that fit in a single quantum run to completion in their first
    slice even under load (the short-circuit serverless schedulers
    exploit: most FaaS invocations are sub-quantum).  Longer tasks are
    demoted behind the short ones and see the full round-robin
    oversubscription factor ``concurrent / cores``, preempted at every
    quantum boundary of their own CPU demand.
    """

    def weight(self, workload_id: str) -> float:
        del workload_id
        return 1.0

    def contend(
        self,
        service_s: float,
        *,
        cores: int,
        quantum_s: float,
        concurrent: int,
        weight: float,
        total_weight: float,
    ) -> tuple[float, int]:
        del weight, total_weight
        if concurrent <= cores or service_s <= quantum_s:
            return service_s, 0
        dilated = service_s * (concurrent / cores)
        return dilated, math.ceil(service_s / quantum_s) - 1


@dataclass(frozen=True)
class CpuModel:
    """Per-node CPU topology + scheduling policy.

    Passed to either engine as the ``cpu=`` knob; a cluster with one
    always runs the scalar event loop, which reads ``cores``,
    ``quantum_s`` and the policy's hooks once per loop start (see
    :class:`CpuPolicy` for what it reuses).  ``quantum_s`` is the
    scheduler timeslice used for preemption accounting; 20 ms mirrors a
    typical CFS target latency share.  ``CpuModel(cores=k,
    policy=ShortestFirstCpu())`` gives the classic first-order
    oversubscription slowdown (service time times ``concurrent / k``)
    for every invocation longer than one quantum.
    """

    cores: int
    quantum_s: float = 0.020
    policy: CpuPolicy = field(default_factory=FifoCpu)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.quantum_s <= 0:
            raise ValueError("quantum_s must be positive")


#: Name -> class of every built-in CPU policy, in the fixed order the
#: shootout grid and the differential fuzzer enumerate them.
CPU_POLICIES: dict[str, type[CpuPolicy]] = {
    "fifo": FifoCpu,
    "fair": FairShareCpu,
    "stf": ShortestFirstCpu,
}


def make_cpu_policy(name: str, n_workloads: int) -> CpuPolicy:
    """A fresh CPU policy by :data:`CPU_POLICIES` name.

    ``fair`` weighs workloads ``w0 .. w{n_workloads-1}`` 1, 2, 3, 1, 2,
    ... -- deterministic unequal weights, so the weighted fold is
    actually exercised rather than its equal-weight degenerate case.
    Raises ``KeyError`` on an unknown name.
    """
    cls = CPU_POLICIES[name]
    if cls is FairShareCpu:
        return FairShareCpu(weights={
            f"w{i}": float(1 + i % 3) for i in range(n_workloads)
        })
    return cls()
