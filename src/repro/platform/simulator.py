"""Discrete-event FaaS cluster simulator (public façade + reference engine).

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

Two engines implement these semantics:

- :class:`FaaSCluster` (re-exported here from
  :mod:`repro.platform.simulator_vec`) is the production, array-native
  engine -- struct-of-arrays record columns, batched admission, and
  vectorised drain reductions;
- :class:`ObjectFaaSCluster` (below) is the reference engine: one Python
  object per sandbox, one heap event per transition.  It is the
  readable, obviously-correct statement of the simulator's semantics
  and the oracle the differential equivalence suite
  (``tests/test_simulator_equivalence.py``) pins the array engine
  against, byte for byte.  Changes to simulator behaviour must land in
  both engines (or the suite fails).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.platform.keepalive import FixedKeepAlive
from repro.platform.metrics import InvocationRecord
from repro.platform.schedulers import LeastLoadedScheduler
from repro.platform.simcore import _Sandbox as _Sandbox
from repro.platform.simcore import (
    Node,
    WorkloadProfile,
    default_cold_start_s,
)
from repro.platform.simulator_vec import FaaSCluster, RecordColumns
from repro.telemetry import registry as _telemetry

__all__ = [
    "FaaSCluster",
    "Node",
    "ObjectFaaSCluster",
    "RecordColumns",
    "WorkloadProfile",
    "default_cold_start_s",
]


class ObjectFaaSCluster:
    """Reference simulated cluster satisfying the replayer's Backend
    protocol: the object-per-event statement of the simulator semantics
    that :class:`~repro.platform.simulator_vec.FaaSCluster` must match
    bit-for-bit."""

    def __init__(
        self,
        profiles: dict[str, WorkloadProfile],
        *,
        n_nodes: int = 4,
        node_memory_mb: float = 8192.0,
        scheduler=None,
        keepalive=None,
        cold_start_model=default_cold_start_s,
        service_time_cv: float = 0.0,
        cpu=None,
        track_memory: bool = False,
        queue_timeout_s: float | None = None,
        autoscaler=None,
        tracer=None,
        fault_hook=None,
        seed: int = 0,
    ):
        """See class docstring; the optional realism knobs:

        service_time_cv:
            Coefficient of variation of per-invocation service time
            (mean-preserving lognormal noise on the profile runtime);
            0 keeps service deterministic.
        cpu:
            Optional :class:`~repro.platform.cpu.CpuModel`: per-node
            core counts, a timeslice quantum, and a pluggable scheduling
            policy.  Under oversubscription the policy dilates service
            time and counts preemptions (recorded per invocation); the
            dilation is fixed at admission (no re-scheduling
            mid-flight).  ``CpuModel(cores=k,
            policy=ShortestFirstCpu())`` is the first-order
            oversubscription slowdown by ``concurrent / k``.
        track_memory:
            Record ``(time, node, used_memory_mb)`` samples at every
            sandbox admission/reclaim, exposed as ``memory_samples``.
        queue_timeout_s:
            When set, requests that wait in a node backlog longer than
            this are dropped instead of served (recorded in ``dropped``);
            when unset, backlogs are unbounded and a drain that cannot
            place everything raises.
        autoscaler:
            Optional :class:`~repro.platform.autoscaler.ReactiveAutoscaler`
            (or anything with its ``decide(now_s, nodes) -> int``
            signature) consulted on request arrivals; ``n_nodes`` becomes
            the initial topology.
        tracer:
            Optional :class:`~repro.platform.tracing.PlatformTracer`
            receiving one event per sandbox lifecycle transition.
        fault_hook:
            Optional sandbox-crash model (anything with
            ``crash_fraction(now_s, node_id, workload_id) -> float |
            None``, e.g. :class:`~repro.platform.faults.CrashHook`).
            A non-None fraction ends the invocation after that share of
            its service time with ``ok=False``; the sandbox is destroyed
            (memory freed, no keep-alive reuse).
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if node_memory_mb <= 0:
            raise ValueError("node_memory_mb must be positive")
        if not profiles:
            raise ValueError("cluster needs at least one workload profile")
        if service_time_cv < 0:
            raise ValueError("service_time_cv must be non-negative")
        if queue_timeout_s is not None and queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be positive")
        biggest = max(p.memory_mb for p in profiles.values())
        if biggest > node_memory_mb:
            raise ValueError(
                f"largest workload ({biggest} MiB) exceeds node memory "
                f"({node_memory_mb} MiB); no placement can ever succeed"
            )
        self.profiles = dict(profiles)
        self.nodes = [Node(i, node_memory_mb) for i in range(n_nodes)]
        self.scheduler = scheduler or LeastLoadedScheduler()
        self.keepalive = keepalive or FixedKeepAlive(600.0)
        self.cold_start_model = cold_start_model
        self.queue_timeout_s = queue_timeout_s
        self.autoscaler = autoscaler
        self.tracer = tracer
        self.fault_hook = fault_hook
        #: (arrival_s, workload_id) of requests dropped on queue timeout.
        self.dropped: list[tuple[float, str]] = []
        self._node_memory_mb = node_memory_mb
        self._next_node_id = n_nodes
        self.service_time_cv = service_time_cv
        self.cpu = cpu
        self.track_memory = track_memory
        self.memory_samples: list[tuple[float, int, float]] = []
        self._rng = np.random.default_rng(seed)
        if service_time_cv > 0:
            sigma = float(np.sqrt(np.log1p(service_time_cv**2)))
            self._lognorm = (sigma, -0.5 * sigma * sigma)
        else:
            self._lognorm = None
        self.records: list[InvocationRecord] = []
        self._clock = 0.0
        self._heap: list = []
        self._seq = itertools.count()
        self._sandbox_ids = itertools.count()

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        if workload_id not in self.profiles:
            raise KeyError(f"no profile for workload {workload_id!r}")
        if timestamp_s < self._clock:
            raise ValueError(
                f"request at t={timestamp_s} is in the simulator's past "
                f"(clock={self._clock}); submit in timestamp order"
            )
        self._advance(timestamp_s)
        if self.autoscaler is not None:
            self._apply_autoscaling(timestamp_s)
        node = self.nodes[self.scheduler.pick(self.nodes, workload_id)]
        if not self._try_start(node, timestamp_s, workload_id):
            self._trace("request_queued", node.node_id, workload_id)
            node.pending.append((timestamp_s, workload_id))

    def drain(self) -> list[InvocationRecord]:
        while self._heap:
            self._advance(self._heap[0][0])
        stuck = sum(len(n.pending) for n in self.nodes)
        if stuck:
            if self.queue_timeout_s is not None:
                # every still-queued request has outlived its deadline by
                # now (all service events have fired)
                for node in self.nodes:
                    for arrival_s, wid in node.pending:
                        self.dropped.append((arrival_s, wid))
                        self._trace("request_dropped", node.node_id, wid)
                    node.pending.clear()
            else:
                raise RuntimeError(
                    f"{stuck} requests remain queued after drain; the "
                    "cluster deadlocked on memory (raise node_memory_mb "
                    "or n_nodes, or set queue_timeout_s)"
                )
        reg = _telemetry.active()
        if reg is not None:
            # gauges are idempotent, so repeated drains stay correct
            reg.gauge("platform_nodes",
                      "cluster size at drain time").set(len(self.nodes))
            reg.gauge("platform_completed_invocations",
                      "invocation records held by the cluster"
                      ).set(len(self.records))
            reg.gauge("platform_dropped_requests",
                      "requests dropped on queue timeout so far"
                      ).set(len(self.dropped))
        return self.records

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def _apply_autoscaling(self, now_s: float) -> None:
        desired = self.autoscaler.decide(now_s, self.nodes)
        while desired > len(self.nodes):
            self.nodes.append(
                Node(self._next_node_id, self._node_memory_mb)
            )
            self._next_node_id += 1
        while desired < len(self.nodes) and len(self.nodes) > 1:
            victim = min(self.nodes, key=lambda n: n.busy_count)
            if victim.busy_count > 0:
                break  # nothing retirable right now; try next evaluation
            # reclaim idle sandboxes and hand any backlog to a survivor
            for stack in list(victim.idle.values()):
                for sandbox in list(stack):
                    sandbox.expire_generation += 1
                    victim.remove_idle(sandbox)
                    self._trace("sandbox_evicted", victim.node_id,
                                sandbox.workload_id)
            self.nodes.remove(victim)
            if victim.pending:
                self.nodes[0].pending.extend(victim.pending)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        return self._clock

    def _trace(self, kind: str, node_id: int, workload_id: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(self._clock, kind, node_id, workload_id)

    def _push(self, when: float, kind: str, payload) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), kind, payload))

    def _advance(self, until: float) -> None:
        while self._heap and self._heap[0][0] <= until:
            when, _, kind, payload = heapq.heappop(self._heap)
            self._clock = when
            if kind == "end":
                self._on_completion(when, *payload)
            elif kind == "crash":
                self._on_crash(when, *payload)
            else:  # "expire"
                self._on_expiry(when, *payload)
        self._clock = max(self._clock, until)

    def _try_start(self, node: Node, arrival_s: float,
                   workload_id: str) -> bool:
        """Start an invocation now if a sandbox can be had; else False."""
        now = self._clock
        profile = self.profiles[workload_id]
        sandbox = node.pop_idle(workload_id)
        if sandbox is not None:
            self.keepalive.observe_idle_gap(
                workload_id, now - sandbox.idle_since
            )
            sandbox.expire_generation += 1  # cancels the queued expiry
            self._trace("sandbox_reused", node.node_id, workload_id)
            start = now
            cold = False
        else:
            # Make room, evicting the least recently used idle sandboxes.
            while (
                node.used_memory_mb + profile.memory_mb
                > node.memory_capacity_mb
            ):
                victim = node.lru_idle()
                if victim is None:
                    return False
                victim.expire_generation += 1
                node.remove_idle(victim)
                self._trace("sandbox_evicted", node.node_id,
                            victim.workload_id)
            node.used_memory_mb += profile.memory_mb
            if self.track_memory:
                self.memory_samples.append(
                    (now, node.node_id, node.used_memory_mb)
                )
            sandbox = _Sandbox(
                sandbox_id=next(self._sandbox_ids),
                workload_id=workload_id,
                memory_mb=profile.memory_mb,
            )
            self._trace("sandbox_created", node.node_id, workload_id)
            start = now + self.cold_start_model(profile)
            cold = True

        service_s = profile.runtime_ms / 1e3
        if self._lognorm is not None:
            sigma, mu = self._lognorm
            service_s *= float(self._rng.lognormal(mu, sigma))
        preemptions = 0
        if self.cpu is not None:
            # run-queue-aware dilation, fixed at admission time
            w = self.cpu.policy.weight(workload_id)
            dilated, preemptions = self.cpu.policy.contend(
                service_s,
                cores=self.cpu.cores,
                quantum_s=self.cpu.quantum_s,
                concurrent=node.busy_count + 1,
                weight=w,
                total_weight=node.cpu_weight + w,
            )
            if dilated > service_s:
                self._trace("invocation_contended", node.node_id,
                            workload_id)
            service_s = dilated
            node.cpu_weight += w
        end = start + service_s
        ok = True
        if self.fault_hook is not None:
            frac = self.fault_hook.crash_fraction(
                now, node.node_id, workload_id
            )
            if frac is not None:
                end = start + service_s * min(max(frac, 0.0), 1.0)
                ok = False
        node.busy_count += 1
        self.records.append(
            InvocationRecord(
                workload_id=workload_id,
                node=node.node_id,
                arrival_s=arrival_s,
                start_s=start,
                end_s=end,
                cold=cold,
                ok=ok,
                preemptions=preemptions,
            )
        )
        # Events carry the Node object itself: under autoscaling the
        # nodes list mutates, so positional ids are not stable handles.
        self._push(end, "end" if ok else "crash", (node, sandbox))
        return True

    def _on_completion(self, now: float, node: Node,
                       sandbox: _Sandbox) -> None:
        node.busy_count -= 1
        if self.cpu is not None:
            node.cpu_weight -= self.cpu.policy.weight(sandbox.workload_id)
        sandbox.idle_since = now
        sandbox.expire_generation += 1
        node.push_idle(sandbox)
        ttl = self.keepalive.ttl_s(sandbox.workload_id)
        if ttl <= 0:
            node.remove_idle(sandbox)
        else:
            self._push(now + ttl, "expire",
                       (node, sandbox, sandbox.expire_generation))
        self._serve_pending(node)

    def _on_crash(self, now: float, node: Node,
                  sandbox: _Sandbox) -> None:
        """The sandbox died mid-invocation: destroy it outright."""
        del now
        node.busy_count -= 1
        if self.cpu is not None:
            node.cpu_weight -= self.cpu.policy.weight(sandbox.workload_id)
        sandbox.expire_generation += 1
        node.used_memory_mb -= sandbox.memory_mb
        self._trace("sandbox_crashed", node.node_id, sandbox.workload_id)
        if self.track_memory:
            self.memory_samples.append(
                (self._clock, node.node_id, node.used_memory_mb)
            )
        self._serve_pending(node)

    def _on_expiry(self, now: float, node: Node, sandbox: _Sandbox,
                   generation: int) -> None:
        del now
        if sandbox.expire_generation != generation:
            return  # sandbox was reused or evicted in the meantime
        node.remove_idle(sandbox)
        self._trace("sandbox_expired", node.node_id, sandbox.workload_id)
        if self.track_memory:
            self.memory_samples.append(
                (self._clock, node.node_id, node.used_memory_mb)
            )
        self._serve_pending(node)

    def _serve_pending(self, node: Node) -> None:
        while node.pending:
            arrival_s, workload_id = node.pending[0]
            if (
                self.queue_timeout_s is not None
                and self._clock - arrival_s > self.queue_timeout_s
            ):
                self.dropped.append(node.pending.pop(0))
                self._trace("request_dropped", node.node_id, workload_id)
                continue
            if not self._try_start(node, arrival_s, workload_id):
                return
            node.pending.pop(0)
