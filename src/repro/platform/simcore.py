"""Shared core of the cluster simulators: data model and scalar event loop.

Both cluster classes -- the array-native
:class:`~repro.platform.simulator_vec.FaaSCluster` production engine and
:class:`~repro.platform.simulator.ObjectFaaSCluster` -- share the
workload description, node bookkeeping, cold-start cost model and one
scalar event loop (:class:`_ScalarCluster`): the sandbox lifecycle of
cold start, reuse, LRU eviction, keep-alive expiry, crash and FIFO
backlog.  The two classes differ only in where an invocation record goes
(columnar arrays vs ``InvocationRecord`` objects) and in
``FaaSCluster``'s vectorised bulk path, which must stay byte-identical
to this loop.  Everything lives here so the array engine never has to
import :mod:`repro.platform.simulator`.
"""

from __future__ import annotations

import heapq
import struct
from collections import OrderedDict, deque
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.platform.keepalive import FixedKeepAlive
from repro.platform.schedulers import LeastLoadedScheduler
from repro.telemetry import registry as _telemetry

if TYPE_CHECKING:
    from repro.platform.cpu import CpuModel

__all__ = ["Node", "WorkloadProfile", "default_cold_start_s"]

#: The horizon a drain fires the remaining event calendar up to, and a
#: sandbox's ``queued_at`` when no expiry event is queued for it.
_INF = float("inf")

#: One request row sent into the scalar loop: ``(timestamp_s,
#: workload_id)``; a ``None`` workload id asks for a drain.
_Row = tuple[float, str | None]
#: One started invocation as the loop buffers it, packed: the
#: workload's position in the cluster's profiles, node id, arrival,
#: start and end times, cold, ok and preemptions.  ``_RECORD_DTYPE`` is
#: the same layout, so a flush reads a whole buffer as one array.
_RECORD_ROW = struct.Struct("<2i3d2?i")
_RECORD_DTYPE = np.dtype([
    ("position", "<i4"), ("node", "<i4"), ("arrival", "<f8"),
    ("start", "<f8"), ("end", "<f8"), ("cold", "?"), ("ok", "?"),
    ("preempt", "<i4"),
])
#: Record rows the loop buffers before it flushes them to the store.
_FLUSH_ROWS = 4096


# ----------------------------------------------------------------------
# policy protocols (what the event loop requires of its pluggable parts)
# ----------------------------------------------------------------------
class Scheduler(Protocol):
    """Cluster scheduler: node index for one arriving request."""

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int: ...


class KeepAlivePolicy(Protocol):
    def ttl_s(self, workload_id: str) -> float: ...

    def observe_idle_gap(self, workload_id: str, gap_s: float) -> None: ...


class Autoscaler(Protocol):
    def decide(self, now_s: float, nodes: Sequence[Node]) -> int: ...


class Tracer(Protocol):
    def emit(
        self, time_s: float, kind: str, node: int, workload_id: str
    ) -> None: ...


class FaultHook(Protocol):
    def crash_fraction(
        self, now_s: float, node_id: int, workload_id: str
    ) -> float | None: ...


@dataclass(frozen=True)
class WorkloadProfile:
    """What the platform needs to know to run one workload."""

    workload_id: str
    runtime_ms: float
    memory_mb: float

    def __post_init__(self) -> None:
        if self.runtime_ms <= 0 or self.memory_mb <= 0:
            raise ValueError(
                f"{self.workload_id}: runtime and memory must be positive"
            )


def default_cold_start_s(profile: WorkloadProfile) -> float:
    """Cold-start cost model: fixed sandbox boot + memory-proportional
    image/runtime initialisation (~150 ms + 0.8 ms/MiB)."""
    return 0.150 + 0.0008 * profile.memory_mb


@dataclass(slots=True, eq=False)
class _Sandbox:
    """One warm (or busy) execution environment of the scalar loop.

    Sandboxes compare (and hash) by identity: a node's idle stacks and
    LRU index hold the objects themselves.

    ``expire_at``/``expire_seq`` are the pending keep-alive deadline: the
    ``(time, sequence)`` heap key it got when the sandbox last idled.
    ``expire_seq == -1`` means no pending expiry (busy, or never idled);
    reuse and eviction clear it.

    A sandbox keeps at most one live expiry event in the heap, keyed
    ``(queued_at, queued_seq)`` (``inf``/-1: none).  An idle transition
    pushes an event only when nothing is queued or the queued event is
    later than the new deadline (a learning policy's TTL shrank, which
    supersedes it).  When the live event fires it expires the sandbox if
    it *is* the pending deadline, re-pushes itself at the pending
    deadline if the sandbox has idled again since, and is dropped
    otherwise; superseded events are dropped too.  Real expiries thus
    fire at exactly the heap key a per-completion event would have had.
    """

    sandbox_id: int
    workload_id: str
    memory_mb: float
    idle_since: float = 0.0
    expire_at: float = 0.0
    expire_seq: int = -1
    queued_at: float = _INF
    queued_seq: int = -1


@dataclass
class Node:
    """One worker node: memory-bounded sandbox pool plus a FIFO backlog.

    ``idle`` maps workload id to a stack of idle sandboxes, most recently
    idled last, as :class:`_Sandbox` objects.  External policies only
    rely on the mapping's keys and the per-node counters.  ``pending``
    is the FIFO backlog of ``(arrival_s, workload_id)`` requests.

    ``idle_lru`` indexes the same idle sandboxes in ``idle_since`` order
    (an ordered dict used as a linked list, so a push, a removal and the
    oldest entry are all O(1)).  The scalar loop pushes at its clock,
    which never goes back, so push order is ``idle_since`` order.

    ``cpu_weight`` is the running total of the scheduling weights of the
    node's busy sandboxes under a CPU-contention model
    (:class:`~repro.platform.cpu.CpuModel`): incremented at admission,
    decremented at completion/crash, in event order.  It stays 0.0 when
    no CPU model is configured.
    """

    node_id: int
    memory_capacity_mb: float
    used_memory_mb: float = 0.0
    busy_count: int = 0
    cpu_weight: float = 0.0
    idle: dict[str, list[Any]] = field(default_factory=dict)
    pending: deque[tuple[float, str]] = field(default_factory=deque)
    idle_lru: OrderedDict[_Sandbox, None] = field(
        default_factory=OrderedDict, repr=False
    )

    def push_idle(self, sandbox: _Sandbox) -> None:
        """Append to the workload's idle stack (most recently idled last)
        and to the LRU index.

        Creates the stack on first use -- dict-key *insertion order* is
        semantically load-bearing: :meth:`lru_idle` breaks idle-time
        ties by it, and the array engine's bulk carry reproduces it when
        rematerialising idle state (see ``_BulkTail``).  A push must not
        idle earlier than the index's newest entry; :meth:`sort_lru`
        restores the order after pushes that do.
        """
        self.idle.setdefault(sandbox.workload_id, []).append(sandbox)
        self.idle_lru[sandbox] = None

    def pop_idle(self, workload_id: str) -> _Sandbox | None:
        """Take the workload's most recently idled sandbox (warm reuse),
        or None if it has none idle here."""
        stack = self.idle.get(workload_id)
        if not stack:
            return None
        sandbox: _Sandbox = stack.pop()
        if not stack:
            del self.idle[workload_id]
        del self.idle_lru[sandbox]
        return sandbox

    def sort_lru(self) -> None:
        """Put the LRU index back in ``idle_since`` order (stable)."""
        self.idle_lru = OrderedDict(
            (sandbox, None)
            for sandbox in sorted(self.idle_lru,
                                  key=attrgetter("idle_since"))
        )

    def lru_idle(self) -> _Sandbox | None:
        """The least recently idled sandbox: smallest ``idle_since``,
        ties to the first in workload-key order, then stack order.

        The index's head is the answer unless the next entry idled at
        the same time; only then are the stacks scanned.  Each stack is
        in ``idle_since`` order, so its bottom is its oldest entry.
        """
        entries = iter(self.idle_lru)
        head = next(entries, None)
        if head is None:
            return None
        runner_up = next(entries, None)
        if runner_up is None or runner_up.idle_since != head.idle_since:
            return head
        oldest = head.idle_since
        victim: _Sandbox = next(
            stack[0] for stack in self.idle.values()
            if stack[0].idle_since == oldest
        )
        return victim

    def remove_idle(self, sandbox: _Sandbox) -> None:
        stack = self.idle[sandbox.workload_id]
        stack.remove(sandbox)
        if not stack:
            del self.idle[sandbox.workload_id]
        del self.idle_lru[sandbox]
        self.used_memory_mb -= sandbox.memory_mb

    @property
    def idle_count(self) -> int:
        return len(self.idle_lru)


# ----------------------------------------------------------------------
# the scalar event loop
# ----------------------------------------------------------------------
class _ScalarCluster:
    """The simulated cluster's scalar event loop, shared by both
    cluster classes.

    Every request is placed by the scheduler, started on a reused or
    freshly created sandbox (evicting LRU idle sandboxes to make room)
    or queued FIFO on its node; completions, crashes and keep-alive
    expiries are heap events ordered by ``(time, sequence)``.

    The loop is one resident generator per cluster (:meth:`_run`),
    started on the first submission: it binds the policies and the
    record buffer once, then takes one ``(timestamp_s, workload_id)``
    row per ``send``.  All simulation state lives on the cluster, so
    the generator can be dropped (a drain, an escaped exception) and
    restarted exactly.  Each started invocation is one packed row
    (:data:`_RECORD_ROW`) appended to :attr:`_rows`; subclasses supply
    only :meth:`_flush_rows`, which moves the rows into their record
    store (the loop flushes every :data:`_FLUSH_ROWS` rows, and every
    read flushes first).
    """

    def __init__(
        self,
        profiles: dict[str, WorkloadProfile],
        *,
        n_nodes: int = 4,
        node_memory_mb: float = 8192.0,
        scheduler: Scheduler | None = None,
        keepalive: KeepAlivePolicy | None = None,
        cold_start_model: Callable[
            [WorkloadProfile], float
        ] = default_cold_start_s,
        service_time_cv: float = 0.0,
        cpu: CpuModel | None = None,
        track_memory: bool = False,
        queue_timeout_s: float | None = None,
        autoscaler: Autoscaler | None = None,
        tracer: Tracer | None = None,
        fault_hook: FaultHook | None = None,
        seed: int = 0,
    ) -> None:
        """``n_nodes`` nodes of ``node_memory_mb`` each, running
        ``profiles``; the scheduler defaults to least-loaded and the
        keep-alive to a fixed 600 s TTL.  The optional realism knobs:

        cold_start_model:
            Seconds of sandbox boot before a cold invocation runs, as a
            function of the workload's profile.  The default,
            :func:`default_cold_start_s`, is pure, so the loop computes
            it once per workload when it starts; any other model is
            called once per cold start with that workload's profile.

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
        self.nodes: list[Node] = [
            Node(i, node_memory_mb) for i in range(n_nodes)
        ]
        self.scheduler: Scheduler = scheduler or LeastLoadedScheduler()
        self.keepalive: KeepAlivePolicy = keepalive or FixedKeepAlive(600.0)
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
        self._lognorm: tuple[float, float] | None
        if service_time_cv > 0:
            sigma = float(np.sqrt(np.log1p(service_time_cv**2)))
            self._lognorm = (sigma, -0.5 * sigma * sigma)
        else:
            self._lognorm = None
        self._clock = 0.0
        #: ``(time, sequence, kind, node, sandbox)`` events; kind is
        #: "end", "crash" or "expire".
        self._heap: list[tuple[float, int, str, Node, _Sandbox]] = []
        # plain integers: the bulk path advances both by whole slabs
        self._seq_n = 0
        self._sandbox_n = 0
        #: Latest keep-alive deadline ever set; a drain ends no earlier.
        self._last_deadline = 0.0
        self._rows: list[bytes] = []
        self._loop: Generator[None, _Row, None] | None = None

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        self._send((timestamp_s, workload_id))

    @property
    def clock_s(self) -> float:
        return self._clock

    # ------------------------------------------------------------------
    # the resident loop
    # ------------------------------------------------------------------
    def _start_loop(self) -> Generator[None, _Row, None]:
        loop = self._run()
        next(loop)
        self._loop = loop
        return loop

    def _send(self, row: _Row) -> None:
        """Run one row through the loop; an escaped exception drops the
        loop, and the next row starts a fresh one."""
        loop = self._loop or self._start_loop()
        try:
            loop.send(row)
        except BaseException:
            self._loop = None
            raise

    def _run(self) -> Generator[None, _Row, None]:
        """The event loop: per request row, fire the events due by its
        timestamp, then place and start (or queue) the request.

        A ``(inf, None)`` row is a drain: it fires the whole calendar
        and places nothing.  Everything the loop calls per event is
        bound here, once per loop; the start, the backlog, crashes and
        expiries are closures over those bindings (one copy each, which
        the drain reaches through the same loop) and completions run
        inline.

        ``table`` is the loop's admission table, one tuple per workload
        built here: its record position, memory, service time, cold-start
        cost and CPU weight.  The cold-start cost is precomputed only for
        the default model (any other model is called per cold start with
        the workload's profile); the weight is read once per workload per
        loop start, which the ``CpuPolicy`` protocol's purity allows.
        """
        profiles = self.profiles
        nodes = self.nodes
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        pick = self.scheduler.pick
        ttl_s = self.keepalive.ttl_s
        observe_idle_gap = self.keepalive.observe_idle_gap
        cold_start_model = self.cold_start_model
        default_cold = cold_start_model is default_cold_start_s
        cpu = self.cpu
        if cpu is not None:
            contend = cpu.policy.contend
            cores = cpu.cores
            quantum_s = cpu.quantum_s
        table = {
            name: (
                i, profile.memory_mb, profile.runtime_ms / 1e3,
                default_cold_start_s(profile) if default_cold else None,
                cpu.policy.weight(name) if cpu is not None else 0.0,
            )
            for i, (name, profile) in enumerate(profiles.items())
        }
        lognorm = self._lognorm
        lognormal = self._rng.lognormal
        fault_hook = self.fault_hook
        tracer = self.tracer
        trace = self._trace
        track_memory = self.track_memory
        memory_samples = self.memory_samples
        queue_timeout_s = self.queue_timeout_s
        dropped = self.dropped
        autoscaler = self.autoscaler
        queue_expiry = self._queue_expiry
        rows = self._rows
        record = rows.append
        pack = _RECORD_ROW.pack
        flush = self._flush_rows

        def try_start(node: Node, arrival_s: float,
                      workload_id: str) -> bool:
            """Start an invocation now if a sandbox can be had; else
            False."""
            now = self._clock
            code, memory_mb, service_s, cold_s, w = table[workload_id]
            sandbox = node.pop_idle(workload_id)
            if sandbox is not None:
                observe_idle_gap(workload_id, now - sandbox.idle_since)
                sandbox.expire_seq = -1  # cancels the pending expiry
                if tracer is not None:
                    trace("sandbox_reused", node.node_id, workload_id)
                begin = now
                cold = False
            else:
                # Make room, evicting the least recently used idle
                # sandboxes.
                while (
                    node.used_memory_mb + memory_mb
                    > node.memory_capacity_mb
                ):
                    victim = node.lru_idle()
                    if victim is None:
                        return False
                    victim.expire_seq = -1
                    node.remove_idle(victim)
                    if tracer is not None:
                        trace("sandbox_evicted", node.node_id,
                              victim.workload_id)
                node.used_memory_mb += memory_mb
                if track_memory:
                    memory_samples.append(
                        (now, node.node_id, node.used_memory_mb)
                    )
                sandbox = _Sandbox(self._sandbox_n, workload_id, memory_mb)
                self._sandbox_n += 1
                if tracer is not None:
                    trace("sandbox_created", node.node_id, workload_id)
                if cold_s is None:
                    cold_s = cold_start_model(profiles[workload_id])
                begin = now + cold_s
                cold = True

            if lognorm is not None:
                sigma, mu = lognorm
                service_s *= float(lognormal(mu, sigma))
            preemptions = 0
            if cpu is not None:
                # run-queue-aware dilation, fixed at admission time
                dilated, preemptions = contend(
                    service_s,
                    cores=cores,
                    quantum_s=quantum_s,
                    concurrent=node.busy_count + 1,
                    weight=w,
                    total_weight=node.cpu_weight + w,
                )
                if dilated > service_s and tracer is not None:
                    trace("invocation_contended", node.node_id,
                          workload_id)
                service_s = dilated
                node.cpu_weight += w
            end = begin + service_s
            ok = True
            if fault_hook is not None:
                frac = fault_hook.crash_fraction(
                    now, node.node_id, workload_id
                )
                if frac is not None:
                    end = begin + service_s * min(max(frac, 0.0), 1.0)
                    ok = False
            node.busy_count += 1
            record(pack(code, node.node_id, arrival_s,
                        begin, end, cold, ok, preemptions))
            # Events carry the Node object itself: under autoscaling the
            # nodes list mutates, so positional ids are not stable
            # handles.
            seq = self._seq_n
            self._seq_n = seq + 1
            heappush(heap, (end, seq, "end" if ok else "crash", node,
                            sandbox))
            return True

        def serve_pending(node: Node) -> None:
            pending = node.pending
            while pending:
                arrival_s, workload_id = pending[0]
                if (
                    queue_timeout_s is not None
                    and self._clock - arrival_s > queue_timeout_s
                ):
                    dropped.append(pending.popleft())
                    trace("request_dropped", node.node_id, workload_id)
                    continue
                if not try_start(node, arrival_s, workload_id):
                    return
                pending.popleft()

        def on_crash(node: Node, sandbox: _Sandbox) -> None:
            """The sandbox died mid-invocation: destroy it outright."""
            node.busy_count -= 1
            if cpu is not None:
                node.cpu_weight -= table[sandbox.workload_id][4]
            node.used_memory_mb -= sandbox.memory_mb
            if tracer is not None:
                trace("sandbox_crashed", node.node_id, sandbox.workload_id)
            if track_memory:
                memory_samples.append(
                    (self._clock, node.node_id, node.used_memory_mb)
                )
            serve_pending(node)

        def on_expiry(seq: int, node: Node, sandbox: _Sandbox) -> None:
            if seq != sandbox.queued_seq:
                return  # superseded by an earlier deadline
            pending = sandbox.expire_seq
            if seq != pending:
                if pending < 0:  # busy, evicted or crashed since
                    sandbox.queued_at, sandbox.queued_seq = _INF, -1
                else:  # idled again since: re-arm at the pending deadline
                    queue_expiry(node, sandbox, sandbox.expire_at, pending)
                return
            node.remove_idle(sandbox)
            if tracer is not None:
                trace("sandbox_expired", node.node_id, sandbox.workload_id)
            if track_memory:
                memory_samples.append(
                    (self._clock, node.node_id, node.used_memory_mb)
                )
            if node.pending:
                serve_pending(node)

        timestamp_s, workload_id = yield
        while True:
            if workload_id not in table:
                if workload_id is not None:
                    raise KeyError(
                        f"no profile for workload {workload_id!r}"
                    )
            elif timestamp_s < self._clock:
                raise ValueError(
                    f"request at t={timestamp_s} is in the simulator's "
                    f"past (clock={self._clock}); submit in timestamp "
                    "order"
                )
            while heap and heap[0][0] <= timestamp_s:
                when, seq, kind, node, sandbox = heappop(heap)
                self._clock = when
                if kind == "end":
                    node.busy_count -= 1
                    wid = sandbox.workload_id
                    if cpu is not None:
                        node.cpu_weight -= table[wid][4]
                    ttl = ttl_s(wid)
                    if ttl <= 0:
                        # reclaimed at once: free the memory without
                        # listing it idle (this reclaim records no memory
                        # sample and no trace event)
                        node.used_memory_mb -= sandbox.memory_mb
                    else:
                        sandbox.idle_since = when
                        node.push_idle(sandbox)
                        # the deadline takes the sequence number its own
                        # event would have, so every other event keeps
                        # its key
                        deadline = when + ttl
                        seq = self._seq_n
                        self._seq_n = seq + 1
                        sandbox.expire_at = deadline
                        sandbox.expire_seq = seq
                        if deadline > self._last_deadline:
                            self._last_deadline = deadline
                        if deadline < sandbox.queued_at:
                            queue_expiry(node, sandbox, deadline, seq)
                    if node.pending:
                        serve_pending(node)
                elif kind == "crash":
                    on_crash(node, sandbox)
                else:  # "expire"
                    on_expiry(seq, node, sandbox)
            if workload_id is not None:
                if timestamp_s > self._clock:
                    self._clock = timestamp_s
                if autoscaler is not None:
                    self._apply_autoscaling(timestamp_s)
                node = nodes[pick(nodes, workload_id)]
                if not try_start(node, timestamp_s, workload_id):
                    trace("request_queued", node.node_id, workload_id)
                    node.pending.append((timestamp_s, workload_id))
                if len(rows) >= _FLUSH_ROWS:
                    flush()
            timestamp_s, workload_id = yield

    def _flush_rows(self) -> None:
        """Move the buffered record rows into the record store."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def _drain_events(self) -> None:
        """Fire the whole event calendar, then drop (or refuse) what is
        still queued; the loop is closed, so a drained cluster holds no
        generator (and no reference cycle through it)."""
        self._send((_INF, None))
        loop, self._loop = self._loop, None
        if loop is not None:
            loop.close()
        self._flush_rows()
        # a deadline replaced before its event was queued never fires,
        # yet the clock ends on the latest one set, as if all had fired
        if self._last_deadline > self._clock:
            self._clock = self._last_deadline
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

    def _drain_telemetry(self, n_records: int) -> None:
        reg = _telemetry.active()
        if reg is not None:
            # gauges are idempotent, so repeated drains stay correct
            reg.gauge("platform_nodes",
                      "cluster size at drain time").set(len(self.nodes))
            reg.gauge("platform_completed_invocations",
                      "invocation records held by the cluster"
                      ).set(n_records)
            reg.gauge("platform_dropped_requests",
                      "requests dropped on queue timeout so far"
                      ).set(len(self.dropped))

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def _apply_autoscaling(self, now_s: float) -> None:
        scaler = self.autoscaler
        if scaler is None:
            return
        desired = scaler.decide(now_s, self.nodes)
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
                    sandbox.expire_seq = -1
                    victim.remove_idle(sandbox)
                    self._trace("sandbox_evicted", victim.node_id,
                                sandbox.workload_id)
            self.nodes.remove(victim)
            if victim.pending:
                self.nodes[0].pending.extend(victim.pending)

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _trace(self, kind: str, node_id: int, workload_id: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(self._clock, kind, node_id, workload_id)

    def _queue_expiry(self, node: Node, sandbox: _Sandbox, when: float,
                      seq: int) -> None:
        """Push ``(when, seq)`` as the sandbox's one live expiry event."""
        sandbox.queued_at = when
        sandbox.queued_seq = seq
        heapq.heappush(self._heap, (when, seq, "expire", node, sandbox))
