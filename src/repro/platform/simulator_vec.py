"""Array-native discrete-event FaaS cluster simulator.

This is the production engine behind :class:`FaaSCluster` (the name
``repro.platform.simulator`` re-exports).  It runs the one scalar event
loop both cluster classes share
(:class:`~repro.platform.simcore._ScalarCluster`) and differs from
:class:`~repro.platform.simulator.ObjectFaaSCluster` in two places
only, both moving costs that scale with invocation count onto
struct-of-arrays storage:

- **Records** live in growable NumPy columns (workload code, node,
  arrival/start/end, cold, ok).  ``InvocationRecord`` objects are
  materialised lazily and only on demand; :meth:`record_columns` /
  :meth:`drain_columns` expose the columns directly so metrics can be
  NumPy reductions (:func:`repro.platform.metrics.summarize_columns`)
  with no per-record Python at all.
- **Batched admission**: :meth:`invoke_many` takes a whole
  timestamp-ordered slab of requests.  When the configuration provably
  cannot diverge from the scalar path (see :meth:`_bulk_eligible`), the
  cold-start, warm-reuse, expiry, completion, and memory transitions of
  the entire slab are applied by one commit (:meth:`_bulk_commit`): a
  K-slot lockstep scan across ``(node, workload)`` pools
  (:func:`_scan_pools`) decides warm reuse, then one event sort +
  cumsum per node replays memory, instead of one event-heap cycle per
  request.  The envelope covers constant keep-alive TTLs (zero TTL --
  ``NoKeepAlive`` or ``FixedKeepAlive(0)`` -- is the commit's
  degenerate case), lognormal service-time jitter (one pre-drawn
  array per slab, stream-equal to the scalar draws, rewound on
  fallback), and exactly one scheduler, :class:`RandomScheduler`,
  whose one sized draw places the whole slab; whatever the slab leaves
  outstanding -- running invocations *and* warm idle sandboxes --
  becomes a :class:`_BulkTail` carry that survives chunk boundaries
  (:meth:`invoke_chunked`).  Scalar traffic or a drain materialises it
  into ordinary heap events, which the scalar loop then fires.

Everything outside the bulk envelope -- keep-alive LRU stacks, every
other scheduler (a ``RandomScheduler`` subclass included), the
CPU-contention model, autoscaling, fault hooks, tracing -- runs the
shared scalar loop.

Determinism contract: bulk submission (:meth:`invoke_many`,
:meth:`invoke_chunked`) and per-request :meth:`invoke` produce
bit-equal record fields, clocks, drops, memory samples, and trace event
streams, and the columnar records equal the ``InvocationRecord`` objects
``ObjectFaaSCluster`` appends (``tests/test_simulator_equivalence.py``).
The bulk path preserves this down to IEEE float accumulation order
(``used_memory_mb`` is folded with ``cumsum`` in the scalar loop's
exact event order) and RNG stream position (``RandomScheduler.pick_many``
is stream-equal to sequential picks; a slab that must fall back rewinds
the scheduler RNG with ``RandomScheduler.restore``).
See docs/SIMULATOR.md for how to add a policy without breaking this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, cast

import numpy as np
import numpy.typing as npt

from repro.platform.keepalive import FixedKeepAlive, NoKeepAlive
from repro.platform.metrics import (
    InvocationRecord,
    RecordColumns,
    _materialise,
)
from repro.platform.schedulers import RandomScheduler
from repro.platform.simcore import (
    Node,
    WorkloadProfile,
    _RECORD_DTYPE,
    _Sandbox,
    _ScalarCluster,
    default_cold_start_s,
)

__all__ = [
    "FaaSCluster",
    "Node",
    "RecordColumns",
    "WorkloadProfile",
    "default_cold_start_s",
    "iter_trace_slabs",
]


# ----------------------------------------------------------------------
# columnar record storage
# ----------------------------------------------------------------------
class _RecordStore:
    """Growable struct-of-arrays record buffer with a string vocabulary.

    The scalar loop's packed rows arrive in blocks (:meth:`append_rows`),
    bulk slabs as arrays (:meth:`extend`).
    """

    __slots__ = (
        "n", "code", "node", "arrival", "start", "end", "cold", "ok",
        "preempt", "vocab", "words",
    )

    def __init__(self) -> None:
        cap = 1024
        self.n = 0
        self.code = np.empty(cap, np.int32)
        self.node = np.empty(cap, np.int32)
        self.arrival = np.empty(cap, np.float64)
        self.start = np.empty(cap, np.float64)
        self.end = np.empty(cap, np.float64)
        self.cold = np.empty(cap, np.bool_)
        self.ok = np.empty(cap, np.bool_)
        self.preempt = np.empty(cap, np.int32)
        self.vocab: dict[str, int] = {}
        self.words: list[str] = []

    def code_for(self, workload_id: str) -> int:
        code = self.vocab.get(workload_id)
        if code is None:
            code = len(self.words)
            self.vocab[workload_id] = code
            self.words.append(workload_id)
        return code

    def _reserve(self, need: int) -> None:
        cap = self.code.size
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("code", "node", "arrival", "start", "end", "cold",
                     "ok", "preempt"):
            old = getattr(self, name)
            grown = np.empty(cap, old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)

    def append_rows(self, rows: list[bytes], words: list[str]) -> None:
        """Move the scalar loop's packed rows into the columns, in order,
        and empty the buffer; ``words`` names each row's workload
        position."""
        block = np.frombuffer(b"".join(rows), _RECORD_DTYPE)
        rows.clear()
        n = int(block.size)
        position = block["position"]
        seen, first = np.unique(position, return_index=True)
        codes = np.empty(len(words), np.int32)
        # new words take codes in order of first appearance
        for i in seen[np.argsort(first)].tolist():
            codes[i] = self.code_for(words[i])
        n0 = self.n
        n1 = n0 + n
        self._reserve(n1)
        self.code[n0:n1] = codes[position]
        for name in ("node", "arrival", "start", "end", "cold", "ok",
                     "preempt"):
            getattr(self, name)[n0:n1] = block[name]
        self.n = n1

    def extend(
        self,
        codes: npt.NDArray[np.int32],
        node_ids: npt.NDArray[np.int64],
        arrival_s: npt.NDArray[np.float64],
        start_s: npt.NDArray[np.float64],
        end_s: npt.NDArray[np.float64],
        *,
        cold: bool | npt.NDArray[np.bool_],
        ok: bool,
    ) -> None:
        n0 = self.n
        n1 = n0 + int(codes.size)
        self._reserve(n1)
        self.code[n0:n1] = codes
        self.node[n0:n1] = node_ids
        self.arrival[n0:n1] = arrival_s
        self.start[n0:n1] = start_s
        self.end[n0:n1] = end_s
        self.cold[n0:n1] = cold
        self.ok[n0:n1] = ok
        self.preempt[n0:n1] = 0  # bulk slabs never run a CPU model
        self.n = n1

    def columns(self) -> RecordColumns:
        n = self.n
        return RecordColumns(
            workload_codes=self.code[:n].copy(),
            vocabulary=tuple(self.words),
            node=self.node[:n].copy(),
            arrival_s=self.arrival[:n].copy(),
            start_s=self.start[:n].copy(),
            end_s=self.end[:n].copy(),
            cold=self.cold[:n].copy(),
            ok=self.ok[:n].copy(),
            preemptions=self.preempt[:n].copy(),
        )


#: Shared empty columns standing in for an absent carry.
_F0 = np.empty(0, np.float64)
_I0 = np.empty(0, np.int64)


def _event_order(
    t: npt.NDArray[np.float64],
    phase: npt.NDArray[np.uint8],
    tie: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Exact argsort by ``(t, phase, tie)``.

    Equivalent to ``np.lexsort((tie, phase, t))`` but built to exploit
    the bulk path's event streams: each stream is emitted almost sorted
    by time, so one adaptive stable sort on ``t`` does nearly all the
    work and the remaining ``(phase, tie)`` discipline only matters
    inside runs of exactly equal timestamps, which are resolved with a
    lexsort confined to those rows.
    """
    so = np.argsort(t, kind="stable")
    ts_ = t[so]
    eq = ts_[1:] == ts_[:-1]
    if bool(eq.any()):
        in_run = np.zeros(t.size, np.bool_)
        in_run[:-1] = eq
        in_run[1:] |= eq
        rows = np.nonzero(in_run)[0]
        sub = so[rows]
        # lexsort keeps distinct-time runs in place (t is the major
        # key) and orders each run by (phase, tie)
        so[rows] = sub[np.lexsort((tie[sub], phase[sub], t[sub]))]
    return so


def _group_stable(
    labels: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Stable argsort of small non-negative integer labels.

    Groups events by pool/node while preserving their existing order,
    via one value sort of ``label << shift | position`` -- far cheaper
    than a comparison argsort when the payload order is already
    meaningful.  Falls back to a stable argsort if the packed key
    cannot hold both fields exactly.
    """
    n = int(labels.size)
    if n == 0:
        return np.empty(0, np.int64)
    shift = max(n - 1, 1).bit_length()
    lmax = int(labels[labels.argmax()])
    if lmax.bit_length() + shift > 62:
        return np.argsort(labels, kind="stable")
    packed = np.sort((labels << shift) | np.arange(n, dtype=np.int64))
    return packed & ((1 << shift) - 1)


def _scan_pools(
    ts: npt.NDArray[np.float64],
    gid: npt.NDArray[np.int64],
    cstart: npt.NDArray[np.float64],
    svc_req: npt.NDArray[np.float64],
    ttl: float,
    c_gid: npt.NDArray[np.int64],
    c_e: npt.NDArray[np.float64],
    c_q: npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Warm-reuse decisions of one positive-TTL slab, as ``(consumer,
    source)`` row pairs, one per warm start.

    Placement is fixed up front, so each ``(node, workload)`` pool
    replays the keep-alive model on its own: a sandbox is warm iff
    ``e <= t < e + ttl`` (idle since ``e``, not yet expired), reuse is
    LIFO -- the live sandbox with the largest ``(e, seq)`` -- and a cold
    start takes a slot that is not busy.  Every pool holds K slots, each
    a completion or idle-from time plus a key naming the row that last
    filled it, stored as K per-slot arrays across pools.  The scan walks
    arrival ranks, vectorised across the pools still active at each
    rank.  K starts at the deepest carried pool (at least 2) and grows
    by one slot for every pool whenever a cold start finds all of its
    pool's slots busy.

    Carried row ``i`` (``c_*``: the previous carry's busy rows, then its
    idle rows, with their end-event sequence numbers ``c_q``) is source
    ``n + i``; new invocation ``k`` is source ``k``.
    """
    n = int(ts.size)
    order = _group_stable(gid)
    g_sorted = gid[order]
    head = np.empty(n, np.bool_)
    head[0] = True
    np.not_equal(g_sorted[1:], g_sorted[:-1], out=head[1:])
    pool_start = np.nonzero(head)[0]
    pool_gids = g_sorted[pool_start]
    pool_len = np.diff(np.append(pool_start, n))
    n_pools = int(pool_gids.size)
    # longest pools first, so the pools active at rank r are a prefix
    po = np.argsort(-pool_len, kind="stable")
    d_start = pool_start[po]
    d_len = pool_len[po]
    pool_rank = np.empty(n_pools, np.int64)
    pool_rank[po] = np.arange(n_pools, dtype=np.int64)

    # A slot's key orders like the end-event sequence number of the row
    # that last filled it and names that row: new invocation k has key
    # k (its end events number in arrival order, after every carried
    # one); carried rows take negative keys in sequence order.
    nq = int(c_q.size)
    by_q = np.argsort(c_q)
    c_key = np.empty(nq, np.int64)
    c_key[by_q] = np.arange(-nq, 0, dtype=np.int64)
    # carried rows of this slab's pools fill slots 0, 1, ... of their pool
    pos = np.minimum(np.searchsorted(pool_gids, c_gid), n_pools - 1)
    cr = np.nonzero(pool_gids[pos] == c_gid)[0]
    cp = pool_rank[pos[cr]]
    co = np.argsort(cp, kind="stable")
    cr, cp = cr[co], cp[co]
    depth = np.arange(cp.size, dtype=np.int64) - np.searchsorted(cp, cp)
    slot_e: list[npt.NDArray[np.float64]] = []
    slot_k: list[npt.NDArray[np.int64]] = []

    def add_slot() -> None:
        slot_e.append(np.full(n_pools, -np.inf, np.float64))
        slot_k.append(np.full(n_pools, -nq - 1, np.int64))

    for j in range(max(2, int(depth.max(initial=-1)) + 1)):
        add_slot()
        at = depth == j
        slot_e[j][cp[at]] = c_e[cr[at]]
        slot_k[j][cp[at]] = c_key[cr[at]]

    max_len = int(d_len[0])
    active_at = np.searchsorted(
        -d_len, -np.arange(1, max_len + 1, dtype=np.int64), side="right"
    )
    warm_k_parts: list[npt.NDArray[np.int64]] = []
    warm_key_parts: list[npt.NDArray[np.int64]] = []
    for r in range(max_len):
        m = int(active_at[r])
        k_idx = order[d_start[:m] + r]
        t = ts[k_idx]
        # The non-busy slot with the largest (e, seq) is live iff any
        # non-busy slot is (an older idle sandbox expires no later), so
        # one argmax yields the LIFO reuse when warm and, when cold, a
        # dead slot the new sandbox may overwrite.
        top = np.full(m, -1, np.int64)
        top_e = np.full(m, -np.inf, np.float64)
        top_k = np.full(m, -nq - 2, np.int64)
        for j in range(len(slot_e)):
            a = slot_e[j][:m]
            kj = slot_k[j][:m]
            up = (a <= t) & ((a > top_e) | ((a == top_e) & (kj > top_k)))
            top[up] = j
            np.copyto(top_e, a, where=up)
            np.copyto(top_k, kj, where=up)
        warm = t < top_e + ttl
        full = top < 0
        if bool(full.any()):
            # a cold start found every slot of its pool busy
            top[full] = len(slot_e)
            add_slot()
        w = np.nonzero(warm)[0]
        if w.size:
            warm_k_parts.append(k_idx[w])
            warm_key_parts.append(top_k[w])
        endv = np.where(warm, t, cstart[k_idx]) + svc_req[k_idx]
        for j in range(len(slot_e)):
            hit = top == j
            np.copyto(slot_e[j][:m], endv, where=hit)
            np.copyto(slot_k[j][:m], k_idx, where=hit)

    if not warm_k_parts:
        return _I0, _I0
    warm_src = np.concatenate(warm_key_parts)
    carried = warm_src < 0
    warm_src[carried] = n + by_q[warm_src[carried] + nq]
    return np.concatenate(warm_k_parts), warm_src


@dataclass
class _BulkTail:
    """Vectorised carry a bulk slab leaves behind past its last arrival.

    The carry survives chunk boundaries (:meth:`FaaSCluster.invoke_chunked`
    folds it into the next slab's event calendar) and has one exit:
    scalar traffic or a drain materialises it into ordinary heap events
    and node state, which the scalar loop then fires, so what follows
    is byte-identical to the loop by construction.

    Still-running invocations: row ``j`` holds the completion time, the
    end-event heap sequence number the scalar loop would have
    assigned (exact tie-breaking on materialisation), node, memory, and
    workload code.  Warm idle sandboxes (``ttl > 0`` only; empty
    columns otherwise): rows sorted by (pool, idled-at, append
    sequence) -- pool meaning a ``(node, workload)`` idle stack -- with
    each row's queued expiry time/sequence and its pool's stack
    *creation key*, i.e. when the scalar loop's ``node.idle`` dict
    key was (re)inserted, which ``lru_idle`` tie-breaks on.
    """

    ttl: float
    words: list[str]
    ends: npt.NDArray[np.float64]
    seqs: npt.NDArray[np.int64]
    node_idx: npt.NDArray[np.int64]
    mem_mb: npt.NDArray[np.float64]
    codes: npt.NDArray[np.int64]
    idle_from: npt.NDArray[np.float64]
    idle_xa: npt.NDArray[np.float64]
    idle_seq: npt.NDArray[np.int64]
    idle_order: npt.NDArray[np.int64]
    idle_node: npt.NDArray[np.int64]
    idle_mem: npt.NDArray[np.float64]
    idle_codes: npt.NDArray[np.int64]
    idle_key_time: npt.NDArray[np.float64]
    idle_key_tie: npt.NDArray[np.int64]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class FaaSCluster(_ScalarCluster):
    """Array-native simulated cluster satisfying the replayer's Backend
    protocol, plus the batched extensions (:meth:`invoke_many`,
    :meth:`drain_columns`, :meth:`record_columns`).

    Runs the shared scalar event loop
    (:class:`~repro.platform.simcore._ScalarCluster`, whose constructor
    documents the parameters) into columnar record storage, and adds
    the vectorised bulk path, which the differential equivalence suite
    pins byte-identical to that loop.
    """

    def __init__(
        self, profiles: dict[str, WorkloadProfile], **knobs: Any
    ) -> None:
        super().__init__(profiles, **knobs)
        self._store = _RecordStore()
        self._records_list: list[InvocationRecord] = []
        self._tail: _BulkTail | None = None

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        """Submit one request through the scalar loop, first turning any
        outstanding bulk carry into ordinary heap events."""
        if self._tail is not None:
            self._materialize_tail()
        self._send((timestamp_s, workload_id))

    def invoke_many(
        self,
        timestamps_s: npt.ArrayLike,
        workload_ids: Sequence[str],
    ) -> None:
        """Submit a timestamp-ordered batch of requests.

        Semantically identical to calling :meth:`invoke` per element;
        when the configuration is provably safe the whole slab is
        applied vectorised, otherwise this falls back to the scalar
        loop (including for invalid input, so errors surface exactly
        where the per-element loop would raise them, with the same
        partial state).
        """
        ts = np.asarray(timestamps_s, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError("timestamps_s must be one-dimensional")
        n = int(ts.size)
        if n != len(workload_ids):
            raise ValueError(
                f"got {n} timestamps but {len(workload_ids)} workload ids"
            )
        if n == 0:
            return
        if self._bulk_eligible() and self._bulk_invoke(ts, workload_ids):
            return
        self._invoke_loop(ts, workload_ids)

    def invoke_chunked(
        self,
        slabs: Iterable[tuple[npt.ArrayLike, Sequence[str]]],
    ) -> None:
        """Submit a stream of timestamp-ordered ``(timestamps,
        workload_ids)`` slabs.

        Equivalent to one :meth:`invoke_many` over the concatenation --
        the bulk carry (:class:`_BulkTail`) survives chunk boundaries,
        so results are invariant to how the stream is sliced -- while
        holding only one slab in memory at a time.  Feed it from
        :func:`iter_trace_slabs` (or any generator over a trace file)
        to stream arbitrarily long traces through the engine
        memory-bounded.
        """
        for ts, wids in slabs:
            self.invoke_many(ts, wids)

    def drain(self) -> list[InvocationRecord]:
        self._finish()
        return self.records

    def drain_columns(self) -> RecordColumns:
        """Array-native :meth:`drain`: finish all outstanding work and
        return the records as columns, materialising no record objects."""
        self._finish()
        return self._store.columns()

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[InvocationRecord]:
        """The run's records so far, as one stable list object.

        Rows are materialised from the columns lazily; repeated access
        returns the *same* list (decorators rely on the identity), with
        any new rows appended.
        """
        self._flush_rows()
        store = self._store
        out = self._records_list
        lo, hi = len(out), store.n
        if lo < hi:
            out.extend(_materialise(
                store.words, store.code[lo:hi], store.node[lo:hi],
                store.arrival[lo:hi], store.start[lo:hi], store.end[lo:hi],
                store.cold[lo:hi], store.ok[lo:hi], store.preempt[lo:hi],
            ))
        return out

    def record_columns(self) -> RecordColumns:
        """Columnar snapshot of the records appended so far."""
        self._flush_rows()
        return self._store.columns()

    def _flush_rows(self) -> None:
        if self._rows:
            self._store.append_rows(self._rows, list(self.profiles))

    # ------------------------------------------------------------------
    # bulk fast path
    # ------------------------------------------------------------------
    def _bulk_ttl(self) -> float | None:
        """The keep-alive TTL if it is provably workload-independent,
        else None.  Exact types only: a subclass may override behaviour
        the bulk path cannot see."""
        ka = self.keepalive
        if type(ka) is NoKeepAlive:
            return 0.0
        if type(ka) is FixedKeepAlive:
            return float(ka.constant_ttl_s)
        return None

    def _bulk_eligible(self) -> bool:
        """Whether a batch can be applied vectorised without any chance
        of diverging from the scalar path.

        Per-feature capability checks (docs/SIMULATOR.md tabulates the
        full envelope): the keep-alive TTL must be a constant
        (``NoKeepAlive`` / ``FixedKeepAlive``; a histogram policy learns
        from reuse order mid-slab), the scheduler must be exactly a
        :class:`RandomScheduler` (the only one whose picks ignore node
        state; exact type, as for keep-alives, since a subclass may
        override what the batched draw cannot see), no policy callback
        may observe intermediate state (autoscaler / tracer / fault
        hook), cold starts are pure per-profile values, no memory
        sampling, and no *scalar* events are in flight -- an outstanding
        bulk carry with the same TTL is fine, it is part of the
        vectorised state.  Any :class:`~repro.platform.cpu.CpuModel`
        makes a run ineligible: its policies' ``contend``/``weight`` are
        the one implementation of contention, and only the scalar loop
        calls them.  Service-time jitter is allowed: the slab pre-draws
        one lognormal array stream-equal to the scalar per-request draws
        and rewinds the RNG on fallback.
        """
        ttl = self._bulk_ttl()
        if ttl is None:
            return False
        if (
            self.autoscaler is not None
            or self.tracer is not None
            or self.fault_hook is not None
        ):
            return False
        if self.cpu is not None or self.track_memory:
            return False
        if self.cold_start_model is not default_cold_start_s:
            return False
        if self._heap:
            return False
        tail = self._tail
        if tail is not None and tail.ttl != ttl:
            return False
        for node in self.nodes:
            if node.pending or node.idle:
                return False
            if tail is None and node.busy_count:
                return False
        return type(self.scheduler) is RandomScheduler

    def _bulk_invoke(
        self,
        ts: npt.NDArray[np.float64],
        workload_ids: Sequence[str],
    ) -> bool:
        """Apply one eligible slab vectorised; False = caller must fall
        back to the scalar loop (no state was mutated and every
        speculatively consumed RNG stream was rewound)."""
        n = int(ts.size)
        ttl = self._bulk_ttl()
        if ttl is None:  # pragma: no cover - guarded by _bulk_eligible
            return False
        old = self._tail
        words = list(self.profiles)
        if old is not None and old.words != words:
            return False
        index = {w: i for i, w in enumerate(words)}
        try:
            codes = np.fromiter(
                map(index.__getitem__, workload_ids), np.int64, count=n
            )
        except KeyError:  # unknown workload: let the loop raise
            return False
        # a NaN compares false both ways, so it would slip past the
        # order checks: let the loop handle (or refuse) it
        if not bool(np.isfinite(ts).all()):
            return False
        if float(ts[0]) < self._clock:
            return False
        if n > 1 and bool(np.any(np.diff(ts) < 0)):
            return False

        profs = [self.profiles[w] for w in words]
        mem = np.array([p.memory_mb for p in profs], np.float64)
        svc = np.array([p.runtime_ms for p in profs], np.float64) / 1e3
        coldcost = np.array(
            [self.cold_start_model(p) for p in profs], np.float64
        )

        sched = cast(RandomScheduler, self.scheduler)
        saved = sched.snapshot()
        node_idx = sched.pick_many(self.nodes, workload_ids)

        # One sized draw consumes the jitter stream exactly like n
        # scalar draws (pinned by the property suite); saving the
        # bit-generator state first makes fallback a perfect rewind.
        svc_req = svc[codes]
        rng_state: Any = None
        if self._lognorm is not None:
            sigma, mu = self._lognorm
            rng_state = self._rng.bit_generator.state
            svc_req = svc_req * self._rng.lognormal(mu, sigma, n)

        ok = self._bulk_commit(
            ts, codes, node_idx, mem, coldcost, svc_req, ttl, words, old,
        )
        if not ok:
            sched.restore(saved)
            if rng_state is not None:
                self._rng.bit_generator.state = rng_state
        return ok

    def _store_codes(self) -> npt.NDArray[np.int32]:
        """The store's code per profile, in profile order; buffered
        scalar rows are flushed first, so they keep their codes and
        precede the bulk rows."""
        self._flush_rows()
        store = self._store
        return np.fromiter(
            (store.code_for(w) for w in self.profiles),
            np.int32, count=len(self.profiles),
        )

    def _node_ids(self) -> npt.NDArray[np.int64]:
        return np.fromiter(
            (nd.node_id for nd in self.nodes), np.int64,
            count=len(self.nodes),
        )

    def _bulk_commit(
        self,
        ts: npt.NDArray[np.float64],
        codes: npt.NDArray[np.int64],
        node_idx: npt.NDArray[np.int64],
        mem: npt.NDArray[np.float64],
        coldcost: npt.NDArray[np.float64],
        svc_req: npt.NDArray[np.float64],
        ttl: float,
        words: list[str],
        old: _BulkTail | None,
    ) -> bool:
        """Apply one constant-TTL slab.

        Warm-versus-cold is decided per ``(node, workload)`` idle pool
        (:func:`_scan_pools`) -- placement is fixed up front, so pools
        only couple through memory pressure, which is checked vectorised
        afterwards and falls back to scalar on any overflow (exactly
        when the scalar engine would evict or queue).  Sequence numbers,
        the memory trajectory, and the carry are then reconstructed in
        the scalar loop's exact event order: every arrival pushes an end
        event and every in-slab completion pushes an expiry event, so
        heap sequence numbers interleave and are assigned by a merged
        sort rather than arithmetic.

        Zero TTL is the degenerate case: every start is cold, so there
        is nothing to scan; completions push no expiry event, and each
        releases its memory at once, under its own end-event sequence
        number.
        """
        n = int(ts.size)
        n_nodes = len(self.nodes)
        n_words = len(words)
        last_t = float(ts[-1])
        seq0 = self._seq_n
        cstart = ts + coldcost[codes]

        # an absent carry is the empty carry
        if old is not None:
            ob_end, ob_seq = old.ends, old.seqs
            ob_node, ob_mem, ob_code = old.node_idx, old.mem_mb, old.codes
            oi_from, oi_xa = old.idle_from, old.idle_xa
            oi_seq, oi_order = old.idle_seq, old.idle_order
            oi_node, oi_mem = old.idle_node, old.idle_mem
            oi_code = old.idle_codes
            oi_key_t, oi_key_q = old.idle_key_time, old.idle_key_tie
        else:
            ob_end, ob_mem = _F0, _F0
            ob_seq, ob_node, ob_code = _I0, _I0, _I0
            oi_from, oi_xa, oi_mem, oi_key_t = _F0, _F0, _F0, _F0
            oi_seq, oi_order, oi_node, oi_code, oi_key_q = (
                _I0, _I0, _I0, _I0, _I0
            )
        nb = int(ob_end.size)
        nc = int(oi_from.size)

        # Completions this slab can observe: its new invocations, then
        # the carried busy rows.  The slab's own columns are prefix views
        # (``gid``, ``req_mem``), so none is held twice.  Sources are
        # numbered in the same order: new invocation k -> k, carried busy
        # row r -> n + r, carried idle row r -> n + nb + r.
        comp_node = np.concatenate((node_idx, ob_node))
        comp_code = np.concatenate((codes, ob_code))
        comp_gid = comp_node * n_words + comp_code
        comp_mem = np.concatenate((mem[codes], ob_mem))
        gid, req_mem = comp_gid[:n], comp_mem[:n]
        reuse_src_arr = np.full(n, -1, np.int64)
        reused_arr = np.zeros(n + nb + nc, np.bool_)
        if ttl > 0:
            # the stored expiry is bitwise ``from + ttl`` (ttl-compat is
            # an eligibility condition), so carrying ``from`` suffices
            warm_k, warm_src = _scan_pools(
                ts, gid, cstart, svc_req, ttl,
                np.concatenate((comp_gid[n:], oi_node * n_words + oi_code)),
                np.concatenate((ob_end, oi_from)),
                np.concatenate((ob_seq, oi_order)),
            )
            reuse_src_arr[warm_k] = warm_src
            reused_arr[warm_src] = True
        cold_arr = reuse_src_arr < 0
        start_vec = np.where(cold_arr, cstart, ts)
        comp_end = np.concatenate((start_vec + svc_req, ob_end))
        comp_tie = np.concatenate(
            (seq0 + np.arange(n, dtype=np.int64), ob_seq)
        )
        processed = comp_end <= last_t
        proc_idx = np.nonzero(processed)[0]
        np_proc = int(proc_idx.size)
        # the in-slab completion times open the idle-pool entries below
        p_from = np.concatenate((comp_end[proc_idx], oi_from))
        proc_end = p_from[:np_proc]

        # Heap sequence numbers: every arrival pushes its end event and
        # every in-slab-processed completion pushes an expiry event, in
        # merged (time, completion-before-arrival, push order) order.
        # Without expiries the end events number consecutively, and the
        # memory a completion frees goes under its own end number.
        n_exp = np_proc if ttl > 0 else 0
        if n_exp:
            m_time = np.concatenate((ts, proc_end))
            m_phase = np.concatenate(
                (np.ones(n, np.uint8), np.zeros(np_proc, np.uint8))
            )
            m_tie = np.concatenate((comp_tie[:n], comp_tie[proc_idx]))
            mo = _event_order(m_time, m_phase, m_tie)
            seq_assign = np.empty(n + np_proc, np.int64)
            seq_assign[mo] = seq0 + np.arange(n + np_proc, dtype=np.int64)
            comp_end_seq = np.concatenate((seq_assign[:n], ob_seq))
            p_exp = np.concatenate((seq_assign[n:], oi_seq))
        else:
            comp_end_seq = comp_tie
            p_exp = np.concatenate((comp_tie[proc_idx], oi_seq))

        # idle-pool lifecycle entries: processed completions + carry
        p_xa = np.concatenate((proc_end + ttl, oi_xa))
        p_node = np.concatenate((comp_node[proc_idx], oi_node))
        p_gid = np.concatenate(
            (comp_gid[proc_idx], oi_node * n_words + oi_code)
        )
        p_mem = np.concatenate((comp_mem[proc_idx], oi_mem))
        p_code = np.concatenate((comp_code[proc_idx], oi_code))
        p_order = np.concatenate((comp_end_seq[proc_idx], oi_order))
        p_src = np.concatenate(
            (proc_idx, n + nb + np.arange(nc, dtype=np.int64))
        )
        p_key_t = np.concatenate((np.zeros(np_proc, np.float64), oi_key_t))
        p_key_q = np.concatenate((np.full(np_proc, -1, np.int64), oi_key_q))
        p_reused = reused_arr[p_src]
        p_fired = ~p_reused & (p_xa <= last_t)
        p_keep = ~p_reused & (p_xa > last_t)

        # memory calendar: +mem at each cold arrival, -mem at each
        # in-slab expiry (at completion under zero TTL), in the scalar
        # loop's heap order per node
        a_idx = np.nonzero(cold_arr)[0]
        f_idx = np.nonzero(p_fired)[0]
        ev_time = np.concatenate((ts[a_idx], p_xa[f_idx]))
        ev_phase = np.concatenate((
            np.ones(a_idx.size, np.uint8),
            np.zeros(f_idx.size, np.uint8),
        ))
        ev_tie = np.concatenate((seq0 + a_idx, p_exp[f_idx]))
        ev_node = np.concatenate((node_idx[a_idx], p_node[f_idx]))
        ev_delta = np.concatenate((req_mem[a_idx], -p_mem[f_idx]))
        eo = _event_order(ev_time, ev_phase, ev_tie)
        order = eo[_group_stable(ev_node[eo])]
        s_alloc = ev_phase[order] == 1
        s_delta = ev_delta[order]
        counts = np.bincount(ev_node, minlength=n_nodes)
        bounds = np.zeros(n_nodes + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        new_used = np.empty(n_nodes, np.float64)
        for b, node in enumerate(self.nodes):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            block = np.empty(hi - lo + 1, np.float64)
            block[0] = node.used_memory_mb
            block[1:] = s_delta[lo:hi]
            usage = np.cumsum(block)
            admitted = usage[1:][s_alloc[lo:hi]]
            if bool(np.any(admitted > node.memory_capacity_mb)):
                # the scalar engine would evict or queue here, and pool
                # replays assumed neither: fall back entirely
                return False
            new_used[b] = usage[-1]

        still = np.nonzero(~processed)[0]
        busy_after = np.bincount(comp_node[still], minlength=n_nodes)

        key_time, key_tie = self._pool_creation_keys(
            ts, gid, p_from, p_xa, p_exp, p_order, p_gid, p_src, p_key_t,
            p_key_q, p_fired, p_keep, reuse_src_arr, seq0,
            n, nb, len(self.nodes) * n_words,
        )

        # -- commit ----------------------------------------------------
        self._seq_n += n + n_exp
        self._sandbox_n += int(cold_arr.sum())
        self._clock = last_t
        self._store.extend(
            self._store_codes()[codes], self._node_ids()[node_idx],
            ts, start_vec, comp_end[:n], cold=cold_arr, ok=True,
        )
        for b, node in enumerate(self.nodes):
            node.busy_count = int(busy_after[b])
            node.used_memory_mb = float(new_used[b])
        if still.size or p_keep.any():
            keep_idx = np.nonzero(p_keep)[0]
            keep_idx = keep_idx[np.lexsort(
                (p_order[keep_idx], p_from[keep_idx], p_gid[keep_idx])
            )]
            self._tail = _BulkTail(
                ttl=ttl,
                words=words,
                ends=comp_end[still],
                seqs=comp_end_seq[still],
                node_idx=comp_node[still],
                mem_mb=comp_mem[still],
                codes=comp_code[still],
                idle_from=p_from[keep_idx],
                idle_xa=p_xa[keep_idx],
                idle_seq=p_exp[keep_idx],
                idle_order=p_order[keep_idx],
                idle_node=p_node[keep_idx],
                idle_mem=p_mem[keep_idx],
                idle_codes=p_code[keep_idx],
                idle_key_time=key_time[keep_idx],
                idle_key_tie=key_tie[keep_idx],
            )
        else:
            self._tail = None
        return True

    def _pool_creation_keys(
        self,
        ts: npt.NDArray[np.float64],
        gid: npt.NDArray[np.int64],
        p_from: npt.NDArray[np.float64],
        p_xa: npt.NDArray[np.float64],
        p_exp: npt.NDArray[np.int64],
        p_order: npt.NDArray[np.int64],
        p_gid: npt.NDArray[np.int64],
        p_src: npt.NDArray[np.int64],
        p_key_t: npt.NDArray[np.float64],
        p_key_q: npt.NDArray[np.int64],
        p_fired: npt.NDArray[np.bool_],
        p_keep: npt.NDArray[np.bool_],
        reuse_src_arr: npt.NDArray[np.int64],
        seq0: int,
        n: int,
        nb: int,
        n_gids: int,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]:
        """Stack-creation keys for pools that carry idle sandboxes out.

        The scalar loop's ``node.idle`` dict orders keys by
        insertion, and ``lru_idle`` tie-breaks on that order, so the
        carry must remember when each surviving stack last went
        empty-to-non-empty.  Each pool's appends (completions idling),
        reuses (pops), and expiries replay as one global event list --
        lexsorted by pool, then segmented-cumsum'd to find each pool's
        latest 0->1 occupancy transition; if a surviving stack never
        emptied this slab, the key carried from the previous chunk
        persists.
        """
        key_time = np.zeros(p_from.size, np.float64)
        key_tie = np.zeros(p_from.size, np.int64)
        if not bool(p_keep.any()):
            return key_time, key_tie
        keep_mask = np.zeros(n_gids, np.bool_)
        keep_mask[p_gid[p_keep]] = True
        pm = keep_mask[p_gid]
        rows = np.nonzero(pm)[0]
        a_g, a_t, a_tie = p_gid[rows], p_from[rows], p_order[rows]
        # pop events come straight from the consumer arrivals: a warm
        # reuse always pops from its own pool, so the consumer's gid is
        # the popped slot's gid and the consumer index is the tie
        k_cons = np.nonzero((reuse_src_arr >= 0) & keep_mask[gid])[0]
        rf = np.nonzero(pm & p_fired)[0]
        na, nr, nf = rows.size, k_cons.size, rf.size
        ne = na + nr + nf
        ev_g = np.concatenate((a_g, gid[k_cons], p_gid[rf]))
        ev_t = np.concatenate((a_t, ts[k_cons], p_xa[rf]))
        ev_ph = np.zeros(ne, np.uint8)
        ev_ph[na:na + nr] = 1  # reuse pops sort after same-time appends
        ev_tie = np.concatenate((a_tie, seq0 + k_cons, p_exp[rf]))
        eo = _event_order(ev_t, ev_ph, ev_tie)
        so = eo[_group_stable(ev_g[eo])]
        g_s = ev_g[so]
        head = np.empty(ne, np.bool_)
        head[0] = True
        np.not_equal(g_s[1:], g_s[:-1], out=head[1:])
        seg = np.nonzero(head)[0]
        seg_len = np.diff(np.append(seg, ne))
        seg_id = np.repeat(
            np.arange(seg.size, dtype=np.int64), seg_len
        )
        d_s = np.where(so < na, np.int64(1), np.int64(-1))
        run = np.cumsum(d_s)
        base = np.zeros(seg.size, np.int64)
        base[1:] = run[seg[1:] - 1]
        # latest append that found its stack empty, per pool: every
        # segment opens with a create, so the last create at or before
        # the segment's final event is the one that named the stack
        ci = np.nonzero((d_s == 1) & (run - base[seg_id] == 1))[0]
        ends = np.empty(seg.size, np.int64)
        ends[:-1] = seg[1:]
        ends[-1] = ne
        latest = ci[np.searchsorted(ci, ends) - 1]
        so_latest = so[latest]
        r0 = rows[so_latest]
        carried = p_src[r0] >= n + nb
        # carried == stack never emptied since the previous chunk: the
        # dict key predates this slab
        kt = np.where(carried, p_key_t[r0], ev_t[so_latest])
        kq = np.where(carried, p_key_q[r0], ev_tie[so_latest])
        # only surviving rows' keys are ever read, and the grouped
        # event list is ascending in gid, so a binary search maps each
        # kept row straight to its pool's segment
        krows = np.nonzero(p_keep)[0]
        kseg = np.searchsorted(g_s[seg], p_gid[krows])
        key_time[krows] = kt[kseg]
        key_tie[krows] = kq[kseg]
        return key_time, key_tie

    def _invoke_loop(
        self,
        ts: npt.NDArray[np.float64],
        workload_ids: Sequence[str],
    ) -> None:
        """Run a non-empty slab through the scalar loop: any bulk carry
        is materialised once, then each element is one row sent to the
        resident loop, the same body :meth:`invoke` uses, so errors and
        partial state are the per-element loop's by construction."""
        if self._tail is not None:
            self._materialize_tail()
        send = (self._loop or self._start_loop()).send
        try:
            for row in zip(ts.tolist(), workload_ids):
                send(row)
        except BaseException:
            self._loop = None
            raise

    def _materialize_tail(self) -> None:
        """Turn a bulk carry into ordinary heap events and node state so
        scalar traffic can interleave with it exactly."""
        tail = self._tail
        if tail is None:
            return
        self._tail = None
        heap = self._heap
        words = tail.words
        for j in range(int(tail.ends.size)):
            sandbox = _Sandbox(
                sandbox_id=j,
                workload_id=words[int(tail.codes[j])],
                memory_mb=float(tail.mem_mb[j]),
            )
            node = self.nodes[int(tail.node_idx[j])]
            heapq.heappush(
                heap,
                (
                    float(tail.ends[j]),
                    int(tail.seqs[j]),
                    "end",
                    node,
                    sandbox,
                ),
            )
        if not tail.idle_from.size:
            return
        # Warm idle sandboxes: rebuild each node's per-workload stacks
        # in the scalar loop's dict-key creation order (lru_idle
        # tie-breaks on it), each stack in append order, then put each
        # node's LRU index in idle-time order.  Each one's pending
        # deadline is also its one queued expiry event, under its
        # original sequence number, so a later reuse, eviction or
        # re-idle handles it exactly like the scalar bookkeeping.
        mo = np.lexsort((
            tail.idle_order, tail.idle_from,
            tail.idle_key_tie, tail.idle_key_time, tail.idle_node,
        ))
        for j in mo.tolist():
            node = self.nodes[int(tail.idle_node[j])]
            sandbox = _Sandbox(
                sandbox_id=-1 - j,
                workload_id=words[int(tail.idle_codes[j])],
                memory_mb=float(tail.idle_mem[j]),
                idle_since=float(tail.idle_from[j]),
                expire_at=float(tail.idle_xa[j]),
                expire_seq=int(tail.idle_seq[j]),
            )
            node.push_idle(sandbox)
            self._queue_expiry(node, sandbox, sandbox.expire_at,
                               sandbox.expire_seq)
        for b in np.unique(tail.idle_node).tolist():
            self.nodes[b].sort_lru()

    def _finish(self) -> None:
        """Turn any bulk carry into heap events, then the shared drain."""
        self._materialize_tail()
        self._drain_events()
        self._drain_telemetry(self._store.n)


# ----------------------------------------------------------------------
# streaming helpers
# ----------------------------------------------------------------------
def iter_trace_slabs(
    timestamps_s: npt.ArrayLike,
    workload_ids: Sequence[str],
    *,
    chunk_rows: int = 65_536,
) -> Iterator[tuple[npt.NDArray[np.float64], Sequence[str]]]:
    """Slice one materialised trace into bounded slabs for
    :meth:`FaaSCluster.invoke_chunked`.

    Timestamp slabs are zero-copy views; workload-id slabs are list
    slices.  Mostly useful for tests and for replaying traces that are
    already in memory -- a generator reading a trace file directly (one
    slab per read) plugs into ``invoke_chunked`` the same way without
    ever materialising the whole trace.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    ts = np.asarray(timestamps_s, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("timestamps_s must be one-dimensional")
    n = int(ts.size)
    if n != len(workload_ids):
        raise ValueError(
            f"got {n} timestamps but {len(workload_ids)} workload ids"
        )
    wids = (
        workload_ids
        if isinstance(workload_ids, list)
        else list(workload_ids)
    )
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        yield ts[lo:hi], wids[lo:hi]
