"""In-process live executor: actually runs the workload bodies.

A single-node "platform" that satisfies the replayer's Backend protocol by
executing the mapped workloads' real Python/NumPy code.  The first
invocation of a workload pays payload preparation (the live analogue of a
cold start); later invocations reuse the cached payload (warm).  Useful for
small demonstrations and for validating that the pool's cost models track
reality end to end -- not meant to sustain trace-scale request rates.

For trace-scale runs the two unbounded stores are cappable: a
``record_sink`` streams each :class:`InvocationRecord` out instead of
accumulating the full list in memory, and ``max_cached_payloads`` bounds
the payload cache with LRU eviction (an evicted workload simply goes
cold again -- mirroring a platform reclaiming idle sandboxes).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.platform.metrics import InvocationRecord
from repro.workloads.base import FamilyRegistry
from repro.workloads.functionbench import default_registry
from repro.workloads.pool import WorkloadPool

__all__ = ["LiveBackend"]


@dataclass
class _CacheEntry:
    payload: object
    family_name: str


class LiveBackend:
    """Synchronously executes real workload bodies on this process.

    ``record_sink`` -- when given, every record is handed to the sink as
    it is produced and :attr:`records` stays empty (``drain`` returns
    ``[]``); memory use is then O(cache), not O(trace length).

    ``max_cached_payloads`` -- when given, at most that many prepared
    payloads stay cached; the least recently used entry is evicted to
    make room, and its workload pays a fresh cold start on its next
    invocation.
    """

    def __init__(
        self,
        pool: WorkloadPool,
        registry: FamilyRegistry | None = None,
        *,
        seed: int = 0,
        record_sink: Callable[[InvocationRecord], None] | None = None,
        max_cached_payloads: int | None = None,
    ):
        if max_cached_payloads is not None and max_cached_payloads < 1:
            raise ValueError("max_cached_payloads must be at least 1")
        self.pool = pool
        self.registry = registry if registry is not None else default_registry()
        self._rng = np.random.default_rng(seed)
        self._cache: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._max_cached = max_cached_payloads
        self._sink = record_sink
        self.records: list[InvocationRecord] = []
        self.evictions = 0

    def invoke(self, timestamp_s: float, workload_id: str) -> None:
        workload = self.pool[workload_id]
        family = self.registry.get(workload.family)
        entry = self._cache.get(workload_id)
        cold = entry is None
        t0 = time.perf_counter()  # repro: allow-wall-clock
        ok = True
        try:
            if cold:
                payload = family.prepare(self._rng, **workload.params)
                entry = _CacheEntry(payload=payload,
                                    family_name=workload.family)
                self._cache[workload_id] = entry
                if (self._max_cached is not None
                        and len(self._cache) > self._max_cached):
                    self._cache.popitem(last=False)
                    self.evictions += 1
            else:
                self._cache.move_to_end(workload_id)
            family.execute(entry.payload)
        except Exception:
            # A workload body blowing up must not abort a multi-hour
            # replay: record the failed invocation and keep going.
            ok = False
        elapsed = time.perf_counter() - t0  # repro: allow-wall-clock
        # Live runs are sequential: service begins at submission.
        record = InvocationRecord(
            workload_id=workload_id,
            node=0,
            arrival_s=timestamp_s,
            start_s=timestamp_s,
            end_s=timestamp_s + elapsed,
            cold=cold,
            ok=ok,
        )
        if self._sink is not None:
            self._sink(record)
        else:
            self.records.append(record)

    def drain(self) -> list[InvocationRecord]:
        return self.records
