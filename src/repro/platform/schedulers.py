"""Cluster-level request schedulers.

The pluggable "which node serves this request" policies the scheduling
examples exercise under FaaSRail load:

- :class:`RandomScheduler` -- uniform random spraying;
- :class:`LeastLoadedScheduler` -- fewest in-flight invocations;
- :class:`HashAffinityScheduler` -- workload-sticky placement (maximises
  warm-sandbox reuse, risks imbalance under skewed popularity -- exactly
  the tension the paper's cluster-level discussion highlights).

:data:`SCHEDULERS` maps every built-in scheduler's name to its class;
:func:`make_scheduler` builds one by name.
"""

from __future__ import annotations

import itertools
import zlib
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.platform.simcore import Node

__all__ = [
    "SCHEDULERS",
    "HashAffinityScheduler",
    "LeastLoadedScheduler",
    "LocalityAwareScheduler",
    "PowerOfTwoScheduler",
    "RandomScheduler",
    "make_scheduler",
]


class RandomScheduler:
    """Uniformly random node choice."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int:
        del workload_id
        return int(self._rng.integers(0, len(nodes)))

    def pick_many(
        self, nodes: Sequence[Node], workload_ids: Sequence[str]
    ) -> npt.NDArray[np.int64]:
        """Batched :meth:`pick` for the array engine's bulk path.

        One draw per request, bitwise stream-equal to sequential
        ``pick`` calls (``Generator.integers`` consumes the stream
        identically whether sized or scalar -- pinned by the simulator
        property suite), so bulk and scalar submission see identical
        placements.
        """
        return np.asarray(
            self._rng.integers(0, len(nodes), size=len(workload_ids)),
            dtype=np.int64,
        )

    def snapshot(self) -> Any:
        """Opaque RNG state, to rewind a speculative batched pick."""
        return self._rng.bit_generator.state

    def restore(self, state: Any) -> None:
        """Rewind to a :meth:`snapshot` (the array engine calls this
        when a speculative bulk batch must fall back to scalar picks)."""
        self._rng.bit_generator.state = state


class LeastLoadedScheduler:
    """Node with the fewest busy sandboxes (ties to the lowest index)."""

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int:
        del workload_id
        # ``index`` finds the first minimum: ties go to the lowest index
        loads = [n.busy_count for n in nodes]
        return loads.index(min(loads))


#: Raw 32-bit outputs :class:`PowerOfTwoScheduler` draws per block.
_BLOCK = 1024


def _bounded(u32: Iterator[int], k: int) -> int:
    """Lemire's bounded draw on ``[0, k)`` from raw 32-bit outputs --
    NumPy's ``bounded_lemire_uint32``, so the same outputs give the
    same value and rejections consume the same extra outputs."""
    m = next(u32) * k
    if (m & 0xFFFFFFFF) < k:
        threshold = 0x100000000 % k
        while (m & 0xFFFFFFFF) < threshold:
            m = next(u32) * k
    return m >> 32


class PowerOfTwoScheduler:
    """Power-of-two-choices: probe two random nodes, take the less busy.

    The classic randomized load-balancing result: two random probes give
    near-least-loaded balance at O(1) cost, without the full-cluster scan
    ``LeastLoadedScheduler`` implies (which is what makes it attractive to
    the cluster-scheduler literature the paper's section 2.2 surveys).

    The probed pair is exactly ``Generator.choice(n, 2, replace=False)``
    on the seeded stream, ties going to the first, but is drawn from a
    private block of raw 32-bit outputs instead: Floyd's sampling (a
    draw on ``[0, n-2]``, then one on ``[0, n-1]`` that becomes ``n-1``
    if it repeats the first) and the shuffle of the pair (a draw on
    ``[0, 1]``; 0 swaps) each use Lemire's bounded draw, as ``choice``
    does.  A one-value range consumes no output, and one node is picked
    without drawing.  Drawing ahead in blocks is safe because the
    generator is private and read nowhere else.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._u32: Iterator[int] = itertools.chain.from_iterable(
            iter(self._block, None)
        )

    def _block(self) -> list[int]:
        block: list[int] = self._rng.integers(
            0, 2**32, size=_BLOCK, dtype=np.uint32
        ).tolist()
        return block

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int:
        del workload_id
        n = len(nodes)
        if n == 1:
            return 0
        u32 = self._u32
        a = _bounded(u32, n - 1) if n > 2 else 0
        b = _bounded(u32, n)
        if b == a:
            b = n - 1
        if not _bounded(u32, 2):
            a, b = b, a
        return a if nodes[a].busy_count <= nodes[b].busy_count else b


class LocalityAwareScheduler:
    """Prefer nodes already holding a warm sandbox for the workload.

    A Palette-style locality hint (paper's cluster-level references):
    route to the least-busy node with a warm sandbox for this workload;
    when none exists, fall back to the globally least-busy node.  Warm
    reuse rises without hash affinity's hot-node pathology -- at the cost
    of inspecting per-node sandbox state.
    """

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int:
        warm = [k for k, n in enumerate(nodes)
                if workload_id in n.idle]
        candidates = warm if warm else range(len(nodes))
        return int(min(candidates, key=lambda k: nodes[k].busy_count))


class HashAffinityScheduler:
    """Deterministic workload-to-node stickiness with bounded spill.

    The home node is the CRC-32 of the workload id modulo the node count
    -- stable across processes, unlike the builtin ``hash()``, which
    Python salts per process; if the home node is heavily loaded the
    request spills to the next node in hash order (bounded linear
    probing), trading some affinity for load spreading.
    """

    def __init__(self, spill_threshold: int = 8) -> None:
        if spill_threshold <= 0:
            raise ValueError("spill_threshold must be positive")
        self._spill = spill_threshold

    def pick(self, nodes: Sequence[Node], workload_id: str) -> int:
        n = len(nodes)
        home = zlib.crc32(workload_id.encode()) % n
        for probe in range(n):
            k = (home + probe) % n
            if nodes[k].busy_count < self._spill:
                return k
        return home

    def pick_many(
        self, nodes: Sequence[Node], workload_ids: Sequence[str]
    ) -> npt.NDArray[np.int64]:
        """Every request's home node, ignoring the spill threshold.

        Equal to sequential :meth:`pick` calls only while no home node
        is at the threshold.  No engine calls it: the array engine's
        bulk path admits only :class:`RandomScheduler`.
        """
        n = len(nodes)
        return np.fromiter(
            (zlib.crc32(w.encode()) % n for w in workload_ids),
            dtype=np.int64,
            count=len(workload_ids),
        )


#: Name -> class of every built-in scheduler, in the fixed order the
#: shootout grid and the differential fuzzer enumerate them.
SCHEDULERS: dict[str, type] = {
    "least-loaded": LeastLoadedScheduler,
    "random": RandomScheduler,
    "power-of-two": PowerOfTwoScheduler,
    "locality": LocalityAwareScheduler,
    "hash": HashAffinityScheduler,
}

_SEEDED = (RandomScheduler, PowerOfTwoScheduler)


def make_scheduler(name: str, seed: int = 0) -> Any:
    """A fresh scheduler by :data:`SCHEDULERS` name; the randomised
    ones draw from ``seed``.  Raises ``KeyError`` on an unknown name."""
    cls = SCHEDULERS[name]
    return cls(seed=seed) if cls in _SEEDED else cls()
