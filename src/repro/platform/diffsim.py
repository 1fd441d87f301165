"""Differential fuzzing of the simulator's bulk path and record sinks.

The equivalence suite pins a hand-picked configuration matrix; this
module closes the gap between that matrix and the full configuration
space.  It draws random ``(seed, arrival pattern, policy, fault
profile)`` tuples and runs each twice: per-request submission into
:class:`~repro.platform.simulator.ObjectFaaSCluster` (object records),
and the tuple's submission mode -- bulk, chunked, mixed or per-request
-- into :class:`~repro.platform.simulator_vec.FaaSCluster` (columnar
records).  Both classes share one scalar event loop, so what the fuzz
checks is the bulk path against that loop and the columnar store
against object records, every observable byte for byte.  On
a mismatch it *shrinks* the offending tuple -- greedily simplifying the
configuration while the mismatch persists -- and prints a one-line
reproducer that can be pasted into a regression test (see
``tests/test_simulator_fuzz.py``, which pins exactly such tuples).

Run standalone::

    python -m repro.platform.diffsim --tuples 100 --seed 7
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.platform.autoscaler import ReactiveAutoscaler
from repro.platform.cpu import CPU_POLICIES, CpuModel, make_cpu_policy
from repro.platform.faults import CrashHook
from repro.platform.keepalive import (
    FixedKeepAlive,
    HistogramKeepAlive,
    HybridHistogramKeepAlive,
    NoKeepAlive,
)
from repro.platform.schedulers import (
    SCHEDULERS as _SCHEDULER_CLASSES,
    make_scheduler,
)
from repro.platform.simulator import ObjectFaaSCluster
from repro.platform.simulator_vec import (
    FaaSCluster,
    WorkloadProfile,
    iter_trace_slabs,
)
from repro.platform.tracing import PlatformTracer

__all__ = [
    "FuzzConfig",
    "compare",
    "fuzz",
    "random_config",
    "shrink",
]

KEEPALIVES = ("none", "fixed", "histogram", "hybrid")
SCHEDULERS = tuple(_SCHEDULER_CLASSES)
BATCH_MODES = ("scalar", "bulk", "mixed", "chunked")

#: Workload memory sizes the generator draws from (MiB).
_MEMORY_CHOICES = (128.0, 256.0, 384.0, 512.0)

#: Share of :func:`random_config` draws placed inside the bulk envelope.
_BULK_SHARE = 0.25


@dataclass(frozen=True)
class FuzzConfig:
    """One differential-fuzz tuple: everything a run needs, and nothing
    else -- both engines are built and fed purely from these fields, so
    a printed config *is* the reproducer."""

    seed: int
    n_requests: int
    n_workloads: int
    horizon_s: float
    n_nodes: int
    node_memory_mb: float
    keepalive: str
    scheduler: str
    crash_rate: float
    service_time_cv: float
    queue_timeout_s: float | None
    autoscale: bool
    track_memory: bool
    quantize: bool
    batch: str
    #: TTL for ``keepalive="fixed"`` (other policies ignore it).
    keepalive_ttl: float = 1.0
    #: Slab size for ``batch="chunked"``; 0 defers to a small default.
    chunk_rows: int = 0
    #: CPU cores per node for the contention model; 0 disables it.
    cores: int = 0
    #: Scheduling timeslice for the CPU model (``cores > 0`` only).
    quantum: float = 0.02
    #: CPU scheduling policy name (``cores > 0`` only).
    cpu_policy: str = "fifo"

    def __post_init__(self) -> None:
        if self.keepalive not in KEEPALIVES:
            raise ValueError(f"unknown keepalive {self.keepalive!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.batch not in BATCH_MODES:
            raise ValueError(f"unknown batch mode {self.batch!r}")
        if self.keepalive_ttl < 0:
            raise ValueError("keepalive_ttl must be non-negative")
        if self.chunk_rows < 0:
            raise ValueError("chunk_rows must be non-negative")
        if self.cores < 0:
            raise ValueError("cores must be non-negative")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if self.cpu_policy not in CPU_POLICIES:
            raise ValueError(f"unknown cpu policy {self.cpu_policy!r}")


def random_config(rng: np.random.Generator) -> FuzzConfig:
    """Draw one configuration tuple, biased toward stress: tight memory,
    duplicate timestamps, and every policy axis in play -- except that a
    fixed share lands inside the bulk envelope, on nodes with room for
    every request at once, so the sweep commits bulk slabs too."""
    cfg = FuzzConfig(
        seed=int(rng.integers(0, 2**31)),
        n_requests=int(rng.integers(1, 400)),
        n_workloads=int(rng.integers(1, 8)),
        horizon_s=float(rng.choice([0.5, 5.0, 30.0])),
        n_nodes=int(rng.integers(1, 5)),
        # never below the largest generatable workload, so construction
        # succeeds and infeasibility shows up as queueing instead
        node_memory_mb=float(rng.choice([512.0, 1024.0, 4096.0])),
        keepalive=str(rng.choice(KEEPALIVES)),
        scheduler=str(rng.choice(SCHEDULERS)),
        crash_rate=float(rng.choice([0.0, 0.1, 0.5])),
        service_time_cv=float(rng.choice([0.0, 0.0, 0.8])),
        queue_timeout_s=(
            None if rng.random() < 0.5 else float(rng.choice([0.5, 5.0]))
        ),
        autoscale=bool(rng.random() < 0.3),
        track_memory=bool(rng.random() < 0.3),
        quantize=bool(rng.random() < 0.4),
        batch=str(rng.choice(BATCH_MODES)),
        # zero TTL is the bulk commit's degenerate case (immediate
        # teardown despite a "fixed" policy), so it gets explicit weight
        keepalive_ttl=float(rng.choice([0.0, 0.2, 1.0, 5.0])),
        chunk_rows=int(rng.choice([1, 7, 64])),
        # 0 keeps the contention model off for half the tuples so the
        # uncontended paths stay covered too
        cores=int(rng.choice([0, 0, 1, 2, 4])),
        quantum=float(rng.choice([0.005, 0.02, 0.1])),
        cpu_policy=str(rng.choice(tuple(CPU_POLICIES))),
    )
    if rng.random() < _BULK_SHARE:
        cfg = dataclasses.replace(
            cfg, scheduler="random", crash_rate=0.0, autoscale=False,
            track_memory=False, cores=0,
            keepalive=str(rng.choice(("none", "fixed"))),
            batch=str(rng.choice(("bulk", "mixed", "chunked"))),
            node_memory_mb=max(_MEMORY_CHOICES) * cfg.n_requests,
        )
    return cfg


def make_load(cfg: FuzzConfig) -> tuple[np.ndarray, list[str]]:
    """The deterministic arrival pattern a config describes.

    ``quantize`` snaps arrivals to a coarse grid, deliberately creating
    equal-timestamp collisions -- the tie-breaking cases where an order
    bug in either engine would hide under random real-valued arrivals.
    """
    rng = np.random.default_rng(cfg.seed)
    ts = np.sort(rng.uniform(0.0, cfg.horizon_s, cfg.n_requests))
    if cfg.quantize:
        step = cfg.horizon_s / 16.0
        ts = np.sort(np.round(ts / step) * step)
    wids = [
        f"w{int(i)}" for i in rng.integers(0, cfg.n_workloads,
                                           cfg.n_requests)
    ]
    return ts, wids


def make_profiles(cfg: FuzzConfig) -> dict[str, WorkloadProfile]:
    rng = np.random.default_rng(cfg.seed + 1)
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}",
            runtime_ms=float(rng.uniform(20.0, 500.0)),
            memory_mb=float(rng.choice(_MEMORY_CHOICES)),
        )
        for i in range(cfg.n_workloads)
    }


def _build_kwargs(cfg: FuzzConfig, tracer: PlatformTracer | None
                  ) -> dict[str, Any]:
    keepalive = {
        "none": NoKeepAlive,
        "fixed": lambda: FixedKeepAlive(cfg.keepalive_ttl),
        "histogram": lambda: HistogramKeepAlive(
            default_ttl_s=1.0, min_ttl_s=0.1, window=32, min_observations=4
        ),
        "hybrid": lambda: HybridHistogramKeepAlive(
            bin_width_s=0.25, n_bins=16, default_ttl_s=1.0,
            min_observations=4,
        ),
    }[cfg.keepalive]()
    scheduler = make_scheduler(cfg.scheduler, cfg.seed)
    kwargs: dict[str, Any] = dict(
        n_nodes=cfg.n_nodes,
        node_memory_mb=cfg.node_memory_mb,
        keepalive=keepalive,
        scheduler=scheduler,
        service_time_cv=cfg.service_time_cv,
        queue_timeout_s=cfg.queue_timeout_s,
        track_memory=cfg.track_memory,
        seed=cfg.seed,
        tracer=tracer,
    )
    if cfg.cores > 0:
        policy = make_cpu_policy(cfg.cpu_policy, cfg.n_workloads)
        kwargs["cpu"] = CpuModel(
            cores=cfg.cores, quantum_s=cfg.quantum, policy=policy
        )
    if cfg.crash_rate > 0.0:
        kwargs["fault_hook"] = CrashHook(cfg.crash_rate, seed=cfg.seed)
    if cfg.autoscale:
        kwargs["autoscaler"] = ReactiveAutoscaler(
            min_nodes=1,
            max_nodes=6,
            target_busy_per_node=2.0,
            evaluate_every_s=max(cfg.horizon_s / 16.0, 0.05),
            scale_down_grace_s=cfg.horizon_s / 8.0,
        )
    return kwargs


def run_once(cls: type, cfg: FuzzConfig) -> dict[str, Any]:
    """One engine run; every observable folded into a comparable dict.

    Exceptions are observables too: both engines must raise the same
    error at the same request, so a raising run records the exception
    and whatever state the engine left behind.
    """
    ts, wids = make_load(cfg)
    # tracers participate only on the scalar path: attaching one
    # disables the bulk fast path by design, which the bulk/mixed modes
    # exist to exercise
    tracer = PlatformTracer() if cfg.batch == "scalar" else None
    cluster = cls(make_profiles(cfg), **_build_kwargs(cfg, tracer))
    error: tuple[str, str] | None = None
    try:
        if cls is FaaSCluster and cfg.batch == "bulk":
            cluster.invoke_many(ts, wids)
        elif cls is FaaSCluster and cfg.batch == "chunked":
            cluster.invoke_chunked(
                iter_trace_slabs(
                    ts, wids, chunk_rows=cfg.chunk_rows or 16
                )
            )
        elif cls is FaaSCluster and cfg.batch == "mixed":
            half = len(wids) // 2
            cluster.invoke_many(ts[:half], wids[:half])
            for t, w in zip(ts[half:].tolist(), wids[half:]):
                cluster.invoke(t, w)
        else:
            for t, w in zip(ts.tolist(), wids):
                cluster.invoke(t, w)
        cluster.drain()
    except Exception as exc:  # noqa: BLE001 - the exception IS the data
        error = (type(exc).__name__, str(exc))
    return {
        "error": error,
        "records": tuple(cluster.records),
        "clock": cluster.clock_s,
        "dropped": tuple(cluster.dropped),
        "memory_samples": tuple(cluster.memory_samples),
        "n_nodes": len(cluster.nodes),
        "node_state": tuple(
            (n.node_id, n.used_memory_mb, n.busy_count, n.idle_count,
             n.cpu_weight)
            for n in cluster.nodes
        ),
        "trace": tuple(tracer.events) if tracer is not None else (),
    }


def compare(cfg: FuzzConfig) -> str | None:
    """Run both engines on one tuple; a string names the first diverging
    observable, None means byte-identical."""
    ref = run_once(ObjectFaaSCluster, cfg)
    vec = run_once(FaaSCluster, cfg)
    for key in ref:
        if ref[key] != vec[key]:
            return (
                f"{key} diverges: object engine {_excerpt(ref[key])} "
                f"vs array engine {_excerpt(vec[key])}"
            )
    return None


def _excerpt(value: Any, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------
def _candidates(cfg: FuzzConfig) -> list[FuzzConfig]:
    """Simplification steps, most aggressive first."""
    out = []

    def alt(**changes: Any) -> None:
        cand = dataclasses.replace(cfg, **changes)
        if cand != cfg:
            out.append(cand)

    if cfg.n_requests > 1:
        alt(n_requests=cfg.n_requests // 2)
        alt(n_requests=cfg.n_requests - 1)
    if cfg.n_workloads > 1:
        alt(n_workloads=max(1, cfg.n_workloads // 2))
    alt(crash_rate=0.0)
    alt(service_time_cv=0.0)
    alt(autoscale=False)
    alt(track_memory=False)
    alt(quantize=False)
    alt(queue_timeout_s=None)
    alt(scheduler="least-loaded")
    alt(keepalive="none")
    if cfg.n_nodes > 1:
        alt(n_nodes=1)
    if cfg.keepalive == "fixed":
        alt(keepalive_ttl=1.0)  # alt() drops the no-op candidate
    if cfg.cores > 0:
        alt(cores=0)
    # offered even at cores=0: a non-default policy name on a disabled
    # model is pure noise in the printed reproducer
    alt(cpu_policy="fifo")
    if cfg.batch == "chunked":
        # a chunk-boundary bug often survives with bigger chunks, and a
        # non-chunked mode is simpler still
        if 0 < cfg.chunk_rows < 64:
            alt(chunk_rows=cfg.chunk_rows * 2)
        alt(batch="bulk")
    alt(batch="scalar")
    return out


def shrink(
    cfg: FuzzConfig,
    still_fails: Callable[[FuzzConfig], bool] | None = None,
    max_rounds: int = 64,
) -> FuzzConfig:
    """Greedily simplify a mismatching tuple while it keeps mismatching.

    ``still_fails`` defaults to "``compare`` still reports a mismatch";
    it is injectable so the shrinker itself is testable against
    synthetic failure predicates.
    """
    if still_fails is None:
        still_fails = lambda c: compare(c) is not None  # noqa: E731
    for _ in range(max_rounds):
        for cand in _candidates(cfg):
            try:
                failed = still_fails(cand)
            except Exception:  # noqa: BLE001 - a broken candidate is
                failed = False  # not a simpler reproducer
            if failed:
                cfg = cand
                break
        else:
            return cfg  # no candidate preserved the failure: minimal
    return cfg


def format_reproducer(cfg: FuzzConfig, mismatch: str) -> str:
    fields = ", ".join(
        f"{f.name}={getattr(cfg, f.name)!r}"
        for f in dataclasses.fields(cfg)
    )
    return (
        f"simulator engines diverge: {mismatch}\n"
        f"shrunk reproducer (pin it in tests/test_simulator_fuzz.py):\n"
        f"    FuzzConfig({fields})"
    )


def fuzz(n_tuples: int = 50, seed: int = 0,
         verbose: bool = False) -> list[tuple[FuzzConfig, str]]:
    """Run the differential fuzzer; returns (shrunk config, mismatch)
    pairs, empty when the engines agreed on every tuple."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n_tuples):
        cfg = random_config(rng)
        mismatch = compare(cfg)
        if verbose:
            print(f"[{i + 1:4d}/{n_tuples}] "
                  f"{'MISMATCH' if mismatch else 'ok'} {cfg}")
        if mismatch is not None:
            small = shrink(cfg)
            failures.append((small, compare(small) or mismatch))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fuzz of the two simulator engines"
    )
    parser.add_argument("--tuples", type=int, default=50,
                        help="number of random configurations to try")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the configuration generator")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per tuple")
    args = parser.parse_args(argv)
    failures = fuzz(args.tuples, args.seed, verbose=args.verbose)
    if not failures:
        print(f"OK: engines byte-identical on {args.tuples} random "
              f"configurations (seed {args.seed})")
        return 0
    for cfg, mismatch in failures:
        print(format_reproducer(cfg, mismatch))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
