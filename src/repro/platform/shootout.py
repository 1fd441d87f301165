"""Policy shootout: every (scheduler x keep-alive x cpu-policy) cell
as a fingerprinted, cache-backed experiment.

The resource-contention scenario lab.  A :class:`ShootoutConfig` pins
one synthetic load (seeded arrivals over a workload population) and one
cluster shape; the grid is the cross product of scheduler, keep-alive,
and CPU-scheduling-policy names.  Each cell runs the array engine once
and reduces the records to a flat metrics row (cold-start fraction,
latency percentiles, CPU utilisation, preemptions, drops).

Cells are pure functions of ``(config, cell)``: the cell key is a
:func:`~repro.cache.tool_fingerprint` over both, so a
:class:`~repro.cache.ContentCache` turns a rerun of the same grid into
pure lookups -- the CI smoke job asserts a warm rerun recomputes zero
cells.  Fan-out reuses :func:`~repro.parallel.plan_shards` /
:func:`~repro.parallel.map_shards`, so results come back in grid order
regardless of worker scheduling and ``--jobs N`` output is identical to
sequential.

CLI: ``repro simulate --shootout`` (see ``repro simulate --help``);
tables land in ``benchmarks/results/`` by default.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Any

import numpy as np

from repro.cache import ContentCache, tool_fingerprint
from repro.parallel import map_shards, plan_shards
from repro.platform.cpu import CPU_POLICIES, CpuModel, make_cpu_policy
from repro.platform.keepalive import (
    FixedKeepAlive,
    HistogramKeepAlive,
    HybridHistogramKeepAlive,
    NoKeepAlive,
)
from repro.platform.metrics import cpu_utilization, summarize_columns
from repro.platform.schedulers import SCHEDULERS, make_scheduler
from repro.platform.simulator_vec import FaaSCluster, WorkloadProfile
from repro.telemetry import registry as _telemetry

__all__ = [
    "KEEPALIVE_NAMES",
    "SCHEDULER_NAMES",
    "ShootoutCell",
    "ShootoutConfig",
    "ShootoutResult",
    "cell_key",
    "grid_cells",
    "run_cell",
    "run_shootout",
    "write_tables",
]

SCHEDULER_NAMES = tuple(SCHEDULERS)
KEEPALIVE_NAMES = ("none", "fixed", "histogram", "hybrid")

#: Table columns, in output order (the stable CSV schema).
TABLE_FIELDS = (
    "scheduler", "keepalive", "cpu_policy",
    "n_invocations", "dropped", "cold_fraction",
    "latency_p50_ms", "latency_p99_ms", "latency_mean_ms",
    "queueing_ms_mean", "cpu_utilization",
    "preemptions_per_invocation", "busy_core_s", "makespan_s",
)


@dataclass(frozen=True)
class ShootoutConfig:
    """One shootout: load + cluster shape + the policy grid to sweep.

    Everything a cell needs is derived from these fields, so the config
    (plus the cell's three policy names) fingerprints the cell exactly;
    see :func:`cell_key`.
    """

    seed: int = 0
    n_requests: int = 2000
    n_workloads: int = 12
    horizon_s: float = 60.0
    n_nodes: int = 4
    node_memory_mb: float = 4096.0
    cores: int = 4
    quantum_s: float = 0.020
    keepalive_ttl_s: float = 5.0
    queue_timeout_s: float | None = None
    schedulers: tuple[str, ...] = SCHEDULER_NAMES
    keepalives: tuple[str, ...] = KEEPALIVE_NAMES
    cpu_policies: tuple[str, ...] = tuple(CPU_POLICIES)

    def __post_init__(self) -> None:
        if self.n_requests <= 0 or self.n_workloads <= 0:
            raise ValueError("n_requests and n_workloads must be positive")
        if self.horizon_s <= 0 or self.n_nodes <= 0:
            raise ValueError("horizon_s and n_nodes must be positive")
        if self.node_memory_mb <= 0:
            raise ValueError("node_memory_mb must be positive")
        if self.cores <= 0 or self.quantum_s <= 0:
            raise ValueError("cores and quantum_s must be positive")
        if self.keepalive_ttl_s < 0:
            raise ValueError("keepalive_ttl_s must be non-negative")
        for name in self.schedulers:
            if name not in SCHEDULER_NAMES:
                raise ValueError(f"unknown scheduler {name!r}")
        for name in self.keepalives:
            if name not in KEEPALIVE_NAMES:
                raise ValueError(f"unknown keepalive {name!r}")
        for name in self.cpu_policies:
            if name not in CPU_POLICIES:
                raise ValueError(f"unknown cpu policy {name!r}")


@dataclass(frozen=True)
class ShootoutCell:
    """One grid point: which scheduler, keep-alive, and CPU policy."""

    scheduler: str
    keepalive: str
    cpu_policy: str


@dataclass
class ShootoutResult:
    """One completed grid: per-cell metric rows plus cache accounting."""

    config: ShootoutConfig
    rows: list[dict[str, Any]] = field(default_factory=list)
    computed: int = 0
    cached: int = 0


def grid_cells(config: ShootoutConfig) -> list[ShootoutCell]:
    """The grid in deterministic (scheduler, keepalive, cpu) order."""
    return [
        ShootoutCell(s, k, c)
        for s, k, c in itertools.product(
            config.schedulers, config.keepalives, config.cpu_policies
        )
    ]


def cell_key(config: ShootoutConfig, cell: ShootoutCell) -> str:
    """Content address of one cell's result (code-version namespaced)."""
    return tool_fingerprint("shootout", config, cell)


def make_load(config: ShootoutConfig) -> tuple[np.ndarray, list[str]]:
    """The deterministic arrival stream every cell replays."""
    rng = np.random.default_rng(config.seed)
    ts = np.sort(rng.uniform(0.0, config.horizon_s, config.n_requests))
    names = [f"w{i}" for i in range(config.n_workloads)]
    codes = rng.integers(0, config.n_workloads, config.n_requests)
    return ts, [names[i] for i in codes.tolist()]


def make_profiles(config: ShootoutConfig) -> dict[str, WorkloadProfile]:
    rng = np.random.default_rng(config.seed + 1)
    return {
        f"w{i}": WorkloadProfile(
            f"w{i}",
            runtime_ms=float(rng.uniform(20.0, 400.0)),
            memory_mb=float(rng.choice([128.0, 256.0, 512.0])),
        )
        for i in range(config.n_workloads)
    }


@lru_cache(maxsize=1)
def _cell_inputs(
    config: ShootoutConfig,
) -> tuple[np.ndarray, tuple[str, ...], dict[str, WorkloadProfile]]:
    """The load and profiles every cell of ``config`` replays, built once
    per config per process and shared read-only: the timestamps are not
    writeable, the ids are a tuple, and each cluster copies the profile
    dict (whose profiles are frozen)."""
    ts, wids = make_load(config)
    ts.setflags(write=False)
    return ts, tuple(wids), make_profiles(config)


def _make_keepalive(name: str, ttl_s: float) -> Any:
    return {
        "none": NoKeepAlive,
        "fixed": lambda: FixedKeepAlive(ttl_s),
        "histogram": lambda: HistogramKeepAlive(
            default_ttl_s=ttl_s or 1.0, min_ttl_s=0.1,
            window=64, min_observations=4,
        ),
        "hybrid": lambda: HybridHistogramKeepAlive(
            bin_width_s=1.0, n_bins=120,
            default_ttl_s=ttl_s or 1.0, min_observations=4,
        ),
    }[name]()


def run_cell(config: ShootoutConfig, cell: ShootoutCell) -> dict[str, Any]:
    """Run one grid cell and reduce it to a flat metrics row.

    Pure in ``(config, cell)``: every policy is built from scratch, and
    the load and profiles are built once per config and shared read-only
    by its cells (:func:`_cell_inputs`), so equal inputs give byte-equal
    rows -- the property the content cache relies on.
    """
    ts, wids, profiles = _cell_inputs(config)
    cluster = FaaSCluster(
        profiles,
        n_nodes=config.n_nodes,
        node_memory_mb=config.node_memory_mb,
        keepalive=_make_keepalive(cell.keepalive, config.keepalive_ttl_s),
        scheduler=make_scheduler(cell.scheduler, config.seed),
        queue_timeout_s=config.queue_timeout_s,
        cpu=CpuModel(
            cores=config.cores,
            quantum_s=config.quantum_s,
            policy=make_cpu_policy(cell.cpu_policy, config.n_workloads),
        ),
        seed=config.seed,
    )
    cluster.invoke_many(ts, wids)
    columns = cluster.drain_columns()
    summary = summarize_columns(columns)
    cpu = cpu_utilization(columns, cores=config.cores,
                          n_nodes=config.n_nodes)
    return {
        "scheduler": cell.scheduler,
        "keepalive": cell.keepalive,
        "cpu_policy": cell.cpu_policy,
        "n_invocations": summary["n_invocations"],
        "dropped": len(cluster.dropped),
        "cold_fraction": summary["cold_fraction"],
        "latency_p50_ms": summary["latency_ms"]["p50"],
        "latency_p99_ms": summary["latency_ms"]["p99"],
        "latency_mean_ms": summary["latency_ms"]["mean"],
        "queueing_ms_mean": summary["queueing_ms_mean"],
        "cpu_utilization": cpu["utilization"],
        "preemptions_per_invocation": cpu["preemptions_per_invocation"],
        "busy_core_s": cpu["busy_core_s"],
        "makespan_s": cpu["makespan_s"],
    }


def _run_shard(
    shard: tuple[ShootoutConfig, list[ShootoutCell], str | None],
) -> list[tuple[dict[str, Any], bool]]:
    """One shard of cells; module-level so process pools can pickle it.

    Returns ``(row, was_cached)`` per cell.  Workers open their own
    cache handle on the shared directory -- concurrent same-key writes
    are safe (atomic rename), and the existence probe, not
    ``memoize``'s hit counter, is what decides ``was_cached`` so the
    accounting stays exact across processes.
    """
    config, cells, cache_dir = shard
    cache = ContentCache(cache_dir) if cache_dir is not None else None
    out: list[tuple[dict[str, Any], bool]] = []
    for cell in cells:
        if cache is None:
            out.append((run_cell(config, cell), False))
            continue
        key = cell_key(config, cell)
        was_cached = key in cache
        row = cache.memoize(key, partial(run_cell, config, cell))
        out.append((row, was_cached))
    return out


def run_shootout(
    config: ShootoutConfig,
    *,
    cache: ContentCache | None = None,
    jobs: int | None = None,
    out_dir: Path | str | None = None,
) -> ShootoutResult:
    """Run (or re-load) the full grid; optionally write result tables.

    With a cache, previously computed cells are pure lookups --
    ``result.computed`` counts only the cells that actually ran.  Rows
    come back in grid order whatever ``jobs`` is.
    """
    cells = grid_cells(config)
    cache_dir = str(cache.root) if cache is not None else None
    shards = [
        (config, cells[lo:hi], cache_dir)
        for lo, hi in plan_shards(len(cells), max_shards=8)
    ]
    result = ShootoutResult(config=config)
    for shard_rows in map_shards(_run_shard, shards, jobs=jobs):
        for row, was_cached in shard_rows:
            result.rows.append(row)
            if was_cached:
                result.cached += 1
            else:
                result.computed += 1
    reg = _telemetry.active()
    if reg is not None:
        reg.gauge("shootout_cells_total",
                  "grid cells in the last shootout").set(len(cells))
        reg.gauge("shootout_cells_computed",
                  "cells actually simulated (cache misses)"
                  ).set(result.computed)
        reg.gauge("shootout_cells_cached",
                  "cells served from the content cache"
                  ).set(result.cached)
    if out_dir is not None:
        write_tables(result, out_dir)
    return result


def write_tables(result: ShootoutResult, out_dir: Path | str) -> Path:
    """Write the per-cell table as ``shootout.csv`` under ``out_dir``.

    Columns follow ``TABLE_FIELDS``; rows keep grid order, so two runs
    of the same config produce byte-identical files.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "shootout.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(TABLE_FIELDS))
        writer.writeheader()
        for row in result.rows:
            writer.writerow({k: row[k] for k in TABLE_FIELDS})
    return path
