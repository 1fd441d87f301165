"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``setup``
(the program under test only ever sees the generated inputs), runs one
measured operation per ``op`` call, and runs an untimed ``finish``
phase after the measured loop.  Every call checks the program's
outputs and returns a digest of them, so repetitions, traced runs and
later commits can be compared byte for byte.

Only public ``repro`` functions are called, and always through the
module or class attribute the per-layer tracer patches.
"""

from __future__ import annotations

import functools
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import core, loadgen, platform, traces
from repro import workloads as pools
from repro.cache import ContentCache, fingerprint
from repro.core import ExperimentSpec
from repro.loadgen import service
from repro.platform import shootout

# `repro replay` defaults: the cluster every replay-style workload targets.
REPLAY_NODES = 8
REPLAY_NODE_MEMORY_MB = 16_384.0
REPLAY_KEEPALIVE_TTL_S = 600.0


@dataclass
class OpResult:
    """What one operation did, and whether its outputs were right."""

    #: Units of work the throughput metric counts (requests, rows, cells).
    items: int
    #: Wall seconds of the measured part of the operation.
    timed_s: float
    digest: str
    #: Operations attempted and failed, for the result's failure count.
    attempted: int
    failed: int = 0
    #: Descriptions of failed output checks (empty: all passed).
    checks: list[str] = field(default_factory=list)
    #: Simulated statistics: model outputs, folded into the digest.
    sim: dict[str, float] = field(default_factory=dict)
    #: Informational numbers, not metrics (not in the digest).
    info: dict[str, float] = field(default_factory=dict)
    #: Per-layer values the workload measures itself.
    layer: dict[str, float] = field(default_factory=dict)


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _sim_stats(summary: dict[str, Any]) -> dict[str, float]:
    lat = summary["latency_ms"]
    return {
        "invocations": float(summary["n_invocations"]),
        "cold_fraction": summary["cold_fraction"],
        "latency_p50_ms": lat["p50"],
        "latency_p99_ms": lat["p99"],
        "queueing_ms_mean": summary["queueing_ms_mean"],
    }


def _records_fingerprint(records: list[Any]) -> str:
    """Digest of a record list, column by column."""
    return fingerprint(*(
        np.array([getattr(r, name) for r in records])
        for name in ("workload_id", "node", "arrival_s", "start_s",
                     "end_s", "cold", "ok", "preemptions")
    ))


def replay_cluster(spec: ExperimentSpec) -> Any:
    """The cluster ``repro replay`` builds with its default flags."""
    return platform.FaaSCluster(
        platform.profiles_from_spec(spec),
        n_nodes=REPLAY_NODES,
        node_memory_mb=REPLAY_NODE_MEMORY_MB,
        scheduler=platform.LeastLoadedScheduler(),
        keepalive=platform.FixedKeepAlive(REPLAY_KEEPALIVE_TTL_S),
    )


def service_backend(spec_path: str) -> Any:
    """One fresh simulator backend per service shard.

    Module-level so the service can pickle it into its worker process.
    """
    return replay_cluster(ExperimentSpec.load(spec_path))


class Workload:
    """Base: the seed, a private working directory, and the run mode."""

    name = ""

    def __init__(self, *, seed: int, workdir: Path,
                 inline: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        #: Run every process-level stage in this process (traced runs).
        self.inline = inline
        #: Informational numbers gathered during set-up.
        self.setup_info: dict[str, float] = {}

    def setup(self) -> str:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def finish(self) -> OpResult | None:
        return None


class _SpecPipeline(Workload):
    """Set-up shared by the replay-style workloads: the CLI pipeline
    ``repro shrinkray`` then ``repro generate`` on a synthetic Azure day.

    The day itself is fixed (the CLI's default seed): days differ in
    memory pressure, which changes the per-request cost several-fold, so
    a per-seed day would turn seeds into different workloads.  The seed
    drives the shrink ray's rounding and the arrival realisation.
    """

    DAY_SEED = 0

    def __init__(self, *, n_functions: int = 6000, max_rps: float = 200.0,
                 duration_minutes: int = 10, **kw: Any) -> None:
        super().__init__(**kw)
        self.n_functions = n_functions
        self.max_rps = max_rps
        self.duration_minutes = duration_minutes

    def setup(self) -> str:
        trace = traces.synthetic_azure_trace(n_functions=self.n_functions,
                                             seed=self.DAY_SEED)
        pool = pools.build_default_pool()
        t0 = time.perf_counter()
        spec = core.ShrinkRay(jobs=1).run(
            trace, pool, max_rps=self.max_rps,
            duration_minutes=self.duration_minutes, seed=self.seed,
        )
        t1 = time.perf_counter()
        requests = loadgen.generate_request_trace(spec, seed=self.seed,
                                                  jobs=1)
        t2 = time.perf_counter()
        self.spec, self.requests = spec, requests
        self.setup_info = {
            "shrinkray_s": t1 - t0,
            "generate_req_per_s": requests.n_requests / (t2 - t1),
        }
        return fingerprint(spec.to_dict(), requests.timestamps_s,
                           requests.workload_ids)


class ReplayDefault(_SpecPipeline):
    """``repro replay`` with its default flags: the scalar event loop,
    least-loaded picks and record-object materialisation."""

    name = "replay-default"

    def op(self) -> OpResult:
        n = self.requests.n_requests
        t0 = time.perf_counter()
        cluster = replay_cluster(self.spec)
        result = loadgen.replay(self.requests, cluster)
        summary = platform.summarize(result.records)
        timed = time.perf_counter() - t0
        columns = cluster.record_columns()
        failures: list[str] = []
        _check(failures, len(result.records) + len(cluster.dropped) == n,
               "records plus drops differ from requests")
        _check(failures, summary["n_invocations"] == len(columns),
               "summary and record columns disagree")
        sim = _sim_stats(summary)
        return OpResult(
            items=n, timed_s=timed, attempted=n,
            failed=len(cluster.dropped) + int(np.count_nonzero(~columns.ok)),
            digest=fingerprint(columns, sim), checks=failures, sim=sim,
        )


class BulkDay(Workload):
    """A synthetic day streamed through ``FaaSCluster.invoke_chunked``
    on roomy nodes, so the vectorised bulk path does the work."""

    name = "bulk-day"
    DAY_S = 86_400.0
    N_WORKLOADS = 200

    def __init__(self, *, rows: int = 1_000_000, chunk_rows: int = 65_536,
                 **kw: Any) -> None:
        super().__init__(**kw)
        self.rows = rows
        self.chunk_rows = chunk_rows
        self.profiles = {
            f"w{i}": platform.WorkloadProfile(
                f"w{i}",
                runtime_ms=float(20 + (i * 7) % 400),
                memory_mb=float(128 * (1 + i % 4)),
            )
            for i in range(self.N_WORKLOADS)
        }

    def setup(self) -> str:
        rng = np.random.default_rng(self.seed)
        names = list(self.profiles)
        n_chunks = -(-self.rows // self.chunk_rows)
        span = self.DAY_S / n_chunks
        slabs, codes = [], []
        for k in range(n_chunks):
            rows = min(self.chunk_rows, self.rows - k * self.chunk_rows)
            ts = np.sort(rng.uniform(k * span, (k + 1) * span, rows))
            code = rng.integers(0, self.N_WORKLOADS, rows)
            slabs.append((ts, [names[c] for c in code.tolist()]))
            codes.append(code)
        self.slabs = slabs
        return fingerprint([ts for ts, _ in slabs], codes)

    def op(self) -> OpResult:
        t0 = time.perf_counter()
        cluster = platform.FaaSCluster(
            self.profiles,
            n_nodes=8,
            node_memory_mb=float(1 << 20),
            scheduler=platform.RandomScheduler(9),
            keepalive=platform.FixedKeepAlive(120.0),
            service_time_cv=0.5,
            seed=123,
        )
        cluster.invoke_chunked(iter(self.slabs))
        columns = cluster.drain_columns()
        summary = platform.summarize_columns(columns)
        timed = time.perf_counter() - t0
        failures: list[str] = []
        _check(failures, len(columns) + len(cluster.dropped) == self.rows,
               "records plus drops differ from rows")
        sim = _sim_stats(summary)
        return OpResult(
            items=self.rows, timed_s=timed, attempted=self.rows,
            failed=len(cluster.dropped) + int(np.count_nonzero(~columns.ok)),
            digest=fingerprint(columns, sim), checks=failures, sim=sim,
        )


class ShootoutGrid(Workload):
    """The default ``repro simulate --shootout`` grid, cold against a
    fresh content cache and then warm against the same cache."""

    name = "shootout-grid"

    def __init__(self, *, n_requests: int = 2000, **kw: Any) -> None:
        super().__init__(**kw)
        self.n_requests = n_requests
        self._reps = 0

    def setup(self) -> str:
        self.config = shootout.ShootoutConfig(seed=self.seed,
                                              n_requests=self.n_requests)
        self.cells = shootout.grid_cells(self.config)
        # one cell per scheduler, so first-use costs of every policy's
        # code are paid before timing
        rows = [
            shootout.run_cell(self.config, shootout.ShootoutCell(
                name, self.config.keepalives[0],
                self.config.cpu_policies[0],
            ))
            for name in self.config.schedulers
        ]
        return fingerprint(rows)

    def op(self) -> OpResult:
        cache_dir = self.workdir / f"shootout-cache-{self._reps}"
        self._reps += 1
        cache = ContentCache(cache_dir)
        t0 = time.perf_counter()
        cold = shootout.run_shootout(self.config, cache=cache, jobs=1)
        timed = time.perf_counter() - t0
        warm = shootout.run_shootout(self.config, cache=cache, jobs=1)
        warm_s = time.perf_counter() - t0 - timed
        shutil.rmtree(cache_dir)
        n_cells = len(self.cells)
        failures: list[str] = []
        _check(failures, len(cold.rows) == n_cells,
               f"cold grid has {len(cold.rows)} rows, not {n_cells}")
        _check(failures, (cold.computed, cold.cached) == (n_cells, 0),
               f"cold grid reported ({cold.computed} computed, "
               f"{cold.cached} cached)")
        _check(failures, (warm.computed, warm.cached) == (0, n_cells),
               f"warm grid reported ({warm.computed} computed, "
               f"{warm.cached} cached)")
        _check(failures, warm.rows == cold.rows,
               "warm rows differ from cold rows")
        bad_cells = sum(
            row["dropped"] > 0
            or row["n_invocations"] + row["dropped"] != self.n_requests
            for row in cold.rows
        )
        sim = {
            "cells": float(len(cold.rows)),
            "cold_fraction_mean": float(np.mean(
                [row["cold_fraction"] for row in cold.rows])),
            "latency_p99_ms_max": float(max(
                row["latency_p99_ms"] for row in cold.rows)),
        }
        return OpResult(
            items=n_cells, timed_s=timed, attempted=2 * n_cells,
            failed=bad_cells, digest=fingerprint(cold.rows, sim),
            checks=failures, sim=sim, info={"warm_grid_s": warm_s},
        )


class ServiceOpenLoop(_SpecPipeline):
    """``repro replay --service`` with one worker: unpaced in the
    measured loop, then once paced in real time."""

    name = "service-open-loop"

    def __init__(self, *, speed: float = 240.0, **kw: Any) -> None:
        super().__init__(**kw)
        self.speed = speed

    def setup(self) -> str:
        digest = super().setup()
        self.spec_path = self.workdir / "spec.json"
        self.spec.save(self.spec_path)
        return digest

    def _run(self, speed: float, phase: str) -> tuple[Any, float]:
        config = service.ServiceConfig(
            workers=0 if self.inline else 1,
            speed=speed,
            service_timeout_s=120.0,
        )
        factory = functools.partial(service_backend,
                                    spec_path=str(self.spec_path))
        t0 = time.perf_counter()
        result = service.run_service(
            self.requests, factory,
            service_dir=self.workdir / f"service-{phase}", config=config,
        )
        return result, time.perf_counter() - t0

    def _outcome(self, result: Any, timed: float,
                 phase: str) -> OpResult:
        n = self.requests.n_requests
        cov = result.coverage
        ok = result.outcome_counts()["ok"]
        failures: list[str] = []
        _check(failures, cov.ok, f"phase {phase}: coverage incomplete")
        _check(failures, len(result.records) == n,
               f"phase {phase}: {len(result.records)} records for "
               f"{n} requests")
        sim = _sim_stats(platform.summarize(result.records))
        # an output digest, not a cache key: pacing must not change it
        # repro: allow-fingerprint
        digest = fingerprint(cov.ledger_sha256,
                             _records_fingerprint(result.records), sim)
        return OpResult(
            items=n, timed_s=timed, attempted=n,
            failed=n - ok + sum(not r.ok for r in result.records),
            digest=digest, checks=failures, sim=sim,
        )

    def op(self) -> OpResult:
        out = self._outcome(*self._run(math.inf, "a"), "a")
        self.unpaced_digest = out.digest
        return out

    def finish(self) -> OpResult:
        result, timed = self._run(self.speed, "b")
        out = self._outcome(result, timed, "b")
        # pacing moves only wall-clock sends, never the simulated outcome
        _check(out.checks, out.digest == self.unpaced_digest,
               "paced records or ledger differ from unpaced ones")
        lag = result.lag_ms
        late = result.coverage.dispatch_lag_ms["late_fraction"]
        out.layer = {
            "loadgen.service.dispatch_lag_p50_ms":
                float(np.percentile(lag, 50)),
            "loadgen.service.dispatch_lag_p99_ms":
                float(np.percentile(lag, 99)),
            "loadgen.service.dispatch_lag_p9999_ms":
                float(np.percentile(lag, 99.99)),
            "loadgen.service.dispatch_lag_max_ms": float(lag.max()),
            "loadgen.service.late_fraction": late,
        }
        out.info = {"on_time_fraction": 1.0 - late,
                    "paced_req_per_s": out.items / timed}
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ReplayDefault, BulkDay, ShootoutGrid, ServiceOpenLoop)
}
