"""Measure one workload in this process and assemble its result.

Run as ``python -m benchmarks.bench.harness`` by the hermetic runner in
:mod:`.cli`, which owns the process environment; the smoke test calls
:func:`measure` directly with tiny sizes.

An untraced run sets up several times (``setup_s`` is the median),
repeats the measured operation until ``seconds`` have passed, then runs
the workload's untimed finish phase.  A traced run sets up once, times
the same untraced loop as its overhead baseline, and then runs one more
operation and the finish phase with the per-layer wrappers installed.

Shared hosts are noisy in two ways, and the harness handles both:

- bursts: a neighbour slows single repetitions by up to half.  The
  throughput comes from the lower quartile of repetition times, which
  bursts in fewer than three repetitions in four cannot move;
- drift: the same run can be a third slower ten minutes later.  Before
  every set-up and repetition the harness times a fixed reference loop
  (the three kinds of work the workloads do), and rescales times to a
  host on which that loop takes ``REFERENCE_S``.

The unscaled values stay in the result's ``info``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform as host_platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.cache import fingerprint

from .tracing import Tracer
from .workloads import WORKLOADS, OpResult

#: An untraced run sets up at least this many times, and until
#: ``SETUP_SECONDS`` have passed.
SETUP_REPS = 3
SETUP_SECONDS = 2.0

#: Reference-loop samples taken before each set-up and repetition.
REFERENCE_SAMPLES = 3

#: Lower-quartile reference-loop time on the host the README's numbers
#: come from; time metrics are rescaled to a host of this speed.
REFERENCE_S = 0.035

#: End-to-end metric units, as BENCHMARK.json declares them.
E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def lower_quartile(values: list[float]) -> float:
    return float(np.percentile(values, 25))


def peak_rss_mib() -> float:
    """Peak resident set of this process or any finished child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def reference_seconds(small: np.ndarray, big: np.ndarray) -> float:
    """Time one fixed unit of reference work: interpreter work,
    cache-resident NumPy work and memory-bound NumPy work, the three
    kinds of work the workloads do."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(100_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    np.sort(small)
    np.argsort(big[::7])
    big.sum()
    return time.perf_counter() - t0


def host_facts() -> dict[str, Any]:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    env = ("PYTHONHASHSEED", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
           "MKL_NUM_THREADS", "REPRO_CACHE_DIR")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or host_platform.machine(),
        "python": host_platform.python_version(),
        "numpy": np.__version__,
        "env": {name: os.environ.get(name) for name in env},
    }


def measure(name: str, *, seed: int, seconds: float, trace: bool,
            workdir: Path, setup_seconds: float = SETUP_SECONDS,
            sizes: dict[str, Any] | None = None) -> dict[str, Any]:
    """Run one workload and return its result record."""
    workload = WORKLOADS[name](seed=seed, workdir=workdir, inline=trace,
                               **(sizes or {}))
    tracer = Tracer(f"{name}:{seed}") if trace else None

    def traced() -> contextlib.AbstractContextManager[Any]:
        return tracer.installed() if tracer else contextlib.nullcontext()

    rng = np.random.default_rng(0)
    small, big = rng.random(200_000), rng.random(4_000_000)
    reference: list[float] = []

    def calibrate() -> None:
        reference.extend(reference_seconds(small, big)
                         for _ in range(REFERENCE_SAMPLES))

    checks: list[str] = []
    setup_s: list[float] = []
    setup_info: list[dict[str, float]] = []
    setup_digest = None
    min_setups, setup_window = (1, 0.0) if trace else (SETUP_REPS,
                                                       setup_seconds)
    start = time.perf_counter()
    while (len(setup_s) < min_setups
           or time.perf_counter() - start < setup_window):
        calibrate()
        gc.collect()
        with traced():
            t0 = time.perf_counter()
            digest = workload.setup()
            setup_s.append(time.perf_counter() - t0)
        setup_info.append(workload.setup_info)
        if setup_digest is None:
            setup_digest = digest
        elif digest != setup_digest:
            checks.append("set-up output differs between repetitions")

    ops: list[OpResult] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        calibrate()
        # each repetition starts from the same collector state
        gc.collect()
        ops.append(workload.op())
    baseline_s = lower_quartile([op.timed_s for op in ops])
    if tracer is not None:
        gc.collect()
        with tracer.installed():
            ops.append(workload.op())
    with traced():
        finish = workload.finish()
    phases = ops + ([finish] if finish is not None else [])

    for op in ops[1:]:
        if op.digest != ops[0].digest:
            checks.append("operation output differs between repetitions"
                          + (" (traced vs untraced)" if trace else ""))
            break
    for phase in phases:
        checks.extend(phase.checks)
    failed = sum(phase.failed for phase in phases) + len(checks)

    if tracer is not None:
        overhead = 100.0 * (ops[-1].timed_s - baseline_s) / baseline_s
        layer = tracer.layer_metrics(finish.layer if finish else {},
                                     overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.write_spans(workdir / "spans.jsonl")
    else:
        scale = REFERENCE_S / lower_quartile(reference)
        values = {
            "ops_per_s": ops[0].items / (baseline_s * scale),
            "setup_s": statistics.median(setup_s) * scale,
            "peak_rss_mib": peak_rss_mib(),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    info = {key: statistics.median(rep[key] for rep in setup_info)
            for key in setup_info[0]}
    for key in dict.fromkeys(k for phase in phases for k in phase.info):
        info[key] = statistics.median(phase.info[key] for phase in phases
                                      if key in phase.info)
    # an output digest, not a cache key: run length must not change it
    # repro: allow-fingerprint
    digest = fingerprint(setup_digest, ops[0].digest,
                         finish.digest if finish else "")
    info.update({
        "reference_s": lower_quartile(reference),
        "raw_ops_per_s": ops[0].items / baseline_s,
        "raw_setup_s": statistics.median(setup_s),
    })
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": not checks and failed == 0,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": failed,
        "metrics": metrics,
        "digest": digest,
        "checks": checks,
        "reps": len(ops) - int(trace),
        "setup_reps": len(setup_s),
        "op_times_s": [op.timed_s for op in ops],
        "setup_times_s": setup_s,
        "sim": ops[0].sim,
        "info": info,
        "host": host_facts(),
    }


def describe(result: dict[str, Any]) -> str:
    """Human-readable report of a result record."""
    lines = [f"[{result['workload']}] seed {result['seed']}, "
             f"{result['reps']} reps, {result['setup_reps']} set-ups"
             + (", traced" if result["trace"] else "")]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for section in ("sim", "info"):
        for name, value in result[section].items():
            lines.append(f"  {section}.{name:<39} {value:>14.6g}")
    lines.append(f"  digest {result['digest'][:16]}  attempted "
                 f"{result['attempted']}  failed {result['failed']}")
    lines.extend(f"  CHECK FAILED: {c}" for c in result["checks"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.bench.harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), workdir=args.workdir)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    print(describe(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
