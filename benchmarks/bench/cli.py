"""Command line: run benchmark workloads hermetically, or compare runs.

``python -m benchmarks.bench --seed N [--workload W] [--trace] [--out DIR]``
runs one workload (or all four) and prints, as the last line for each,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``python -m benchmarks.bench compare PARENT_DIR CHANGE_DIR``
compares two directories of result files; see :mod:`.compare`.

Each workload runs in a fresh child process with a fixed environment:
``PYTHONHASHSEED=0`` (the hash scheduler places requests with builtin
``hash()``), one BLAS thread, no content-cache directory, and temporary
files inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

from . import compare

#: The checkout: benchmarks/bench/ sits two levels below it.
ROOT = Path(__file__).resolve().parents[2]

#: Wall-clock limit for one workload's child process.
CHILD_TIMEOUT_S = 170.0


def benchmark_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def hermetic_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env.update({
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(workdir),
    })
    return env


def run_child(name: str, *, seed: int, seconds: float, trace: bool,
              out: Path) -> dict[str, Any] | None:
    """Run one workload in a fresh process; its result, or None."""
    workdir = ROOT / ".bench_work" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, "-m", f"{__package__}.harness",
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", str(workdir), "--result", str(result_path)]
    try:
        # own session, so a timeout can stop the service's worker too
        proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(workdir),
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"error: {name} exceeded {CHILD_TIMEOUT_S:g} s",
                  file=sys.stderr)
            return None
        if code != 0 or not result_path.is_file():
            print(f"error: {name} exited with code {code}",
                  file=sys.stderr)
            return None
        result: dict[str, Any] = json.loads(result_path.read_text())
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-s{seed}-t{int(trace)}"
        (out / f"{stem}.json").write_text(result_path.read_text())
        spans = workdir / "spans.jsonl"
        if spans.is_file():
            shutil.move(spans, out / f"{stem}.spans.jsonl")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def build_parser(spec: dict[str, Any]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench",
        description="Run the repository benchmark (subcommand 'compare' "
                    "compares two result directories).",
    )
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the same "
                             "inputs")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: all of them)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of the measured loop per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer traced run instead of the "
                             "end-to-end run")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for the per-workload result files")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = benchmark_spec()
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], spec)
    args = build_parser(spec).parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    ok = True
    for name in names:
        result = run_child(name, seed=args.seed, seconds=args.seconds,
                           trace=bool(args.trace), out=args.out)
        if result is None:
            ok = False
            continue
        ok = ok and result["correct"]
        line = {k: result[k]
                for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
    return 0 if ok else 1
