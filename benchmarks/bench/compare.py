"""Compare two directories of benchmark result files.

``python -m benchmarks.bench compare PARENT_DIR CHANGE_DIR`` reads the
result JSON the runner wrote for each side (it runs nothing) and
reports, per workload and end-to-end metric, each side's median and
quartiles, the fraction of same-seed pairs the change wins, and a
verdict under the bound BENCHMARK.json fixes for the metric:

- ``unresolved`` -- either side's spread (quartile distance over its
  median) exceeds the bound, and not every change run beats every
  parent run;
- ``regressed`` -- the change's median is worse by more than the bound;
- ``improved`` -- every change run beats every parent run, or the
  change wins at least nine pairs in ten and its median is better by
  more than the parent's quartile distance;
- ``unchanged`` -- otherwise.

It also reports output-digest mismatches between runs of one seed and
any rise in the failed fraction.  The exit code is 1 when anything is
regressed, unresolved, mismatched, incorrect or missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class Spread:
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Iterable[float]) -> Spread:
        vals = sorted(values)
        median = statistics.median(vals)
        if len(vals) < 2:
            return cls(median, median, median)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        return cls(median, q1, q3)

    @property
    def relative(self) -> float:
        return (self.q3 - self.q1) / (abs(self.median) or 1.0)


def verdict(parent: dict[int, float], change: dict[int, float], *,
            better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, relative gain of the change, pair win fraction)``.

    Both sides map seed to value; pairs are the seeds both sides ran.
    A positive gain means the change is better.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = Spread.of(parent.values()), Spread.of(change.values())
    gain = sign * (c.median - p.median) / (abs(p.median) or 1.0)
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    win_fraction = wins / len(seeds) if seeds else 0.0
    all_better = (min(sign * v for v in change.values())
                  > max(sign * v for v in parent.values()))
    if max(p.relative, c.relative) > bound and not all_better:
        return "unresolved", gain, win_fraction
    if gain < -bound:
        return "regressed", gain, win_fraction
    if all_better or (win_fraction >= 0.9
                      and sign * (c.median - p.median) > p.q3 - p.q1):
        return "improved", gain, win_fraction
    return "unchanged", gain, win_fraction


def load_runs(directory: Path) -> list[dict[str, Any]]:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "digest" in data and "workload" in data:
            runs.append(data)
    return runs


def _failed_fraction(runs: list[dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_runs: list[dict[str, Any]],
            change_runs: list[dict[str, Any]],
            spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines, and whether anything was flagged."""
    lines: list[str] = []
    flagged = False
    sides = {"parent": parent_runs, "change": change_runs}
    for side, runs in sides.items():
        for r in runs:
            if not r["correct"]:
                lines.append(f"{side} run {r['workload']} seed {r['seed']} "
                             f"failed its output checks")
                flagged = True
    for wl in (w["name"] for w in spec["workloads"]):
        plain = {side: [r for r in runs
                        if r["workload"] == wl and not r["trace"]]
                 for side, runs in sides.items()}
        if not plain["parent"] or not plain["change"]:
            lines.append(f"{wl}: missing on "
                         + " and ".join(s for s, r in plain.items() if not r))
            flagged = True
            continue
        lines.append(f"{wl}:")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: {r["seed"]: r["metrics"][name]["value"]
                             for r in runs}
                      for side, runs in plain.items()}
            result, gain, wins = verdict(values["parent"], values["change"],
                                         better=metric["better"],
                                         bound=metric["bound"])
            p = Spread.of(values["parent"].values())
            c = Spread.of(values["change"].values())
            lines.append(
                f"  {name:<14} parent {p.median:.6g} [{p.q1:.6g}, "
                f"{p.q3:.6g}]  change {c.median:.6g} [{c.q1:.6g}, "
                f"{c.q3:.6g}] {metric['unit']}  gain {gain:+.1%}  "
                f"wins {wins:.0%}  bound {metric['bound']:.0%}  {result}"
            )
            flagged = flagged or result in ("regressed", "unresolved")
        digests: dict[int, set[str]] = {}
        for runs in sides.values():
            for r in runs:
                if r["workload"] == wl:
                    digests.setdefault(r["seed"], set()).add(r["digest"])
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                lines.append(f"  digest mismatch at seed {seed}: "
                             + ", ".join(d[:16] for d in sorted(found)))
                flagged = True
        before = _failed_fraction(plain["parent"])
        after = _failed_fraction(plain["change"])
        if after > before:
            lines.append(f"  failed fraction rose: {before:.3g} -> "
                         f"{after:.3g}")
            flagged = True
    return lines, flagged


def main(argv: list[str], spec: dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench "
                                          "compare")
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)
    lines, flagged = compare(load_runs(args.parent_dir),
                             load_runs(args.change_dir), spec)
    print("\n".join(lines))
    print("FLAGGED" if flagged else "OK: no regression, no unresolved "
          "metric, digests equal")
    return 1 if flagged else 0
