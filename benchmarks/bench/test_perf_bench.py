"""Smoke test of the repository benchmark at tiny sizes.

Every workload runs in-process, untraced and traced, on inputs small
enough for CI; the compare command runs on synthetic result files.
"""

import json

import pytest

from .cli import benchmark_spec
from .compare import main as compare_main
from .harness import measure
from .workloads import WORKLOADS

SPEC = benchmark_spec()

TINY = {
    "replay-default": {"n_functions": 300, "max_rps": 5.0,
                       "duration_minutes": 5},
    "bulk-day": {"rows": 5000, "chunk_rows": 1024},
    "shootout-grid": {"n_requests": 60},
    "service-open-loop": {"n_functions": 300, "max_rps": 5.0,
                          "duration_minutes": 5, "speed": 3000.0},
}


def test_perf_bench_workloads_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(WORKLOADS) == names
    assert list(TINY) == names


@pytest.mark.parametrize("name", list(TINY))
def test_perf_bench_workload_smoke(name, tmp_path):
    plain = measure(name, seed=3, seconds=0.0, trace=False,
                    workdir=tmp_path, setup_seconds=0.0, sizes=TINY[name])
    traced = measure(name, seed=3, seconds=0.0, trace=True,
                     workdir=tmp_path, sizes=TINY[name])
    assert plain["correct"], plain["checks"]
    assert traced["correct"], traced["checks"]
    assert plain["digest"] == traced["digest"]
    for kind, result in (("end_to_end", plain), ("per_layer", traced)):
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def _results(directory, slowdown=1.0, digest="same"):
    directory.mkdir()
    for wl in SPEC["workloads"]:
        for seed in range(10):
            base = 100.0 + 0.1 * seed
            metrics = {
                m["name"]: {
                    "value": (base * slowdown if m["better"] == "lower"
                              else base / slowdown),
                    "unit": m["unit"],
                }
                for m in SPEC["end_to_end"]
            }
            record = {"workload": wl["name"], "seed": seed, "trace": 0,
                      "correct": True, "attempted": 10, "failed": 0,
                      "metrics": metrics, "digest": f"{digest}-{seed}"}
            path = directory / f"{wl['name']}-s{seed}-t0.json"
            path.write_text(json.dumps(record))
    return str(directory)


def test_perf_bench_compare(tmp_path, capsys):
    parent = _results(tmp_path / "parent")
    assert compare_main([parent, _results(tmp_path / "same")], SPEC) == 0
    capsys.readouterr()
    assert compare_main([parent, _results(tmp_path / "slow", 1.2)],
                        SPEC) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare_main([parent, _results(tmp_path / "other",
                                          digest="other")], SPEC) == 1
    assert "digest mismatch" in capsys.readouterr().out
