#!/usr/bin/env python3
"""Autoscaling study: elasticity under diurnal, representative load.

FaaSRail's thumbnails compress a whole day's load curve into the
experiment, which is exactly what a cluster autoscaler has to ride: the
morning ramp, the afternoon peak, the overnight trough.  This example
replays the same generated load against a fixed-size cluster and an
elastic one, comparing latency, cold starts, and node-hours
(the provider's bill).

Run:  python examples/autoscaling_study.py
"""

import numpy as np

from repro.core import shrink
from repro.loadgen import generate_request_trace, replay
from repro.platform import (
    CpuModel,
    FaaSCluster,
    ReactiveAutoscaler,
    ShortestFirstCpu,
    profiles_from_spec,
    summarize,
)
from repro.traces import synthetic_azure_trace
from repro.workloads import build_default_pool


def node_hours(events, horizon_s, initial_nodes):
    """Integrate node count over the experiment from scaling events."""
    t_prev, n_prev, total = 0.0, initial_nodes, 0.0
    for t, n in events:
        total += n_prev * (t - t_prev)
        t_prev, n_prev = t, n
    total += n_prev * (horizon_s - t_prev)
    return total / 3600.0


def main() -> None:
    print("generating a 2-hour FaaSRail miniature of the Azure day ...")
    azure = synthetic_azure_trace(n_functions=2000, seed=61)
    pool = build_default_pool()
    spec = shrink(azure, pool, max_rps=12.0, duration_minutes=120, seed=61)
    load = generate_request_trace(spec, seed=61)
    profiles = profiles_from_spec(spec)
    horizon = spec.duration_minutes * 60.0
    rel = spec.aggregate_per_minute / spec.aggregate_per_minute.max()
    print(f"   {load.n_requests:,} requests; load varies "
          f"{rel.min():.2f}..1.00 of peak across the experiment\n")

    results = {}
    for label, nodes, policy in (
        ("fixed-12", 12, None),
        ("fixed-4", 4, None),
        ("elastic", 4, ReactiveAutoscaler(
            min_nodes=2, max_nodes=16, target_busy_per_node=3.0,
            evaluate_every_s=30.0, scale_down_grace_s=180.0)),
    ):
        backend = FaaSCluster(
            profiles, n_nodes=nodes, node_memory_mb=8_192.0,
            cpu=CpuModel(cores=4, policy=ShortestFirstCpu()),
            autoscaler=policy,
        )
        summary = summarize(replay(load, backend).records)
        hours = (node_hours(policy.events, horizon, nodes)
                 if policy else nodes * horizon / 3600.0)
        results[label] = (summary, hours, len(backend.nodes))

    header = (f"{'cluster':<10} {'cold%':>7} {'p50 ms':>9} {'p99 ms':>10} "
              f"{'node-hours':>11} {'final nodes':>12}")
    print(header)
    print("-" * len(header))
    for label, (s, hours, final_n) in results.items():
        lat = s["latency_ms"]
        print(f"{label:<10} {100 * s['cold_fraction']:>6.2f}% "
              f"{lat['p50']:>9.1f} {lat['p99']:>10.1f} "
              f"{hours:>11.2f} {final_n:>12}")

    elastic_hours = results["elastic"][1]
    fixed_hours = results["fixed-12"][1]
    print(f"\nreading: the elastic cluster delivers latency close to the "
          f"over-provisioned\nfixed-12 cluster at "
          f"{elastic_hours / fixed_hours:.0%} of its node-hours, by riding "
          f"the diurnal curve the\nFaaSRail thumbnail preserved.  Flat "
          f"(Poisson) load would make this study\nmeaningless -- there "
          f"would be nothing to scale to.")
    assert np.isfinite(elastic_hours)


if __name__ == "__main__":
    main()
