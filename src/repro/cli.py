"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror the paper's workflow:

- ``shrinkray`` -- run the offline pipeline, write an experiment spec;
- ``generate``  -- realise a spec into a timestamped request CSV;
- ``replay``    -- drive generated load through the cluster simulator;
- ``figures``   -- rebuild any evaluation figure's data and print it;
- ``calibrate`` -- re-fit a workload family's cost model on this host.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def _load_trace(source: str, n_functions: int, seed: int, cache=None):
    from repro.traces import (
        load_azure_day,
        memoized_trace,
        synthetic_azure_trace,
        synthetic_huawei_public_trace,
        synthetic_huawei_trace,
    )

    if source == "azure":
        return memoized_trace(
            lambda: synthetic_azure_trace(n_functions=n_functions,
                                          seed=seed),
            cache, "azure", n_functions, seed,
        )
    if source == "huawei":
        return memoized_trace(
            lambda: synthetic_huawei_trace(seed=seed),
            cache, "huawei", seed,
        )
    if source == "huawei-public":
        return memoized_trace(
            lambda: synthetic_huawei_public_trace(n_functions=n_functions,
                                                  seed=seed),
            cache, "huawei-public", n_functions, seed,
        )
    path = Path(source)
    if path.is_dir():
        return load_azure_day(path)
    if path.exists():
        raise SystemExit(
            f"trace path {source!r} is not a directory of Azure-layout "
            "CSVs (expected a directory, found a file)"
        )
    if any(sep in source for sep in ("/", "\\")) or path.suffix:
        raise SystemExit(f"trace path {source!r} does not exist")
    raise SystemExit(
        f"unknown trace source {source!r}: expected 'azure', 'huawei', "
        "'huawei-public', or a directory of Azure-layout CSVs"
    )


def _resolve_cache(args):
    from repro.cache import resolve_cache

    return resolve_cache(getattr(args, "cache_dir", None),
                         getattr(args, "no_cache", False))


def _load_streaming_summary(args, cache=None):
    """Ingest the trace source as a bounded-memory streaming summary.

    A directory of Azure-layout CSVs streams straight off disk in
    ``--chunk-rows`` blocks; synthetic sources are generated and then
    folded through the same chunked path (useful for exercising the
    streaming pipeline without the real dataset).
    """
    from repro.traces import stream_azure_day, summarize_trace

    if args.chunk_rows < 1:
        raise SystemExit("--chunk-rows must be at least 1")
    path = Path(args.trace)
    if path.is_dir():
        return stream_azure_day(path, chunk_rows=args.chunk_rows,
                                jobs=args.jobs)
    trace = _load_trace(args.trace, args.functions, args.seed, cache=cache)
    return summarize_trace(trace, chunk_rows=args.chunk_rows,
                           jobs=args.jobs)


def _setup_telemetry(args, spec):
    """(registry, drift monitor) per the telemetry flags; (None, None) off.

    Any of ``--telemetry`` / ``--drift-band`` switches collection on; the
    drift monitor tracks the spec's invocation-duration CDF.
    """
    telemetry_path = getattr(args, "telemetry", None)
    band = getattr(args, "drift_band", None)
    if telemetry_path is None and band is None:
        return None, None
    from repro.telemetry import DriftMonitor, MetricsRegistry

    registry = MetricsRegistry()
    drift = None
    if band is not None:
        if not band > 0:
            raise SystemExit("--drift-band must be positive")
        drift = DriftMonitor(spec.invocation_duration_cdf(), band=band)
    return registry, drift


def _scoped_telemetry(registry):
    """Activation context: the registry's scope, or a no-op when off."""
    if registry is None:
        import contextlib

        return contextlib.nullcontext()
    from repro.telemetry import use

    return use(registry)


def _finish_telemetry(args, registry, drift=None) -> None:
    """Report drift, write the snapshot file, print the console digest."""
    from repro.telemetry import console_summary, write_jsonl, write_prometheus

    if drift is not None:
        s = drift.summary()
        print(f"drift monitor: {s['n_windows']} windows over "
              f"{s['n_observed']} samples, max KS "
              f"{s['max_ks']:.4f} (band {s['band']:g}), "
              f"{s['n_warnings']} warnings")
    if args.telemetry is not None:
        writer = (write_prometheus if args.telemetry_format == "prom"
                  else write_jsonl)
        writer(registry, args.telemetry)
        print(f"wrote telemetry snapshot to {args.telemetry}")
    print(console_summary(registry))


def _cmd_shrinkray(args) -> int:
    from repro.core import ShrinkRay
    from repro.workloads import build_default_pool

    cache = _resolve_cache(args)
    registry = None
    if args.telemetry is not None:
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
    with _scoped_telemetry(registry):
        if args.streaming:
            trace = _load_streaming_summary(args, cache=cache)
        else:
            trace = _load_trace(args.trace, args.functions, args.seed,
                                cache=cache)
        pool = build_default_pool()
        spec = ShrinkRay(
            error_threshold_pct=args.threshold,
            time_mode=args.time_mode,
            range_start_minute=args.range_start,
            jobs=args.jobs,
        ).run(
            trace, pool,
            max_rps=args.max_rps,
            duration_minutes=args.duration,
            seed=args.seed,
            cache=cache,
        )
    spec.save(args.out)
    print(
        f"wrote {args.out}: {spec.n_functions} functions, "
        f"{spec.total_requests} requests over {spec.duration_minutes} min "
        f"(busiest minute {spec.busiest_minute_rate}/min)"
    )
    if registry is not None:
        _finish_telemetry(args, registry)
    return 0


def _cmd_generate(args) -> int:
    from repro.core import ExperimentSpec
    from repro.loadgen import (
        generate_request_trace,
        save_request_trace_csv,
        save_request_trace_npz,
    )

    spec = ExperimentSpec.load(args.spec)
    registry, drift = _setup_telemetry(args, spec)
    with _scoped_telemetry(registry):
        trace = generate_request_trace(
            spec, seed=args.seed, arrival_mode=args.arrival_mode,
            jobs=args.jobs, cache=_resolve_cache(args),
        )
        if drift is not None:
            drift.observe_many(trace.runtimes_ms, trace.timestamps_s)
            drift.flush()
    if str(args.out).endswith(".npz"):
        save_request_trace_npz(trace, args.out)
    else:
        save_request_trace_csv(trace, args.out)
    print(f"wrote {args.out}: {trace.n_requests} requests, "
          f"{trace.duration_s:.0f}s horizon")
    if registry is not None:
        _finish_telemetry(args, registry, drift)
    return 0


def _replay_keepalive(name, ttl_s):
    """The ``repro replay --keepalive`` policy called ``name``."""
    from repro.platform import FixedKeepAlive, HistogramKeepAlive, NoKeepAlive

    return {
        "none": NoKeepAlive,
        "fixed": lambda: FixedKeepAlive(ttl_s),
        "histogram": HistogramKeepAlive,
    }[name]()


def _sim_backend(spec, profile, *, nodes, node_memory, scheduler_name,
                 keepalive_name, keepalive_ttl, seed):
    """The ``repro replay`` simulator backend for ``spec``.

    With a fault ``profile``, the cluster gets its simulator-side hook
    and is wrapped in a :class:`~repro.platform.FaultyBackend` for the
    client-side faults.
    """
    from repro.platform import FaaSCluster, FaultyBackend, profiles_from_spec
    from repro.platform.schedulers import make_scheduler

    backend = FaaSCluster(
        profiles_from_spec(spec),
        n_nodes=nodes,
        node_memory_mb=node_memory,
        scheduler=make_scheduler(scheduler_name, seed),
        keepalive=_replay_keepalive(keepalive_name, keepalive_ttl),
        fault_hook=(profile.simulator_hook()
                    if profile is not None else None),
    )
    if profile is not None:
        backend = FaultyBackend(backend, profile)
    return backend


def _sim_backend_factory(spec, nodes, node_memory, scheduler_name,
                         keepalive_name, keepalive_ttl, seed,
                         error_rate):
    """Build one fresh simulator backend inside a service worker.

    Module-level (and driven through ``functools.partial`` over the
    parsed spec and plain values) so the factory pickles cleanly into
    spawned processes; the spec is parsed once, by the parent.
    """
    from repro.platform import FaultProfile

    profile = None
    if error_rate is not None:
        profile = FaultProfile()
        profile.error_rate = error_rate
    return _sim_backend(
        spec, profile, nodes=nodes,
        node_memory=node_memory, scheduler_name=scheduler_name,
        keepalive_name=keepalive_name, keepalive_ttl=keepalive_ttl,
        seed=seed,
    )


def _http_backend_factory(base_url, timeout_s):
    from repro.platform import HTTPBackend

    return HTTPBackend(base_url, timeout_s=timeout_s)


def _cmd_replay_service(args, spec, registry, drift, retry) -> int:
    """The ``--service`` branch: supervised multi-process open loop."""
    import functools
    import math

    from repro.loadgen import generate_request_trace
    from repro.loadgen.service import (
        BreakerSpec,
        ServiceConfig,
        ServiceFaultPlan,
        run_service,
    )
    from repro.platform import summarize

    if args.target_url is not None:
        factory = functools.partial(
            _http_backend_factory, base_url=args.target_url,
            timeout_s=args.http_timeout,
        )
    else:
        factory = functools.partial(
            _sim_backend_factory, spec=spec, nodes=args.nodes,
            node_memory=args.node_memory, scheduler_name=args.scheduler,
            keepalive_name=args.keepalive,
            keepalive_ttl=args.keepalive_ttl, seed=args.seed,
            error_rate=args.error_rate,
        )
    breaker_spec = BreakerSpec(
        failure_threshold=args.breaker_threshold,
        reset_timeout_s=args.breaker_reset,
    ) if args.breaker else None
    # Simulator-side error injection happens inside the worker's
    # backend factory; the service-level keyed plan covers backends
    # without their own fault hooks (HTTP targets).
    fault_plan = None
    if args.error_rate is not None and args.target_url is not None:
        fault_plan = ServiceFaultPlan(error_rate=args.error_rate,
                                      seed=args.seed)
    config = ServiceConfig(
        workers=args.workers,
        speed=(math.inf if args.speed is None else args.speed),
        max_lag_s=args.max_lag,
        checkpoint_every=args.checkpoint_every,
        heartbeat_timeout_s=args.heartbeat_timeout,
        service_timeout_s=args.service_timeout,
    )
    with _scoped_telemetry(registry):
        trace = generate_request_trace(spec, seed=args.seed,
                                       arrival_mode=args.arrival_mode)
        if drift is not None:
            drift.observe_many(trace.runtimes_ms, trace.timestamps_s)
            drift.flush()
        result = run_service(
            trace, factory,
            service_dir=args.service_dir,
            config=config,
            retry=retry,
            breaker=breaker_spec,
            fault_plan=fault_plan,
            resume=args.resume,
        )
    cov = result.coverage
    print(f"service replay: {cov.n_scheduled} requests over "
          f"{cov.n_shards} shards / {cov.n_workers} workers in "
          f"{result.wall_clock_s:.2f}s")
    print(f"  coverage            : "
          f"{'complete' if cov.ok else 'INCOMPLETE'} "
          f"(ledger {cov.ledger_sha256[:16]})")
    counts = result.outcome_counts()
    shown = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
    print(f"  request outcomes    : {shown}")
    if cov.restarts or cov.heartbeat_misses:
        print(f"  supervision         : {cov.restarts} restarts, "
              f"{cov.heartbeat_misses} heartbeat misses")
    if cov.shed_overload or cov.shed_breaker:
        print(f"  shed                : {cov.shed_overload} overload, "
              f"{cov.shed_breaker} breaker")
    if cov.dispatch_lag_ms["max"] > 0:
        lag = cov.dispatch_lag_ms
        print(f"  dispatch lag        : mean {lag['mean']:.2f} ms, "
              f"p99 {lag['p99']:.2f} ms, "
              f"late {lag['late_fraction']:.2%} "
              f"(backlog {lag['late_backlog_fraction']:.2%}, "
              f"oversleep {lag['late_oversleep_fraction']:.2%})")
    if result.records:
        summary = summarize(result.records)
        lat = summary["latency_ms"]
        print(f"  latency p50/p90/p99 : {lat['p50']:.1f} / "
              f"{lat['p90']:.1f} / {lat['p99']:.1f} ms")
    print(f"  coverage report     : "
          f"{Path(args.service_dir) / 'coverage.json'}")
    if registry is not None:
        _finish_telemetry(args, registry, drift)
    return 0 if cov.ok else 1


def _cmd_replay(args) -> int:
    from repro.core import ExperimentSpec
    from repro.loadgen import (
        CircuitBreaker,
        RetryPolicy,
        generate_request_trace,
        replay,
    )
    from repro.platform import FaultProfile, summarize

    spec = ExperimentSpec.load(args.spec)
    registry, drift = _setup_telemetry(args, spec)

    if args.error_rate is not None and not 0 <= args.error_rate <= 1:
        raise SystemExit("--error-rate must be in [0, 1]")
    retry = None
    if args.retry is not None:
        if args.retry < 1:
            raise SystemExit("--retry must be at least 1")
        retry = RetryPolicy(
            max_attempts=args.retry,
            base_delay_s=args.retry_base_delay,
            deadline_s=args.retry_deadline,
            seed=args.seed,
        )

    if args.service:
        if args.fault_profile is not None:
            raise SystemExit("--fault-profile is not supported with "
                             "--service (use --error-rate)")
        return _cmd_replay_service(args, spec, registry, drift, retry)

    profile = None
    if args.fault_profile is not None:
        try:
            profile = FaultProfile.from_json(args.fault_profile)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load fault profile: {exc}") from exc
    if args.error_rate is not None:
        profile = profile or FaultProfile()
        profile.error_rate = args.error_rate

    backend = _sim_backend(
        spec, profile, nodes=args.nodes, node_memory=args.node_memory,
        scheduler_name=args.scheduler, keepalive_name=args.keepalive,
        keepalive_ttl=args.keepalive_ttl, seed=args.seed,
    )

    breaker = CircuitBreaker(
        failure_threshold=args.breaker_threshold,
        reset_timeout_s=args.breaker_reset,
    ) if args.breaker else None

    with _scoped_telemetry(registry):
        trace = generate_request_trace(spec, seed=args.seed,
                                       arrival_mode=args.arrival_mode)
        result = replay(
            trace, backend,
            retry=retry,
            breaker=breaker,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            drift=drift,
        )
    if registry is not None and result.outcomes is not None:
        from repro.platform import record_outcome_metrics

        record_outcome_metrics(registry, result, breaker=breaker,
                               horizon_s=trace.duration_s)
    if not result.records:
        print("no invocations reached the backend (all requests shed, "
              "or the replay was already complete at resume)")
    else:
        summary = summarize(result.records)
        print(f"replayed {summary['n_invocations']} invocations on "
              f"{args.nodes} nodes ({args.scheduler} / {args.keepalive})")
        print(f"  cold-start fraction : {summary['cold_fraction']:.4f}")
        lat = summary["latency_ms"]
        print(f"  latency p50/p90/p99 : {lat['p50']:.1f} / "
              f"{lat['p90']:.1f} / {lat['p99']:.1f} ms")
        print(f"  mean queueing       : {summary['queueing_ms_mean']:.2f} "
              f"ms")
        print(f"  node imbalance      : {summary['node_imbalance']:.2f}x")
        if summary["ok_fraction"] < 1.0:
            print(f"  ok fraction         : {summary['ok_fraction']:.4f}")
    if result.outcomes is not None:
        counts = result.outcome_counts()
        shown = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        print(f"  request outcomes    : {shown}")
    if profile is not None and backend.n_injected:
        shown = ", ".join(f"{k}={v}"
                          for k, v in backend.injected.items() if v)
        print(f"  injected faults     : {shown}")
    if breaker is not None and breaker.transitions:
        print(f"  breaker transitions : {len(breaker.transitions)} "
              f"(final state {breaker.state})")
    if registry is not None:
        _finish_telemetry(args, registry, drift)
    return 0


_FIGURES = {
    "fig1": "fig1_motivation",
    "fig3": "fig3_cv",
    "fig4": "fig4_popularity_change",
    "fig6": "fig6_pool_cdfs",
    "fig7": "fig7_memory",
    "fig8": "fig8_load_over_time",
    "fig9": "fig9_spec_cdf",
    "fig10": "fig10_popularity",
    "fig11": "fig11_smirnov",
    "fig12": "fig12_balance",
}


def _cmd_figures(args) -> int:
    from repro.analysis import FigureContext, render_figure

    ctx = FigureContext(azure_functions=args.functions, seed=args.seed)
    which = list(_FIGURES) if args.which == ["all"] else args.which
    for name in which:
        if name not in _FIGURES:
            raise SystemExit(
                f"unknown figure {name!r}; choose from "
                f"{', '.join(_FIGURES)} or 'all'"
            )
        data = getattr(ctx, _FIGURES[name])()
        print(render_figure(name, data))
        print()
    return 0


def _cmd_smirnov(args) -> int:
    from repro.core import smirnov_request_sample
    from repro.loadgen import generate_smirnov_trace
    from repro.workloads import build_default_pool

    trace = _load_trace(args.trace, args.functions, args.seed)
    pool = build_default_pool()
    sample = smirnov_request_sample(
        trace, pool, args.requests, seed=args.seed,
        inverse_method=args.inverse,
    )
    req = generate_smirnov_trace(sample, rate_rps=args.rate,
                                 seed=args.seed,
                                 arrival_mode=args.arrival_mode)
    shares = sorted(sample.family_shares().items(), key=lambda kv: -kv[1])
    print(f"sampled {sample.n_requests} requests from {trace.name} "
          f"({args.inverse} inverse); horizon {req.duration_s:.0f}s "
          f"at {args.rate:g} rps")
    for fam, share in shares:
        print(f"  {fam:<20} {share:7.2%}")
    if args.out:
        import csv

        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp_s", "workload_id", "runtime_ms",
                             "family"])
            for i in range(req.n_requests):
                writer.writerow([
                    f"{req.timestamps_s[i]:.6f}", req.workload_ids[i],
                    f"{req.runtimes_ms[i]:.3f}", req.families[i],
                ])
        print(f"wrote {args.out}")
    return 0


def _cmd_spec_info(args) -> int:
    from repro.core import ExperimentSpec

    spec = ExperimentSpec.load(args.spec)
    print(f"spec        : {spec.name}")
    print(f"source trace: {spec.source_trace}")
    print(f"functions   : {spec.n_functions}")
    print(f"duration    : {spec.duration_minutes} min")
    print(f"requests    : {spec.total_requests:,} "
          f"(busiest minute {spec.busiest_minute_rate})")
    print(f"target rate : {spec.max_rps:g} rps")
    print("family shares:")
    for fam, share in sorted(spec.family_request_shares().items(),
                             key=lambda kv: -kv[1]):
        print(f"  {fam:<20} {share:7.2%}")
    if spec.metadata:
        print("metadata    :")
        for k, v in spec.metadata.items():
            if k == "variants":
                print(f"  variants: table for {len(v)} functions")
            else:
                print(f"  {k}: {v}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis import FigureContext, generate_report

    ctx = FigureContext(azure_functions=args.functions, seed=args.seed)
    text = generate_report(ctx)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_trace_info(args) -> int:
    from repro.traces import characterize_trace, fit_generator_from_trace

    trace = _load_trace(args.trace, args.functions, args.seed)
    info = characterize_trace(trace)
    print(f"trace       : {info['name']}")
    print(f"functions   : {info['n_functions']}, minutes: "
          f"{info['n_minutes']}")
    print(f"invocations : {info['total_invocations']:,} "
          f"(busiest minute {info['busiest_minute']:,})")
    d = info["duration_ms"]
    print(f"durations   : median {d['median']:.1f} ms, "
          f"{d['frac_subsecond']:.0%} sub-second, "
          f"range {d['min']:.1f}..{d['max']:.0f} ms")
    print(f"weighted med: {info['weighted_median_duration_ms']:.1f} ms")
    p = info["popularity"]
    print(f"popularity  : top 8% of functions hold "
          f"{p['top8pct_share']:.1%} of invocations; "
          f"{p['frac_low_rate']:.0%} fire <= once/minute")
    if args.fit:
        fitted = fit_generator_from_trace(trace, seed=args.seed)
        print(f"fitted popularity exponent: "
              f"{fitted['popularity_exponent']:.3f}")
        print("fitted duration mixture:")
        for comp in fitted["duration_mixture"]:
            print(f"  weight={comp.weight:.3f} "
                  f"median={comp.median_ms:.1f}ms sigma={comp.sigma:.3f}")
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.analysis import seed_sweep

    results = seed_sweep(
        range(args.seeds),
        n_functions=args.functions,
        max_rps=args.max_rps,
        duration_minutes=args.duration,
    )
    print(f"fidelity across {args.seeds} seeds "
          f"({args.functions} functions, {args.duration} min @ "
          f"{args.max_rps:g} rps):")
    for res in results.values():
        print(f"  {res.metric:<28} mean={res.mean:.4f} std={res.std:.4f} "
              f"range=[{res.best:.4f}, {res.worst:.4f}]")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.workloads import calibrate_family, default_registry

    registry = default_registry()
    names = registry.names() if args.family == "all" else [args.family]
    for name in names:
        family = registry.get(name)
        grid = list(family.input_grid())
        # a small spread across the grid: first, middle two, near-largest
        picks = sorted({0, len(grid) // 3, 2 * len(grid) // 3,
                        max(len(grid) - 2, 0)})
        samples = [grid[i] for i in picks]
        result = calibrate_family(family, samples, repeats=args.repeats)
        print(f"{name:<18} overhead={result.overhead_ms:.4f}ms "
              f"ms_per_unit={result.ms_per_unit:.4g} "
              f"r2={result.r_squared:.4f}")
    return 0


def _cmd_simulate(args) -> int:
    import json

    from repro.platform.cpu import CPU_POLICIES
    from repro.platform.shootout import (
        KEEPALIVE_NAMES,
        SCHEDULER_NAMES,
        ShootoutCell,
        ShootoutConfig,
        run_cell,
        run_shootout,
    )

    def _names(raw: str, universe: tuple[str, ...],
               what: str) -> tuple[str, ...]:
        chosen = tuple(s.strip() for s in raw.split(",") if s.strip())
        if not chosen:
            raise SystemExit(f"--{what} needs at least one name")
        for name in chosen:
            if name not in universe:
                raise SystemExit(
                    f"unknown {what[:-1]} {name!r} "
                    f"(choose from {', '.join(universe)})"
                )
        return chosen

    schedulers = (
        SCHEDULER_NAMES if args.schedulers is None
        else _names(args.schedulers, SCHEDULER_NAMES, "schedulers")
    )
    keepalives = _names(args.keepalives, KEEPALIVE_NAMES, "keepalives")
    cpu_policies = _names(args.cpu_policies, tuple(CPU_POLICIES),
                          "cpu-policies")
    config = ShootoutConfig(
        seed=args.seed,
        n_requests=args.requests,
        n_workloads=args.workloads,
        horizon_s=args.horizon,
        n_nodes=args.nodes,
        node_memory_mb=args.node_memory,
        cores=args.cores,
        quantum_s=args.quantum,
        keepalive_ttl_s=args.keepalive_ttl,
        schedulers=schedulers,
        keepalives=keepalives,
        cpu_policies=cpu_policies,
    )
    registry = None
    if args.telemetry is not None:
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
    with _scoped_telemetry(registry):
        if args.shootout:
            result = run_shootout(
                config,
                cache=_resolve_cache(args),
                jobs=args.jobs,
                out_dir=args.out,
            )
            print(f"shootout: {len(result.rows)} cells "
                  f"({result.computed} computed, {result.cached} cached)")
            print(f"wrote {Path(args.out) / 'shootout.csv'}")
        else:
            if (len(schedulers), len(keepalives),
                    len(cpu_policies)) != (1, 1, 1):
                raise SystemExit(
                    "without --shootout, pick exactly one scheduler, "
                    "keepalive, and cpu policy (or pass --shootout to "
                    "sweep the grid)"
                )
            row = run_cell(config, ShootoutCell(
                schedulers[0], keepalives[0], cpu_policies[0],
            ))
            print(json.dumps(row, indent=2, sort_keys=True))
    if registry is not None:
        _finish_telemetry(args, registry)
    return 0


def _add_telemetry_flags(p) -> None:
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="collect run telemetry and write the end-of-run "
                        "snapshot here (also prints a console summary)")
    p.add_argument("--telemetry-format", choices=["jsonl", "prom"],
                   default="jsonl",
                   help="snapshot format for --telemetry (default: jsonl)")
    p.add_argument("--drift-band", type=float, default=None, metavar="KS",
                   help="monitor representativeness online: warn whenever "
                        "a window of invocation durations sits further "
                        "than this KS distance from the spec's target CDF")


def _add_parallel_cache_flags(p) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for the sharded pipeline "
                        "stages (default sequential; 0 = all cores; "
                        "results are identical for any value)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed artifact cache (default: "
                        "$REPRO_CACHE_DIR if set, else caching is off)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the cache even if REPRO_CACHE_DIR or "
                        "--cache-dir is set")


def build_parser() -> argparse.ArgumentParser:
    from repro.platform.schedulers import SCHEDULERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FaaSRail reproduction: representative FaaS load "
                    "generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shrinkray", help="build an experiment spec")
    p.add_argument("--trace", default="azure",
                   help="'azure', 'huawei', or a directory of Azure CSVs")
    p.add_argument("--functions", type=int, default=8000,
                   help="synthetic trace size")
    p.add_argument("--max-rps", type=float, required=True)
    p.add_argument("--duration", type=int, required=True,
                   help="experiment minutes")
    p.add_argument("--threshold", type=float, default=10.0,
                   help="mapping error threshold (%%)")
    p.add_argument("--time-mode", choices=["thumbnails", "minute-range"],
                   default="thumbnails")
    p.add_argument("--range-start", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="spec.json")
    p.add_argument("--streaming", action="store_true",
                   help="ingest the trace in bounded-memory row blocks "
                        "(mergeable sketches) instead of materialising "
                        "it; exact rate/popularity statistics are "
                        "identical, duration CDFs carry a tracked "
                        "rank-error bound")
    p.add_argument("--chunk-rows", type=int, default=65_536, metavar="N",
                   help="rows per streaming ingestion block (bounds peak "
                        "memory; never changes exact statistics)")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="collect pipeline + ingestion telemetry and "
                        "write the end-of-run snapshot here")
    p.add_argument("--telemetry-format", choices=["jsonl", "prom"],
                   default="jsonl",
                   help="snapshot format for --telemetry (default: jsonl)")
    _add_parallel_cache_flags(p)
    p.set_defaults(func=_cmd_shrinkray)

    p = sub.add_parser("generate", help="spec -> request CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--arrival-mode", default="poisson",
                   choices=["poisson", "uniform", "equidistant"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="requests.csv")
    _add_parallel_cache_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("replay", help="drive a spec through the simulator")
    p.add_argument("--spec", required=True)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--node-memory", type=float, default=16_384.0)
    p.add_argument("--scheduler", default="least-loaded",
                   choices=list(SCHEDULERS))
    p.add_argument("--keepalive", default="fixed",
                   choices=["none", "fixed", "histogram"])
    p.add_argument("--keepalive-ttl", type=float, default=600.0)
    p.add_argument("--arrival-mode", default="poisson",
                   choices=["poisson", "uniform", "equidistant"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-profile", default=None, metavar="JSON",
                   help="inject faults from a FaultProfile JSON file")
    p.add_argument("--error-rate", type=float, default=None,
                   help="shortcut: inject this invocation error "
                        "probability (overrides the profile's)")
    p.add_argument("--retry", type=int, default=None, metavar="N",
                   help="retry failed invocations up to N attempts "
                        "(exponential backoff)")
    p.add_argument("--retry-base-delay", type=float, default=0.1,
                   help="backoff base delay in seconds")
    p.add_argument("--retry-deadline", type=float, default=None,
                   help="per-request cumulative backoff deadline (s)")
    p.add_argument("--breaker", action="store_true",
                   help="shed load through a circuit breaker")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive failures before the breaker opens")
    p.add_argument("--breaker-reset", type=float, default=30.0,
                   help="trace seconds before half-open probing")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="checkpoint replay progress to this file")
    p.add_argument("--checkpoint-every", type=int, default=1000,
                   help="requests between checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint if it exists (with "
                        "--service: from the per-shard checkpoints in "
                        "--service-dir)")
    p.add_argument("--service", action="store_true",
                   help="run the supervised multi-process open-loop "
                        "load service instead of the in-process loop "
                        "(crash-tolerant workers, verified schedule "
                        "coverage; see docs/LOADSERVICE.md)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="service worker processes (0 = run shards "
                        "inline; the reconciled ledger is identical "
                        "for any value)")
    p.add_argument("--target-url", default=None, metavar="URL",
                   help="drive generated load at a real HTTP endpoint "
                        "instead of the simulator")
    p.add_argument("--http-timeout", type=float, default=10.0,
                   help="per-request HTTP timeout in seconds")
    p.add_argument("--service-dir", default="service-run", metavar="DIR",
                   help="per-shard checkpoints + coverage report "
                        "directory for --service")
    p.add_argument("--speed", type=float, default=None, metavar="X",
                   help="open-loop pacing speedup (1 = trace real "
                        "time; default: unpaced, as fast as the "
                        "backend accepts)")
    p.add_argument("--max-lag", type=float, default=None, metavar="S",
                   help="shed a request once its dispatch lags more "
                        "than S seconds behind schedule (outcome "
                        "'shed'; default: never shed)")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   help="seconds of worker silence before the "
                        "supervisor kills and restarts its shard")
    p.add_argument("--service-timeout", type=float, default=300.0,
                   help="global wall-clock deadline for the whole "
                        "service run")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("figures", help="rebuild evaluation figures")
    p.add_argument("which", nargs="+",
                   help=f"figure names ({', '.join(_FIGURES)}) or 'all'")
    p.add_argument("--functions", type=int, default=8000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("smirnov",
                       help="Smirnov-Transform-mode sampling + replay plan")
    p.add_argument("--trace", default="azure")
    p.add_argument("--functions", type=int, default=4000)
    p.add_argument("--requests", type=int, default=30_000)
    p.add_argument("--rate", type=float, default=50.0,
                   help="constant replay rate (rps)")
    p.add_argument("--inverse", choices=["linear", "step"],
                   default="linear")
    p.add_argument("--arrival-mode", default="poisson",
                   choices=["poisson", "uniform", "equidistant"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional request CSV")
    p.set_defaults(func=_cmd_smirnov)

    p = sub.add_parser("spec-info", help="inspect a saved experiment spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_spec_info)

    p = sub.add_parser("report",
                       help="regenerate the paper-vs-measured claim table")
    p.add_argument("--functions", type=int, default=6000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("trace-info",
                       help="characterise a trace; optionally fit "
                            "generator parameters")
    p.add_argument("--trace", default="azure")
    p.add_argument("--functions", type=int, default=4000)
    p.add_argument("--fit", action="store_true",
                   help="EM-fit the duration mixture + popularity "
                        "exponent")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace_info)

    p = sub.add_parser("sensitivity",
                       help="fidelity stability across seeds")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--functions", type=int, default=2000)
    p.add_argument("--max-rps", type=float, default=10.0)
    p.add_argument("--duration", type=int, default=30)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("calibrate", help="re-fit cost models on this host")
    p.add_argument("--family", default="all")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "simulate",
        help="contention scenario lab: run one simulator cell, or "
             "--shootout the full policy grid",
    )
    p.add_argument("--shootout", action="store_true",
                   help="sweep every (scheduler x keepalive x "
                        "cpu-policy) cell and write per-cell tables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--requests", type=int, default=2000,
                   help="synthetic requests per cell")
    p.add_argument("--workloads", type=int, default=12,
                   help="distinct workloads in the synthetic load")
    p.add_argument("--horizon", type=float, default=60.0,
                   help="arrival horizon in seconds")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--node-memory", type=float, default=4096.0)
    p.add_argument("--cores", type=int, default=4,
                   help="CPU cores per node (contention model)")
    p.add_argument("--quantum", type=float, default=0.020,
                   help="scheduling timeslice in seconds")
    p.add_argument("--keepalive-ttl", type=float, default=5.0,
                   help="TTL for the fixed policy / fallback default "
                        "for the adaptive ones")
    p.add_argument("--schedulers", default=None,
                   help="comma-separated scheduler names to sweep "
                        "(default: every built-in scheduler)")
    p.add_argument("--keepalives",
                   default="none,fixed,histogram,hybrid",
                   help="comma-separated keep-alive names to sweep")
    p.add_argument("--cpu-policies", default="fifo,fair,stf",
                   help="comma-separated CPU policy names to sweep")
    p.add_argument("--out", default="benchmarks/results",
                   metavar="DIR",
                   help="directory for the per-cell result tables")
    _add_parallel_cache_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
