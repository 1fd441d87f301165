"""Tests for the command-line interface."""

import argparse
import csv

import pytest

from repro.cli import build_parser, main
from repro.platform.schedulers import SCHEDULERS


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_shrinkray_requires_rps_and_duration(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shrinkray"])

    def test_defaults(self):
        args = build_parser().parse_args(
            ["shrinkray", "--max-rps", "5", "--duration", "30"]
        )
        assert args.trace == "azure"
        assert args.threshold == 10.0
        assert args.time_mode == "thumbnails"

    def test_replay_offers_every_scheduler(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        option = next(a for a in sub.choices["replay"]._actions
                      if a.dest == "scheduler")
        assert tuple(option.choices) == tuple(SCHEDULERS)


class TestCommands:
    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "spec.json"
        rc = main([
            "shrinkray", "--trace", "azure", "--functions", "800",
            "--max-rps", "3", "--duration", "10",
            "--seed", "1", "--out", str(path),
        ])
        assert rc == 0
        return path

    def test_shrinkray_writes_spec(self, spec_path):
        from repro.core import ExperimentSpec

        spec = ExperimentSpec.load(spec_path)
        assert spec.duration_minutes == 10
        assert spec.busiest_minute_rate <= 180

    def test_generate_writes_csv(self, spec_path, tmp_path, capsys):
        out = tmp_path / "requests.csv"
        rc = main(["generate", "--spec", str(spec_path),
                   "--out", str(out), "--arrival-mode", "uniform"])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"timestamp_s", "workload_id", "function_id",
                                "runtime_ms", "family"}
        times = [float(r["timestamp_s"]) for r in rows]
        assert times == sorted(times)

    def test_generate_npz_output(self, spec_path, tmp_path):
        from repro.loadgen import load_request_trace_npz

        out = tmp_path / "requests.npz"
        rc = main(["generate", "--spec", str(spec_path),
                   "--out", str(out), "--arrival-mode", "uniform"])
        assert rc == 0
        trace = load_request_trace_npz(out)
        assert trace.n_requests > 0

    def test_replay_prints_summary(self, spec_path, capsys):
        rc = main(["replay", "--spec", str(spec_path), "--nodes", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cold-start fraction" in out
        assert "latency p50/p90/p99" in out

    def test_replay_locality_scheduler(self, spec_path, capsys):
        rc = main(["replay", "--spec", str(spec_path), "--nodes", "4",
                   "--scheduler", "locality"])
        assert rc == 0
        assert "cold-start fraction" in capsys.readouterr().out

    def test_replay_with_faults_retry_and_checkpoint(
            self, spec_path, tmp_path, capsys):
        import json

        profile = tmp_path / "faults.json"
        profile.write_text(json.dumps({"error_rate": 0.05, "seed": 7}))
        ckpt = tmp_path / "replay.ckpt"
        rc = main([
            "replay", "--spec", str(spec_path), "--nodes", "4",
            "--fault-profile", str(profile), "--retry", "3",
            "--breaker", "--checkpoint", str(ckpt),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "request outcomes" in out
        assert "injected faults" in out
        assert ckpt.exists()
        # resuming the finished replay restores outcomes, submits nothing
        rc = main([
            "replay", "--spec", str(spec_path), "--nodes", "4",
            "--retry", "3", "--checkpoint", str(ckpt), "--resume",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "already complete at resume" in out

    def test_replay_service_feeds_the_drift_monitor(
            self, spec_path, tmp_path, capsys):
        """``--drift-band`` reports the same drift with and without
        ``--service``, and registers the ``drift_ks`` gauge."""
        import json

        def run(*extra):
            telemetry_path = tmp_path / f"t{len(extra)}.jsonl"
            rc = main(["replay", "--spec", str(spec_path), "--nodes", "4",
                       "--drift-band", "0.3",
                       "--telemetry", str(telemetry_path), *extra])
            assert rc == 0
            drift = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("drift monitor:")]
            names = {json.loads(line).get("name")
                     for line in telemetry_path.read_text().splitlines()}
            return drift, names

        plain, plain_names = run()
        service, service_names = run("--service", "--workers", "0",
                                     "--service-dir",
                                     str(tmp_path / "svc"))
        assert len(plain) == 1 and service == plain
        assert "drift_ks" in plain_names and "drift_ks" in service_names

    def test_replay_service_parses_the_spec_once(
            self, spec_path, tmp_path, monkeypatch, capsys):
        """The service workers build their backends from the spec the
        parent parsed: removing the file after that parse changes no
        output line."""
        from repro.core import ExperimentSpec

        def run(path, service_dir):
            rc = main(["replay", "--spec", str(path), "--nodes", "4",
                       "--service", "--workers", "1", "--retry", "2",
                       "--error-rate", "0.05",
                       "--service-dir", str(service_dir)])
            assert rc == 0
            # drop the wall-clock line and the report path
            return capsys.readouterr().out.splitlines()[1:-1]

        reference = run(spec_path, tmp_path / "ref")
        copy = tmp_path / "spec.json"
        copy.write_bytes(spec_path.read_bytes())
        loads = []
        load = ExperimentSpec.load.__func__

        def load_then_remove(cls, path):
            loads.append(path)
            spec = load(cls, path)
            copy.unlink()
            return spec

        monkeypatch.setattr(ExperimentSpec, "load",
                            classmethod(load_then_remove))
        assert run(copy, tmp_path / "svc") == reference
        assert loads == [str(copy)]
        assert reference[0].startswith("  coverage            : complete")

    def test_replay_error_rate_shortcut(self, spec_path, capsys):
        rc = main(["replay", "--spec", str(spec_path), "--nodes", "4",
                   "--error-rate", "0.1", "--retry", "2"])
        assert rc == 0
        assert "request outcomes" in capsys.readouterr().out

    def test_replay_bad_fault_profile_rejected(self, spec_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"error_rate": 2.0}')
        with pytest.raises(SystemExit, match="fault profile"):
            main(["replay", "--spec", str(spec_path),
                  "--fault-profile", str(bad)])
        with pytest.raises(SystemExit, match="error-rate"):
            main(["replay", "--spec", str(spec_path),
                  "--error-rate", "3.0"])

    def test_figures_subset(self, capsys):
        rc = main(["figures", "fig3", "--functions", "500", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "frac_duration_cv_below_1" in out

    def test_figures_unknown_rejected(self):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figures", "fig99"])

    def test_unknown_trace_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown trace source"):
            main(["shrinkray", "--trace", "nope", "--max-rps", "1",
                  "--duration", "10"])

    def test_trace_from_csv_directory(self, tmp_path):
        from repro.traces import dump_azure_day, synthetic_azure_trace

        trace = synthetic_azure_trace(n_functions=300, seed=4)
        dump_azure_day(trace, tmp_path / "day")
        out = tmp_path / "spec.json"
        rc = main(["shrinkray", "--trace", str(tmp_path / "day"),
                   "--max-rps", "2", "--duration", "10",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_calibrate_one_family(self, capsys):
        rc = main(["calibrate", "--family", "pyaes", "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pyaes" in out and "ms_per_unit" in out


class TestTracePathErrors:
    """Path-like trace sources get path-specific diagnostics, not the
    generic 'unknown trace source' message."""

    def test_missing_path_reported_as_missing(self, tmp_path):
        missing = tmp_path / "no" / "such" / "day"
        with pytest.raises(SystemExit, match="does not exist"):
            main(["shrinkray", "--trace", str(missing),
                  "--max-rps", "1", "--duration", "10"])

    def test_file_instead_of_directory(self, tmp_path):
        a_file = tmp_path / "trace.csv"
        a_file.write_text("not,a,directory\n")
        with pytest.raises(SystemExit, match="not a directory"):
            main(["shrinkray", "--trace", str(a_file),
                  "--max-rps", "1", "--duration", "10"])

    def test_bare_name_still_unknown_source(self):
        with pytest.raises(SystemExit, match="unknown trace source"):
            main(["shrinkray", "--trace", "nope",
                  "--max-rps", "1", "--duration", "10"])


class TestParallelCacheFlags:
    def test_flags_parse_with_defaults(self):
        args = build_parser().parse_args(
            ["shrinkray", "--max-rps", "5", "--duration", "30"]
        )
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_shrinkray_jobs_and_cache_byte_identical(self, tmp_path):
        """Two cached runs (the second warm) and an uncached run all
        produce byte-identical spec files."""
        cache_dir = tmp_path / "cache"
        outs = []
        for name in ("cold.json", "warm.json", "nocache.json"):
            out = tmp_path / name
            argv = ["shrinkray", "--trace", "azure", "--functions", "600",
                    "--max-rps", "2", "--duration", "8", "--seed", "3",
                    "--jobs", "2", "--out", str(out)]
            argv += (["--no-cache"] if name == "nocache.json"
                     else ["--cache-dir", str(cache_dir)])
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert list(cache_dir.glob("**/*.pkl"))  # cache actually populated

    def test_generate_cache_and_jobs_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        assert main(["shrinkray", "--trace", "azure", "--functions", "600",
                     "--max-rps", "2", "--duration", "8", "--seed", "3",
                     "--out", str(spec)]) == 0
        cache_dir = tmp_path / "gcache"
        outs = []
        for i, extra in enumerate((
            ["--jobs", "1", "--cache-dir", str(cache_dir)],
            ["--jobs", "3", "--cache-dir", str(cache_dir)],
            ["--no-cache"],
        )):
            out = tmp_path / f"req{i}.csv"
            assert main(["generate", "--spec", str(spec), "--seed", "5",
                         "--out", str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        from repro.cache import CACHE_DIR_ENV

        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        out = tmp_path / "spec.json"
        assert main(["shrinkray", "--trace", "azure", "--functions", "600",
                     "--max-rps", "2", "--duration", "8",
                     "--out", str(out)]) == 0
        assert list(cache_dir.glob("**/*.pkl"))
