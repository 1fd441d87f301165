"""Round-trip tests for Azure-schema CSV IO."""

import numpy as np
import pytest

from repro.traces import Trace, dump_azure_day, load_azure_day
from repro.traces.io import (
    read_durations_csv,
    read_invocations_csv,
    read_memory_csv,
    write_durations_csv,
    write_invocations_csv,
    write_memory_csv,
)


@pytest.fixture
def trace():
    rng = np.random.default_rng(0)
    n, minutes = 6, 20
    return Trace(
        name="io-test",
        function_ids=np.array([f"f{i}" for i in range(n)]),
        app_ids=np.array(["a0", "a0", "a1", "a1", "a2", "a2"]),
        durations_ms=rng.uniform(5, 5000, n),
        per_minute=rng.integers(0, 100, (n, minutes)).astype(np.int32),
        app_memory_mb={"a0": 100.0, "a1": 200.0, "a2": 300.0},
    )


class TestRoundTrip:
    def test_full_day_roundtrip(self, trace, tmp_path):
        dump_azure_day(trace, tmp_path)
        loaded = load_azure_day(tmp_path, name="io-test")
        assert loaded.n_functions == trace.n_functions
        # order may be preserved by construction; compare by id
        idx = {f: i for i, f in enumerate(loaded.function_ids)}
        for i, f in enumerate(trace.function_ids):
            j = idx[f]
            np.testing.assert_array_equal(
                loaded.per_minute[j], trace.per_minute[i]
            )
            assert loaded.durations_ms[j] == pytest.approx(
                trace.durations_ms[i], rel=1e-5
            )
        assert loaded.app_memory_mb == pytest.approx(trace.app_memory_mb)

    def test_invocations_roundtrip(self, trace, tmp_path):
        p = tmp_path / "inv.csv"
        write_invocations_csv(trace, p)
        apps, fns, matrix = read_invocations_csv(p)
        np.testing.assert_array_equal(fns, trace.function_ids)
        np.testing.assert_array_equal(matrix, trace.per_minute)

    def test_durations_roundtrip(self, trace, tmp_path):
        p = tmp_path / "dur.csv"
        write_durations_csv(trace, p)
        fns, avgs = read_durations_csv(p)
        np.testing.assert_array_equal(fns, trace.function_ids)
        np.testing.assert_allclose(avgs, trace.durations_ms, rtol=1e-5)

    def test_memory_roundtrip(self, trace, tmp_path):
        p = tmp_path / "mem.csv"
        write_memory_csv(trace, p)
        assert read_memory_csv(p) == pytest.approx(trace.app_memory_mb)

    def test_load_without_memory_file(self, trace, tmp_path):
        trace.app_memory_mb = {}
        dump_azure_day(trace, tmp_path)
        loaded = load_azure_day(tmp_path)
        assert loaded.app_memory_mb == {}


class TestSchemaValidation:
    def test_bad_invocations_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("Wrong,Header\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_invocations_csv(p)

    def test_ragged_invocations_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
            "o,a,f,http,1\n"
        )
        with pytest.raises(ValueError, match="ragged"):
            read_invocations_csv(p)

    def test_empty_invocations(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("HashOwner,HashApp,HashFunction,Trigger,1\n")
        with pytest.raises(ValueError, match="no functions"):
            read_invocations_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty invocations file") as err:
            read_invocations_csv(p)
        assert str(p) in str(err.value)

    def test_durations_missing_column(self, tmp_path):
        p = tmp_path / "dur.csv"
        p.write_text("HashFunction\nf1\n")
        with pytest.raises(ValueError, match="missing"):
            read_durations_csv(p)

    def test_memory_missing_column(self, tmp_path):
        p = tmp_path / "mem.csv"
        p.write_text("HashApp\na\n")
        with pytest.raises(ValueError, match="missing"):
            read_memory_csv(p)

    def test_load_drops_functions_without_durations(self, trace, tmp_path):
        dump_azure_day(trace, tmp_path)
        # rewrite durations with one function missing
        sub = trace.select(np.arange(1, trace.n_functions))
        write_durations_csv(sub, tmp_path / "function_durations.csv")
        loaded = load_azure_day(tmp_path)
        assert loaded.n_functions == trace.n_functions - 1
        assert "f0" not in set(loaded.function_ids)


class TestMalformedRowContext:
    """Malformed cells must name the file, 1-based line, and column
    (ISSUE 5 bugfix): a bad cell in a multi-million-row dump has to be
    locatable without a debugger."""

    def test_invocations_bad_count_cell(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
            "o,a,f1,http,1,2,3\n"
            "o,a,f2,http,4,oops,6\n"
        )
        with pytest.raises(ValueError) as err:
            read_invocations_csv(p)
        msg = str(err.value)
        assert str(p) in msg
        assert "line 3" in msg
        assert "column 6" in msg and "minute 2" in msg
        assert "'oops'" in msg

    def test_invocations_float_count_cell(self, tmp_path):
        # floats are not valid invocation counts; the scan must still
        # name the offending cell rather than die inside numpy
        p = tmp_path / "inv.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
            "o,a,f1,http,1.5,2\n"
        )
        with pytest.raises(ValueError, match=r"line 2.*column 5"):
            read_invocations_csv(p)

    def test_invocations_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "inv.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
            "o,a,f1,http,1,2\n"
            "o,a,f2,http,1,2,3\n"
        )
        with pytest.raises(ValueError, match=r"line 3: ragged row.*'f2'"):
            read_invocations_csv(p)

    def test_durations_bad_average(self, tmp_path):
        p = tmp_path / "dur.csv"
        p.write_text(
            "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n"
            "o,a,f1,12.5,3,1,20\n"
            "o,a,f2,NOT_A_NUMBER,3,1,20\n"
        )
        with pytest.raises(ValueError) as err:
            read_durations_csv(p)
        msg = str(err.value)
        assert str(p) in msg
        assert "line 3" in msg
        assert "column Average" in msg
        assert "'NOT_A_NUMBER'" in msg

    def test_durations_missing_average_cell(self, tmp_path):
        p = tmp_path / "dur.csv"
        # DictReader yields None for the missing trailing field
        p.write_text("HashFunction,Average\nf1\n")
        with pytest.raises(ValueError, match=r"line 2.*Average is missing"):
            read_durations_csv(p)

    def test_memory_bad_value(self, tmp_path):
        p = tmp_path / "mem.csv"
        p.write_text(
            "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n"
            "o,a0,1,128\n"
            "o,a1,1,many\n"
        )
        with pytest.raises(ValueError) as err:
            read_memory_csv(p)
        msg = str(err.value)
        assert str(p) in msg
        assert "line 3" in msg
        assert "column AverageAllocatedMb" in msg
        assert "'many'" in msg
