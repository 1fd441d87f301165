"""Tests for ExperimentSpec model and serialisation."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import ExperimentSpec, SpecEntry


def make_spec(n=3, minutes=4, counts=None):
    entries = [
        SpecEntry(f"fn{i}", f"w:{i}", ["pyaes", "matmul", "chameleon"][i % 3],
                  runtime_ms=10.0 * (i + 1), memory_mb=64.0)
        for i in range(n)
    ]
    if counts is None:
        counts = np.arange(n * minutes).reshape(n, minutes)
    return ExperimentSpec(
        name="test-spec",
        source_trace="azure-synth",
        max_rps=5.0,
        entries=entries,
        per_minute=np.asarray(counts, dtype=np.int64),
        metadata={"seed": 1},
    )


class TestSpecModel:
    def test_derived_properties(self):
        spec = make_spec()
        assert spec.n_functions == 3
        assert spec.duration_minutes == 4
        assert spec.total_requests == int(np.arange(12).sum())
        assert spec.busiest_minute_rate == spec.aggregate_per_minute.max()

    def test_validation_rejects_empty_entries(self):
        with pytest.raises(ValueError, match="at least one entry"):
            ExperimentSpec("s", "t", 1.0, [], np.zeros((0, 2)))

    def test_validation_rejects_shape_mismatch(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="per_minute"):
            ExperimentSpec("s", "t", 1.0, spec.entries,
                           np.zeros((2, 4), dtype=np.int64))

    def test_validation_rejects_negative_counts(self):
        spec = make_spec()
        bad = spec.per_minute.copy()
        bad[0, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            ExperimentSpec("s", "t", 1.0, spec.entries, bad)

    def test_validation_rejects_bad_rps(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="max_rps"):
            ExperimentSpec("s", "t", 0.0, spec.entries, spec.per_minute)

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="runtime"):
            SpecEntry("f", "w", "fam", runtime_ms=0.0, memory_mb=1.0)
        with pytest.raises(ValueError, match="memory"):
            SpecEntry("f", "w", "fam", runtime_ms=1.0, memory_mb=0.0)

    def test_invocation_duration_cdf_weighted(self):
        spec = make_spec()
        cdf = spec.invocation_duration_cdf()
        counts = spec.requests_per_function.astype(float)
        expected = np.average(spec.runtimes_ms, weights=counts)
        assert cdf.mean() == pytest.approx(expected)

    def test_invocation_cdf_requires_requests(self):
        spec = make_spec(counts=np.zeros((3, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="no requests"):
            spec.invocation_duration_cdf()

    def test_family_request_shares(self):
        spec = make_spec()
        shares = spec.family_request_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == {"pyaes", "matmul", "chameleon"}


class TestSpecSerialisation:
    def test_json_roundtrip(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = ExperimentSpec.load(path)
        assert loaded.name == spec.name
        assert loaded.max_rps == spec.max_rps
        assert loaded.metadata == spec.metadata
        np.testing.assert_array_equal(loaded.per_minute, spec.per_minute)
        assert [e.workload_id for e in loaded.entries] == [
            e.workload_id for e in spec.entries
        ]

    def test_version_guard(self):
        spec = make_spec()
        data = spec.to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            ExperimentSpec.from_dict(data)

    def test_dict_roundtrip_preserves_dtypes(self):
        spec = make_spec()
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.per_minute.dtype == np.int64
        assert again.entries[0].runtime_ms == spec.entries[0].runtime_ms


class TestSpecParsing:
    """``from_dict`` builds entries without the dataclass ``__init__``
    for valid rows; it must give what ``SpecEntry(**row)`` gives, and
    the same errors for invalid rows."""

    def test_entries_equal_the_dataclass_constructor(self):
        data = make_spec(n=30).to_dict()
        data["entries"][4] = dict(reversed(data["entries"][4].items()))
        entries = ExperimentSpec.from_dict(data).entries
        reference = [SpecEntry(**row) for row in data["entries"]]
        assert entries == reference
        assert [type(e) for e in entries] == [SpecEntry] * 30
        assert [hash(e) for e in entries] == [hash(e) for e in reference]
        assert [vars(e) for e in entries] == [vars(e) for e in reference]
        with pytest.raises(AttributeError):
            entries[0].runtime_ms = 1.0

    @pytest.mark.parametrize("edit, error, match", [
        (lambda row: row.pop("family"), TypeError, "family"),
        (lambda row: row.update(extra=1), TypeError, "extra"),
        (lambda row: row.update(runtime_ms=0.0), ValueError, "fn1: runtime"),
        (lambda row: row.update(memory_mb=-1.0), ValueError, "fn1: memory"),
        (lambda row: row.update(runtime_ms="5"), TypeError, "str"),
    ])
    def test_invalid_rows_raise_as_the_constructor_does(self, edit, error,
                                                        match):
        data = make_spec().to_dict()
        edit(data["entries"][1])
        with pytest.raises(error, match=match):
            SpecEntry(**data["entries"][1])
        with pytest.raises(error, match=match):
            ExperimentSpec.from_dict(data)

    def test_load_equals_from_dict_of_the_text(self, tmp_path):
        path = tmp_path / "spec.json"
        make_spec().save(path)
        loaded = ExperimentSpec.load(path)
        expected = ExperimentSpec.from_dict(
            json.loads(path.read_text(encoding="utf-8")))
        assert loaded.to_dict() == expected.to_dict()
        assert loaded.entries == expected.entries
        assert loaded.per_minute.dtype == expected.per_minute.dtype

    def test_encoding_does_not_depend_on_the_locale(self, tmp_path):
        """A spec holding non-ASCII text as raw UTF-8 loads, and saves as
        UTF-8, in a process whose locale encoding is ASCII."""
        path = tmp_path / "spec.json"
        data = make_spec().to_dict()
        data["metadata"]["note"] = "Zürich – λ"
        path.write_bytes(json.dumps(data, ensure_ascii=False)
                         .encode("utf-8"))
        script = (
            "import locale, sys\n"
            "from repro.core import ExperimentSpec\n"
            "assert locale.getpreferredencoding(False) != 'UTF-8'\n"
            "spec = ExperimentSpec.load(sys.argv[1])\n"
            "assert spec.metadata['note'] == 'Z\\xfcrich \\u2013 \\u03bb'\n"
            "spec.save(sys.argv[2])\n"
        )
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        saved = tmp_path / "saved.json"
        subprocess.run([sys.executable, "-c", script, str(path),
                        str(saved)], env=env, check=True)
        assert json.loads(saved.read_bytes().decode("utf-8")) \
            ["metadata"]["note"] == "Zürich – λ"
