"""CSV IO in the Azure Functions public-dataset layout.

The real Azure 2019 release ships three per-day CSV families:

- ``invocations_per_function_md.anon.d01.csv`` --
  ``HashOwner,HashApp,HashFunction,Trigger,1,...,1440``
- ``function_durations_percentiles.anon.d01.csv`` --
  ``HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum,...``
- ``app_memory_percentiles.anon.d01.csv`` --
  ``HashOwner,HashApp,SampleCount,AverageAllocatedMb,...``

These readers/writers speak that schema (the subset of columns FaaSRail
consumes), so a directory holding the *real* dataset loads directly into a
:class:`~repro.traces.model.Trace`, and synthetic traces round-trip through
the same files for inspection.

Malformed rows raise ``ValueError`` carrying the file path, 1-based line
number, and offending column, so a bad cell in a multi-million-row dump
is locatable without a debugger (mirroring the path-context validation of
:mod:`repro.loadgen.io`).  The row-level conversion helpers are shared
with the chunked readers in :mod:`repro.traces.streaming`.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.traces.model import Trace

__all__ = [
    "dump_azure_day",
    "load_azure_day",
    "read_durations_csv",
    "read_invocations_csv",
    "read_memory_csv",
    "write_durations_csv",
    "write_invocations_csv",
    "write_memory_csv",
]

INVOCATIONS_FILE = "invocations_per_function.csv"
DURATIONS_FILE = "function_durations.csv"
MEMORY_FILE = "app_memory.csv"


def convert_count_row(
    values: list[str], path: Path | str, line: int
) -> np.ndarray:
    """Convert one row of per-minute count cells to int64 with context.

    On a malformed cell the raised ``ValueError`` names the file, the
    1-based CSV line, and the offending minute column -- the cheap numpy
    bulk conversion is retried cell-by-cell only on failure.
    """
    try:
        return np.array(values, dtype=np.int64)
    except (ValueError, OverflowError):
        for col, cell in enumerate(values):
            try:
                int(cell)
            except (ValueError, OverflowError):
                raise ValueError(
                    f"{path}: line {line}: column {col + 5} "
                    f"(minute {col + 1}) has invalid invocation count "
                    f"{cell!r}"
                ) from None
        raise  # pragma: no cover - bulk failed but every cell parsed


def convert_float_cell(
    value: str | None, path: Path | str, line: int, column: str
) -> float:
    """Convert one CSV cell to float, with file/line/column context."""
    if value is None:
        raise ValueError(
            f"{path}: line {line}: column {column} is missing"
        )
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"{path}: line {line}: column {column} has invalid value "
            f"{value!r}"
        ) from None


def write_invocations_csv(trace: Trace, path: Path | str) -> None:
    """Write the per-minute invocation matrix in Azure's schema."""
    path = Path(path)
    n_minutes = trace.n_minutes
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["HashOwner", "HashApp", "HashFunction", "Trigger"]
            + [str(m) for m in range(1, n_minutes + 1)]
        )
        for i in range(trace.n_functions):
            writer.writerow(
                ["owner", trace.app_ids[i], trace.function_ids[i], "http"]
                + trace.per_minute[i].tolist()
            )


def read_invocations_csv(path: Path | str):
    """Read an invocations CSV; returns (app_ids, function_ids, matrix)."""
    path = Path(path)
    apps, fns, rows = [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["HashOwner", "HashApp", "HashFunction", "Trigger"]:
            raise ValueError(f"{path}: unexpected invocations header {header[:4]}")
        n_minutes = len(header) - 4
        line = 1
        for row in reader:
            line += 1
            if len(row) != 4 + n_minutes:
                fn = row[2] if len(row) > 2 else "?"
                raise ValueError(
                    f"{path}: line {line}: ragged row for function "
                    f"{fn!r} ({len(row)} fields, expected "
                    f"{4 + n_minutes})"
                )
            apps.append(row[1])
            fns.append(row[2])
            rows.append(convert_count_row(row[4:], path, line))
    if not fns:
        raise ValueError(f"{path}: no functions")
    matrix = np.vstack(rows).astype(np.int32)
    return np.array(apps), np.array(fns), matrix


def write_durations_csv(trace: Trace, path: Path | str) -> None:
    """Write per-function average durations in Azure's schema."""
    path = Path(path)
    counts = trace.invocations_per_function
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["HashOwner", "HashApp", "HashFunction", "Average", "Count",
             "Minimum", "Maximum"]
        )
        for i in range(trace.n_functions):
            avg = trace.durations_ms[i]
            writer.writerow(
                ["owner", trace.app_ids[i], trace.function_ids[i],
                 f"{avg:.6g}", int(counts[i]), f"{avg:.6g}", f"{avg:.6g}"]
            )


def read_durations_csv(path: Path | str):
    """Read a durations CSV; returns (function_ids, averages_ms)."""
    path = Path(path)
    fns, avgs = [], []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"HashFunction", "Average"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: durations header missing {required}")
        line = 1
        for row in reader:
            line += 1
            fns.append(row["HashFunction"])
            avgs.append(convert_float_cell(row.get("Average"), path, line,
                                           "Average"))
    if not fns:
        raise ValueError(f"{path}: no functions")
    return np.array(fns), np.array(avgs, dtype=np.float64)


def write_memory_csv(trace: Trace, path: Path | str) -> None:
    """Write per-app average allocated memory in Azure's schema."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["HashOwner", "HashApp", "SampleCount",
                         "AverageAllocatedMb"])
        for app, mb in sorted(trace.app_memory_mb.items()):
            writer.writerow(["owner", app, 1, f"{mb:.6g}"])


def read_memory_csv(path: Path | str) -> dict[str, float]:
    """Read an app-memory CSV into ``{app_id: average_mb}``."""
    path = Path(path)
    out: dict[str, float] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"HashApp", "AverageAllocatedMb"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: memory header missing {required}")
        line = 1
        for row in reader:
            line += 1
            out[row["HashApp"]] = convert_float_cell(
                row.get("AverageAllocatedMb"), path, line,
                "AverageAllocatedMb",
            )
    return out


def dump_azure_day(trace: Trace, directory: Path | str) -> None:
    """Write a trace as the three Azure-layout CSVs under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_invocations_csv(trace, directory / INVOCATIONS_FILE)
    write_durations_csv(trace, directory / DURATIONS_FILE)
    if trace.app_memory_mb:
        write_memory_csv(trace, directory / MEMORY_FILE)


def load_azure_day(directory: Path | str, name: str = "azure-csv") -> Trace:
    """Load a trace from Azure-layout CSVs.

    Functions present in the invocation file but missing a reported duration
    are dropped, mirroring how the paper works only with the ~49.7K day-1
    functions that report execution times.
    """
    directory = Path(directory)
    apps, fns, matrix = read_invocations_csv(directory / INVOCATIONS_FILE)
    dur_fns, dur_avgs = read_durations_csv(directory / DURATIONS_FILE)
    duration_of = dict(zip(dur_fns.tolist(), dur_avgs.tolist()))
    keep = np.array([f in duration_of for f in fns])
    if not keep.any():
        raise ValueError(f"{directory}: no function has both invocations and "
                         "a reported duration")
    fns, apps, matrix = fns[keep], apps[keep], matrix[keep]
    durations = np.array([duration_of[f] for f in fns], dtype=np.float64)

    mem_path = directory / MEMORY_FILE
    memory = read_memory_csv(mem_path) if mem_path.exists() else {}
    return Trace(
        name=name,
        function_ids=fns,
        app_ids=apps,
        durations_ms=durations,
        per_minute=matrix,
        app_memory_mb=memory,
    )
