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
:mod:`repro.loadgen.io`).  Invocations are parsed in one place,
:func:`iter_invocation_blocks`, which yields fixed-size row blocks for
streaming ingestion (:mod:`repro.traces.streaming`);
:func:`read_invocations_csv` is the concatenation of those blocks.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.traces.model import Trace

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "InvocationBlock",
    "dump_azure_day",
    "iter_invocation_blocks",
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

#: Default rows per ingestion block.  At Azure's 1440 minute columns one
#: block is ~0.7 GiB/1e6 rows of int64, so 65536 rows stays under 50 MiB.
DEFAULT_CHUNK_ROWS = 65_536


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


@dataclass(frozen=True)
class InvocationBlock:
    """One fixed-size slice of invocation CSV rows."""

    #: App id per row.
    apps: np.ndarray
    #: Function id per row.
    functions: np.ndarray
    #: ``(rows, n_minutes)`` int64 invocation counts.
    per_minute: np.ndarray
    #: 1-based CSV line number of the block's first data row.
    first_line: int

    @property
    def n_rows(self) -> int:
        return int(self.functions.size)


def iter_invocation_blocks(
    path: Path | str,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[InvocationBlock]:
    """Yield :class:`InvocationBlock` slices of an invocations CSV.

    Validates the header and every row's arity up front; malformed
    numeric cells raise ``ValueError`` carrying the file path, 1-based
    line number, and offending column.  Memory use is bounded by one
    block.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty invocations file") from None
        if header[:4] != ["HashOwner", "HashApp", "HashFunction", "Trigger"]:
            raise ValueError(
                f"{path}: unexpected invocations header {header[:4]}"
            )
        n_minutes = len(header) - 4
        if n_minutes < 1:
            raise ValueError(f"{path}: invocations header has no minute "
                             "columns")

        apps: list[str] = []
        fns: list[str] = []
        rows: list[np.ndarray] = []
        first_line = 2
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
            if len(rows) >= chunk_rows:
                yield InvocationBlock(
                    apps=np.asarray(apps),
                    functions=np.asarray(fns),
                    per_minute=np.vstack(rows),
                    first_line=first_line,
                )
                apps, fns, rows = [], [], []
                first_line = line + 1
        if rows:
            yield InvocationBlock(
                apps=np.asarray(apps),
                functions=np.asarray(fns),
                per_minute=np.vstack(rows),
                first_line=first_line,
            )


def read_invocations_csv(path: Path | str):
    """Read a whole invocations CSV; returns (app_ids, function_ids,
    matrix), the matrix int32.  The concatenated blocks of
    :func:`iter_invocation_blocks`, so both apply the same checks."""
    blocks = list(iter_invocation_blocks(path))
    if not blocks:
        raise ValueError(f"{Path(path)}: no functions")
    return (
        np.concatenate([b.apps for b in blocks]),
        np.concatenate([b.functions for b in blocks]),
        np.concatenate([b.per_minute for b in blocks]).astype(np.int32),
    )


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
