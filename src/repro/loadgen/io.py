"""Request-trace persistence.

Two formats:

- **CSV** -- one row per request, human-greppable, the interchange format
  for replaying against external systems (also what the CLI's ``generate``
  emits);
- **NPZ** -- compressed column arrays for round-tripping large traces
  without string-parsing costs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.loadgen.requests import RequestTrace

__all__ = [
    "load_request_trace_csv",
    "load_request_trace_npz",
    "save_request_trace_csv",
    "save_request_trace_npz",
]

_CSV_HEADER = ["timestamp_s", "workload_id", "function_id", "runtime_ms",
               "family"]


def _build_trace(path: Path, **columns) -> RequestTrace:
    """Construct a RequestTrace, prefixing validation errors with the
    source file so unsorted/NaN/misaligned data names its origin."""
    try:
        return RequestTrace(**columns)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid request trace: {exc}") from exc


def save_request_trace_csv(trace: RequestTrace, path: Path | str) -> None:
    """Write a request trace as CSV (rows in timestamp order)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i in range(trace.n_requests):
            writer.writerow([
                f"{trace.timestamps_s[i]:.6f}",
                trace.workload_ids[i],
                trace.function_ids[i],
                f"{trace.runtimes_ms[i]:.6g}",
                trace.families[i],
            ])


def load_request_trace_csv(path: Path | str) -> RequestTrace:
    """Read a CSV written by :func:`save_request_trace_csv`."""
    path = Path(path)
    cols: dict[str, list] = {name: [] for name in _CSV_HEADER}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _CSV_HEADER:
            raise ValueError(
                f"{path}: unexpected header {reader.fieldnames}; "
                f"expected {_CSV_HEADER}"
            )
        for lineno, row in enumerate(reader, start=2):
            if any(row.get(name) is None for name in _CSV_HEADER):
                raise ValueError(
                    f"{path}:{lineno}: row has missing columns"
                )
            for name in _CSV_HEADER:
                cols[name].append(row[name])
    if not cols["timestamp_s"]:
        raise ValueError(f"{path}: no requests")
    try:
        timestamps = np.array(cols["timestamp_s"], dtype=np.float64)
        runtimes = np.array(cols["runtime_ms"], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(
            f"{path}: non-numeric timestamp_s/runtime_ms column: {exc}"
        ) from exc
    return _build_trace(
        path,
        timestamps_s=timestamps,
        workload_ids=np.array(cols["workload_id"]),
        function_ids=np.array(cols["function_id"]),
        runtimes_ms=runtimes,
        families=np.array(cols["family"]),
    )


def save_request_trace_npz(trace: RequestTrace, path: Path | str) -> None:
    """Write a request trace as a compressed NPZ column bundle."""
    np.savez_compressed(
        Path(path),
        timestamps_s=trace.timestamps_s,
        workload_ids=trace.workload_ids,
        function_ids=trace.function_ids.astype(str),
        runtimes_ms=trace.runtimes_ms,
        families=trace.families.astype(str),
    )


def load_request_trace_npz(path: Path | str) -> RequestTrace:
    """Read an NPZ written by :func:`save_request_trace_npz`."""
    with np.load(Path(path), allow_pickle=False) as data:
        required = {"timestamps_s", "workload_ids", "function_ids",
                    "runtimes_ms", "families"}
        missing = required - set(data.files)
        if missing:
            raise ValueError(f"{path}: missing arrays {sorted(missing)}")
        lengths = {name: data[name].shape for name in sorted(required)}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                f"{path}: arrays have mismatched lengths {lengths}"
            )
        return _build_trace(
            Path(path),
            timestamps_s=data["timestamps_s"],
            workload_ids=data["workload_ids"],
            function_ids=data["function_ids"],
            runtimes_ms=data["runtimes_ms"],
            families=data["families"],
        )
