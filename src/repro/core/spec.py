"""Experiment specifications -- the shrink ray's output artifact.

A spec is the self-contained, replayable description of one scaled-down
experiment: for every (super-)Function, the Workload it was mapped to and
its per-experiment-minute request counts.  The online load generator
(:mod:`repro.loadgen`) consumes specs; they serialise to JSON so experiments
are shareable and repeatable (the consistency goal of paper section 3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.stats.ecdf import EmpiricalCDF

__all__ = ["SpecEntry", "ExperimentSpec"]

_SPEC_VERSION = 1


@dataclass(frozen=True)
class SpecEntry:
    """One Function of the experiment: identity + mapped Workload."""

    function_id: str
    workload_id: str
    family: str
    runtime_ms: float
    memory_mb: float

    def __post_init__(self) -> None:
        if self.runtime_ms <= 0:
            raise ValueError(f"{self.function_id}: runtime must be positive")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.function_id}: memory must be positive")


@dataclass
class ExperimentSpec:
    """A replayable scaled-down experiment.

    Attributes
    ----------
    name:
        Label, typically derived from the source trace.
    source_trace:
        Name of the input trace.
    max_rps:
        The user's target maximum request rate (requests/second).
    entries:
        One :class:`SpecEntry` per Function.
    per_minute:
        ``(n_entries, duration_minutes)`` int64 request counts.
    metadata:
        Free-form provenance (threshold, seed, mode, ...).
    """

    name: str
    source_trace: str
    max_rps: float
    entries: list[SpecEntry]
    per_minute: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.per_minute = np.asarray(self.per_minute, dtype=np.int64)
        if not self.entries:
            raise ValueError("spec must contain at least one entry")
        if self.per_minute.ndim != 2 or self.per_minute.shape[0] != len(
            self.entries
        ):
            raise ValueError(
                "per_minute must be (n_entries, duration_minutes); got "
                f"{self.per_minute.shape} for {len(self.entries)} entries"
            )
        if np.any(self.per_minute < 0):
            raise ValueError("request counts must be non-negative")
        if self.max_rps <= 0:
            raise ValueError("max_rps must be positive")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def n_functions(self) -> int:
        return len(self.entries)

    @property
    def duration_minutes(self) -> int:
        return int(self.per_minute.shape[1])

    @property
    def total_requests(self) -> int:
        return int(self.per_minute.sum())

    @property
    def aggregate_per_minute(self) -> np.ndarray:
        return np.asarray(self.per_minute.sum(axis=0))

    @property
    def busiest_minute_rate(self) -> int:
        return int(self.aggregate_per_minute.max())

    @property
    def runtimes_ms(self) -> np.ndarray:
        return np.array([e.runtime_ms for e in self.entries])

    @property
    def requests_per_function(self) -> np.ndarray:
        return np.asarray(self.per_minute.sum(axis=1))

    def invocation_duration_cdf(self) -> EmpiricalCDF:
        """Weighted CDF of the spec's expected invocation durations
        (the Figure-9 curve for the generated load)."""
        counts = self.requests_per_function.astype(np.float64)
        mask = counts > 0
        if not mask.any():
            raise ValueError("spec carries no requests")
        return EmpiricalCDF.from_samples(self.runtimes_ms[mask], counts[mask])

    def family_request_shares(self) -> dict[str, float]:
        """Per-benchmark share of all requests (Figure 12)."""
        counts = self.requests_per_function.astype(np.float64)
        total = counts.sum()
        if total <= 0:
            raise ValueError("spec carries no requests")
        out: dict[str, float] = {}
        for entry, c in zip(self.entries, counts):
            out[entry.family] = out.get(entry.family, 0.0) + c / total
        return out

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": _SPEC_VERSION,
            "name": self.name,
            "source_trace": self.source_trace,
            "max_rps": self.max_rps,
            "entries": [
                {
                    "function_id": e.function_id,
                    "workload_id": e.workload_id,
                    "family": e.family,
                    "runtime_ms": e.runtime_ms,
                    "memory_mb": e.memory_mb,
                }
                for e in self.entries
            ],
            "per_minute": self.per_minute.tolist(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> ExperimentSpec:
        version = data.get("version")
        if version != _SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} "
                f"(expected {_SPEC_VERSION})"
            )
        return cls(
            name=data["name"],
            source_trace=data["source_trace"],
            max_rps=data["max_rps"],
            entries=_entries_from_dicts(data["entries"]),
            per_minute=np.array(data["per_minute"], dtype=np.int64),
            metadata=dict(data.get("metadata", {})),
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_bytes(json.dumps(self.to_dict()).encode("utf-8"))

    @classmethod
    def load(cls, path: Path | str) -> ExperimentSpec:
        """Read the spec saved at ``path`` (UTF-8 JSON, whatever the
        locale)."""
        return cls.from_dict(json.loads(Path(path).read_bytes()))


_ENTRY_FIELDS = frozenset(f.name for f in fields(SpecEntry))


def _entries_from_dicts(rows: list[dict[str, Any]]) -> list[SpecEntry]:
    """``[SpecEntry(**row) for row in rows]`` at a quarter of the cost.

    A row with exactly the entry's fields and a positive runtime and
    memory -- every row of a valid spec -- fills a new entry's
    ``__dict__`` directly instead of running the frozen dataclass's
    ``__init__``; any other row takes ``SpecEntry(**row)``, which
    raises the error it always did.
    """
    new = object.__new__
    entries = []
    for row in rows:
        if (row.keys() == _ENTRY_FIELDS and row["runtime_ms"] > 0
                and row["memory_mb"] > 0):
            entry = new(SpecEntry)
            entry.__dict__.update(row)
        else:
            entry = SpecEntry(**row)
        entries.append(entry)
    return entries

