"""On-host runtime calibration for workload cost models.

The paper registers each Workload's average warm execution time by running
it repeatedly on the target machine (section 3.1.1).  The equivalent here:
measure a spread of inputs per family with ``time.process_time``, then
re-fit the family's linear cost model ``runtime = overhead + ms_per_unit *
work_units`` by least squares.  The shipped coefficients were produced by
exactly this harness on the reference machine; re-running it adapts the
pool to any host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.workloads.base import WorkloadFamily

__all__ = ["CalibrationResult", "measure_runtime_ms", "calibrate_family"]


@dataclass(frozen=True)
class CalibrationResult:
    """Fit of one family's cost model on this host."""

    family: str
    overhead_ms: float
    ms_per_unit: float
    #: (work_units, measured_ms) samples the fit was computed from.
    samples: tuple[tuple[float, float], ...]
    #: Coefficient of determination of the fit.
    r_squared: float

    def apply(self, family: WorkloadFamily) -> None:
        """Install the fitted coefficients onto a family instance."""
        if family.name != self.family:
            raise ValueError(
                f"calibration for {self.family!r} cannot apply to "
                f"{family.name!r}"
            )
        family.overhead_ms = self.overhead_ms
        family.ms_per_unit = self.ms_per_unit


def measure_runtime_ms(
    family: WorkloadFamily,
    params: dict,
    *,
    repeats: int = 3,
    warmups: int = 1,
    seed: int = 0,
) -> float:
    """Average warm CPU runtime of one input, in milliseconds.

    The payload is prepared once outside the timed region (FaaS platforms
    measure the function body, not input marshalling), warm-up iterations
    absorb allocator and cache effects, and the reported value is the mean
    of the remaining repeats.  Time is process CPU time
    (``time.process_time``), not wall clock: the paper's runtime is the
    work of one pinned core, and CPU time leaves out any time a loaded
    host keeps this process off a core.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if warmups < 0:
        raise ValueError("warmups must be non-negative")
    rng = np.random.default_rng(seed)
    payload = family.prepare(rng, **params)
    for _ in range(warmups):
        family.execute(payload)
    t0 = time.process_time()  # repro: allow-wall-clock
    for _ in range(repeats):
        family.execute(payload)
    elapsed = time.process_time() - t0  # repro: allow-wall-clock
    return elapsed / repeats * 1e3


def calibrate_family(
    family: WorkloadFamily,
    param_samples: list[dict],
    *,
    repeats: int = 3,
    warmups: int = 1,
    seed: int = 0,
) -> CalibrationResult:
    """Fit ``overhead_ms`` and ``ms_per_unit`` from measured inputs.

    Least squares on ``measured = overhead + ms_per_unit * units``; the
    overhead is clamped at zero (a negative intercept is measurement noise,
    not a model).  At least two samples with distinct work-unit counts are
    required.
    """
    if len(param_samples) < 2:
        raise ValueError("need at least two parameter samples to fit")
    units = np.array(
        [family.work_units(**p) for p in param_samples], dtype=np.float64
    )
    if np.unique(units).size < 2:
        raise ValueError("parameter samples must span distinct work volumes")
    measured = np.array(
        [
            measure_runtime_ms(
                family, p, repeats=repeats, warmups=warmups, seed=seed
            )
            for p in param_samples
        ]
    )
    design = np.column_stack([np.ones_like(units), units])
    coef, *_ = np.linalg.lstsq(design, measured, rcond=None)
    overhead = float(max(coef[0], 0.0))
    slope = float(max(coef[1], 1e-12))
    predicted = overhead + slope * units
    ss_res = float(((measured - predicted) ** 2).sum())
    ss_tot = float(((measured - measured.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CalibrationResult(
        family=family.name,
        overhead_ms=overhead,
        ms_per_unit=slope,
        samples=tuple(zip(units.tolist(), measured.tolist())),
        r_squared=r_squared,
    )
