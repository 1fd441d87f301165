"""Tests for the policy shootout's per-config input sharing."""

import json

import pytest

from repro.platform import shootout
from repro.platform.shootout import ShootoutCell, ShootoutConfig, run_cell

CONFIG = ShootoutConfig(seed=3, n_requests=300, n_workloads=5,
                        horizon_s=10.0)
CELLS = [
    ShootoutCell("least-loaded", "histogram", "fair"),
    ShootoutCell("random", "none", "stf"),
    ShootoutCell("locality", "hybrid", "fifo"),
]


def _rows():
    return [json.dumps(run_cell(CONFIG, cell), sort_keys=True)
            for cell in CELLS]


def test_rows_equal_with_inputs_shared_or_rebuilt():
    shootout._cell_inputs.cache_clear()
    shared = _rows()  # the first cell builds the inputs, the rest share
    assert shootout._cell_inputs.cache_info().hits == len(CELLS) - 1
    rebuilt = []
    for cell in CELLS:
        shootout._cell_inputs.cache_clear()
        rebuilt.append(json.dumps(run_cell(CONFIG, cell), sort_keys=True))
    assert shared == rebuilt


def test_shared_inputs_are_read_only():
    ts, wids, profiles = shootout._cell_inputs(CONFIG)
    assert not ts.flags.writeable
    with pytest.raises(ValueError):
        ts[0] = 0.0
    assert isinstance(wids, tuple)
    fresh_ts, fresh_wids = shootout.make_load(CONFIG)
    assert ts.tobytes() == fresh_ts.tobytes()
    assert list(wids) == fresh_wids
    assert profiles == shootout.make_profiles(CONFIG)


def test_inputs_follow_the_config():
    other = ShootoutConfig(seed=4, n_requests=300, n_workloads=5,
                           horizon_s=10.0)
    a = shootout._cell_inputs(CONFIG)
    b = shootout._cell_inputs(other)
    assert a[0].tobytes() != b[0].tobytes()
    assert shootout._cell_inputs(CONFIG)[0].tobytes() == a[0].tobytes()
