"""Property tests for the sliding-window ``HistogramKeepAlive``.

Its ``ttl_s`` must answer exactly what sorting the whole window on every
call answers: the reference below is that algorithm, written out here so
any faster bookkeeping inside the policy is checked against it, float
for float (the sign of a zero included), across windows shorter than the
gap stream, duplicate, zero, negative and non-finite gaps, and every
percentile and clamp.

Runs under Hypothesis when it is installed; seeded streams exercise the
same comparison otherwise, so the suite never silently loses it.
"""

import math
import struct
from collections import deque

import numpy as np
import pytest

from repro.platform.keepalive import HistogramKeepAlive

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False


class SortPerCall:
    """Reference policy: keep the window as a deque, sort it per call."""

    def __init__(self, percentile, *, default_ttl_s, min_ttl_s, max_ttl_s,
                 window, min_observations):
        self.pct = percentile
        self.default = default_ttl_s
        self.min = min_ttl_s
        self.max = max_ttl_s
        self.window = window
        self.min_obs = min_observations
        self.gaps = {}

    def observe_idle_gap(self, workload_id, gap_s):
        if gap_s >= 0:
            self.gaps.setdefault(
                workload_id, deque(maxlen=self.window)
            ).append(gap_s)

    def ttl_s(self, workload_id):
        gaps = self.gaps.get(workload_id)
        if not gaps or len(gaps) < self.min_obs:
            return self.default
        ordered = sorted(gaps)
        k = min(int(len(ordered) * self.pct / 100.0), len(ordered) - 1)
        return float(min(max(ordered[k], self.min), self.max))


def _bits(x):
    return struct.pack("<d", x)


def check_against_reference(params, stream):
    """Feed ``stream`` of ``(workload, gap)`` to both policies and compare
    every workload's TTL after every observation."""
    policy = HistogramKeepAlive(**params)
    reference = SortPerCall(**params)
    workloads = sorted({w for w, _ in stream} | {"never-seen"})
    for w in workloads:
        assert _bits(policy.ttl_s(w)) == _bits(reference.ttl_s(w))
    for step, (workload, gap) in enumerate(stream):
        policy.observe_idle_gap(workload, gap)
        reference.observe_idle_gap(workload, gap)
        for w in workloads:
            got, want = policy.ttl_s(w), reference.ttl_s(w)
            assert _bits(got) == _bits(want), (step, w, got, want)


SPECIAL_GAPS = [0.0, -0.0, -1.0, 1.0, 2.5, 2.5, 60.0, math.inf, math.nan]

if HAVE_HYPOTHESIS:
    gaps = st.one_of(
        st.sampled_from(SPECIAL_GAPS),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1e4),
        st.integers(min_value=0, max_value=6).map(float),
    )
    params = st.fixed_dictionaries({
        "percentile": st.one_of(
            st.sampled_from([1.0, 50.0, 90.0, 99.0, 100.0]),
            st.floats(min_value=0.01, max_value=100.0),
        ),
        "default_ttl_s": st.sampled_from([0.0, 1.0, 600.0]),
        "min_ttl_s": st.sampled_from([0.0, 0.1, 2.5, 10.0]),
        "max_ttl_s": st.sampled_from([10.0, 100.0, math.inf]),
        "window": st.integers(min_value=1, max_value=8),
        "min_observations": st.integers(min_value=1, max_value=10),
    }).filter(lambda p: p["min_ttl_s"] <= p["max_ttl_s"])

    @settings(max_examples=300, deadline=None)
    @given(params=params, data=st.data())
    def test_ttl_matches_sort_per_call(params, data):
        n = data.draw(st.integers(params["window"] + 1, 60), label="n")
        stream = data.draw(st.lists(
            st.tuples(st.sampled_from(["a", "b"]), gaps),
            min_size=n, max_size=n,
        ), label="stream")
        check_against_reference(params, stream)


@pytest.mark.parametrize("seed", range(8))
def test_ttl_matches_sort_per_call_seeded(seed):
    rng = np.random.default_rng(seed)
    window = int(rng.integers(1, 9))
    min_ttl = float(rng.choice([0.0, 0.1, 2.5]))
    params = {
        "percentile": float(rng.choice([1.0, 50.0, 90.0, 100.0])),
        "default_ttl_s": 1.0,
        "min_ttl_s": min_ttl,
        "max_ttl_s": min_ttl + float(rng.choice([1.0, 100.0])),
        "window": window,
        "min_observations": int(rng.integers(1, window + 3)),
    }
    # few distinct values, so duplicates, zeros and negatives recur
    values = np.round(rng.uniform(-2.0, 8.0, 200), 0)
    stream = [
        (("a", "b")[int(rng.integers(0, 2))], float(v)) for v in values
    ]
    check_against_reference(params, stream)
