"""The speed sampler subtracts its probes and rescales to the reference.

    python3 -m pytest -q bench/test_speed.py
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402

REF = speed.REF_PROBE_S


def sampler(at, took):
    s = speed.Sampler()
    s.at, s.took = list(at), list(took)
    return s


def test_own_time_leaves_out_the_probes_inside():
    s = sampler([1.0, 2.0, 5.0], [0.1, 0.2, 0.3])
    assert s.own(0.5, 3.0) == pytest.approx(2.5 - 0.3)
    assert s.own(2.5, 4.0) == pytest.approx(1.5)


def test_a_machine_twice_as_slow_reports_the_same_time():
    fast = sampler([0.5, 1.5], [REF, REF])
    slow = sampler([0.5, 1.5, 2.5, 3.5], [2 * REF] * 4)
    assert fast.scaled(0.0, 2.0 + 2 * REF) == pytest.approx(2.0)
    assert slow.scaled(0.0, 4.0 + 8 * REF) == pytest.approx(2.0)


def test_speed_is_the_mean_of_reciprocal_probe_times():
    # Half the span at reference speed, half at half of it: the work done
    # is 1.5 reference seconds in 2 seconds.
    s = sampler([0.25, 1.25], [REF, 2 * REF])
    assert s.scaled(0.0, 2.0 + 3 * REF) == pytest.approx(1.5)


def test_a_span_without_probes_uses_the_nearest_ones():
    s = sampler([1.0, 3.0], [REF, 3 * REF])
    assert s.scaled(1.5, 2.5) == pytest.approx(1.0 * (1 + 1 / 3) / 2)
    assert s.scaled(5.0, 6.0) == pytest.approx(1 / 3)


def test_a_run_records_probes():
    s = speed.Sampler()
    s.start()
    try:
        x = 0
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            x += 1
    finally:
        s.stop()
    assert len(s.took) >= 3
    assert all(t > 0 for t in s.took)
