"""Analytic checks of the independent reference.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import math

import numpy as np
import pytest

from reference import Polyline, check_path, close, lower_bound, path_cost

PARALLEL = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)])
PERPENDICULAR = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (0.0, 1.0)])
STEPS = 1 << 14


def pair(curves):
    return Polyline(curves[0]), Polyline(curves[1])


def test_parallel_diagonal_costs_two():
    t1, t2 = pair(PARALLEL)
    assert path_cost(t1, t2, [(0, 0), (1, 1)]) == pytest.approx(2.0, rel=1e-14)


def test_perpendicular_diagonal_costs_sqrt2():
    # w(t, t) = sqrt(2) t and the L1 speed is 2, so the cost is sqrt(2)
    t1, t2 = pair(PERPENDICULAR)
    cost = path_cost(t1, t2, [(0, 0), (0.25, 0.25), (1, 1)])
    assert cost == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_parallel_staircase_matches_arsinh_form():
    # each leg integrates sqrt(1 + s^2) over [0, 1]
    t1, t2 = pair(PARALLEL)
    leg = 0.5 * (math.sqrt(2.0) + math.asinh(1.0))
    assert path_cost(t1, t2, [(0, 0), (1, 0), (1, 1)]) == pytest.approx(2 * leg, rel=1e-13)


def test_crossing_curves_kink_inside_a_leg():
    # the curves cross at their midpoints: w = sqrt(2) |t - 1| on the diagonal
    t1 = Polyline([(-1, 0), (1, 0)])
    t2 = Polyline([(0, -1), (0, 1)])
    assert path_cost(t1, t2, [(0, 0), (2, 2)]) == pytest.approx(2 * math.sqrt(2.0), rel=1e-13)


def test_near_miss_against_closed_form():
    # T2 shifted by delta: on the diagonal |T1 - T2|^2 = 2 v^2 + delta^2 / 2
    # with v = t - 1 - delta / 2, so the cost is 2 * int sqrt(a^2 v^2 + d^2) dv
    delta = 1e-7
    t1 = Polyline([(-1, 0), (1, 0)])
    t2 = Polyline([(delta, -1), (delta, 1)])
    a, d = math.sqrt(2.0), delta / math.sqrt(2.0)

    def prim(v):
        r = math.sqrt(a * a * v * v + d * d)
        return 0.5 * v * r + d * d / (2 * a) * math.asinh(a * v / d)

    expect = 2.0 * (prim(1.0 - delta / 2) - prim(-1.0 - delta / 2))
    assert path_cost(t1, t2, [(0, 0), (2, 2)]) == pytest.approx(expect, rel=1e-13)


def test_multi_segment_cuts_and_identity():
    pts = [(0, 0), (1, 0.4), (1.7, 0.9), (2.5, 0.6)]
    t = Polyline(pts)
    diag = [(0, 0), (t.length, t.length)]
    assert path_cost(t, t, diag) == pytest.approx(0.0, abs=1e-14)
    # cutting a leg into pieces does not change its cost
    t2 = Polyline([(0, 1), (1.2, 1.5), (2.4, 0.8)])
    whole = path_cost(t, t2, [(0, 0), (t.length, t2.length)])
    k = np.linspace(0.0, 1.0, 7)[:, None] * np.array([t.length, t2.length])
    assert path_cost(t, t2, k) == pytest.approx(whole, rel=1e-13)


def test_lower_bound_parallel_is_two():
    t1, t2 = pair(PARALLEL)
    lb = lower_bound(t1, t2, STEPS)
    assert 2.0 - 2 * 0.25 / STEPS <= lb <= 2.0


def test_lower_bound_perpendicular_is_one():
    # d(T1(x), T2) = x and d(T2(y), T1) = y
    t1, t2 = pair(PERPENDICULAR)
    lb = lower_bound(t1, t2, STEPS)
    assert 1.0 - 2 * 0.25 / STEPS <= lb <= 1.0


def test_lower_bound_below_every_sampled_matching():
    rng = np.random.default_rng(3)
    t1 = Polyline(np.cumsum(rng.uniform(-1, 1, (4, 2)), axis=0))
    t2 = Polyline(np.cumsum(rng.uniform(-1, 1, (5, 2)), axis=0))
    lb = lower_bound(t1, t2, STEPS)
    assert lb > 0.0
    for _ in range(20):
        xs = np.sort(rng.uniform(0, t1.length, 6))
        ys = np.sort(rng.uniform(0, t2.length, 6))
        path = [(0.0, 0.0)] + list(zip(xs, ys)) + [(t1.length, t2.length)]
        assert path_cost(t1, t2, path) >= lb


def test_check_path_flags_problems():
    assert check_path([(0, 0), (1, 2)], 1.0, 2.0) == []
    assert check_path([(0, 0), (0.5, 1), (0.4, 2), (1, 2)], 1.0, 2.0)
    assert check_path([(0, 0), (1, 1.5)], 1.0, 2.0)
    assert check_path([(0.1, 0), (1, 2)], 1.0, 2.0)


def test_close():
    assert close(1.0 + 1e-12, 1.0, 1e-9, 0.0)
    assert not close(1.0 + 1e-8, 1.0, 1e-9, 0.0)
    assert close(1e-300, 0.0, 1e-9, 1e-12)
