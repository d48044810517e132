import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifd
from ifd.errors import NotMonotone
from ifd.integrals import _split

from helpers import (
    ANTIPARALLEL,
    PARALLEL,
    SCALES,
    curve_pair,
    over_scales,
    random_curve,
    random_staircase,
)

LPATH_COST = 2.295587149392638  # two arsinh integrals, frozen via quadrature


def test_matching_cost_examples():
    t1, t2 = curve_pair(PARALLEL)
    assert ifd.matching_cost(t1, t2, [(0, 0), (1, 1)]) == pytest.approx(2.0, abs=1e-12)
    assert ifd.matching_cost(t1, t2, [(0, 0), (1, 0), (1, 1)]) == pytest.approx(
        LPATH_COST, abs=1e-9
    )
    t = ifd.build_curve([(0, 0), (2, 1), (3, 0)])
    assert ifd.matching_cost(t, t, [(0, 0), (t.length, t.length)]) == pytest.approx(0.0, abs=1e-12)


def test_matching_cost_rejects_backward_paths():
    t1, t2 = curve_pair(PARALLEL)
    with pytest.raises(NotMonotone):
        ifd.matching_cost(t1, t2, [(0, 0), (0.8, 0.8), (0.5, 1.0)])


def test_evaluate_matching():
    p = ifd.MonotonePath.from_points([(0, 0), (2, 0), (2, 2)])
    assert ifd.evaluate_matching(p, 0.0) == (0.0, 0.0)
    assert ifd.evaluate_matching(p, 1.0) == (2.0, 2.0)
    assert ifd.evaluate_matching(p, 0.5) == (2.0, 0.0)
    diag = ifd.MonotonePath.from_points([(0, 0), (1, 1)])
    assert ifd.evaluate_matching(diag, 0.5) == (0.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=2, max_size=12), st.floats(0, 1))
def test_evaluate_matching_projections_monotone(fracs, t):
    pts = np.cumsum(np.asarray([(f, 1.0 - f) for f in fracs]), axis=0)
    path = ifd.MonotonePath.from_points(np.vstack([[0.0, 0.0], pts]))
    x1, y1 = ifd.evaluate_matching(path, t * 0.5)
    x2, y2 = ifd.evaluate_matching(path, 0.5 + t * 0.5)
    assert x1 <= x2 + 1e-12 and y1 <= y2 + 1e-12


def test_locally_optimize_lpath_to_diagonal():
    t1, t2 = curve_pair(PARALLEL)
    out = ifd.locally_optimize(t1, t2, [(0, 0), (1, 0), (1, 1)])
    assert ifd.matching_cost(t1, t2, out) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(out.vertices, [(0, 0), (1, 1)])


def test_locally_optimize_fixpoint():
    t1, t2 = curve_pair(PARALLEL)
    out = ifd.locally_optimize(t1, t2, [(0, 0), (1, 1)])
    assert np.allclose(out.vertices, [(0, 0), (1, 1)])


def test_locally_optimize_random_staircases():
    rng = np.random.default_rng(50)
    t1 = random_curve(rng, 3)
    t2 = random_curve(rng, 3)
    end = (t1.length, t2.length)
    for _ in range(10):
        path = random_staircase(rng, (0.0, 0.0), end, steps=5)
        before = ifd.matching_cost(t1, t2, path)
        once = ifd.locally_optimize(t1, t2, path)
        after = ifd.matching_cost(t1, t2, once)
        assert after <= before + 1e-10 * (1 + before)
        twice = ifd.locally_optimize(t1, t2, once)
        assert ifd.matching_cost(t1, t2, twice) == pytest.approx(after, abs=1e-10 * (1 + after))
        # power-of-two scaling is exact, so the optimized path scales
        # exactly; absolute sweep tolerances merged 4 of these paths'
        # vertices at s = 2^-45
        for s in (2.0**-45, 2.0**20):
            scaled = ifd.locally_optimize(t1.scaled(s), t2.scaled(s), path.vertices * s)
            assert np.array_equal(scaled.vertices, once.vertices * s)


def test_locally_optimize_keeps_antiparallel_subpaths():
    t1, t2 = curve_pair(ANTIPARALLEL)
    pts = [(0, 0), (0.5, 0.0), (0.5, 0.5), (1, 1)]
    out = ifd.locally_optimize(t1, t2, pts)
    assert np.allclose(out.vertices, pts)
    assert ifd.matching_cost(t1, t2, out) == pytest.approx(
        ifd.matching_cost(t1, t2, pts), abs=1e-12
    )


def test_locally_optimize_makes_no_weight_call(monkeypatch):
    # the sweeps are geometric: only matching_cost weighs, in one call
    from ifd import integrals

    calls = []
    weigh = integrals.arsinh_form

    def counted(*args):
        calls.append(len(np.atleast_1d(args[0])))
        return weigh(*args)

    t1 = ifd.build_curve([(0, 0), (1, 0), (1.5, 1)])
    t2 = ifd.build_curve([(1, 0.5), (0, 0.5), (0.2, 1.5)])
    grid = ifd.build_cells(t1, t2)
    assert grid.cell(0, 0).kind == "antiparallel"
    path = [(0, 0), (0.6, 0.0), (0.6, 0.4), (t1.length, 0.4), (t1.length, t2.length)]
    before = ifd.matching_cost(t1, t2, path)
    monkeypatch.setattr(integrals, "arsinh_form", counted)
    out = ifd.locally_optimize(t1, t2, path)
    assert calls == []
    assert ifd.matching_cost(t1, t2, out) <= before + 1e-12
    assert len(calls) == 1


def test_locally_optimize_improves_leash_through_axis():
    t1, t2 = curve_pair(PARALLEL)
    path = [(0, 0), (1, 0), (1, 1)]
    out = ifd.locally_optimize(t1, t2, path)
    assert ifd.max_leash(t1, t2, out) <= ifd.max_leash(t1, t2, path) + 1e-9


def test_locally_optimize_pointwise_leash_domination():
    # within each replaced cell the new subpath's weights never exceed the
    # original subpath's largest weight (projection onto the axis shrinks
    # weights pointwise)
    rng = np.random.default_rng(51)
    t1 = random_curve(rng, 2)
    t2 = random_curve(rng, 3)
    grid = ifd.build_cells(t1, t2)
    if any(c.kind == "antiparallel" for col in grid.cells for c in col):
        pytest.skip("generator produced an antiparallel cell")
    for _ in range(5):
        path = random_staircase(rng, (0.0, 0.0), (t1.length, t2.length), steps=4)
        _, p, q, i, j = _split(grid, path.vertices[:-1], path.vertices[1:])
        groups = []
        for a, b, key in zip(p, q, zip(i.tolist(), j.tolist())):
            if groups and groups[-1][0] == key:
                groups[-1][1].append((a, b))
            else:
                groups.append((key, [(a, b)]))
        for key, segs in groups:
            cell = grid.cell(*key)
            old_max = max(
                max(float(cell.weight_at(*a)), float(cell.weight_at(*b)))
                for a, b in segs
            )
            new = ifd.cell_shortest_path(cell, segs[0][0], segs[-1][1])
            verts = np.asarray(new.vertices)
            for f in np.linspace(0.0, 1.0, 100):
                i = min(int(f * (len(verts) - 1)), len(verts) - 2)
                q = verts[i] + (f * (len(verts) - 1) - i) * (verts[i + 1] - verts[i])
                assert float(cell.weight_at(q[0], q[1])) <= old_max + 1e-9


def test_max_leash_examples():
    t1, t2 = curve_pair(PARALLEL)
    assert ifd.max_leash(t1, t2, [(0, 0), (1, 1)]) == pytest.approx(1.0)
    t = ifd.build_curve([(0, 0), (1, 1)])
    assert ifd.max_leash(t, t, [(0, 0), (t.length, t.length)]) == pytest.approx(0.0, abs=1e-12)
    t1p = ifd.build_curve([(0, 0), (1, 0)])
    t2p = ifd.build_curve([(0, 0), (0, 1)])
    assert ifd.max_leash(t1p, t2p, [(0, 0), (1, 1)]) == pytest.approx(math.sqrt(2))


@over_scales
def test_max_leash_of_optimized_oracle_path(s):
    # pairs 41 and 155 of this stream: the optimized path's last leg ends a
    # few ulps past the curves' ends at s = 2^30
    rng = np.random.default_rng(3)
    pairs = [(np.cumsum(rng.normal(size=(4, 2)), axis=0),
              np.cumsum(rng.normal(size=(3, 2)), axis=0) + 0.3) for _ in range(156)]
    cfg = ifd.GraphConfig.desk(0.5, mode="oracle", max_vertices=20000)
    for a, b in (pairs[41], pairs[155]):
        t1, t2 = ifd.build_curve(a * s), ifd.build_curve(b * s)
        path = ifd.locally_optimize(t1, t2, ifd.approximate_integral_frechet(t1, t2, cfg).path)
        assert path.vertices[-1] == pytest.approx((t1.length, t2.length), rel=1e-12)
        end_leash = np.linalg.norm(t2.vertices[-1] - t1.vertices[-1])
        assert ifd.max_leash(t1, t2, path) >= end_leash * (1.0 - 1e-12)


def test_monotone_path_validation():
    with pytest.raises(NotMonotone):
        ifd.MonotonePath.from_points([(0, 0), (1, 1), (0.5, 2)])
    # the tolerance is relative to the largest coordinate: a step back by half
    # the extent fails and one of 1e-12 of it is clamped, at every scale
    for s in SCALES:
        with pytest.raises(NotMonotone):
            ifd.MonotonePath.from_points(s * np.array([(0, 0), (2, 1), (1, 2)]))
        dust = ifd.MonotonePath.from_points(s * np.array([(0, 0), (1, 1), (1 - 1e-12, 2)]))
        assert dust.total_l1 == 3.0 * s
    p = ifd.MonotonePath.from_points([(0, 0), (1, 0), (1, 1)])
    assert p.total_l1 == pytest.approx(2.0)
    assert p.start == (0.0, 0.0) and p.end == (1.0, 1.0)


def test_substitution_builds_only_visited_cells():
    # an L-shaped path over two 40-segment walks visits 79 of the 1600
    # cells; the sweep builds those and no others
    rng = np.random.default_rng(1)
    t1, t2 = (ifd.build_curve(np.cumsum(rng.normal(size=(41, 2)), axis=0)) for _ in range(2))
    path = ifd.MonotonePath.from_points([(0, 0), (t1.length, 0), (t1.length, t2.length)])
    grid = ifd.build_cells(t1, t2)
    swept = ifd.matching._substitute_once(grid, path)
    _, _, _, i, j = _split(grid, path.vertices[:-1], path.vertices[1:])
    assert set(grid._built) == set(zip(i.tolist(), j.tolist()))
    assert len(grid._built) < grid.n_cols * grid.n_rows
    assert ifd.matching_cost(t1, t2, swept) <= ifd.matching_cost(t1, t2, path)
