import math

import numpy as np
import pytest

import ifd
from ifd.errors import AntiparallelCell, OutOfRange

from helpers import (
    ANTIPARALLEL,
    PARALLEL,
    PERPENDICULAR,
    SCALES,
    curve_pair,
    over_scales,
    random_cell,
    random_curve,
)


def test_weight_examples():
    t = ifd.build_curve([(0, 0), (1, 0), (1, 1)])
    assert ifd.weight(t, t, (0.7, 0.7)) == pytest.approx(0.0, abs=1e-15)

    t1, t2 = curve_pair(PARALLEL)
    assert ifd.weight(t1, t2, (0.3, 0.3)) == pytest.approx(1.0)

    t1, t2 = curve_pair(PERPENDICULAR)
    assert ifd.weight(t1, t2, (0.3, 0.4)) == pytest.approx(0.5)


def test_build_cells_shapes():
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    assert g.n_cols == 1 and g.n_rows == 1
    assert g.cell(0, 0).width == 1.0 and g.cell(0, 0).height == 1.0

    t1 = ifd.build_curve([(0, 0), (1, 0), (2, 0)])
    t2 = ifd.build_curve([(0, 1), (1, 1), (2, 1), (3, 1)])
    g = ifd.build_cells(t1, t2)
    assert g.n_cols == 2 and g.n_rows == 3

    t1 = ifd.build_curve([(0, 0), (3, 0), (3, 4)])
    t2 = ifd.build_curve([(0, 1), (1, 1)])
    g = ifd.build_cells(t1, t2)
    assert [g.cell(i, 0).width for i in range(2)] == [3.0, 4.0]
    assert g.cell(0, 0).height == 1.0


def test_perpendicular_axes():
    t1, t2 = curve_pair(PERPENDICULAR)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    ax = ifd.free_space_axes(cell)
    assert np.allclose(ax.center, (0.0, 0.0), atol=1e-12)
    assert np.allclose(ax.ell[0], (0.0, 0.0)) and np.allclose(ax.ell[1], (1.0, 1.0))
    # weight grows linearly with slope |u-v|/2 per L1 unit along the axis
    for t in np.linspace(0, 2, 9):
        p = ax.point_at(t)
        assert ax.w_at(t) == pytest.approx(math.sqrt(2) * t / 2, abs=1e-12)
        assert ax.w_at(t) == pytest.approx(ifd.weight(t1, t2, p), abs=1e-12)


def test_parallel_axes():
    t1, t2 = curve_pair(PARALLEL)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    ax = ifd.free_space_axes(cell)
    assert ax.slope == 0.0
    assert np.allclose(ax.ell[0], (0.0, 0.0)) and np.allclose(ax.ell[1], (1.0, 1.0))
    for t in (-0.4, 0.0, 0.7):
        assert ax.w_at(t) == pytest.approx(1.0)


def test_antiparallel_axes_raise():
    # an antiparallel cell's axis lies at infinity: free_space_axes has no
    # finite centre to give, and the intercept is +-inf on the side that the
    # generic -(du + dv)/(1 + c) takes as c -> -1 from above
    t1, t2 = curve_pair(ANTIPARALLEL)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    assert cell.kind == "antiparallel"
    with pytest.raises(AntiparallelCell):
        ifd.free_space_axes(cell)
    assert math.isinf(cell.axis_intercept)
    for sign in (1.0, -1.0):
        cells = []
        for angle in (1e-2, 1e-3, 1e-5):  # generic, generic, snapped to c = -1
            a = sign * angle
            t2 = ifd.build_curve([(1.2, 0.4), (1.2 - math.cos(a), 0.4 + math.sin(a))])
            cells.append(ifd.build_cells(t1, t2).cell(0, 0))
        assert [c.kind for c in cells] == ["generic", "generic", "antiparallel"]
        ks = [c.axis_intercept for c in cells]
        assert ks[2] == -sign * math.inf
        assert ks[0] * ks[2] > 0 and ks[1] * ks[2] > 0 and abs(ks[1]) > 5.0 * abs(ks[0])


def test_edge_min_examples():
    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_cells(t1, t2)
    left = [e for e in g.edges() if e.vertical and e.fixed == 0.0][0]
    u, w = ifd.edge_min(g, left)
    assert np.allclose(u, (0.0, 0.0)) and w == pytest.approx(0.0)

    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    left = [e for e in g.edges() if e.vertical and e.fixed == 0.0][0]
    u, w = ifd.edge_min(g, left)
    assert np.allclose(u, (0.0, 0.0)) and w == pytest.approx(1.0)
    top = [e for e in g.edges() if not e.vertical and e.fixed == 1.0][0]
    u, w = ifd.edge_min(g, top)
    assert np.allclose(u, (1.0, 1.0)) and w == pytest.approx(1.0)


def test_ellipse_slice_quarter_disc():
    t1, t2 = curve_pair(PERPENDICULAR)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    s = ifd.ellipse_slice(cell, 0.5)
    assert s.crossings["bottom"] == [pytest.approx(0.5)]
    assert s.crossings["left"] == [pytest.approx(0.5)]
    assert s.crossings["top"] == [] and s.crossings["right"] == []
    assert s.contains((0.3, 0.3))
    assert not s.contains((0.5, 0.5))


def test_ellipse_slice_degenerate_and_full():
    t1, t2 = curve_pair(PERPENDICULAR)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    zero = ifd.ellipse_slice(cell, 0.0)
    assert not zero.is_empty  # center (0,0) is a cell corner
    assert zero.contains((0.0, 0.0))
    full = ifd.ellipse_slice(cell, cell.max_corner_weight() + 0.1)
    assert full.is_full
    with pytest.raises(OutOfRange):
        ifd.ellipse_slice(cell, -0.1)

    t1, t2 = curve_pair(PARALLEL)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    assert ifd.ellipse_slice(cell, 0.5).is_empty  # w >= 1 everywhere


def test_ellipse_slice_nesting():
    rng = np.random.default_rng(3)
    for _ in range(25):
        _, cell = random_cell(rng)
        d1, d2 = np.sort(rng.uniform(0.0, cell.max_corner_weight(), 2))
        inner = ifd.ellipse_slice(cell, float(d1))
        outer = ifd.ellipse_slice(cell, float(d2))
        for side in ("bottom", "top"):
            y = cell.y0 if side == "bottom" else cell.y1
            for x in inner.crossings[side]:
                assert outer.contains((x, y))
        for side in ("left", "right"):
            x = cell.x0 if side == "left" else cell.x1
            for y in inner.crossings[side]:
                assert outer.contains((x, y))


def test_weight_is_1lipschitz_l1():
    rng = np.random.default_rng(4)
    for _ in range(10):
        t1 = random_curve(rng, int(rng.integers(1, 6)))
        t2 = random_curve(rng, int(rng.integers(1, 6)))
        n = 2000
        xs = rng.uniform(0, t1.length, (2, n))
        ys = rng.uniform(0, t2.length, (2, n))
        w1 = ifd.weight(t1, t2, np.column_stack((xs[0], ys[0])))
        w2 = ifd.weight(t1, t2, np.column_stack((xs[1], ys[1])))
        d1 = np.abs(xs[0] - xs[1]) + np.abs(ys[0] - ys[1])
        assert np.all(w1 <= w2 + d1 + 1e-9)


def test_axis_duality():
    # on the monotone axis the leash is perpendicular to the bisector of u, v
    rng = np.random.default_rng(5)
    for _ in range(30):
        _, cell = random_cell(rng)
        ax = ifd.free_space_axes(cell)
        if ax.ell is None:
            continue
        bis = cell.u + cell.v
        bis = bis / np.linalg.norm(bis)
        p, q = ax.ell
        for f in np.linspace(0, 1, 7):
            x = p.x + f * (q.x - p.x)
            y = p.y + f * (q.y - p.y)
            leash = cell.leash(x, y)
            assert abs(float(np.dot(leash, bis))) <= 1e-9


def test_axis_weight_piecewise_linear():
    rng = np.random.default_rng(6)
    for _ in range(30):
        grid, cell = random_cell(rng)
        ax = ifd.free_space_axes(cell)
        if ax.ell is None:
            continue
        p, q = ax.ell
        for f in np.linspace(0, 1, 100):
            x = p.x + f * (q.x - p.x)
            y = p.y + f * (q.y - p.y)
            t = ax.l1_of((x, y))
            direct = ifd.weight(grid.t1, grid.t2, (x, y))
            assert ax.w_at(t) == pytest.approx(direct, abs=1e-10)


def test_locate_puts_line_points_in_lower_cell():
    # one rule: a point on a parameter line belongs to the lower/left cell,
    # and a point outside the rectangle to the nearest cell
    t1 = ifd.build_curve([(0, 0), (1, 0), (2, 0), (3, 0)])
    t2 = ifd.build_curve([(0, 1), (1, 1), (2, 1)])
    g = ifd.build_cells(t1, t2)
    # inside a cell
    assert g.locate(0.5, 0.5) == (0, 0)
    assert g.locate(2.5, 1.5) == (2, 1)
    # on each inner line
    assert g.locate(1.0, 0.5) == (0, 0)
    assert g.locate(2.0, 0.5) == (1, 0)
    assert g.locate(1.5, 1.0) == (1, 0)
    assert g.locate(2.0, 1.0) == (1, 0)
    # on the outer edges
    assert g.locate(0.0, 0.0) == (0, 0)
    assert g.locate(3.0, 2.0) == (2, 1)
    assert g.locate(0.0, 1.5) == (0, 1)
    assert g.locate(1.5, 2.0) == (1, 1)
    # outside the rectangle
    assert g.locate(-1.0, -0.5) == (0, 0)
    assert g.locate(4.0, 9.0) == (2, 1)
    assert g.locate(1.5, -3.0) == (1, 0)
    assert g.cell_at((2.0, 1.0)) is g.cell(1, 0)


def _segment_pair(a0, a1, b0, b1):
    t1 = ifd.build_curve([a0, a1])
    t2 = ifd.build_curve([b0, b1])
    return t1, t2, ifd.build_cells(t1, t2).cell(0, 0)


def _nearly_parallel_pair(angle=4e-5):
    # c rounds to 1 within the degeneracy tolerance, so the cell is 'parallel'
    d = 1.2 * np.array([math.cos(angle), math.sin(angle)])
    return _segment_pair((0, 0), (1, 0), (0.1, 0.01), np.array([0.1, 0.01]) + d)


def _random_nearly_parallel(rng):
    """Two unit-ish segments a tilt of 1e-7 to 1e-3 rad apart, most of them 'parallel' cells."""
    a0 = rng.uniform(-1, 1, 2)
    ang = rng.uniform(0, 2 * math.pi)
    tilt = ang + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-7, -3)
    b0 = a0 + rng.uniform(-0.5, 0.5, 2)
    return _segment_pair(a0, a0 + np.array([math.cos(ang), math.sin(ang)]),
                         b0, b0 + 1.3 * np.array([math.cos(tilt), math.sin(tilt)]))


def _crossing_point(cell, side, v):
    return {
        "bottom": (v, cell.y0), "top": (v, cell.y1),
        "left": (cell.x0, v), "right": (cell.x1, v),
    }[side]


def test_cell_weight_is_the_curves_weight_on_nearly_parallel_cell():
    t1, t2, cell = _nearly_parallel_pair()
    assert cell.kind == "parallel"
    xs, ys = np.meshgrid(np.linspace(cell.x0, cell.x1, 41), np.linspace(cell.y0, cell.y1, 41))
    direct = ifd.weight(t1, t2, np.column_stack((xs.ravel(), ys.ravel())))
    model = cell.weight_at(xs.ravel(), ys.ravel())
    assert np.all(np.abs(model - direct) <= 1e-14 * direct)
    corners = ifd.weight(t1, t2, [(cell.x0, cell.y0), (cell.x0, cell.y1),
                                  (cell.x1, cell.y0), (cell.x1, cell.y1)])
    assert np.allclose(cell.corner_weights(), corners, rtol=1e-14, atol=0.0)


def test_ellipse_crossings_have_weight_delta():
    rng = np.random.default_rng(11)
    cases = [_nearly_parallel_pair()]
    cases += [random_cell(rng) for _ in range(40)]
    cases = [(grid.t1, grid.t2, cell) for grid, cell in cases[1:]] + cases[:1]
    cases += [_random_nearly_parallel(rng) for _ in range(10)]
    seen = 0
    for t1, t2, cell in cases:
        lo, hi = cell.min_weight(), cell.max_corner_weight()
        for delta in [0.02] + list(rng.uniform(lo, hi, 4)):
            for side, values in ifd.ellipse_slice(cell, float(delta)).crossings.items():
                for v in values:
                    w = ifd.weight(t1, t2, _crossing_point(cell, side, v))
                    assert abs(w - delta) <= 1e-12 * delta, (side, v, w, delta)
                    seen += 1
    assert seen > 200


def test_min_weight_zero_where_nearly_parallel_segments_cross():
    a = 1e-5
    d = np.array([math.cos(a), math.sin(a)])
    start = np.array([0.05, -0.5 * math.sin(a)])
    _, _, cell = _segment_pair((0, 0), (1, 0), start, start + d)
    assert cell.kind == "parallel"
    assert cell.min_weight() == 0.0


def _brute_min(t1, t2, cell, n=401):
    xs, ys = np.meshgrid(np.linspace(cell.x0, cell.x1, n), np.linspace(cell.y0, cell.y1, n))
    return float(ifd.weight(t1, t2, np.column_stack((xs.ravel(), ys.ravel()))).min())


def test_min_weight_matches_brute_force():
    rng = np.random.default_rng(12)
    cells = []
    for _ in range(10):
        grid, cell = random_cell(rng)
        cells.append((grid.t1, grid.t2, cell))
    for _ in range(10):
        # T2 starts a hair away from a point of T1 and leaves at a random angle
        a0, a1 = rng.uniform(-1, 1, (2, 2))
        gap, ang, out = 10.0 ** rng.uniform(-9, -4), *rng.uniform(0, 2 * math.pi, 2)
        b0 = a0 + rng.uniform(0, 1) * (a1 - a0) + gap * np.array([math.cos(ang), math.sin(ang)])
        cells.append(_segment_pair(a0, a1, b0, b0 + np.array([math.cos(out), math.sin(out)])))
    cells += [_random_nearly_parallel(rng) for _ in range(10)]
    for t1, t2, cell in cells:
        brute = _brute_min(t1, t2, cell)
        # the weight is 1-Lipschitz in L1, and some sample lies within half a step per axis
        slack = 0.5 * (cell.width + cell.height) / 400
        assert brute - slack - 1e-12 <= cell.min_weight() <= brute + 1e-12


def test_ellipse_slice_is_scale_free():
    rng = np.random.default_rng(13)
    for n in range(100):
        cell = (_random_nearly_parallel(rng) if n % 10 == 0 else random_cell(rng))[-1]
        pts1 = [cell.a0, cell.a0 + cell.width * cell.u]
        pts2 = [cell.b0, cell.b0 + cell.height * cell.v]
        lo, hi = cell.min_weight(), cell.max_corner_weight()
        for delta in (lo, hi, float(rng.uniform(lo, hi)), 0.5 * (lo + hi)):
            seen = []
            for s in SCALES:
                scaled = ifd.build_cells(ifd.build_curve(s * np.asarray(pts1)),
                                         ifd.build_curve(s * np.asarray(pts2))).cell(0, 0)
                sl = ifd.ellipse_slice(scaled, s * delta)
                crossings = {k: [v / s for v in vals] for k, vals in sl.crossings.items()}
                # the midpoint, and points 1e-13 and 1e-10 of x1 past the right side
                x1, ym = scaled.x1, 0.5 * scaled.y1
                inside = [sl.contains((0.5 * x1, ym))]
                inside += [scaled.contains((x1 * (1.0 + f), ym)) for f in (1e-13, 1e-10)]
                seen.append((crossings, sl.is_empty, sl.is_full, inside))
            assert seen[0] == seen[1] == seen[2], (n, delta, seen)


@pytest.mark.parametrize("delta", [math.nan, math.inf], ids=str)
def test_ellipse_slice_levels(delta):
    # a NaN level is out of range like a negative one (it once gave a slice
    # neither empty nor full that held no point); an infinite one is the whole cell
    t1, t2 = curve_pair(PERPENDICULAR)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    if math.isnan(delta):
        with pytest.raises(OutOfRange, match="nonnegative"):
            ifd.ellipse_slice(cell, delta)
    else:
        sl = ifd.ellipse_slice(cell, delta)
        assert sl.is_full and not sl.is_empty and sl.contains((0.5, 0.5))


@over_scales
def test_clipped_axis_ends_carry_their_sides(s):
    # an end of a clipped axis lies on a side of its cell with that side's
    # coordinate bit for bit (the lower end on the left or bottom side, the
    # upper one on the right or top side, or on the lower end where the axis
    # only grazes a corner), and so does an in-cell path's axis entry and
    # exit on the rectangle spanned by its ends; an antiparallel cell's axis
    # lies at infinity and misses its cell
    from ifd.cell_paths import _shortest_vertices
    from ifd.param_space import _clipped_axis

    rng = np.random.default_rng(29)
    ends = entries = 0
    for _ in range(40):
        t1, t2 = random_curve(rng, 4, scale=s), random_curve(rng, 4, scale=s)
        for col in ifd.build_cells(t1, t2).cells:
            for cell in col:
                ell = _clipped_axis(cell)
                if ell is None:
                    continue
                (lx, ly), (hx, hy) = ell
                assert lx == cell.x0 or ly == cell.y0
                assert hx == cell.x1 or hy == cell.y1 or (hx, hy) == (lx, ly)
                assert ell == ifd.free_space_axes(cell).ell
                ends += 1
                a = (float(rng.uniform(cell.x0, lx)), float(rng.uniform(cell.y0, ly)))
                b = (float(rng.uniform(hx, cell.x1)), float(rng.uniform(hy, cell.y1)))
                verts, branch = _shortest_vertices(cell, a, b)
                if branch == "through_axis":
                    (ex, ey), (fx, fy) = verts[1:3]
                    assert ex == a[0] or ey == a[1]
                    assert fx == b[0] or fy == b[1]
                    entries += 1
    assert ends >= 100 and entries >= 100
    t1, t2 = curve_pair(ANTIPARALLEL)
    assert _clipped_axis(ifd.build_cells(t1.scaled(s), t2.scaled(s)).cell(0, 0)) is None
