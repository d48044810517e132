import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ifd
from ifd.integrals import _WALK_ALL, _split, _walk

from helpers import (
    PARALLEL,
    PERPENDICULAR,
    QuadratureDepth,
    _simpson,
    curve_pair,
    over_scales,
    quadrature_weighted_length,
    random_cell,
    random_curve,
    random_monotone_pair,
)

# int_0^1 sqrt(t^2+1) dt, frozen from the adaptive-Simpson oracle (tol 1e-12)
SQRT1P = 1.147793574696319


def _pieces(grid, a, b):
    """(p, q, cell) of every piece the library's splitter cuts a -> b into."""
    _, p, q, i, j = _split(grid, a, b)
    return [(pp, qq, grid.cell(ii, jj)) for pp, qq, ii, jj in zip(p, q, i.tolist(), j.tolist())]


def _weigh(cell, a, b):
    """Closed-form weighted length of one in-cell piece a -> b."""
    return float(ifd.piece_weights(cell, a, b)[0])


def test_split_single_cell():
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    pieces = _pieces(g, (0.1, 0.2), (0.9, 0.8))
    assert len(pieces) == 1
    assert pieces[0][2] is g.cell(0, 0)


def test_split_on_parameter_line():
    t1 = ifd.build_curve([(0, 0), (1, 0), (2, 0)])
    t2 = ifd.build_curve([(0, 1), (2, 1)])
    g = ifd.build_cells(t1, t2)
    pieces = _pieces(g, (0.5, 1.0), (1.5, 1.0))
    assert len(pieces) == 2
    assert np.array_equal(pieces[0][1], pieces[1][0])
    assert pieces[0][1][0] == pytest.approx(1.0)
    assert [(cell.i, cell.j) for _, _, cell in pieces] == [(0, 0), (1, 0)]


def test_split_diagonal_two_by_two():
    t1 = ifd.build_curve([(0, 0), (1, 0), (2, 0)])
    t2 = ifd.build_curve([(0, 1), (1, 1), (2, 1)])
    g = ifd.build_cells(t1, t2)
    pieces = _pieces(g, (0.0, 0.0), (2.0, 2.0))
    assert len(pieces) == 2
    assert np.allclose(pieces[0][1], (1.0, 1.0))


def test_axis_aligned_arsinh_value():
    # T2 pinned at (0,1), T1 sweeps x in [0,1]: integral of sqrt(t^2+1)
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    p, q, cell = _pieces(g, (0.0, 0.0), (1.0, 0.0))[0]
    val = _weigh(cell, p, q)
    assert val == pytest.approx(SQRT1P, abs=1e-12)
    assert val == pytest.approx(quadrature_weighted_length(g, (0, 0), (1, 0)), abs=1e-10)


def test_axis_aligned_degenerate_cases():
    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_cells(t1, t2)
    assert _weigh(g.cell(0, 0), (0.3, 0.3), (0.3, 0.3)) == 0.0
    # fixed point on the moving line: integral of t
    p, q, cell = _pieces(g, (0.0, 0.0), (1.0, 0.0))[0]
    assert _weigh(cell, p, q) == pytest.approx(0.5, abs=1e-12)


def test_on_axis_values():
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    assert ifd.segment_weighted_length(g, (0, 0), (1, 1)) == pytest.approx(2.0, abs=1e-12)

    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_cells(t1, t2)
    assert ifd.segment_weighted_length(g, (0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)
    # symmetric piece around the center: the weight is linear on either side
    sym = ifd.segment_weighted_length(g, (0.25, 0.25), (0.75, 0.75))
    assert sym == pytest.approx(0.5 * math.sqrt(2), abs=1e-12)
    direct = quadrature_weighted_length(g, (0.25, 0.25), (0.75, 0.75))
    assert sym == pytest.approx(direct, abs=1e-10)


def _axis_aligned_reference(cell, a, b):
    """Weighted length of a horizontal a -> b from the point-to-line geometry.

    The T2 point stays fixed, the T1 point runs along a line; with t the
    arc length from the foot of the perpendicular and h the foot distance
    the weight is sqrt(t^2 + h^2).
    """
    fixed = cell.b0 + (a[1] - cell.y0) * cell.v
    rel = fixed - cell.a0
    foot = float(np.dot(rel, cell.u))
    hsq = float(np.dot(rel - foot * cell.u, rel - foot * cell.u))

    def prim(t):
        r = math.hypot(t, math.sqrt(hsq))
        return 0.5 * (t * r + hsq * math.asinh(t / math.sqrt(hsq)))

    return prim(b[0] - cell.x0 - foot) - prim(a[0] - cell.x0 - foot)


def _on_axis_reference(cell, a, b):
    """Trapezoid along the monotone axis, split at its kink; exact there."""
    axes = ifd.free_space_axes(cell)
    ta, tb = sorted((axes.l1_of(a), axes.l1_of(b)))
    knots = [ta, 0.0, tb] if ta < 0.0 < tb else [ta, tb]
    return sum(0.5 * (axes.w_at(lo) + axes.w_at(hi)) * (hi - lo)
               for lo, hi in zip(knots[:-1], knots[1:]))


def test_general_matches_special_forms():
    # the one closed form reproduces the dedicated formulas it replaced
    rng = np.random.default_rng(10)
    for _ in range(40):
        grid, cell = random_cell(rng)
        a, b = random_monotone_pair(rng, cell)
        horiz = _weigh(cell, a, (b[0], a[1]))
        assert horiz == pytest.approx(_axis_aligned_reference(cell, a, b), rel=1e-12, abs=1e-14)
        p, q = ifd.free_space_axes(cell).ell or (None, None)
        if p is not None:
            on_axis = _weigh(cell, p, q)
            assert on_axis == pytest.approx(_on_axis_reference(cell, p, q), rel=1e-12, abs=1e-14)
    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_cells(t1, t2)
    p, q, cell = _pieces(g, (0, 0), (1, 1))[0]
    assert _weigh(cell, p, q) == pytest.approx(_on_axis_reference(cell, p, q), rel=1e-12)


@pytest.mark.parametrize("angle", [1.8e-4, 1e-3])
def test_near_parallel_axis_matches_quadrature(angle):
    # nearly parallel generic cell: the axis center lies far outside the cell,
    # which cost the former on-axis trapezoid up to 2.4e-9 relative
    t1 = ifd.build_curve([(0.0, 0.0), (1.0, 0.0)])
    t2 = ifd.build_curve([(0.1, 0.3), (0.1 + math.cos(angle), 0.3 + math.sin(angle))])
    g = ifd.build_cells(t1, t2)
    assert g.cell(0, 0).kind == "generic"
    p, q = ifd.free_space_axes(g.cell(0, 0)).ell
    exact = ifd.segment_weighted_length(g, p, q)
    reference = quadrature_weighted_length(g, p, q, tol=1e-13)
    assert exact == pytest.approx(reference, rel=1e-11, abs=0.0)


def test_general_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(60):
        grid, cell = random_cell(rng)
        a, b = random_monotone_pair(rng, cell)
        exact = _weigh(cell, a, b)
        approx = quadrature_weighted_length(grid, a, b, tol=1e-12)
        assert exact == pytest.approx(approx, rel=1e-8, abs=1e-12)


def test_quadrature_basics():
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    assert quadrature_weighted_length(g, (0, 0), (1, 0)) == pytest.approx(SQRT1P, abs=1e-10)
    assert quadrature_weighted_length(g, (0, 0), (1, 1)) == pytest.approx(2.0, abs=1e-12)
    assert quadrature_weighted_length(g, (0.4, 0.4), (0.4, 0.4)) == 0.0


def test_additivity_under_split():
    rng = np.random.default_rng(12)
    t1 = ifd.build_curve([(0, 0), (1, 0.2), (2.2, 0.1)])
    t2 = ifd.build_curve([(0, 1), (0.7, 1.3), (1.5, 0.9)])
    g = ifd.build_cells(t1, t2)
    for _ in range(25):
        a = (rng.uniform(0, t1.length), rng.uniform(0, t2.length))
        b = (rng.uniform(a[0], t1.length), rng.uniform(a[1], t2.length))
        pieces = _pieces(g, a, b)
        total = sum(_weigh(cell, p, q) for p, q, cell in pieces)
        assert total == pytest.approx(ifd.segment_weighted_length(g, a, b), abs=1e-10)
        mids = [ifd.segment_weighted_length(g, a, q) + ifd.segment_weighted_length(g, q, b)
                for _, q, _ in pieces[:-1]]
        for m in mids:
            assert m == pytest.approx(total, abs=1e-10)


def test_scale_covariance():
    # every branch test is relative, so tiny and huge curves weigh alike;
    # segments include axis-aligned ones and the cells' clipped axes
    rng = np.random.default_rng(13)
    for pair in (([(0, 0), (1, 0.3), (1.8, -0.2)], [(0.2, 1), (1.1, 1.4)]), PERPENDICULAR):
        t1, t2 = curve_pair(pair)
        g = ifd.build_cells(t1, t2)
        segs = []
        for _ in range(10):
            a = (rng.uniform(0, t1.length), rng.uniform(0, t2.length))
            b = (rng.uniform(a[0], t1.length), rng.uniform(a[1], t2.length))
            segs += [(a, b), (a, (b[0], a[1])), (a, (a[0], b[1]))]
        segs += [ifd.free_space_axes(c).ell for col in g.cells for c in col]
        segs = np.array([s for s in segs if s is not None], dtype=float)
        base = ifd.segment_weighted_length(g, segs[:, 0], segs[:, 1])
        for s in (0.5, 3.0, 1e-10, 1e-8, 1e6):
            g2 = ifd.build_cells(t1.scaled(s), t2.scaled(s))
            scaled = ifd.segment_weighted_length(g2, s * segs[:, 0], s * segs[:, 1])
            np.testing.assert_allclose(scaled / (s * s), base, rtol=1e-12, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@example(f1=0.0, f2=5e-324, f3=0.0)  # a subnormal step from the zero leash weighed NaN
def test_extension_never_decreases(f1, f2, f3):
    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_cells(t1, t2)
    x1, x2 = sorted((f1, f2))
    a, b, c = (x1 * 0.9, x1 * 0.6), (x2 * 0.9, x2 * 0.6), (0.9 + 0.1 * f3, 0.6 + 0.4 * f3)
    short = ifd.segment_weighted_length(g, a, b)
    longer = ifd.segment_weighted_length(g, a, c) if (c[0] >= b[0] and c[1] >= b[1]) else None
    assert short >= -1e-15
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if longer is not None and abs(cross) <= 1e-12:
        assert longer >= short - 1e-12


@pytest.mark.parametrize("d", [5e-324, 1e-310, 1e-300])
def test_subnormal_steps_weigh_finite(d):
    # 2 / d overflows below about 1.1e-308; a step that short still weighs
    # its L1 length times the leash, 0 from the zero leash and about 1 unit
    # per unit step from the unit one
    unit_leash = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (0.0, 2.0)])
    for pair, leash in ((PERPENDICULAR, 0.0), (unit_leash, 1.0)):
        g = ifd.build_cells(*curve_pair(pair))
        for step in ((d, d), (d, 0.0), (0.0, d)):
            l1 = step[0] + step[1]
            pieces = ifd.piece_weights(g.cell(0, 0), np.zeros((1, 2)), np.array([step]))
            for w in (float(pieces[0]), ifd.segment_weighted_length(g, (0.0, 0.0), step)):
                assert math.isfinite(w) and w >= 0.0, (pair, step, w)
                assert w == pytest.approx(leash * l1, rel=1e-9, abs=1e-322)


def test_piece_weights_exact_at_extreme_scales():
    # curves and pieces scaled by 2^p give exactly 4^p times the weights, on
    # pieces from 1e-6 to 1 of the cell, zero-length ones and one that
    # starts where the segments cross (the leash is zero there)
    rng = np.random.default_rng(7)
    t1 = np.array([(-1.0, -0.2), (1.3, 0.4)])
    t2 = np.array([(0.1, -1.1), (-0.2, 0.9)])
    cell = ifd.build_cells(ifd.build_curve(t1), ifd.build_curve(t2)).cell(0, 0)
    size = np.array([cell.width, cell.height])
    a = rng.uniform(0.0, 1.0, (200, 2)) * size
    b = a + (rng.uniform(0.0, 1.0, (200, 2)) * size - a) * 10.0 ** rng.uniform(-6, 0, (200, 1))
    b[::9] = a[::9]
    u, v = cell.u, cell.v
    d0 = cell.b0 - cell.a0
    cross = u[0] * v[1] - u[1] * v[0]
    foot = np.array([(d0[0] * v[1] - d0[1] * v[0]) / cross, (d0[0] * u[1] - d0[1] * u[0]) / cross])
    a[0], b[0] = foot, foot + 1e-6 * size
    ref = ifd.piece_weights(cell, a, b)
    assert ref[0] == pytest.approx(1e-6 * float(np.abs(size).sum()) * cell.weight_at(*b[0]) / 2, rel=1e-6)
    for p in (-300, -150, 150, 300):
        s = 2.0 ** p
        scaled = ifd.build_cells(ifd.build_curve(t1 * s), ifd.build_curve(t2 * s)).cell(0, 0)
        got = ifd.piece_weights(scaled, a * s, b * s)
        np.testing.assert_array_equal(got, np.ldexp(ref, 2 * p))


def _multi_cell_segments(rng, t1, t2, n):
    """Seeded monotone segments: generic, zero-length, on parameter lines, long."""
    l1, l2 = t1.length, t2.length
    a = np.column_stack([rng.uniform(0, l1, n), rng.uniform(0, l2, n)])
    b = np.column_stack([rng.uniform(a[:, 0], l1), rng.uniform(a[:, 1], l2)])
    b[::7] = a[::7]                            # zero length
    a[1::7, 0] = b[1::7, 0] = t1.cum_length[1]  # on a vertical parameter line
    a[2::7, 1] = b[2::7, 1] = t2.cum_length[1]  # on a horizontal parameter line
    a[3::7] = 0.0                              # from the source across many cells
    b[3::7] = (l1, l2)
    return a, b


def test_array_form_matches_per_segment_calls():
    rng = np.random.default_rng(14)
    t1 = ifd.build_curve([(0, 0), (1, 0.2), (2.2, 0.1), (2.9, 0.8)])
    t2 = ifd.build_curve([(0, 1), (0.7, 1.3), (1.5, 0.9), (2.4, 1.6)])
    g = ifd.build_cells(t1, t2)
    a, b = _multi_cell_segments(rng, t1, t2, 70)
    batch = ifd.segment_weighted_length(g, a, b)
    assert batch.shape == (70,)
    single = [ifd.segment_weighted_length(g, p, q) for p, q in zip(a, b)]
    assert all(isinstance(v, float) for v in single)
    np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)
    assert np.all(batch[::7] == 0.0)
    assert len(_pieces(g, a[3], b[3])) > 3
    # the array splitter returns every segment's pieces together and in
    # order along it, the pieces it cuts from that segment alone
    seg, *batch = _split(g, a, b)
    for k, (p, q) in enumerate(zip(a, b)):
        rows = np.flatnonzero(seg == k)
        assert np.all(np.diff(rows) == 1)
        for got, want in zip(batch, _split(g, p, q)[1:]):
            assert got[rows].tobytes() == want.tobytes()
    empty = ifd.segment_weighted_length(g, np.empty((0, 2)), np.empty((0, 2)))
    assert empty.shape == (0,)


def _assert_ends_kept(a, b, seg, p, q):
    """Each segment's first piece starts at a[k] and its last ends at b[k],
    bit for bit, and its pieces chain without gaps."""
    for k in range(len(a)):
        rows = np.flatnonzero(seg == k)
        assert len(rows) and np.all(np.diff(rows) == 1)
        assert p[rows[0]].tobytes() == a[k].tobytes() and q[rows[-1]].tobytes() == b[k].tobytes()
        assert p[rows[1:]].tobytes() == q[rows[:-1]].tobytes()


@over_scales
def test_pieces_keep_their_segment_ends(s):
    # a piece starts at its segment's own a and ends at its own b; a + d
    # would end this uncut segment one ulp short of b, at x = 228.680497235602
    t1 = ifd.build_curve(s * np.array([(0.0, 0.0), (2000.0, 0.0)]))
    t2 = ifd.build_curve(s * np.array([(0.0, 1.0), (0.0, 2.0)]))
    a = s * np.array([[0.8818047209967546, 0.0]])
    b = s * np.array([[228.68049723560202, 0.5]])
    cases = [(ifd.build_cells(t1, t2), a, b)]
    # seeded batches on both sides of the small-block bypass: long segments
    # that cross lines, short ones that mostly do not, zero-length ones, all
    # four directions, and one start at a -0.0 coordinate
    rng = np.random.default_rng(27)
    for n in (1, _WALK_ALL, _WALK_ALL + 1, 4 * _WALK_ALL):
        c1, c2 = random_curve(rng, 4, scale=s), random_curve(rng, 3, scale=s)
        ext = np.array([c1.length, c2.length])
        a = rng.uniform(0.0, 1.0, (n, 2)) * ext
        b = a + (rng.uniform(0.0, 1.0, (n, 2)) * ext - a) * 10.0 ** rng.uniform(-4, 0, (n, 1))
        b[1::5] = a[1::5]
        a[0, 0] = -0.0
        flip = rng.random(n) < 0.5
        flip[0] = False
        a[flip], b[flip] = b[flip], a[flip]
        cases.append((ifd.build_cells(c1, c2), a, b))
    crossed = uncut = 0
    for grid, a, b in cases:
        seg, p, q, _, _ = _split(grid, a, b)
        _assert_ends_kept(a, b, seg, p, q)
        walk = _walk(grid, a.tolist(), b.tolist())
        _assert_ends_kept(a, b, np.array([w[0] for w in walk]),
                          np.array([w[1] for w in walk]), np.array([w[2] for w in walk]))
        counts = np.bincount(seg, minlength=len(a))
        crossed, uncut = crossed + int((counts > 1).sum()), uncut + int((counts == 1).sum())
    assert crossed >= 20 and uncut >= 20


def test_cutting_builds_no_cells():
    # the grid is its two curves; weighing and cutting segments reads only
    # the cuts and the curves, so no cell is built, and asking for one
    # builds that one
    assert [f.name for f in dataclasses.fields(ifd.CellGrid)] == ["t1", "t2"]
    rng = np.random.default_rng(15)
    t1 = ifd.build_curve([(0, 0), (1, 0.2), (2.2, 0.1), (2.9, 0.8)])
    t2 = ifd.build_curve([(0, 1), (0.7, 1.3), (1.5, 0.9), (2.4, 1.6)])
    g = ifd.build_cells(t1, t2)
    assert g.x_cuts is t1.cum_length and g.y_cuts is t2.cum_length
    a, b = _multi_cell_segments(rng, t1, t2, 20)
    ifd.segment_weighted_length(g, a, b)
    ifd.segment_weighted_length(g, a[0], b[0])
    _split(g, a, b)
    assert not vars(g).get("_built")
    cell = g.cell(2, 1)
    assert list(g._built) == [(2, 1)] and g.cell(-1, 1) is cell
    assert (cell.i, cell.j, cell.x0, cell.y1) == (2, 1, t1.cum_length[2], t2.cum_length[2])
    # the table reuses the built cell and builds the rest, in cells[i][j] order
    table = g.cells
    assert table[2][1] is cell and len(g._built) == g.n_cols * g.n_rows
    assert [[(c.i, c.j) for c in col] for col in table] == [
        [(i, j) for j in range(g.n_rows)] for i in range(g.n_cols)]
    assert all(c is g.cell(c.i, c.j) for col in table for c in col)


def test_simpson_depth_limit():
    jump = lambda x: 0.0 if x < math.pi / 7 else 1.0
    with pytest.raises(QuadratureDepth):
        _simpson(jump, 0.0, 1.0, jump(0.0), jump(0.5), jump(1.0), 1e-300, 40)


def test_public_names_in_step():
    assert all(hasattr(ifd, name) for name in ifd.__all__)
    for gone in ("weighted_length_general", "weighted_length_axis_aligned",
                 "weighted_length_on_axis"):
        assert gone not in ifd.__all__ and not hasattr(ifd, gone)
    assert not hasattr(ifd.errors, "NotOnAxis") and not hasattr(ifd.errors, "NonConvergence")
    assert not hasattr(ifd.integrals, "WeightedSegment")
    for module, gone in ((ifd, "arsinh_form"), (ifd.integrals, "piece_quadratics"),
                         (ifd.errors, "NegativeRadicand")):
        assert not hasattr(module, gone), gone


@over_scales
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_segment_weighted_length_rejects_non_finite_points(s, bad):
    # the first bad segment is named, in the two-point form, in a walked
    # block and in one above _WALK_ALL, where a NaN piece once went to
    # another cell than in a walked block
    rng = np.random.default_rng(4)
    grid = ifd.build_cells(random_curve(rng, 3, scale=s), random_curve(rng, 3, scale=s))
    l1, l2 = grid.extent
    for n in (1, _WALK_ALL + 1):
        a = rng.uniform(0.0, 0.5, (n, 2)) * (l1, l2)
        b = a + rng.uniform(0.0, 0.5, (n, 2)) * (l1, l2)
        for coord in range(4):
            k = int(rng.integers(n))
            ends = np.hstack((a, b))
            ends[k:, coord] = bad
            with pytest.raises(ValueError, match=f"segment {k} has a non-finite coordinate"):
                ifd.segment_weighted_length(grid, ends[:, :2], ends[:, 2:])
            if n == 1:
                with pytest.raises(ValueError, match="segment 0 has a non-finite coordinate"):
                    ifd.segment_weighted_length(grid, tuple(ends[0, :2]), tuple(ends[0, 2:]))


@over_scales
def test_walk_cuts_lie_on_their_lines(s):
    # every interior cut carries the coordinate of the line it crosses bit
    # for bit, both coordinates where an x-line and a y-line cross at one
    # parameter; only the other coordinate is a + s d, so consecutive piece
    # ends may step back by one ulp there, float dust to the dominance rule
    rng = np.random.default_rng(28)
    shared = 0
    for _ in range(30):
        t1, t2 = random_curve(rng, 5, scale=s), random_curve(rng, 4, scale=s)
        grid = ifd.build_cells(t1, t2)
        xc, yc = t1.cum_length.tolist(), t2.cum_length.tolist()
        ext = np.array([t1.length, t2.length])
        a = rng.uniform(0.0, 1.0, (20, 2)) * ext
        b = rng.uniform(0.0, 1.0, (20, 2)) * ext
        # segments through the inner grid corners, where both lines cross at once
        corners = np.array([(x, y) for x in xc[1:-1] for y in yc[1:-1]])
        through = corners[rng.integers(len(corners), size=20)]
        t = rng.uniform(0.1, 0.9, (20, 1))
        d = rng.uniform(-1.0, 1.0, (20, 2)) * ext
        a, b = np.vstack((a, through - t * d)), np.vstack((b, through + (1.0 - t) * d))
        pieces = _walk(grid, a.tolist(), b.tolist())
        for k, ((ax, ay), (bx, by)) in enumerate(zip(a.tolist(), b.tolist())):
            ends = [q for seg, _, q, _, _ in pieces if seg == k][:-1]
            for (x, y) in ends:
                assert x in xc or y in yc
            for axis, (lo, hi), cuts in ((0, (ax, bx), xc), (1, (ay, by), yc)):
                for c in cuts:
                    if min(lo, hi) < c < max(lo, hi) and 0.0 < (c - lo) / (hi - lo) < 1.0:
                        assert any(e[axis] == c for e in ends)
            shared += sum(x in xc and y in yc for x, y in ends)
            path = np.array([(ax, ay), *ends, (bx, by)])
            steps = np.diff(path, axis=0) * np.sign(path[-1] - path[0])
            assert steps.min(initial=0.0) >= -1e-9 * np.abs(path).max()
    assert shared >= 20
