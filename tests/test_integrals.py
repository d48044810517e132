import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifd
from ifd.errors import NegativeRadicand
from ifd.integrals import _split

from helpers import (
    PARALLEL,
    PERPENDICULAR,
    QuadratureDepth,
    _simpson,
    curve_pair,
    quadrature_weighted_length,
    random_cell,
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


def test_negative_radicand_detected():
    with pytest.raises(NegativeRadicand):
        ifd.arsinh_form(1.0, -4.0, 1.0, 1.0)  # min over [0,1] is -2
    with pytest.raises(NegativeRadicand):
        ifd.arsinh_form([1e-20, 1.0], [-4e-20, -2.0], [1e-20, 1.0], 1.0)  # any scale
    assert float(ifd.arsinh_form(1.0, -2.0, 1.0, 1.0)) == pytest.approx(0.5)  # touches 0


def test_arsinh_form_exact_at_extreme_scales():
    # coefficients scaled by 4^p and lengths by 2^-p give the same bits, even
    # where 4A^2 of the scaled coefficients underflows or overflows
    rng = np.random.default_rng(7)
    lead, vel = rng.normal(size=(2, 200, 2))
    vel *= 10.0 ** rng.uniform(-6, 6, (200, 1))
    A, B, C = (vel * vel).sum(1), 2.0 * (lead * vel).sum(1), (lead * lead).sum(1)
    length = rng.uniform(0.0, 3.0, 200)
    ref = ifd.arsinh_form(A, B, C, length)
    for p in (-300, -150, 150, 300):
        got = ifd.arsinh_form(*(np.ldexp(v, 2 * p) for v in (A, B, C)), np.ldexp(length, -p))
        np.testing.assert_array_equal(got, ref)
    # a 1e-85-long piece from a point where the leash is zero: w grows linearly
    assert float(ifd.arsinh_form(5.5e-171, 0.0, 0.0, 1e-85)) == pytest.approx(0.5e-85 * math.sqrt(5.5e-171))


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
    # the array splitter returns every segment's pieces, in order
    seg, *batch = _split(g, a, b)
    single = [_split(g, p, q) for p, q in zip(a, b)]
    np.testing.assert_array_equal(seg, np.repeat(np.arange(len(a)), [len(s[0]) for s in single]))
    for k, got in enumerate(batch, start=1):
        np.testing.assert_array_equal(got, np.concatenate([s[k] for s in single]))
    empty = ifd.segment_weighted_length(g, np.empty((0, 2)), np.empty((0, 2)))
    assert empty.shape == (0,)


def test_cutting_builds_no_cells():
    # the grid is its two curves; weighing and cutting segments reads only
    # the cuts and the curves, so the table of cells stays unbuilt
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
    assert "cells" not in vars(g)
    cell = g.cell(2, 1)
    assert "cells" in vars(g) and g.cells[2][1] is cell
    assert (cell.i, cell.j, cell.x0, cell.y1) == (2, 1, t1.cum_length[2], t2.cum_length[2])


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
