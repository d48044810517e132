import math

import numpy as np
import pytest

import ifd
from ifd.errors import NotMonotone, OutOfRange

from helpers import (
    ANTIPARALLEL,
    PARALLEL,
    PERPENDICULAR,
    SCALES,
    curve_pair,
    lattice_oracle,
    over_scales,
    quadrature_weighted_length,
    random_cell,
    random_monotone_pair,
    random_staircase,
    scale_id,
    staircase_path,
)

# frozen from the arsinh antiderivative, cross-checked by quadrature below
CASE2 = 1.5201144097172755
CASE3 = 0.7789500498179603


def _parallel_cell():
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_cells(t1, t2)
    return g, g.cell(0, 0)


def test_full_diagonal():
    g, cell = _parallel_cell()
    p = ifd.cell_shortest_path(cell, (0, 0), (1, 1))
    assert p.branch == "through_axis"
    assert p.weighted_length == pytest.approx(2.0, abs=1e-12)
    assert [tuple(v) for v in p.vertices] == [(0.0, 0.0), (1.0, 1.0)]
    with pytest.raises(NotMonotone):
        ifd.cell_shortest_path(cell, (1, 1), (0, 0))


def test_partial_axis_entry():
    g, cell = _parallel_cell()
    p = ifd.cell_shortest_path(cell, (0, 0.5), (1, 1))
    assert p.branch == "through_axis"
    assert np.allclose(p.vertices[1], (0.5, 0.5))
    assert p.weighted_length == pytest.approx(CASE2, abs=1e-9)
    assert p.weighted_length == pytest.approx(
        quadrature_weighted_length(g, (0, 0.5), (0.5, 0.5))
        + quadrature_weighted_length(g, (0.5, 0.5), (1, 1)),
        abs=1e-9,
    )


def test_axis_missed_goes_around_corner():
    g, cell = _parallel_cell()
    p = ifd.cell_shortest_path(cell, (0, 0.6), (0.3, 1))
    assert p.branch == "around_corner"
    assert np.allclose(p.vertices[1], (0.3, 0.6))
    assert p.weighted_length == pytest.approx(CASE3, abs=1e-9)


# c = -1 exactly: the cell of ANTIPARALLEL, and one whose segments are offset sideways
EXACT_ANTIPARALLEL = (ANTIPARALLEL, ([(0.0, 0.0), (1.0, 0.0)], [(1.3, 0.2), (0.1, 0.2)]))


@over_scales
def test_exactly_antiparallel_paths_weigh_the_same(s):
    # with c = -1 the leash depends on xi + eta alone, and so does the L1
    # length element of a monotone path: the corner path the cell returns,
    # the other corner path and the straight path all weigh the same
    rng = np.random.default_rng(24)
    for pair in EXACT_ANTIPARALLEL:
        t1, t2 = (_scaled_curve(pts, s) for pts in pair)
        cell = ifd.build_cells(t1, t2).cell(0, 0)
        assert cell.kind == "antiparallel"
        ends = [((0.0, 0.0), (t1.length, t2.length))]
        ends += [random_monotone_pair(rng, cell) for _ in range(10)]
        for a, b in ends:
            path = ifd.cell_shortest_path(cell, a, b)
            assert path.branch == "around_corner"
            for other in ([a, b], [a, (a[0], b[1]), b], [a, (b[0], a[1]), b]):
                other = np.asarray(other, dtype=float)
                w = float(ifd.piece_weights(cell, other[:-1], other[1:]).sum())
                assert path.weighted_length == pytest.approx(w, rel=1e-14, abs=0.0)


def _snapped_antiparallel(rng):
    """Two segments 1e-7 to 4.4e-5 rad off antiparallel, which their cell
    snaps to c = -1, and the fractions of their lengths at two dominated
    points of the cell."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    off = th + rng.choice((-1.0, 1.0)) * rng.uniform(1e-7, 4.4e-5)
    p0, q0 = rng.uniform(-1.0, 1.0, (2, 2))
    l0, l1 = rng.uniform(0.3, 2.0, 2)
    pts1 = [p0, p0 + l0 * np.array([math.cos(th), math.sin(th)])]
    pts2 = [q0, q0 - l1 * np.array([math.cos(off), math.sin(off)])]
    return pts1, pts2, np.sort(rng.uniform(0.0, 1.0, 2)), np.sort(rng.uniform(0.0, 1.0, 2))


@over_scales
def test_snapped_antiparallel_cells_take_the_cheaper_corner(s):
    # a snapped cell's axis lies at infinity on one side, and the corner on
    # that side is the cheaper one, up to 9e-6 relative below the other and
    # the straight path.  The corner path lies on the staircase lattice, so
    # the staircase reaches it up to rounding, never below it
    rng = np.random.default_rng(25)
    for _ in range(12):
        pts1, pts2, fx, fy = _snapped_antiparallel(rng)
        paths = []
        for scale in (1.0, s):
            t1, t2 = _scaled_curve(pts1, scale), _scaled_curve(pts2, scale)
            cell = ifd.build_cells(t1, t2).cell(0, 0)
            assert cell.kind == "antiparallel"
            a = (float(fx[0]) * t1.length, float(fy[0]) * t2.length)
            b = (float(fx[1]) * t1.length, float(fy[1]) * t2.length)
            paths.append(ifd.cell_shortest_path(cell, a, b))
        unit, path = paths
        assert path.branch == "around_corner" and len(path.vertices) == 3
        stair = staircase_path(cell, a, b, k=512).weighted_length
        assert abs(path.weighted_length - stair) <= 1e-12 * stair
        assert np.array_equal(np.asarray(path.vertices), s * np.asarray(unit.vertices))


def test_optimality_against_staircase():
    rng = np.random.default_rng(20)
    for _ in range(25):
        grid, cell = random_cell(rng)
        a, b = random_monotone_pair(rng, cell)
        best = ifd.cell_shortest_path(cell, a, b)
        prev = None
        for k in (16, 32, 64, 128):
            val = staircase_path(cell, a, b, k).weighted_length
            assert best.weighted_length <= val + 1e-10
            if prev is not None:
                assert val <= prev + 1e-12
            prev = val


def test_outputs_monotone_and_inside_cell():
    rng = np.random.default_rng(21)
    for _ in range(50):
        _, cell = random_cell(rng)
        a, b = random_monotone_pair(rng, cell)
        p = ifd.cell_shortest_path(cell, a, b)
        verts = np.asarray(p.vertices)
        assert (np.diff(verts, axis=0) >= -1e-12).all()
        for f in np.linspace(0, 1, 100):
            i = min(int(f * (len(verts) - 1)), len(verts) - 2)
            q = verts[i] + (f * (len(verts) - 1) - i) * (verts[i + 1] - verts[i])
            assert cell.contains(q)


def _shared_edge(grid, vertical, fixed):
    tol = 1e-12 * max(grid.extent)
    return [
        e for e in grid.edges()
        if e.vertical == vertical and abs(e.fixed - fixed) < tol
    ][0]


def _scaled_curve(points, s):
    return ifd.build_curve(s * np.asarray(points, dtype=float))


def test_two_cell_coincident_axis_endpoints():
    t1 = ifd.build_curve([(0, 0), (2, 0)])
    t2 = ifd.build_curve([(0, 1), (1, 1), (2, 1)])
    grid = ifd.build_cells(t1, t2)
    e = _shared_edge(grid, vertical=False, fixed=1.0)
    p = ifd.two_cell_path((0.25, 0.25), (1.75, 1.75), e, grid)
    assert p.branch == "through_axis"
    assert len(p.vertices) == 3
    assert np.allclose(p.vertices[1], (1.0, 1.0))
    assert p.weighted_length == pytest.approx(3.0, abs=1e-12)


@over_scales
def test_two_cell_canonical_four_vertices(s):
    # axes of the two side-by-side cells end on the shared edge, ordered
    t1 = _scaled_curve([(0, 0), (1, 0), (1, -1)], s)
    t2 = _scaled_curve([(0, 0.5), (2, 0.5)], s)
    grid = ifd.build_cells(t1, t2)
    e = _shared_edge(grid, vertical=True, fixed=s)
    o, p = (0.2 * s, 0.2 * s), (1.4 * s, 1.9 * s)
    path = ifd.two_cell_path(o, p, e, grid)
    assert path.branch == "through_axis"
    assert len(path.vertices) == 4
    assert np.allclose(np.asarray(path.vertices[1]) / s, (1.0, 1.0))
    assert np.allclose(np.asarray(path.vertices[2]) / s, (1.0, 1.5))
    oracle = lattice_oracle(grid, o, p, 48)
    assert path.weighted_length / s**2 <= oracle / s**2 + 1e-10


@over_scales
def test_two_cell_search_branch_crosses_perpendicularly(s):
    # first cell's axis tops out on the shared edge above the second's start
    t1 = _scaled_curve([(0, 0), (1, 0), (1, 1)], s)
    t2 = _scaled_curve([(0, 0.5), (1.5, 0.5)], s)
    grid = ifd.build_cells(t1, t2)
    e = _shared_edge(grid, vertical=True, fixed=s)
    o, p = (0.3 * s, 0.3 * s), (1.7 * s, 1.2 * s)
    path = ifd.two_cell_path(o, p, e, grid)
    assert path.branch == "around_corner"
    verts = [(v[0] / s, v[1] / s) for v in path.vertices]
    k = [i for i, v in enumerate(verts) if abs(v[0] - 1.0) < 1e-9]
    assert k, "no vertex on the shared edge"
    i = k[0]
    assert 0 < i < len(verts) - 1
    assert verts[i - 1][1] == pytest.approx(verts[i][1], abs=1e-10)
    assert verts[i + 1][1] == pytest.approx(verts[i][1], abs=1e-10)
    oracle = lattice_oracle(grid, o, p, 48)
    assert path.weighted_length / s**2 <= oracle / s**2 + 1e-10


@over_scales
def test_two_cell_search_branch_across_a_horizontal_edge(s):
    # the curves of the test above swapped: parameter space is transposed, so
    # the search runs along the horizontal edge y = s and finds the mirror
    # path.  The cost is flat at the crossing: a shift of 1e-8 changes it by
    # about 1e-16, below its rounding, so the two searches stop up to ~1e-8
    # apart and the vertices are compared to 1e-7
    pts1, pts2 = [(0, 0), (1, 0), (1, 1)], [(0, 0.5), (1.5, 0.5)]
    o, p = (0.3 * s, 0.3 * s), (1.7 * s, 1.2 * s)
    grid = ifd.build_cells(_scaled_curve(pts1, s), _scaled_curve(pts2, s))
    path = ifd.two_cell_path(o, p, _shared_edge(grid, vertical=True, fixed=s), grid)
    swapped = ifd.build_cells(_scaled_curve(pts2, s), _scaled_curve(pts1, s))
    mirror = ifd.two_cell_path(o[::-1], p[::-1], _shared_edge(swapped, vertical=False, fixed=s),
                               swapped)
    assert mirror.branch == path.branch == "around_corner"
    np.testing.assert_allclose(np.asarray(mirror.vertices)[:, ::-1], np.asarray(path.vertices),
                               rtol=0.0, atol=1e-7 * s)
    assert mirror.weighted_length == pytest.approx(path.weighted_length, rel=1e-12)


@over_scales
def test_two_cell_path_through_an_antiparallel_cell(s):
    # cell (0, 0) is antiparallel, so it has no clipped axis and the
    # crossing of the edge y = s is searched.  The cost is flat along the
    # edge: the antiparallel cell weighs every path from o to the edge alike
    t1 = _scaled_curve([(0, 0), (1, 0)], s)
    t2 = _scaled_curve([(1, 1), (0, 1), (0, 2)], s)
    grid = ifd.build_cells(t1, t2)
    assert grid.cell(0, 0).kind == "antiparallel"
    e = _shared_edge(grid, vertical=False, fixed=s)
    o, p = (0.5 * s, 0.5 * s), (0.9 * s, 1.5 * s)
    path = ifd.two_cell_path(o, p, e, grid)
    scan = min(ifd.cell_shortest_path(grid.cell(0, 0), o, (w, s)).weighted_length
               + ifd.cell_shortest_path(grid.cell(0, 1), (w, s), p).weighted_length
               for w in np.linspace(o[0], p[0], 401).tolist())
    assert path.weighted_length == pytest.approx(scan, rel=1e-12)
    assert path.weighted_length / s**2 == pytest.approx(1.7811575854159363, rel=1e-12)
    assert ifd.matching_cost(t1, t2, path.vertices) == pytest.approx(path.weighted_length,
                                                                     rel=1e-12)
    assert path.weighted_length <= lattice_oracle(grid, o, p, 48) * (1.0 + 1e-12)


def test_two_cell_random_adjacent_cells():
    rng = np.random.default_rng(22)
    done = 0
    while done < 8:
        t1 = ifd.build_curve(rng.uniform(-1, 1, (3, 2)))
        t2 = ifd.build_curve(rng.uniform(-1, 1, (2, 2)))
        grid = ifd.build_cells(t1, t2)
        if any(c.kind == "antiparallel" for col in grid.cells for c in col):
            continue
        e = _shared_edge(grid, vertical=True, fixed=float(grid.x_cuts[1]))
        ax_o = ifd.free_space_axes(grid.cell(0, 0))
        ax_p = ifd.free_space_axes(grid.cell(1, 0))
        if ax_o.ell is None or ax_p.ell is None:
            continue
        o = ax_o.ell[0]
        p = ax_p.ell[1]
        if not (o.x <= p.x and o.y <= p.y):
            continue
        path = ifd.two_cell_path(o, p, e, grid)
        oracle = lattice_oracle(grid, o, p, 40)
        # the lattice value is an upper bound with its own discretization gap
        gap = (abs(p.x - o.x) + abs(p.y - o.y)) ** 2 / 40
        assert path.weighted_length <= oracle + 1e-10
        assert oracle <= path.weighted_length + gap + 1e-9
        done += 1


@over_scales
def test_dust_back_steps_pass_every_dominance_check(s):
    # one rule for every check: a step back is an error only beyond 1e-9 of
    # the largest |coordinate| of the points, as in MonotonePath
    t1 = _scaled_curve([(0, 0), (1, 0), (2, 0.3)], s)
    t2 = _scaled_curve([(0, 1), (0.2, 2), (0.5, 3)], s)
    grid = ifd.build_cells(t1, t2)
    cell = grid.cell(0, 0)
    edge = _shared_edge(grid, vertical=True, fixed=s)
    a, b = (0.5 * s, 0.5 * s), (0.5 * s, 0.9 * s)
    o, p = (0.5 * s, 0.5 * s), (1.5 * s, 0.5 * s)
    dust_b, dust_p = ((0.5 - 1e-11) * s, 0.9 * s), (1.5 * s, (0.5 - 1e-11) * s)
    ifd.MonotonePath.from_points([a, dust_b])
    assert ifd.cell_shortest_path(cell, a, dust_b).weighted_length == pytest.approx(
        ifd.cell_shortest_path(cell, a, b).weighted_length, rel=1e-9)
    ifd.MonotonePath.from_points([o, dust_p])
    assert ifd.two_cell_path(o, dust_p, edge, grid).weighted_length == pytest.approx(
        ifd.two_cell_path(o, p, edge, grid).weighted_length, rel=1e-9)
    back_b, back_p = ((0.5 - 1e-8) * s, 0.9 * s), (1.5 * s, (0.5 - 1e-8) * s)
    with pytest.raises(NotMonotone, match="backward step"):
        ifd.MonotonePath.from_points([a, back_b])
    with pytest.raises(NotMonotone, match="does not dominate"):
        ifd.cell_shortest_path(cell, a, back_b)
    with pytest.raises(NotMonotone, match="does not dominate"):
        ifd.two_cell_path(o, back_p, edge, grid)


@over_scales
def test_two_cell_path_checks_its_ends_once(s):
    # o lies past the shared edge by dust of the pair's extent, though not
    # of its own small coordinates: the in-cell pieces between o, the edge
    # and p are not checked again
    t1 = _scaled_curve([(0, 0), (1e-4, 0), (1e-4, 5)], s)
    t2 = _scaled_curve([(0, 0.5), (0, 10)], s)
    grid = ifd.build_cells(t1, t2)
    edge = _shared_edge(grid, vertical=True, fixed=1e-4 * s)
    p = (2.0 * s, 1e-3 * s)
    exact = ifd.two_cell_path((1e-4 * s, 2e-5 * s), p, edge, grid)
    for dust in (1e-12, 1e-11):
        path = ifd.two_cell_path(((1e-4 + dust) * s, 2e-5 * s), p, edge, grid)
        assert path.weighted_length == pytest.approx(exact.weighted_length, rel=1e-9)


# T1 = (0,0)-(1,0)-(2,0.5) and T2 = (0,1)-(1,1.3)-(2,1): a 2 x 2 grid of cells
BENT = ([(0, 0), (1, 0), (2, 0.5)], [(0, 1), (1, 1.3), (2, 1)])


@over_scales
def test_two_cell_path_needs_an_edge_two_cells_share(s):
    # an edge on the outer boundary borders one cell: x = 0 was taken as
    # shared by cells 0 and 1, x = |T1| took the last cell twice.  An edge
    # off the parameter lines, or with no such segment, borders none
    grid = ifd.build_cells(*(_scaled_curve(c, s) for c in BENT))
    l1, l2 = grid.extent
    o, p = (0.1 * s, 0.1 * s), (0.9 * s, 0.9 * s)
    outer = [_shared_edge(grid, vertical=True, fixed=0.0), _shared_edge(grid, vertical=True, fixed=l1),
             _shared_edge(grid, vertical=False, fixed=0.0), _shared_edge(grid, vertical=False, fixed=l2)]
    inner = _shared_edge(grid, vertical=True, fixed=s)
    off = [ifd.GridEdge(True, 0.5 * s, inner.lo, inner.hi, 0),
           ifd.GridEdge(True, s, inner.lo, inner.hi, 2), ifd.GridEdge(True, s, inner.lo, inner.hi, -1)]
    for edge in outer + off:
        with pytest.raises(ValueError, match="is not shared by two cells"):
            ifd.two_cell_path(o, p, edge, grid)
    path = ifd.two_cell_path((0.5 * s, 0.2 * s), (1.5 * s, 0.8 * s), inner, grid)
    assert ifd.matching_cost(grid.t1, grid.t2, [(0.0, 0.0), *path.vertices, (l1, l2)]) == pytest.approx(
        ifd.matching_cost(grid.t1, grid.t2, [(0.0, 0.0), (0.5 * s, 0.2 * s)])
        + path.weighted_length
        + ifd.matching_cost(grid.t1, grid.t2, [(1.5 * s, 0.8 * s), (l1, l2)]), rel=1e-12)


@over_scales
def test_points_outside_their_cell_raise(s):
    # a = (1.5, 1.5) and b = (2, 2) lie in cell (1, 1): weighed in cell
    # (0, 0)'s frame they gave 1.4983 where the straight path costs 0.7618.
    # A point past its cell by float dust, 1e-9 of the largest |coordinate|,
    # still passes, as in every dominance check
    grid = ifd.build_cells(*(_scaled_curve(c, s) for c in BENT))
    cell = grid.cell(0, 0)
    a, b = (1.5 * s, 1.5 * s), (2.0 * s, 2.0 * s)
    with pytest.raises(OutOfRange, match=r"outside cell \(0,0\)"):
        ifd.cell_shortest_path(cell, a, b)
    with pytest.raises(OutOfRange, match=r"outside cell \(0,0\)"):
        ifd.partial_similarity_profile(cell, [a, b])
    path = ifd.cell_shortest_path(grid.cell(1, 1), a, b)
    v = np.asarray(path.vertices)
    assert path.weighted_length == pytest.approx(
        ifd.segment_weighted_length(grid, v[:-1], v[1:]).sum(), rel=1e-12)
    assert path.weighted_length <= ifd.segment_weighted_length(grid, a, b) < 0.7619 * s * s
    edge = _shared_edge(grid, vertical=True, fixed=s)
    with pytest.raises(OutOfRange, match=r"outside cell \(0,0\)"):
        ifd.two_cell_path((0.5 * s, 1.2 * s), (1.5 * s, 1.3 * s), edge, grid)
    with pytest.raises(OutOfRange, match=r"outside cell \(1,0\)"):
        ifd.two_cell_path((0.5 * s, 0.2 * s), (1.5 * s, 1.3 * s), edge, grid)
    dust = (1.0 + 1e-11) * s
    ifd.cell_shortest_path(cell, (0.2 * s, 0.2 * s), (dust, 0.5 * s))
    ifd.partial_similarity_profile(cell, [(0.2 * s, 0.2 * s), (dust, 0.5 * s)])
    ifd.two_cell_path((dust, 0.2 * s), (1.5 * s, 0.8 * s), edge, grid)


@pytest.mark.parametrize("k", [0, -2, 2.5, math.nan, math.inf, True], ids=repr)
def test_staircase_k_must_be_a_positive_integer(k):
    cell = _parallel_cell()[1]
    with pytest.raises(ValueError, match="k must be a positive integer"):
        staircase_path(cell, (0, 0), (1, 1), k)


def test_profile_parallel_step():
    g, cell = _parallel_cell()
    path = ifd.cell_shortest_path(cell, (0, 0), (1, 1))
    prof = ifd.partial_similarity_profile(cell, path)
    assert prof.value_at(0.999) == pytest.approx(0.0)
    assert prof.value_at(1.0) == pytest.approx(2.0)
    assert prof.value_at(5.0) == pytest.approx(2.0)
    assert prof.total_l1 == pytest.approx(2.0)


def test_profile_perpendicular_linear():
    t1 = ifd.build_curve([(0, 0), (1, 0)])
    t2 = ifd.build_curve([(0, 0), (0, 1)])
    grid = ifd.build_cells(t1, t2)
    cell = grid.cell(0, 0)
    path = ifd.cell_shortest_path(cell, (0, 0), (1, 1))
    prof = ifd.partial_similarity_profile(cell, path)
    for d in np.linspace(0, 2.0, 21):
        assert prof.value_at(float(d)) == pytest.approx(2 * min(1.0, d / math.sqrt(2)), abs=1e-12)


def test_profile_zero_threshold():
    g, cell = _parallel_cell()
    prof = ifd.partial_similarity_profile(cell, [(0.0, 0.2), (1.0, 0.7)])
    assert prof.value_at(0.0) == 0.0


def test_profile_nondecreasing_and_dominant():
    rng = np.random.default_rng(23)
    for _ in range(15):
        grid, cell = random_cell(rng)
        a, b = random_monotone_pair(rng, cell)
        best = ifd.cell_shortest_path(cell, a, b)
        best_prof = ifd.partial_similarity_profile(cell, best)
        deltas = np.linspace(0.0, cell.max_corner_weight(), 32)
        vals = best_prof.value_at(deltas)
        assert (np.diff(vals) >= -1e-12).all()
        for _ in range(5):
            alt = random_staircase(rng, a, b, steps=3)
            alt_prof = ifd.partial_similarity_profile(cell, alt.vertices)
            assert np.all(best_prof.value_at(deltas) >= alt_prof.value_at(deltas) - 1e-9)


STAIRCASE_PAIR = ([(0, 0), (1, 0.3)], [(0, 0.5), (1.2, 0.9)])


def _corner_staircase(s, k=64):
    t1, t2 = (_scaled_curve(pts, s) for pts in STAIRCASE_PAIR)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    return t1, t2, staircase_path(cell, (0.0, 0.0), (t1.length, t2.length), k=k)


@pytest.mark.parametrize("s", SCALES + (2.0 ** -50,), ids=scale_id)
def test_staircase_fallback_is_scale_free(s):
    # the vertex cleanup is relative to the path's own points; an absolute
    # 1e-15 merged the lattice steps from s = 2^-45 down and cut the path
    # short of b at 2^-50
    n_unit = len(_corner_staircase(1.0)[2].vertices)
    t1, t2, path = _corner_staircase(s)
    assert len(path.vertices) == n_unit > 2
    assert tuple(path.vertices[-1]) == (t1.length, t2.length)
    cost = ifd.matching_cost(t1, t2, path.vertices)
    assert cost / s**2 == pytest.approx(path.weighted_length / s**2, rel=1e-12)


@over_scales
def test_profile_is_scale_free(s):
    # a flat piece counts only where its own weight is within delta: the
    # slack is relative, where an absolute 1e-15 on squared weights swamped
    # s^2 at s = 2^-40
    deltas = np.array([0.25, 0.5, 0.999, 1.0, 1.5])
    expected = {"parallel": np.where(deltas >= 1.0, 2.0, 0.0),
                "perpendicular": 2.0 * np.minimum(1.0, deltas / np.sqrt(2.0))}
    for name, pair in (("parallel", PARALLEL), ("perpendicular", PERPENDICULAR)):
        t1, t2 = (_scaled_curve(pts, s) for pts in pair)
        cell = ifd.build_cells(t1, t2).cell(0, 0)
        prof = ifd.partial_similarity_profile(cell, ifd.cell_shortest_path(cell, (0, 0), (s, s)))
        np.testing.assert_allclose(prof.value_at(deltas * s) / s, expected[name], rtol=1e-12)


@over_scales
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_cell_entries_reject_non_finite_points(s, bad):
    # cell_shortest_path and partial_similarity_profile name the first bad
    # point, instead of weighing NaN or calling it out of dominance order
    t1, t2 = (c.scaled(s) for c in curve_pair(PERPENDICULAR))
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    for coord in range(4):
        pts = s * np.array([(0.1, 0.2), (0.5, 0.6)])
        pts[coord // 2, coord % 2] = bad
        match = f"point {coord // 2} has a non-finite coordinate"
        with pytest.raises(ValueError, match=match):
            ifd.cell_shortest_path(cell, pts[0], pts[1])
        with pytest.raises(ValueError, match=match):
            ifd.partial_similarity_profile(cell, pts)


@pytest.mark.parametrize("delta", [math.nan, math.inf], ids=str)
def test_profile_value_at_nan_and_infinity(delta):
    # NaN is not a threshold; an infinite one matches the whole path
    t1, t2 = curve_pair(PERPENDICULAR)
    cell = ifd.build_cells(t1, t2).cell(0, 0)
    prof = ifd.partial_similarity_profile(cell, ifd.cell_shortest_path(cell, (0, 0), (1, 1)))
    if math.isnan(delta):
        for arg in (delta, [0.5, delta]):
            with pytest.raises(ValueError, match="nan"):
                prof.value_at(arg)
    else:
        assert prof.value_at(delta) == prof.total_l1
        assert prof.value_at([0.0, delta]).tolist() == [prof.value_at(0.0), prof.total_l1]
