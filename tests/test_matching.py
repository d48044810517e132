import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifd
from ifd.errors import NotMonotone, OutOfRange
from ifd.integrals import _split
from ifd.matching import _runs

from helpers import (
    ANTIPARALLEL_TURNS,
    DETOUR,
    DUST_PAIR,
    DUST_PATHS,
    PARALLEL,
    POLISHED_DETOUR,
    SCALES,
    curve_pair,
    over_scales,
    random_curve,
    random_staircase,
    reference_polish,
    reference_split,
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


@over_scales
def test_paths_outside_the_rectangle_raise(s):
    # matching_cost and locally_optimize follow the rule of point_at: a
    # vertex within 1e-9 of a curve's length outside [0, |T1|] x [0, |T2|]
    # is accepted, one farther out raises instead of being weighed by
    # extrapolation
    t1, t2 = (c.scaled(s) for c in curve_pair(PARALLEL))
    for far in ([(0, 0), (5, 5), (9, 9)], [(0, 0), (1, 1.1)], [(-0.1, 0), (1, 1)]):
        for fn in (ifd.matching_cost, ifd.locally_optimize):
            with pytest.raises(OutOfRange):
                fn(t1, t2, s * np.array(far, dtype=float))
    near = s * np.array([(-5e-10, 0.0), (1.0, 1.0 + 5e-10)])
    assert ifd.matching_cost(t1, t2, near) == pytest.approx(2.0 * s * s, rel=1e-8)
    assert isinstance(ifd.locally_optimize(t1, t2, near), ifd.MonotonePath)


def test_evaluate_matching():
    p = ifd.MonotonePath.from_points([(0, 0), (2, 0), (2, 2)])
    assert ifd.evaluate_matching(p, 0.0) == (0.0, 0.0)
    assert ifd.evaluate_matching(p, 1.0) == (2.0, 2.0)
    assert ifd.evaluate_matching(p, 0.5) == (2.0, 0.0)
    diag = ifd.MonotonePath.from_points([(0, 0), (1, 1)])
    assert ifd.evaluate_matching(diag, 0.5) == (0.5, 0.5)
    # a NaN fraction raises; every branch, the zero-length path's included,
    # returns plain floats
    for t in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="nan"):
            ifd.evaluate_matching(p, t)
    for path in (p, ifd.MonotonePath.from_points([(0.5, 0.25), (0.5, 0.25)]),
                 ifd.MonotonePath.from_points([(0.5, 0.25)])):
        for t in (-1.0, 0.0, 0.3, 1.0, 2.0):
            assert [type(v) for v in ifd.evaluate_matching(path, t)] == [float, float]


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


def test_locally_optimize_leaves_no_antiparallel_detour():
    # the staircase detours through the antiparallel cell (0, 1); the polish
    # used to keep that subpath and stopped at 3.1309274194, and the corner
    # paths of both antiparallel cells now take it to POLISHED_DETOUR
    t1, t2 = curve_pair(ANTIPARALLEL_TURNS)
    grid = ifd.build_cells(t1, t2)
    assert grid.cell(0, 1).kind == grid.cell(1, 0).kind == "antiparallel"
    before = ifd.matching_cost(t1, t2, DETOUR)
    out = ifd.locally_optimize(t1, t2, DETOUR)
    after = ifd.matching_cost(t1, t2, out)
    assert after == pytest.approx(POLISHED_DETOUR, rel=1e-12)
    assert after < 3.13 < before
    assert np.array_equal(ifd.locally_optimize(t1, t2, out).vertices, out.vertices)


# staircases of the transform benchmark corpus, keyed (seed, case), on which
# the sweeps alternated between two paths a rounding apart while cuts and
# axis ends were a rounding off their lines; each with T1, T2, the staircase
# and the cost returned then.  With every such point on its line, each
# reaches a fixpoint
CYCLING = {
    (7, 78): (
        [
            (0.4518362736760093, 0.9981648776274047), (-0.048157236883328736, 1.000712307420173),
            (-0.5455905341400655, 1.0513098842424966),
        ],
        [
            (0.6713195483904715, 1.4508480243093347), (0.47160560910292665, 1.4615411274254027),
            (0.3324683954803254, 1.6052103161380096), (0.23119138684242307, 1.7776718119025954),
            (0.1404655306379775, 1.9559099083241245), (0.029663977020360444, 2.1224122077554606),
        ],
        [
            (0.0, 0.0), (0.0, 0.425326648147905), (0.21680151832503902, 0.425326648147905),
            (0.3050182811848392, 0.425326648147905), (0.3050182811848392, 0.5337193022041963),
            (0.3050182811848392, 0.5337193022041963), (0.3050182811848392, 0.6979366790202227),
            (0.7494036705025251, 0.6979366790202227), (0.9618435391018161, 0.6979366790202227),
            (0.9618435391018161, 0.9987951025983287), (0.9618435391018161, 0.9987951025983287),
            (1.0, 1.0),
        ],
        1.5695169022081936,
    ),
    (7, 94): (
        [
            (0.05382913796190636, 0.6874125724882798), (0.1628764589497639, 0.8550690122255329),
            (0.30164266703341824, 0.999096577275019), (0.3113120822420963, 1.1988626965483387),
            (0.47073269525742023, 1.3196313520257361), (0.670694995655998, 1.3235144460638675),
        ],
        [
            (-0.25361703117783285, 1.15484389517663), (-0.16538820717290473, 1.2962421002306024),
            (-0.013504517374901909, 1.364865147023366), (0.06326950724058383, 1.5127959650503022),
            (0.020544034575439615, 1.6738931772028338),
            (-3.218145526559524e-05, 1.8392848248505778),
            (-0.09235891669139755, 1.9780419930921318),
        ],
        [
            (0.0, 0.0), (0.0, 0.20735623109599627), (0.3200941368646264, 0.20735623109599627),
            (0.3200941368646264, 0.457804466602678), (0.38555122835957467, 0.457804466602678),
            (0.38555122835957467, 0.7219274788304444), (0.5697330274215182, 0.7219274788304444),
            (0.5697330274215182, 0.7410387176259166), (0.9081702300122613, 0.7410387176259166),
            (1.0, 0.9999999999999997),
        ],
        1.2642300997717002,
    ),
    (301, 36): (
        [
            (0.7884294915650709, 0.8877469207313654), (0.9992972166287268, 0.7534532033560599),
            (1.2122347573261358, 0.6224661667389226), (1.250043883866032, 0.3753417649687006),
            (1.0854115022087352, 0.18720304245298305),
        ],
        [
            (1.2453253693947417, 1.0259335473073496), (1.4442706619767611, 0.7584790994651689),
            (1.7675743573879263, 0.6773259624672957), (2.0069019010256346, 0.44530562291179066),
        ],
        [
            (0.0, 0.0), (0.0, 0.06100475226246503), (0.16412562916833826, 0.06100475226246503),
            (0.21950585398268038, 0.06100475226246503), (0.21950585398268038, 0.4077920995357537),
            (0.21950585398268038, 0.4077920995357537), (0.45125829919213795, 0.4077920995357537),
            (0.45125829919213795, 0.7002709782192386), (0.45125829919213795, 0.7002709782192386),
            (0.45125829919213795, 0.8137715847965512), (0.56023770269897, 0.8137715847965512),
            (0.9999999999999999, 0.9999999999999998),
        ],
        1.0821532039490434,
    ),
    (301, 60): (
        [
            (0.1603432095081786, 0.7468061378306347), (0.38279693891717037, 0.8608865404948568),
            (0.56650853560405, 1.0304449352818956), (0.5680122365763499, 1.2804404130077656),
            (0.5984348452313982, 1.528582438635473),
        ],
        [
            (0.4821157945614562, 0.3849406419422814), (0.6642985330814813, 0.8505686584805306),
            (0.9199242114788921, 1.28028427670247),
        ],
        [
            (0.0, 0.0), (0.26117946897285926, 0.0), (0.26117946897285926, 0.14431166835820874),
            (0.26117946897285926, 0.14431166835820874), (0.26117946897285926, 0.6214006217855359),
            (0.48614875422843573, 0.6214006217855359), (0.48614875422843573, 0.697164589825669),
            (0.5110874315492895, 0.697164589825669), (0.868644744033652, 0.697164589825669),
            (0.868644744033652, 0.8852632765746735), (0.868644744033652, 0.8852632765746735),
            (1.0, 1.0),
        ],
        0.5901705646581262,
    ),
}


@pytest.mark.parametrize("key", sorted(CYCLING), ids=lambda k: f"seed{k[0]}-case{k[1]}")
def test_locally_optimize_stops_on_a_two_sweep_cycle(monkeypatch, key):
    from ifd import matching

    a, b, stairs, cost = CYCLING[key]
    t1, t2 = ifd.build_curve(a), ifd.build_curve(b)
    sweeps = []
    sweep = matching._substitute_once

    def counted(grid, verts, memo):
        sweeps.append((verts, sweep(grid, verts, memo)))
        return sweeps[-1][1]

    monkeypatch.setattr(matching, "_substitute_once", counted)
    out = ifd.locally_optimize(t1, t2, stairs)
    assert len(sweeps) < 32 and sweeps[-1][0] == sweeps[-1][1]
    again = ifd.locally_optimize(t1, t2, out)
    np.testing.assert_array_equal(again.vertices, out.vertices)
    assert ifd.matching_cost(t1, t2, out) == pytest.approx(cost, rel=1e-15, abs=0.0)


def test_locally_optimize_makes_no_weight_call(monkeypatch):
    # the sweeps are geometric: only matching_cost weighs, in one call
    from ifd import integrals

    calls = []
    weigh = integrals.piece_weights

    def counted(cell, a, b):
        calls.append(len(a))
        return weigh(cell, a, b)

    t1 = ifd.build_curve([(0, 0), (1, 0), (1.5, 1)])
    t2 = ifd.build_curve([(1, 0.5), (0, 0.5), (0.2, 1.5)])
    grid = ifd.build_cells(t1, t2)
    assert grid.cell(0, 0).kind == "antiparallel"
    path = [(0, 0), (0.6, 0.0), (0.6, 0.4), (t1.length, 0.4), (t1.length, t2.length)]
    before = ifd.matching_cost(t1, t2, path)
    monkeypatch.setattr(integrals, "piece_weights", counted)
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
    # weights pointwise); T1 walked backwards gives antiparallel cells
    rng = np.random.default_rng(51)
    t1 = random_curve(rng, 2)
    pairs = [(t1, random_curve(rng, 3)), (t1, ifd.build_curve(t1.vertices[::-1] + 0.2))]
    antiparallel = 0
    for t1, t2 in pairs * 5:
        grid = ifd.build_cells(t1, t2)
        path = random_staircase(rng, (0.0, 0.0), (t1.length, t2.length), steps=4)
        _, p, q, i, j = reference_split(grid, path.vertices[:-1], path.vertices[1:])
        groups = []
        for a, b, key in zip(p, q, zip(i.tolist(), j.tolist())):
            if groups and groups[-1][0] == key:
                groups[-1][1].append((a, b))
            else:
                groups.append((key, [(a, b)]))
        for key, segs in groups:
            cell = grid.cell(*key)
            antiparallel += cell.kind == "antiparallel"
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
    assert antiparallel >= 5


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
    with pytest.raises(NotMonotone, match="empty path"):
        ifd.MonotonePath.from_points([])
    # the tolerance is relative to the largest coordinate: a step back by half
    # the extent fails and one of 1e-12 of it is clamped, at every scale
    for s in SCALES:
        with pytest.raises(NotMonotone):
            ifd.MonotonePath.from_points(s * np.array([(0, 0), (2, 1), (1, 2)]))
        dust = ifd.MonotonePath.from_points(s * np.array([(0, 0), (1, 1), (1 - 1e-12, 2)]))
        assert dust.total_l1 == 3.0 * s
        # as build_curve does for curves, a NaN or infinite vertex is an input
        # error named by its index, not a path with a NaN length
        for bad, index in (([(math.nan, 0), (1, 1)], 0), ([(0, 0), (1, math.inf)], 1),
                           ([(0, 0), (1, 1), (-math.inf, 2)], 2), ([(math.nan, math.nan)], 0)):
            with pytest.raises(ValueError, match=f"point {index} has a non-finite coordinate"):
                ifd.MonotonePath.from_points(s * np.asarray(bad, dtype=float))
    p = ifd.MonotonePath.from_points([(0, 0), (1, 0), (1, 1)])
    assert p.total_l1 == pytest.approx(2.0)
    assert p.start == (0.0, 0.0) and p.end == (1.0, 1.0)


def test_one_vertex_path():
    # a one-vertex path evaluates and polishes to its point
    t1, t2 = curve_pair(PARALLEL)
    p = ifd.MonotonePath.from_points([(0.5, 0.5)])
    assert ifd.evaluate_matching(p, 0.3) == (0.5, 0.5)
    assert ifd.locally_optimize(t1, t2, p).vertices.tolist() == [[0.5, 0.5]]


def test_substitution_builds_only_visited_cells():
    # an L-shaped path over two 40-segment walks visits 79 of the 1600
    # cells; the sweep builds those and no others
    rng = np.random.default_rng(1)
    t1, t2 = (ifd.build_curve(np.cumsum(rng.normal(size=(41, 2)), axis=0)) for _ in range(2))
    path = ifd.MonotonePath.from_points([(0, 0), (t1.length, 0), (t1.length, t2.length)])
    grid = ifd.build_cells(t1, t2)
    swept = ifd.matching._substitute_once(grid, path.vertices.tolist(), {})
    _, _, _, i, j = _split(grid, path.vertices[:-1], path.vertices[1:])
    assert set(grid._built) == set(zip(i.tolist(), j.tolist()))
    assert len(grid._built) < grid.n_cols * grid.n_rows
    assert ifd.matching_cost(t1, t2, swept) <= ifd.matching_cost(t1, t2, path)


def _lined_path(rng, xc, yc):
    """A monotone path whose targets are often parameter lines, reached by
    horizontal, vertical, diagonal and zero-length steps; a vertical leg after a
    horizontal one onto x = cut rides that line, and likewise for y."""
    x, y = 0.0, 0.0
    pts = [(x, y)]
    for _ in range(int(rng.integers(2, 10))):
        nx = float(rng.choice(xc)) if rng.random() < 0.5 else float(rng.uniform(0.0, xc[-1]))
        ny = float(rng.choice(yc)) if rng.random() < 0.5 else float(rng.uniform(0.0, yc[-1]))
        nx, ny = max(nx, x), max(ny, y)
        kind = rng.integers(4)
        if kind == 0:
            pts.append((nx, y))
        elif kind == 1:
            pts.append((x, ny))
        elif kind == 2:
            pts.append((x, y))
        pts.append((nx, ny))
        x, y = nx, ny
    pts.append((float(xc[-1]), float(yc[-1])))
    return pts


def _cut_segments(rng, xc, yc, n):
    """``n`` segments for the splitter, in all four directions: generic ones,
    short in-cell steps, zero-length ones, ones along and out of parameter
    lines, and, first, a short step out of a -0.0 coordinate (which the
    first piece keeps, as it keeps every bit of a)."""
    ext = np.array([xc[-1], yc[-1]])
    a = rng.uniform(0.0, 1.0, (n, 2)) * ext
    b = rng.uniform(0.0, 1.0, (n, 2)) * ext
    kind = rng.integers(7, size=n)
    short = kind == 0
    b[short] = a[short] + rng.uniform(-1e-3, 1e-3, (int(short.sum()), 2)) * ext
    b[kind == 1] = a[kind == 1]
    for axis, cuts in ((0, xc), (1, yc)):
        along = kind == 2 + axis
        a[along, axis] = b[along, axis] = rng.choice(cuts, int(along.sum()))
        out = kind == 4 + axis
        a[out, axis] = rng.choice(cuts, int(out.sum()))
    a[0] = 1e-4 * rng.uniform(0.0, 1.0, 2) * ext
    a[0, rng.integers(2)] = -0.0
    b[0] = a[0] + 1e-4 * rng.uniform(0.0, 1.0, 2) * ext
    flip = rng.random(n) < 0.5
    flip[0] = False
    a[flip], b[flip] = b[flip], a[flip]
    return a, b


@over_scales
def test_walk_matches_split_bit_for_bit(s, monkeypatch):
    # the splitter cuts and assigns pieces bit for bit as the lexsort
    # reference does, each cut on its line with the line's coordinate and
    # each segment's pieces together and in order along it,
    # on both sides of the small-block bypass: a block of at most _WALK_ALL
    # segments is walked whole, in segment order, a larger one walks exactly
    # the segments that a parameter line crosses; the sweep's runs are the
    # walk's pieces of the path, including pieces on and along parameter lines
    from ifd import integrals

    walked = []
    walk = integrals._walk

    def counted(grid, a, b):
        walked.append(len(a))
        return walk(grid, a, b)

    monkeypatch.setattr(integrals, "_walk", counted)
    rng = np.random.default_rng(16)
    n_all = integrals._WALK_ALL
    for _ in range(40):
        t1 = random_curve(rng, int(rng.integers(1, 6)), scale=s)
        t2 = random_curve(rng, int(rng.integers(1, 6)), scale=s)
        grid = ifd.build_cells(t1, t2)
        xc, yc = t1.cum_length, t2.cum_length
        for n in (1, n_all, n_all + 1, 4 * n_all):
            a, b = _cut_segments(rng, xc, yc, n)
            walked.clear()
            got = _split(grid, a, b)
            order = np.argsort(got[0], kind="stable")
            assert n > n_all or np.all(order == np.arange(len(order)))
            assert np.count_nonzero(np.diff(got[0])) + 1 == len(np.unique(got[0]))
            for g, r in zip((x[order] for x in got), reference_split(grid, a, b)):
                assert (g.dtype, g.shape) == (r.dtype, r.shape) and g.tobytes() == r.tobytes()
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            crossing = int((((xc > lo[:, :1]) & (xc < hi[:, :1])).any(axis=1)
                            | ((yc > lo[:, 1:]) & (yc < hi[:, 1:])).any(axis=1)).sum())
            assert walked == ([n] if n <= n_all else [crossing] if crossing else [])
        walked.clear()
        assert all(len(x) == n_all + 1 for x in _split(grid, a[:n_all + 1], a[:n_all + 1])[1:])
        assert walked == []
        for _ in range(3):
            verts = _lined_path(rng, xc, yc)
            runs = [(p, q, i, j) for i, j, pieces in _runs(grid, verts) for p, q in pieces]
            a = np.asarray(verts)
            _, p, q, i, j = reference_split(grid, a[:-1], a[1:])
            assert np.asarray([w[0] for w in runs]).tobytes() == p.tobytes()
            assert np.asarray([w[1] for w in runs]).tobytes() == q.tobytes()
            assert [w[2] for w in runs] == i.tolist()
            assert [w[3] for w in runs] == j.tolist()


def _polish_counted(monkeypatch, t1, t2, path):
    from ifd import matching

    sweeps = []
    sweep = matching._substitute_once

    def counted(grid, verts, memo):
        sweeps.append(len(verts))
        return sweep(grid, verts, memo)

    monkeypatch.setattr(matching, "_substitute_once", counted)
    out = ifd.locally_optimize(t1, t2, path)
    monkeypatch.undo()
    return out, len(sweeps)


def test_sweeps_match_the_array_reference(monkeypatch):
    # the list sweeps and their per-call memo give the numpy-grouped
    # reference's vertices bit for bit, in as many sweeps
    rng = np.random.default_rng(61)
    cases = [(ifd.build_curve(a), ifd.build_curve(b), stairs) for a, b, stairs, _ in CYCLING.values()]
    for k in range(50):
        t1 = random_curve(rng, int(rng.integers(2, 6)))
        # every fifth pair walks T1 backwards, so its cells are antiparallel
        t2 = random_curve(rng, 3) if k % 5 else ifd.build_curve(t1.vertices[::-1] + 0.2)
        path = random_staircase(rng, (0.0, 0.0), (t1.length, t2.length), steps=5)
        cases.append((t1, t2, path.vertices))
    for t1, t2, path in cases:
        ref, ref_sweeps = reference_polish(t1, t2, path)
        out, sweeps = _polish_counted(monkeypatch, t1, t2, path)
        assert out.vertices.tobytes() == ref.vertices.tobytes()
        assert sweeps == ref_sweeps


# the polished costs of DUST_PATHS at s = 1
DUST_COSTS = (4.070111569441545, 4.070111569441545, 4.596748139005365)


@over_scales
@pytest.mark.parametrize("k", range(len(DUST_PATHS)))
def test_dust_back_steps_polish(s, k):
    # MonotonePath and matching_cost accept a step back of float dust, and so
    # does the polish: it checks the path on entry and exit, not each in-cell run
    t1, t2 = (c.scaled(s) for c in curve_pair(DUST_PAIR))
    path = s * np.asarray(DUST_PATHS[k])
    before = ifd.matching_cost(t1, t2, path)
    after = ifd.matching_cost(t1, t2, ifd.locally_optimize(t1, t2, path))
    assert after <= before * (1.0 + 1e-9)
    assert after == pytest.approx(DUST_COSTS[k] * s * s, rel=1e-12)


def _back_stepped(rng, t1, t2, back, share):
    """A staircase over the rectangle of t1 and t2 that steps back across an
    inner x line of T1 by ``back`` of the extent, ``share`` of it before the
    line, on a piece that crosses an inner y line of T2."""
    xs, ys = t1.cum_length, t2.cum_length
    i = int(rng.integers(1, len(xs) - 1))
    j = int(rng.integers(1, len(ys) - 1))
    e = back * 1e-10 * max(t1.length, t2.length)
    ahead = (xs[i] + share * e, float(rng.uniform(ys[j - 1], ys[j])))
    behind = (xs[i] - (1.0 - share) * e, float(rng.uniform(ys[j], ys[j + 1])))
    head = random_staircase(rng, (0.0, 0.0), ahead, steps=3).vertices
    tail = random_staircase(rng, behind, (t1.length, t2.length), steps=3).vertices
    return ifd.MonotonePath.from_points(np.vstack((head, tail)))


@over_scales
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), back=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0))
def test_back_steps_at_a_parameter_line_polish(s, seed, back, share):
    # a step back of up to 1e-10 of the extent at a parameter line polishes as
    # the reference does, bit for bit, and costs no more than the input
    rng = np.random.default_rng(seed)
    t1, t2 = (random_curve(rng, int(rng.integers(2, 5)), scale=s) for _ in range(2))
    path = _back_stepped(rng, t1, t2, back, share)
    out = ifd.locally_optimize(t1, t2, path)
    ref, _ = reference_polish(t1, t2, path.vertices)
    assert out.vertices.tobytes() == ref.vertices.tobytes()
    assert ifd.matching_cost(t1, t2, out) <= ifd.matching_cost(t1, t2, path) * (1.0 + 1e-9)


@over_scales
def test_polish_is_a_fixpoint_that_dust_does_not_move(s):
    # every polish ends because a sweep reproduced its input, so one more
    # sweep leaves it as it is; scaling the inner staircase vertices by
    # 1e-12 moves the polished cost by rounding only, not to another local
    # optimum; and no polish is dearer than its input.  Every third T2 is T1
    # reversed, so its cells are antiparallel
    from ifd import matching

    rng = np.random.default_rng(70)
    for k in range(150):
        t1 = random_curve(rng, int(rng.integers(2, 7)), scale=s)
        if k % 3:
            t2 = random_curve(rng, int(rng.integers(2, 7)), scale=s)
        else:
            t2 = ifd.build_curve(t1.vertices[::-1] + 0.2 * s)
        grid = ifd.build_cells(t1, t2)
        stairs = random_staircase(rng, (0.0, 0.0), (t1.length, t2.length),
                                  steps=int(rng.integers(2, 7))).vertices
        out = ifd.locally_optimize(t1, t2, stairs)
        verts = [tuple(v) for v in out.vertices.tolist()]
        assert matching._substitute_once(grid, verts, {}) == verts
        cost = ifd.matching_cost(t1, t2, out)
        assert cost <= ifd.matching_cost(t1, t2, stairs) * (1.0 + 1e-12)
        for f in (1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 3e-12):
            moved = stairs.copy()
            moved[1:-1] *= f
            moved_cost = ifd.matching_cost(t1, t2, ifd.locally_optimize(t1, t2, moved))
            assert moved_cost == pytest.approx(cost, rel=1e-9, abs=0.0)
            assert moved_cost <= ifd.matching_cost(t1, t2, moved) * (1.0 + 1e-12)
