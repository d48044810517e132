import math

import numpy as np
import pytest

import ifd
from ifd.errors import BudgetExceeded, DegenerateBall, Disconnected, NoFeasibleGraph
from ifd.shortest_path import snapped_axis

from helpers import ARRANGEMENT_PAIR, PARALLEL, PERPENDICULAR, curve_pair, random_curve


def test_config_validation():
    with pytest.raises(ValueError):
        ifd.GraphConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ifd.GraphConfig(epsilon=0.1, c_g1=-1)
    with pytest.raises(ValueError):
        ifd.GraphConfig(epsilon=0.1, mode="warp")
    desk = ifd.GraphConfig.desk(0.25)
    assert (desk.c_g1, desk.c_radius, desk.c_mesh) == (40.0, 62.0, 8.0)
    worst = ifd.GraphConfig(0.25)
    assert (worst.c_g1, worst.c_radius, worst.c_mesh) == (40000.0, 62.0, 456.0)


def test_g1_counts_at_quarter_mesh():
    t1, t2 = curve_pair(PARALLEL)
    # epsilon*mu/(c_g1*(len1+len2)) = 0.5/(1*2) = 0.25
    cfg = ifd.GraphConfig(epsilon=0.5, c_g1=1.0, max_vertices=1000)
    g = ifd.build_g1(t1, t2, cfg)
    assert g.n_vertices == 25
    assert g.n_edges == 40
    grid = ifd.build_cells(t1, t2)
    rng = np.random.default_rng(40)
    for i in rng.choice(g.n_edges, size=10, replace=False):
        a = (g.xs[g.tails[i]], g.ys[g.tails[i]])
        b = (g.xs[g.heads[i]], g.ys[g.heads[i]])
        q = ifd.quadrature_weighted_length(grid, a, b)
        assert g.weights[i] == pytest.approx(q, rel=1e-10, abs=1e-12)


def test_g1_budget_with_worstcase_constants():
    t1, t2 = curve_pair(PARALLEL)
    with pytest.raises(BudgetExceeded) as exc:
        ifd.build_g1(t1, t2, ifd.GraphConfig(epsilon=0.5))
    # mesh 6.25e-6 over a unit square
    assert exc.value.projected == 160001 ** 2
    assert exc.value.budget == 10_000_000


def test_g1_always_connected():
    rng = np.random.default_rng(41)
    for _ in range(5):
        t1 = random_curve(rng, int(rng.integers(1, 4)))
        t2 = random_curve(rng, int(rng.integers(1, 4)))
        g = ifd.build_g1(t1, t2, ifd.GraphConfig.desk(epsilon=0.5, c_g1=5.0))
        assert ifd.dijkstra(g).reachable


def test_grid_ball_lattice():
    segs = ifd.build_grid_ball((0.5, 0.5), 0.25, 0.25, (1.0, 1.0))
    hs = [s for s in segs if s[0] == "h"]
    vs = [s for s in segs if s[0] == "v"]
    assert len(hs) == 3 and len(vs) == 3
    assert hs[0][1:] == (0.25, 0.25, 0.75)


def test_grid_ball_clipping_and_degenerate():
    segs = ifd.build_grid_ball((0.0, 0.0), 1.0, 0.5, (0.6, 10.0))
    for kind, fixed, lo, hi in segs:
        assert lo >= 0.0 and (hi <= 0.6 + 1e-12 if kind == "h" else hi <= 1.0)
    with pytest.raises(DegenerateBall):
        ifd.build_grid_ball((0.5, 0.5), 0.0, 0.0, (1, 1))


def test_g2_identical_curves_zero():
    cfg = ifd.GraphConfig.desk(epsilon=0.25)
    # on the second curve a ball ends exactly on the parameter rectangle's
    # edge, whose boundary lines an absolute clip dropped at s = 1e6
    for pts in ([(0, 0), (1, 0.4), (2.3, 0.1)], [(0, 0), (1, 0.4), (1.7, 0.9)]):
        t = ifd.build_curve(pts)
        g = ifd.build_g2(t, t, cfg)
        r = ifd.dijkstra(g)
        assert r.distance <= 1e-9
        # snap-rounded vertices step back by ~5e-14 of the extent, which an
        # absolute monotonicity tolerance rejected at this scale
        s = 1e6
        big = ifd.build_g2(t.scaled(s), t.scaled(s), cfg)
        assert big.n_vertices == g.n_vertices
        assert big.n_edges == g.n_edges
        assert ifd.dijkstra(big).distance / (s * s) <= 1e-9


def test_g2_perpendicular_exact():
    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25))
    r = ifd.dijkstra(g)
    assert r.distance == pytest.approx(math.sqrt(2), abs=1e-9)


def test_g2_parallel_exact():
    t1, t2 = curve_pair(PARALLEL)
    g = ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25))
    assert ifd.dijkstra(g).distance == pytest.approx(2.0, abs=1e-12)


def test_g2_source_isolated_falls_back_to_g1():
    # corner cell is antiparallel (no axis, no connector) and every grid
    # ball's lattice misses the origin
    t1 = ifd.build_curve([(0, 0), (1, 0), (1, 1)])
    t2 = ifd.build_curve([(9, 5), (8, 5), (8, 6)])
    cfg = ifd.GraphConfig.desk(epsilon=0.3, c_g1=10.0)
    g2 = ifd.build_g2(t1, t2, cfg)
    touching = np.count_nonzero(g2.tails == g2.source) + np.count_nonzero(
        g2.heads == g2.source
    )
    assert touching == 0
    assert math.isinf(ifd.dijkstra(g2).distance)
    res = ifd.approximate_integral_frechet(t1, t2, cfg)
    assert res.winning_mode == "g1"
    assert res.graph_stats["g2"]["status"] == "disconnected"
    with pytest.raises(Disconnected):
        ifd.approximate_integral_frechet(
            t1, t2, ifd.GraphConfig.desk(epsilon=0.3, mode="g2")
        )


def test_g2_composition_audit():
    # every non-connector edge lies on a cell axis or on a lattice line
    t1, t2 = curve_pair(PERPENDICULAR)
    cfg = ifd.GraphConfig.desk(epsilon=0.25)
    g = ifd.build_g2(t1, t2, cfg)
    grid = ifd.build_cells(t1, t2)
    for i in range(g.n_edges):
        ax, ay = g.xs[g.tails[i]], g.ys[g.tails[i]]
        bx, by = g.xs[g.heads[i]], g.ys[g.heads[i]]
        if abs(bx - ax) <= 1e-10 or abs(by - ay) <= 1e-10:
            continue  # lattice line
        assert abs((by - ay) - (bx - ax)) <= 1e-10, "slope-one edge expected"
        cell = grid.cell_at(((ax + bx) / 2, (ay + by) / 2), prefer_lower=True)
        k = cell.axis_intercept
        assert abs((ay - ax) - k) <= 1e-10


def test_monotone_orientation_enforced():
    with pytest.raises(ValueError):
        ifd.MonotoneDigraph(
            xs=np.array([0.0, 1.0]),
            ys=np.array([0.0, 1.0]),
            tails=np.array([1]),
            heads=np.array([0]),
            weights=np.array([1.0]),
            source=0,
            sink=1,
        )


def test_edge_weight_audit_one_percent():
    t1, t2 = curve_pair(PARALLEL)
    cfg = ifd.GraphConfig.desk(epsilon=0.25)
    grid = ifd.build_cells(t1, t2)
    rng = np.random.default_rng(42)
    for g in (ifd.build_g1(t1, t2, cfg), ifd.build_g2(t1, t2, cfg)):
        sample = rng.choice(g.n_edges, size=max(1, g.n_edges // 100), replace=False)
        for i in sample:
            a = (g.xs[g.tails[i]], g.ys[g.tails[i]])
            b = (g.xs[g.heads[i]], g.ys[g.heads[i]])
            q = ifd.quadrature_weighted_length(grid, a, b)
            assert g.weights[i] == pytest.approx(q, rel=1e-8, abs=1e-12)


def test_approximate_parallel_band():
    t1, t2 = curve_pair(PARALLEL)
    cfg = ifd.GraphConfig.desk(epsilon=0.25)
    res = ifd.approximate_integral_frechet(t1, t2, cfg)
    assert 2.0 - 1e-12 <= res.value <= 2.0 * 1.25
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.winning_mode == "g2"
    assert res.average == pytest.approx(res.value / 2.0)
    assert res.graph_stats["g1"]["status"] == "ok"
    assert np.allclose(res.path.vertices[0], (0, 0))
    assert np.allclose(res.path.vertices[-1], (1, 1))


def test_g1_refinement_never_increases():
    # unit spans so halving epsilon exactly doubles the per-cell counts,
    # making each finer grid a vertex and edge superset of the coarser one
    t1 = ifd.build_curve([(0, 0), (1, 0)])
    t2 = ifd.build_curve([(0, 1), (0.6, 1.8)])
    vals = [
        ifd.dijkstra(ifd.build_g1(t1, t2, ifd.GraphConfig.desk(epsilon=e, c_g1=4.0))).distance
        for e in (0.8, 0.4, 0.2)
    ]
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_approximate_identical_zero():
    t = ifd.build_curve([(0, 0), (1, 0.4), (1.7, 0.9), (2.5, 0.6)])
    res = ifd.approximate_integral_frechet(t, t, ifd.GraphConfig.desk(epsilon=0.25))
    assert res.value <= 1e-9


def test_identical_single_segment_exact_zero():
    # zero-weight edges are searched as stored zeros, not as a denormal stand-in
    t = ifd.build_curve([(0.0, 0.0), (1.0, 0.5)])
    res = ifd.approximate_integral_frechet(t, t, ifd.GraphConfig.desk(0.25))
    assert res.value == 0.0
    assert res.average == 0.0


def test_no_feasible_graph():
    t1, t2 = curve_pair(PARALLEL)
    cfg = ifd.GraphConfig(epsilon=0.25, max_vertices=10, mode="both", c_mesh=8.0, c_g1=40.0)
    with pytest.raises(NoFeasibleGraph):
        ifd.approximate_integral_frechet(t1, t2, cfg)


def test_g2_budget_reports_crossings():
    # the arrangement pass counts every crossing before it stores a split,
    # so a rejection reports the graph's size, not the budget plus one
    t1, t2 = curve_pair(ARRANGEMENT_PAIR)
    for budget in (2000, 2500, 3000, 4000):
        with pytest.raises(BudgetExceeded) as exc:
            ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25, max_vertices=budget))
        assert exc.value.projected == 5040
    g = ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25, max_vertices=5040))
    assert g.n_vertices == 5040


def test_g2_crossing_blocks_leave_graph_unchanged(monkeypatch):
    # crossings are enumerated in blocks of candidate pairs; tiny blocks
    # must give the same graph and the same rejection count
    from ifd import graphs

    t1, t2 = curve_pair(ARRANGEMENT_PAIR)
    cfg = ifd.GraphConfig.desk(epsilon=0.25)
    ref = ifd.build_g2(t1, t2, cfg)
    monkeypatch.setattr(graphs, "_PAIR_BLOCK", 7)
    g = ifd.build_g2(t1, t2, cfg)
    for name in ("xs", "ys", "tails", "heads", "weights"):
        assert np.array_equal(getattr(g, name), getattr(ref, name))
    with pytest.raises(BudgetExceeded) as exc:
        ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25, max_vertices=2000))
    assert exc.value.projected == 5040


def _near_interior(g, snap):
    """(edge, vertex) pairs whose vertex lies within ``snap`` of the open
    interior of the edge; candidates are the vertices in the edge's x range."""
    order = np.argsort(g.xs, kind="stable")
    xs = g.xs[order]
    ax, ay = g.xs[g.tails], g.ys[g.tails]
    bx, by = g.xs[g.heads], g.ys[g.heads]
    lo = np.searchsorted(xs, ax - snap, side="left")
    n = np.searchsorted(xs, bx + snap, side="right") - lo
    e = np.repeat(np.arange(g.n_edges), n)
    w = order[np.arange(len(e)) - np.repeat(np.cumsum(n) - n - lo, n)]
    dx, dy = (bx - ax)[e], (by - ay)[e]
    px, py = g.xs[w] - ax[e], g.ys[w] - ay[e]
    length = np.hypot(dx, dy)
    along = (px * dx + py * dy) / length
    off = np.abs(px * dy - py * dx) / length
    hit = (off <= snap) & (along > 0) & (along < length)
    hit &= (w != g.tails[e]) & (w != g.heads[e])
    return np.stack((e[hit], w[hit]))


@pytest.mark.parametrize("pair, cfg", [
    (ARRANGEMENT_PAIR, ifd.GraphConfig.desk(epsilon=0.25)),
    # collinear axes: every diagonal cell's axis lies on one line
    (([(0, 0), (1, 0.4), (2.3, 0.1)],) * 2, ifd.GraphConfig.desk(epsilon=0.25, c_mesh=2.0)),
])
def test_g2_is_a_planar_arrangement(pair, cfg):
    # one vertex per snap key, one edge per vertex pair, and every edge a
    # maximal piece: no other vertex within snap of its interior
    t1, t2 = curve_pair(pair)
    g = ifd.build_g2(t1, t2, cfg)
    snap = 1e-12 * max(ifd.build_cells(t1, t2).extent)
    keys = np.rint(np.stack((g.xs, g.ys), axis=1) / snap)
    assert len(np.unique(keys, axis=0)) == g.n_vertices
    assert len(np.unique(g.tails * g.n_vertices + g.heads)) == g.n_edges
    assert _near_interior(g, snap).shape[1] == 0


def test_oracle_mode():
    t1, t2 = curve_pair(PARALLEL)
    cfg = ifd.GraphConfig.desk(epsilon=0.25, mode="oracle", max_vertices=50_000)
    res = ifd.approximate_integral_frechet(t1, t2, cfg)
    assert res.winning_mode == "oracle"
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert ifd.matching_cost(t1, t2, res.path) == pytest.approx(res.value, rel=1e-9)
    # the stats describe the lattice, not the path through it
    stats = res.graph_stats["oracle"]
    nx = len(snapped_axis(np.array([0.0, t1.length]), stats["mesh"])[0])
    ny = len(snapped_axis(np.array([0.0, t2.length]), stats["mesh"])[0])
    assert stats["vertices"] == nx * ny
    assert stats["edges"] == ny * (nx - 1) + (ny - 1) * nx + (ny - 1) * (nx - 1)


def test_cost_consistency_of_reported_path():
    rng = np.random.default_rng(43)
    t1 = random_curve(rng, 3)
    t2 = random_curve(rng, 2)
    cfg = ifd.GraphConfig.desk(epsilon=0.25, c_g1=10.0)
    res = ifd.approximate_integral_frechet(t1, t2, cfg)
    assert ifd.matching_cost(t1, t2, res.path) == pytest.approx(res.value, rel=1e-9)


def test_build_g2_makes_one_weight_call(monkeypatch):
    from ifd import graphs

    calls = []
    weigh = graphs.segment_weighted_length

    def counted(grid, a, b):
        calls.append(len(a))
        return weigh(grid, a, b)

    monkeypatch.setattr(graphs, "segment_weighted_length", counted)
    t1, t2 = curve_pair(PERPENDICULAR)
    g = ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25))
    assert calls == [g.n_edges]
    assert ifd.dijkstra(g).distance == pytest.approx(math.sqrt(2), abs=1e-9)


# g2-regime pairs whose tolerances were once absolute, each with its
# config: at s = 1e-8 the first two reported paths re-integrated 7.3% and
# 21% off and the second lost 81 vertices; the third, a touching pair, got
# an extra vertex at s = 1e6 from an absolute degenerate-ball threshold and
# was rejected as non-monotone from s = 1e4
SCALE_PAIRS = [
    ([(0, 0), (0.132, -0.306), (0.004, -0.614), (0.081, -0.938)],
     [(-0.103, 2.94), (1.133, 3.344)],
     ifd.GraphConfig.desk(epsilon=0.25, mode="g2")),
    ([(0, 0), (1.1, -0.693)],
     [(-0.019, 3.754), (0.214, 3.516), (0.274, 3.188), (0.229, 2.858)],
     ifd.GraphConfig.desk(epsilon=0.25, mode="g2")),
    ([(0, 0), (1, 0), (2, 0.5)],
     [(0.2, 1), (1, 1e-13), (1.8, 1.2)],
     ifd.GraphConfig(epsilon=0.5, c_radius=4.0, c_mesh=2.0, mode="g2")),
]


@pytest.mark.parametrize("pair", SCALE_PAIRS)
def test_g2_scale_invariant(pair):
    t1, t2 = curve_pair(pair)
    cfg = pair[2]
    base = ifd.approximate_integral_frechet(t1, t2, cfg)
    for s in (1e-8, 1e6):
        s1, s2 = t1.scaled(s), t2.scaled(s)
        res = ifd.approximate_integral_frechet(s1, s2, cfg)
        assert res.graph_stats["g2"]["vertices"] == base.graph_stats["g2"]["vertices"]
        assert res.value / (s * s) == pytest.approx(base.value, rel=1e-12, abs=0.0)
        assert ifd.matching_cost(s1, s2, res.path) == pytest.approx(res.value, rel=1e-9, abs=0.0)
