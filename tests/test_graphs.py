import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ifd
from ifd import graphs
from ifd.errors import BudgetExceeded, DegenerateBall, Disconnected, NoFeasibleGraph
from ifd.graphs import MODES
from ifd.shortest_path import snapped_axis

from helpers import (
    ARRANGEMENT_PAIR,
    IDENTICAL,
    PARALLEL,
    PERPENDICULAR,
    curve_pair,
    over_scales,
    path_weight_sum,
    quadrature_weighted_length,
    random_curve,
    reference_arrangement,
    scaled,
    seg_intersections,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ifd.GraphConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ifd.GraphConfig(epsilon=0.1, c_g1=-1)
    with pytest.raises(ValueError, match="max_vertices"):
        ifd.GraphConfig(epsilon=0.25, max_vertices=0)
    # a budget counts vertices: NaN is none, a numpy integer is one
    with pytest.raises(ValueError, match="max_vertices must be a positive integer"):
        ifd.GraphConfig.desk(0.25, max_vertices=math.nan)
    assert ifd.GraphConfig.desk(0.25, max_vertices=np.int64(1000)).max_vertices == 1000
    # NaN fails every comparison, so it is no positive value either
    with pytest.raises(ValueError, match="epsilon"):
        ifd.GraphConfig(epsilon=math.nan)
    for name in ("c_g1", "c_radius", "c_mesh"):
        with pytest.raises(ValueError, match="graph constants"):
            ifd.GraphConfig.desk(0.25, **{name: math.nan})
    # the modes are the keys of one table, and each one is accepted
    assert list(MODES) == ["g1", "g2", "both", "oracle"]
    for mode in ("warp", "G1", "g1,g2"):
        with pytest.raises(ValueError, match="unknown mode"):
            ifd.GraphConfig(epsilon=0.1, mode=mode)
    assert [ifd.GraphConfig(0.1, mode=mode).mode for mode in MODES] == list(MODES)
    desk = ifd.GraphConfig.desk(0.25)
    assert (desk.c_g1, desk.c_radius, desk.c_mesh) == (40.0, 62.0, 8.0)
    worst = ifd.GraphConfig(0.25)
    assert (worst.c_g1, worst.c_radius, worst.c_mesh) == (40000.0, 62.0, 456.0)


@pytest.mark.parametrize("budget", [0, -1, 2.5, math.nan, math.inf, True, False, "1000"],
                         ids=repr)
def test_graph_budget_must_be_a_positive_integer(budget):
    with pytest.raises(ValueError, match="max_vertices must be a positive integer"):
        ifd.GraphConfig(epsilon=0.25, max_vertices=budget)


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
        q = quadrature_weighted_length(grid, a, b)
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
        assert math.isfinite(ifd.dijkstra(g).distance)


def test_g1_edges_come_grouped_by_tail():
    # each vertex's right and up edges come together, so the search's
    # adjacency is the graph's own arrays; all right edges first, the order
    # g1 once had, gives the same search bit for bit
    rng = np.random.default_rng(42)
    t1, t2 = random_curve(rng, 3), random_curve(rng, 2)
    g = ifd.build_g1(t1, t2, ifd.GraphConfig.desk(epsilon=0.5, c_g1=5.0))
    nx = len(np.unique(g.xs))
    ny = g.n_vertices // nx
    assert nx != ny and np.all(np.diff(g.tails) >= 0)
    adj = g.csr()
    assert np.shares_memory(adj.indices, g.heads) and np.shares_memory(adj.data, g.weights)
    order = np.argsort(g.ys[g.heads] != g.ys[g.tails], kind="stable")
    ids = np.arange(nx * ny).reshape(ny, nx)
    right, up = ids[:, :-1].ravel(), ids[:-1].ravel()
    assert np.array_equal(g.tails[order], np.concatenate([right, up]))
    assert np.array_equal(g.heads[order], np.concatenate([right + 1, up + nx]))
    old = ifd.MonotoneDigraph(g.xs, g.ys, g.tails[order], g.heads[order], g.weights[order],
                              g.source, g.sink)
    new, ref = ifd.dijkstra(g), ifd.dijkstra(old)
    assert new.distance == ref.distance and new.vertex_ids == ref.vertex_ids
    assert np.array_equal(new.points, ref.points)


def test_grid_ball_lattice():
    h, v = ifd.build_grid_ball((0.5, 0.5), 0.25, 0.25, (1.0, 1.0))
    assert len(h) == 3 and len(v) == 3
    assert tuple(h[0]) == (0.25, 0.25, 0.75)


def test_grid_ball_clipping_and_degenerate():
    h, v = ifd.build_grid_ball((0.0, 0.0), 1.0, 0.5, (0.6, 10.0))
    for lines, span_hi in ((h, 0.6 + 1e-12), (v, 1.0)):
        assert np.all(lines[:, 1] >= 0.0) and np.all(lines[:, 2] <= span_hi)
    with pytest.raises(DegenerateBall):
        ifd.build_grid_ball((0.5, 0.5), 0.0, 0.0, (1, 1))
    with pytest.raises(DegenerateBall):
        ifd.build_grid_ball([(0.5, 0.5), (0.2, 0.2)], [0.25, 0.0], 0.1, (1, 1))


def _grid_ball_loop(center, radius, mesh, bounds):
    """One ball's lines by a loop over its lattice indices: the reference
    for the array generator, (h, v) lists of (fixed, lo, hi)."""
    (l1, l2), (cx, cy) = bounds, center
    k = max(1, math.ceil(2.0 * radius / mesh - 1e-9))
    step = 2.0 * radius / k
    h, v = [], []
    for out, c, l, other, lo, hi in ((h, cy, l2, cx, 0.0, l1), (v, cx, l1, cy, 0.0, l2)):
        span = (max(other - radius, lo), min(other + radius, hi))
        if span[1] > span[0]:
            for t in range(k + 1):
                y = c - radius + t * step
                if -1e-12 * l <= y <= l * (1.0 + 1e-12):
                    out.append((min(max(y, 0.0), l),) + span)
    return h, v


def _merge_lines_loop(raw, snap):
    """Per-key loop union of collinear intervals: the array merge's reference."""
    groups = {}
    for fixed, lo, hi in raw:
        groups.setdefault(round(fixed / snap), []).append((fixed, lo, hi))
    merged = []
    for key in sorted(groups):
        items = sorted(groups[key], key=lambda t: t[1])
        fixed, cur_lo, cur_hi = items[0]
        for _, lo, hi in items[1:]:
            if lo <= cur_hi + snap:
                cur_hi = max(cur_hi, hi)
            else:
                merged.append((fixed, cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        merged.append((fixed, cur_lo, cur_hi))
    return merged


def test_ball_lines_match_loop_reference():
    # one call for many balls: centers inside, on the corners of and outside
    # the rectangle, and balls whose step falls below the clip's tolerance
    from ifd.graphs import _merge_lines

    rng = np.random.default_rng(44)
    for _ in range(30):
        bounds = tuple(rng.uniform(0.1, 3.0, 2) * 10.0 ** rng.uniform(-8, 6))
        center = rng.choice([0.0, 1.0, rng.uniform(-0.5, 1.5)], (10, 2)) * bounds
        radius = rng.uniform(0.1, 5.0, 10) * 10.0 ** rng.uniform(-14, 0, 10) * max(bounds)
        mesh = radius / rng.choice([0.5, 3.0, 17.2, rng.uniform(1.0, 400.0)], 10)
        h, v = ifd.build_grid_ball(center, radius, mesh, bounds)
        ref = [_grid_ball_loop(*ball, bounds) for ball in zip(center, radius, mesh)]
        assert np.array_equal(h, np.reshape([r for b in ref for r in b[0]], (-1, 3)))
        assert np.array_equal(v, np.reshape([r for b in ref for r in b[1]], (-1, 3)))
    for _ in range(300):
        n, snap = int(rng.integers(0, 40)), 10.0 ** rng.uniform(-14, -1)
        fixed = rng.choice(rng.uniform(0, 1, 6), n) + rng.choice([0, 0.3, -0.3, 0.7], n) * snap
        lo = rng.choice(np.round(rng.uniform(0, 1, 8), 2), n) + rng.choice([0, 1, -1, 2], n) * snap
        hi = lo + rng.choice([0.0, snap, 0.05, 0.2, rng.uniform(0, 0.5)], n)
        raw = np.stack((fixed, lo, hi), axis=1)
        assert np.array_equal(_merge_lines(raw, snap),
                              np.reshape(_merge_lines_loop(raw.tolist(), snap), (-1, 3)))


def test_g2_budget_checked_before_ball_lines():
    # the worst-case constants give each ball ~5.7e7 lines per axis; the
    # pre-check must reject from the line counts alone, without building them
    import tracemalloc

    t1, t2 = curve_pair(PARALLEL)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            ifd.build_g2(t1, t2, ifd.GraphConfig(epsilon=1e-3, mode="g2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.projected == 831_744_000_000
    assert peak < 10 * 2**20


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
        big = ifd.build_g2(scaled(t, s), scaled(t, s), cfg)
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
        cell = grid.cell(*grid.locate((ax + bx) / 2, (ay + by) / 2))
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
    # a graph without edges has nothing to check
    empty = ifd.MonotoneDigraph(xs=np.zeros(2), ys=np.zeros(2), tails=np.zeros(0, dtype=int),
                                heads=np.zeros(0, dtype=int), weights=np.zeros(0),
                                source=0, sink=1)
    assert empty.n_edges == 0


@over_scales
def test_negative_weight_guard_is_scale_free(s):
    # weights scale with s^2, so the guard is relative to the largest one:
    # -1e-6 of it is rejected, a rounding-level -1e-14 and 0 pass
    def graph(w):
        return ifd.MonotoneDigraph(
            xs=s * np.array([0.0, 1.0, 2.0]),
            ys=s * np.array([0.0, 1.0, 2.0]),
            tails=np.array([0, 1, 0]),
            heads=np.array([1, 2, 2]),
            weights=s * s * np.array([1.0, 1.0, w]),
            source=0,
            sink=2,
        )

    with pytest.raises(ValueError, match="negative edge weight"):
        graph(-1e-6)
    graph(-1e-14)
    graph(0.0)


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
            q = quadrature_weighted_length(grid, a, b)
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


def test_oracle_mesh_is_scale_free():
    # the affordable mesh is a length: the lattice and value / s^2 do not move with s
    a = np.array([(0, 0), (1, 0.3), (1.8, -0.2)], float)
    b = np.array([(0, 0.5), (0.9, 0.8), (1.7, 0.6)], float)
    cfg = ifd.GraphConfig.desk(0.25, mode="oracle")
    runs = []
    for s in (1e-20, 1e-8, 1.0, 1e6):
        res = ifd.approximate_integral_frechet(ifd.build_curve(a * s), ifd.build_curve(b * s), cfg)
        runs.append((res.graph_stats["oracle"]["vertices"], res.value / (s * s)))
    assert len({n for n, _ in runs}) == 1
    for _, v in runs:
        assert v == pytest.approx(runs[2][1], rel=1e-9)


def test_traced_names_exist():
    # perfbench/tracing.py swaps these module attributes for timing wrappers;
    # a missing one breaks a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.SPAN_TARGETS + tracing.AGG_TARGETS:
        assert callable(getattr(importlib.import_module(f"ifd.{module}"), attr, None)), (module, attr)


def test_public_names_are_pinned():
    # deleting or renaming a helper must not silently drop a public name
    assert sorted(ifd.__all__) == sorted([
        "errors",
        "PolygonalCurve", "CurveStats", "build_curve", "stats",
        "ParameterPoint", "ParameterCell", "CellGrid", "FreeSpaceAxes",
        "EllipseSlice", "GridEdge", "weight", "build_cells", "free_space_axes",
        "edge_min", "ellipse_slice",
        "piece_weights", "segment_weighted_length",
        "CellPath", "SimilarityProfile", "cell_shortest_path", "two_cell_path",
        "partial_similarity_profile",
        "GraphConfig", "MonotoneDigraph", "ApproxResult", "build_g1", "build_g2",
        "build_grid_ball", "approximate_integral_frechet",
        "PathResult", "dijkstra", "dense_grid_oracle",
        "MonotonePath", "matching_cost", "evaluate_matching", "locally_optimize",
        "max_leash",
    ])
    assert len(ifd.__all__) == 38
    assert len(set(ifd.__all__)) == len(ifd.__all__)
    # the README states the count
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.search(r"`ifd\.__all__` has (\d+) names", readme)[1] == str(len(ifd.__all__))
    for name in ifd.__all__:
        assert getattr(ifd, name, None) is not None, name


def test_no_feasible_graph():
    t1, t2 = curve_pair(PARALLEL)
    cfg = ifd.GraphConfig(epsilon=0.25, max_vertices=10, mode="both", c_mesh=8.0, c_g1=40.0)
    with pytest.raises(NoFeasibleGraph):
        ifd.approximate_integral_frechet(t1, t2, cfg)
    # the oracle reports its budget failure like g1 and g2: no lattice has one point
    oracle = ifd.GraphConfig.desk(epsilon=0.25, mode="oracle", max_vertices=1)
    with pytest.raises(NoFeasibleGraph, match="oracle projected"):
        ifd.approximate_integral_frechet(t1, t2, oracle)


def test_g2_budget_reports_crossings(monkeypatch):
    # the arrangement pass counts every crossing before it stores a split,
    # so a rejection reports the graph's size, not the budget plus one
    t1, t2 = curve_pair(ARRANGEMENT_PAIR)
    for budget in (2000, 2500, 3000, 4000):
        with pytest.raises(BudgetExceeded) as exc:
            ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25, max_vertices=budget))
        assert exc.value.projected == 5040
    g = ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25, max_vertices=5040))
    assert g.n_vertices == 5040
    # the h-v crossings alone fit the budget; those of the cell axes push
    # the count over it, and the rejection reports the total of all passes
    t1 = ifd.build_curve([(0, 0), (0.22376149892837854, 0.24706659569524236),
                          (0.44767802854515226, 0.49399269572416116),
                          (0.700490006182172, 0.7112418961240018)])
    t2 = ifd.build_curve([(0.1872745785947128, 4.293557966081396),
                          (1.2769852860644766, 3.5846640572165036)])
    hv = []
    crossings = graphs._hv_crossings

    def counted(*args):
        pairs, count = crossings(*args)
        hv.append(count)
        return pairs, count

    monkeypatch.setattr(graphs, "_hv_crossings", counted)
    with pytest.raises(BudgetExceeded) as exc:
        ifd.build_g2(t1, t2, ifd.GraphConfig.desk(0.25, max_vertices=5022))
    # horizontals against verticals, then the axes against the verticals
    # and against the horizontals
    assert hv == [5022, 21, 19] and exc.value.projected == 5062
    assert ifd.build_g2(t1, t2, ifd.GraphConfig.desk(0.25, max_vertices=5062)).n_vertices == 5062


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


def _lattice_segments(rng, s):
    """Random g2-shaped input on the lattice of spacing 1/8 in [0, 2]^2,
    scaled by ``s``: horizontals and verticals at distinct fixed values,
    slope-1 axes on distinct diagonals, and points, none in an axis's
    interior.  Coordinates are exact, so ends touch exactly or stay a
    lattice step apart."""
    grid = np.arange(17) / 8.0

    def lines(n):
        fixed = np.sort(rng.choice(grid, n, replace=False))
        ends = np.sort(rng.choice(grid, (n, 2), replace=True), axis=1)
        ends[:, 1] = np.maximum(ends[:, 1], ends[:, 0] + 0.125)
        return np.column_stack((fixed, ends))

    h, v = lines(12), lines(12)
    k = rng.choice(np.arange(-8, 9) / 8.0, 8, replace=False)
    x0 = rng.choice(grid[:-2], 8) + np.maximum(-k, 0.0)
    x1 = x0 + rng.choice(grid[1:4], 8)
    a = np.column_stack((x0, x0 + k, x1, x1 + k))
    pts = rng.choice(grid, (30, 2))
    inside = ((pts[:, 1] - pts[:, 0])[:, None] == k) & (x0 < pts[:, :1]) & (pts[:, :1] < x1)
    iso = pts[~inside.any(axis=1)]
    return h * s, v * s, a * s, iso * s


def _dedupe_splits(seg, at):
    order = np.lexsort((at, seg))
    seg, at = seg[order], at[order]
    keep = np.r_[True, (seg[1:] != seg[:-1]) | (at[1:] - at[:-1] > 1e-12)]
    return seg[keep], at[keep]


@over_scales
@pytest.mark.parametrize("block", [7, graphs._PAIR_BLOCK])
def test_crossings_match_general_segment_intersection(block, s, monkeypatch):
    # the rows-against-verticals routine finds the pairs, and _splits the
    # split parameters, that the general segment intersection reports
    monkeypatch.setattr(graphs, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(19)
    snap = 2e-12 * s
    for _ in range(20):
        h, v, a, iso = _lattice_segments(rng, s)
        total = 0
        # horizontals, then axes, against the verticals, then the axes
        # against the horizontals with x and y swapped; points ride along
        for rows, cols, sloped, pts in ((h, v, False, iso[:, [1, 0, 0]]),
                                        (a[:, [1, 0, 2]], v, True, iso[:, [1, 0, 0]]),
                                        (a[:, [0, 1, 3]], h, True, iso[:, [0, 1, 1]])):
            n_seg, rows = len(rows), np.concatenate([rows, pts])
            pairs, count = graphs._hv_crossings(rows, cols, snap, 10 ** 6, sloped, n_seg)
            cp, cq = cols[:, [0, 1]], cols[:, [0, 2]]
            ref = set()
            for i, (y, x0, x1) in enumerate(rows.tolist()):
                if i < n_seg:
                    k = seg_intersections((x0, y), (x1, y + sloped * (x1 - x0)), cp, cq, snap)[0]
                else:
                    k = seg_intersections(cp, cq, (x0, y), (x0, y), snap)[0]
                ref.update((i, j) for j in k.tolist())
            assert set(zip(*pairs.tolist())) == ref
            assert count == sum(i < n_seg for i, _ in ref)
            total += count
        # every segment against every other and every point, both ways
        p = np.concatenate([h[:, [1, 0]], v[:, [0, 1]], a[:, :2]])
        q = np.concatenate([h[:, [2, 0]], v[:, [0, 2]], a[:, 2:]])
        n = len(p)
        seg, at = [np.arange(n), np.arange(n)], [np.zeros(n), np.ones(n)]
        for i in range(n):
            k, t1, _ = seg_intersections(p[i], q[i], p, q, snap)
            seg.append(np.full(np.count_nonzero(k != i), i))
            at.append(t1[k != i])
        for pt in iso:
            k, t1, _ = seg_intersections(p, q, pt, pt, snap)
            seg.append(k)
            at.append(t1)
        ref_seg, ref_at = _dedupe_splits(np.concatenate(seg), np.concatenate(at))
        _, _, got_seg, got_at = graphs._splits(h, v, a, iso, snap, 10 ** 6)
        got_seg, got_at = _dedupe_splits(got_seg, got_at)
        assert np.array_equal(got_seg, ref_seg)
        assert np.abs(got_at - ref_at).max() <= 1e-12
        # one budget over all passes, isolated points not counted
        with pytest.raises(BudgetExceeded) as exc:
            graphs._splits(h, v, a, iso, snap, total - 1)
        assert exc.value.projected == total


# g2 inputs of the bit-identity check against the reference arrangement
_G2_CASES = {
    "parallel": (PARALLEL, ifd.GraphConfig.desk(0.25)),
    "perpendicular": (PERPENDICULAR, ifd.GraphConfig.desk(0.25)),
    "identical": (IDENTICAL, ifd.GraphConfig.desk(0.25)),
    # the curves cross twice, each crossing a zero of the leash
    "crossing": (([(0, 0), (1, 1), (2, 0)], [(0, 1), (1, 0), (2, 1)]), ifd.GraphConfig.desk(0.5)),
    # the curves touch at a shared vertex
    "touching": (([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 0), (2, 1)]), ifd.GraphConfig.desk(0.5)),
    # an offset of 1e-7, far below mu; smaller balls keep the lattices small
    "nearly coincident": (([(0, 0), (1, 0.4), (2.3, 0.1)],
                           [(0, 1e-7), (1, 0.4 + 1e-7), (2.3, 0.1 + 1e-7)]),
                          ifd.GraphConfig.desk(0.25, c_radius=2.0, c_mesh=1.0)),
    # the source is an isolated point that no edge reaches
    "isolated points": (([(0, 0), (1, 0), (1, 1)], [(9, 5), (8, 5), (8, 6)]),
                        ifd.GraphConfig.desk(0.3, c_g1=10.0)),
}


@over_scales
@pytest.mark.parametrize("case", list(_G2_CASES))
def test_g2_matches_reference_arrangement(case, s, monkeypatch):
    # the staged arrangement frees what it has consumed, numbers its
    # vertices in snap-key order and emits its edges in (tail, head) order;
    # with the reference's first-seen vertices mapped to it by coordinates,
    # vertices, edges, weights and distance stay the reference's, bit for bit
    (a, b), cfg = _G2_CASES[case]
    t1, t2 = scaled(ifd.build_curve(a), s), scaled(ifd.build_curve(b), s)
    g = ifd.build_g2(t1, t2, cfg)
    with monkeypatch.context() as m:
        m.setattr(graphs, "_arrangement", reference_arrangement)
        ref = ifd.build_g2(t1, t2, cfg)
    ids = {xy: k for k, xy in enumerate(zip(g.xs.tolist(), g.ys.tolist()))}
    to_g = np.array([ids[xy] for xy in zip(ref.xs.tolist(), ref.ys.tolist())])
    assert g.n_vertices == ref.n_vertices == len(ids)
    assert np.array_equal(np.sort(to_g), np.arange(g.n_vertices))
    assert g.xs[to_g].tobytes() == ref.xs.tobytes() and g.ys[to_g].tobytes() == ref.ys.tobytes()
    # the sweep order: vertices strictly increasing by (x key, y key)
    snap = 1e-12 * max(ifd.build_cells(t1, t2).extent)
    kx, ky = np.diff(np.rint(g.xs / snap)), np.diff(np.rint(g.ys / snap))
    assert np.all((kx > 0) | ((kx == 0) & (ky > 0)))
    assert (g.source, g.sink) == (to_g[ref.source], to_g[ref.sink])
    tails, heads = to_g[ref.tails], to_g[ref.heads]
    order = np.lexsort((heads, tails))
    assert g.tails.tobytes() == tails[order].tobytes()
    assert g.heads.tobytes() == heads[order].tobytes()
    assert g.weights.tobytes() == ref.weights[order].tobytes()
    r, r_ref = ifd.dijkstra(g), ifd.dijkstra(ref)
    assert repr(r.distance) == repr(r_ref.distance)
    assert math.isfinite(r.distance) == (case != "isolated points")
    if math.isfinite(r.distance):
        assert r.vertex_ids[0] == g.source and r.vertex_ids[-1] == g.sink
        assert path_weight_sum(g, r.vertex_ids) == r.distance


def test_g2_build_and_search_memory_bound():
    # the traced peak of building and searching g2 stays within five times
    # the arrays the graph keeps
    t = ifd.build_curve(IDENTICAL[0])
    cfg = ifd.GraphConfig.desk(0.25)
    # first calls of some numpy functions import modules, which would be traced too
    ifd.dijkstra(ifd.build_g2(*curve_pair(PERPENDICULAR), cfg))
    tracemalloc.start()
    try:
        g = ifd.build_g2(t, t, cfg)
        ifd.dijkstra(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_vertices == 16_900
    size = sum(getattr(g, name).nbytes for name in ("xs", "ys", "tails", "heads", "weights"))
    assert peak <= 5 * size


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


# the cases above, the 5040-vertex pair, and collinear axes: every diagonal
# cell's axis lies on one line
_PLANAR_CASES = {
    **_G2_CASES,
    "arrangement pair": (ARRANGEMENT_PAIR, ifd.GraphConfig.desk(epsilon=0.25)),
    "collinear axes": (([(0, 0), (1, 0.4), (2.3, 0.1)],) * 2,
                       ifd.GraphConfig.desk(epsilon=0.25, c_mesh=2.0)),
}


@over_scales
@pytest.mark.parametrize("case", list(_PLANAR_CASES))
def test_g2_is_a_planar_arrangement(case, s):
    # one vertex per snap key, one edge per vertex pair, and every edge a
    # maximal piece: no other vertex within snap of its interior
    (a, b), cfg = _PLANAR_CASES[case]
    t1, t2 = scaled(ifd.build_curve(a), s), scaled(ifd.build_curve(b), s)
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
    assert list(stats) == ["status", "mesh", "vertices", "edges", "distance"]
    assert stats["status"] == "ok" and stats["distance"] == res.value
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
# was rejected as non-monotone from s = 1e4.  The last two nearly coincide:
# an absolute axis-clip tolerance and a collinearity test floored at unit
# length made the first non-monotone and gave the second 32 extra vertices
# at s = 1e-8
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
    ([(0, 0), (0.22925, 0.16241), (0.43979, -0.21128)],
     [(0, 0), (0.22913, 0.16189)],
     ifd.GraphConfig(epsilon=0.5, c_radius=4.0, c_mesh=2.0, mode="g2")),
    ([(0.658, 0.428), (0.524, 0.873), (0.344, 0.59)],
     [(0.658, 0.428), (0.817, 0.674), (0.448, 0.688), (0.361, 0.58)],
     ifd.GraphConfig(epsilon=0.5, c_radius=4.0, c_mesh=2.0, mode="g2")),
]


@pytest.mark.parametrize("pair", SCALE_PAIRS)
def test_g2_scale_invariant(pair):
    t1, t2 = curve_pair(pair)
    cfg = pair[2]
    base = ifd.approximate_integral_frechet(t1, t2, cfg)
    for s in (1e-8, 1e6):
        s1, s2 = scaled(t1, s), scaled(t2, s)
        res = ifd.approximate_integral_frechet(s1, s2, cfg)
        assert res.graph_stats["g2"]["vertices"] == base.graph_stats["g2"]["vertices"]
        assert res.value / (s * s) == pytest.approx(base.value, rel=1e-12, abs=0.0)
        assert ifd.matching_cost(s1, s2, res.path) == pytest.approx(res.value, rel=1e-9, abs=0.0)


_TURN = np.array([[math.cos(0.7), math.sin(0.7)], [-math.sin(0.7), math.cos(0.7)]])
# moves of both curves that leave the exact integral Frechet distance where it is
INVARIANCES = {
    "swap": lambda a, b: (b, a),
    "reverse": lambda a, b: (a[::-1], b[::-1]),
    "rotate": lambda a, b: (a @ _TURN, b @ _TURN),
    "translate": lambda a, b: (a + (1e3, -1e3), b + (1e3, -1e3)),
}
INVARIANCE_CONFIGS = {
    "g1": ifd.GraphConfig(epsilon=0.25, c_g1=10.0, c_radius=62.0, c_mesh=8.0,
                          max_vertices=4_000_000, mode="g1"),
    "oracle": ifd.GraphConfig.desk(0.25, mode="oracle"),
    "g2": ifd.GraphConfig.desk(0.25, c_radius=2.0, c_mesh=1.0, max_vertices=3_000_000, mode="g2"),
}


@pytest.mark.parametrize("mode", list(INVARIANCE_CONFIGS))
def test_values_keep_the_invariances_of_the_exact_distance(mode):
    # C5 pairs 0-7 of the acceptance suite; each graph is built on the moved
    # curves' own parameter space, which these moves leave unchanged (up to
    # reversal and the swap), so the value moves by rounding only: 4.3e-15
    # at most under swap, reverse and rotate, 1.5e-13 under translate
    rng = np.random.default_rng(105)
    cfg = INVARIANCE_CONFIGS[mode]
    for k in range(8):
        t1 = random_curve(rng, int(rng.integers(2, 7)), equalize=True)
        t2 = random_curve(rng, int(rng.integers(2, 7)), equalize=True)
        base = ifd.approximate_integral_frechet(t1, t2, cfg).value
        for name, move in INVARIANCES.items():
            a, b = move(t1.vertices, t2.vertices)
            value = ifd.approximate_integral_frechet(ifd.build_curve(a), ifd.build_curve(b), cfg).value
            assert abs(value - base) <= 1e-12 * base, (k, name, value, base)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=str)
def test_grid_ball_inputs_must_be_finite(bad):
    # a radius or mesh that is not positive and finite is a degenerate ball
    # (NaN once gave no lines, inf a numpy error); a center or bound that is
    # not finite is an input error
    for radius, mesh in ((bad, 0.1), (0.25, bad), ([0.25, bad], 0.1)):
        with pytest.raises(DegenerateBall):
            ifd.build_grid_ball([(0.5, 0.5), (0.2, 0.2)], radius, mesh, (1, 1))
    if bad < 0.0:
        return
    for sign in (1.0, -1.0):
        with pytest.raises(ValueError, match="center 1 has a non-finite coordinate"):
            ifd.build_grid_ball([(0.5, 0.5), (0.2, sign * bad)], 0.25, 0.1, (1, 1))
        with pytest.raises(ValueError, match="bounds 0 has a non-finite coordinate"):
            ifd.build_grid_ball((0.5, 0.5), 0.25, 0.1, (1, sign * bad))
