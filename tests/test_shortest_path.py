import math

import numpy as np
import pytest

import ifd
from ifd.errors import BudgetExceeded
from ifd.shortest_path import (
    Lattice,
    _staircase_lattice,
    dense_grid_oracle_path,
    lattice_weights,
    snapped_axis,
)

from helpers import (
    ARRANGEMENT_PAIR,
    PARALLEL,
    PERPENDICULAR,
    bellman_ford,
    curve_pair,
    lattice_oracle,
    quadrature_weighted_length,
    random_cell,
    random_curve,
)


def _graph(tails, heads, weights, n, s=0, t=None):
    return ifd.MonotoneDigraph(
        xs=np.arange(n, dtype=float),
        ys=np.arange(n, dtype=float),
        tails=np.asarray(tails),
        heads=np.asarray(heads),
        weights=np.asarray(weights, dtype=float),
        source=s,
        sink=n - 1 if t is None else t,
    )


def test_single_edge():
    g = _graph([0], [1], [3.5], 2)
    r = ifd.dijkstra(g)
    assert r.distance == pytest.approx(3.5)
    assert r.vertex_ids == (0, 1)


def test_source_equals_target():
    g = _graph([0], [1], [1.0], 2)
    r = ifd.dijkstra(g, source=0, target=0)
    assert r.distance == 0.0
    assert r.vertex_ids == (0,)


def test_diamond():
    g = _graph([0, 1, 0, 2], [1, 3, 2, 3], [1.0, 1.0, 0.5, 0.4], 4)
    r = ifd.dijkstra(g)
    assert r.distance == pytest.approx(0.9)
    assert r.vertex_ids == (0, 2, 3)


def test_unreachable():
    g = _graph([0], [1], [1.0], 3, t=2)
    r = ifd.dijkstra(g)
    assert math.isinf(r.distance)
    assert r.vertex_ids == ()


def test_path_weights_sum_to_distance():
    # Dijkstra on the built g1 shares no search code with the lattice sweep
    # that approximate_integral_frechet runs for g1
    rng = np.random.default_rng(30)
    cfg = ifd.GraphConfig.desk(epsilon=0.5, c_g1=5.0, mode="g1")
    for _ in range(6):
        t1 = random_curve(rng, int(rng.integers(1, 4)))
        t2 = random_curve(rng, int(rng.integers(1, 4)))
        r = ifd.dijkstra(ifd.build_g1(t1, t2, cfg))
        assert r.kahan_length == pytest.approx(r.distance, rel=1e-9)
        sweep = ifd.approximate_integral_frechet(t1, t2, cfg)
        assert sweep.value == pytest.approx(r.distance, rel=1e-12)
        assert ifd.matching_cost(t1, t2, sweep.path) == pytest.approx(sweep.value, rel=1e-12)


def test_dijkstra_matches_bellman_ford():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(n, 4 * n))
        tails = rng.integers(0, n - 1, m)
        heads = np.minimum(tails + rng.integers(1, 4, m), n - 1)
        w = rng.uniform(0, 2, m)
        g = _graph(tails, heads, w, n)
        r = ifd.dijkstra(g)
        bf = bellman_ford(g)
        if math.isinf(r.distance):
            assert math.isinf(bf[g.sink])
        else:
            assert r.distance == pytest.approx(bf[g.sink], rel=1e-12)


def test_cycle_raises():
    # two vertices at one point joined both ways pass the monotonicity check
    g = ifd.MonotoneDigraph(
        xs=np.array([0.0, 1.0, 1.0, 2.0]),
        ys=np.array([0.0, 1.0, 1.0, 2.0]),
        tails=np.array([0, 1, 2, 2]),
        heads=np.array([1, 2, 1, 3]),
        weights=np.array([1.0, 0.0, 0.0, 1.0]),
        source=0,
        sink=3,
    )
    with pytest.raises(ValueError, match="cycle"):
        ifd.dijkstra(g)


def _reference_search(g, s, t):
    """scipy's Dijkstra on the same adjacency, then a backward walk over
    in-edges within 1e-12 * |dist| of tight, smallest predecessor id first."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    adj = g.csr()
    n = g.n_vertices
    csr = csr_matrix((adj.data, adj.indices, adj.indptr), shape=(n, n))
    dist = csgraph_dijkstra(csr, directed=True, indices=s)
    if not math.isfinite(dist[t]):
        return dist, (), 0.0
    csc = csr.tocsc()
    path, used, cur = [t], [], t
    while cur != s:
        lo, hi = csc.indptr[cur], csc.indptr[cur + 1]
        preds, wts = csc.indices[lo:hi], csc.data[lo:hi]
        slack = dist[preds] + wts - dist[cur]
        ok = np.flatnonzero(slack <= 1e-12 * abs(dist[cur]))
        pick = ok[np.argmin(preds[ok])]
        used.append(float(wts[pick]))
        cur = int(preds[pick])
        path.append(cur)
    kahan = ifd.shortest_path._kahan_sum(used[::-1])
    return dist, tuple(path[::-1]), kahan


def _random_monotone_dag(rng):
    """Vertices on a small integer grid (repeated points included) and
    edges that never step left or down; equal points are joined only from
    the smaller id, so the graph is acyclic.  Weights are drawn from sets
    that produce exact and near ties, zeros and parallel edges."""
    n = int(rng.integers(2, 40))
    xs = rng.integers(0, 5, n).astype(float)
    ys = rng.integers(0, 5, n).astype(float)
    u = rng.integers(0, n, 6 * n)
    v = rng.integers(0, n, 6 * n)
    keep = (xs[v] >= xs[u]) & (ys[v] >= ys[u]) & (u != v)
    keep &= (xs[v] > xs[u]) | (ys[v] > ys[u]) | (u < v)
    u, v = u[keep], v[keep]
    twice = rng.random(len(u)) < 0.2
    u, v = np.concatenate((u, u[twice])), np.concatenate((v, v[twice]))
    pool = (np.array([0.0, 0.5, 1.0, 1.5]), np.array([0.0, 0.1, 0.2, 0.3]),
            rng.uniform(0.0, 2.0, 8))[int(rng.integers(0, 3))]
    w = rng.choice(pool, len(u))
    s = int(rng.integers(0, n))
    t = int(rng.integers(0, n))
    return ifd.MonotoneDigraph(xs=xs, ys=ys, tails=u, heads=v, weights=w, source=s, sink=t)


def test_sweep_matches_scipy_dijkstra():
    # an independent search: distances to every target equal scipy's and
    # Bellman-Ford's bit for bit, and the path follows the same tie rule;
    # random monotone DAGs, then one real g2
    rng = np.random.default_rng(32)
    unreachable = 0
    for _ in range(40):
        g = _random_monotone_dag(rng)
        r = ifd.dijkstra(g)
        dist, ids, kahan = _reference_search(g, g.source, g.sink)
        assert (r.distance, r.vertex_ids, r.kahan_length) == (dist[g.sink], ids, kahan)
        for source in (g.source, int(rng.integers(0, g.n_vertices))):
            bf = bellman_ford(g, source=source)
            for target in range(g.n_vertices):
                dist, ids, kahan = _reference_search(g, source, target)
                r = ifd.dijkstra(g, source=source, target=target)
                assert r.distance == dist[target] == bf[target]
                assert r.vertex_ids == ids
                assert r.kahan_length == kahan
                unreachable += not r.reachable
    assert unreachable > 0

    t1, t2 = curve_pair(ARRANGEMENT_PAIR)
    g = ifd.build_g2(t1, t2, ifd.GraphConfig.desk(epsilon=0.25))
    dist, ids, kahan = _reference_search(g, g.source, g.sink)
    r = ifd.dijkstra(g)
    assert (r.distance, r.vertex_ids, r.kahan_length) == (dist[g.sink], ids, kahan)
    assert np.array_equal(bellman_ford(g), dist)


def test_snapped_axis_contains_cuts():
    cuts = np.array([0.0, 0.7, 1.0])
    xs, off = snapped_axis(cuts, 0.3)
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.diff(xs) <= 0.3 + 1e-12)
    for i, c in enumerate(cuts):
        assert xs[off[i]] == c


def test_dense_oracle_exact_instances():
    t1, t2 = curve_pair(PARALLEL)
    assert ifd.dense_grid_oracle(t1, t2, 0.25) == pytest.approx(2.0, abs=1e-12)
    assert ifd.dense_grid_oracle(t1, t2, 0.125) == pytest.approx(2.0, abs=1e-12)

    t1, t2 = curve_pair(PERPENDICULAR)
    assert ifd.dense_grid_oracle(t1, t2, 0.25) == pytest.approx(math.sqrt(2), abs=1e-12)

    t = ifd.build_curve([(0, 0), (1, 0.5), (2, 0.2)])
    assert ifd.dense_grid_oracle(t, t, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_dense_oracle_refinement_monotone():
    rng = np.random.default_rng(32)
    t1 = random_curve(rng, 2)
    t2 = random_curve(rng, 3)
    # halving a mesh that exactly divides every span gives a vertex superset
    vals = []
    for h in (1 / 4, 1 / 8, 1 / 16):
        vals.append(ifd.dense_grid_oracle(t1, t2, h * min(t1.length, t2.length)))
        # the value is the one of the sweep that also returns the path
        assert vals[-1] == dense_grid_oracle_path(t1, t2, h * min(t1.length, t2.length))[0]
    assert vals[1] <= vals[0] + 1e-12
    assert vals[2] <= vals[1] + 1e-12


def test_dense_oracle_budget():
    t1, t2 = curve_pair(PARALLEL)
    with pytest.raises(BudgetExceeded):
        ifd.dense_grid_oracle(t1, t2, 1e-6, max_points=10_000)


def test_dense_oracle_beats_gridonly_graph():
    # equal segments and k a multiple of both segment counts: the snapped
    # lattice is the plain-loop oracle's k x k lattice
    t1 = ifd.build_curve([(0.0, 0.0), (0.5, 0.0), (0.5 + 0.5 * math.cos(0.7), 0.5 * math.sin(0.7))])
    t2 = ifd.build_curve([(0.1, 0.4), (0.1 + 1 / 3, 0.4), (0.1 + 1 / 3, 0.4 + 1 / 3),
                          (0.1 + 1 / 3 + math.cos(-0.4) / 3, 0.4 + 1 / 3 + math.sin(-0.4) / 3)])
    k = 12
    loops = lattice_oracle(ifd.build_cells(t1, t2), (0.0, 0.0), (t1.length, t2.length), k)
    assert ifd.dense_grid_oracle(t1, t2, 1.0 / k) == pytest.approx(loops, rel=1e-12)

    # same lattice without diagonal moves is exactly the grid graph
    rng = np.random.default_rng(33)
    t1 = random_curve(rng, 2)
    t2 = random_curve(rng, 2)
    st = ifd.stats(t1, t2)
    cfg = ifd.GraphConfig.desk(epsilon=0.5, c_g1=4.0)
    sigma = cfg.epsilon * st.mu / (cfg.c_g1 * (st.len1 + st.len2))
    g = ifd.build_g1(t1, t2, cfg)
    with_diag = ifd.dense_grid_oracle(t1, t2, sigma)
    assert with_diag <= ifd.dijkstra(g).distance + 1e-12


def test_staircase_oracle_basics():
    t1, t2 = curve_pair(PARALLEL)
    cell = ifd.build_cells(t1, t2).cell(0, 0)

    def staircase(a, b, k):
        return ifd.staircase_fallback_path(cell, a, b, k).weighted_length

    for k in (2, 7, 32):
        assert staircase((0, 0), (1, 1), k) == pytest.approx(2.0, abs=1e-12)
    assert staircase((0.4, 0.7), (0.4, 0.7), 16) == 0.0
    with pytest.raises(ValueError):
        staircase((0, 0), (1, 1), 0)
    v128 = staircase((0, 0.5), (1, 1), 128)
    assert 1.5201144097172755 <= v128 + 1e-12
    assert v128 <= 1.54


def test_staircase_refinement_monotone():
    rng = np.random.default_rng(34)
    for _ in range(10):
        _, cell = random_cell(rng)
        a = (cell.x0, cell.y0)
        b = (cell.x1, cell.y1)
        prev = None
        for k in (8, 16, 32, 64):
            v = ifd.staircase_fallback_path(cell, a, b, k).weighted_length
            if prev is not None:
                assert v <= prev + 1e-12
            prev = v


# curve pairs for the lattice kernel, each with the cell kind it exercises
KERNEL_PAIRS = {
    "generic": ([(0, 0), (1, 0.3), (1.8, -0.2)], [(0, 0.5), (0.9, 0.8), (1.7, 0.6)]),
    # T2's second vertex is T1's second vertex: cell rows and columns where
    # the leash has no component across a segment, and a zero-weight corner
    "crossing": ([(0, 0), (1, 0), (2, 0.3)], [(0, -0.5), (1, 0), (2, 0.6)]),
    # crossings inside cells, where |d0|^2 - (d0 . u)^2 would cancel
    "crossing inside": ([(0, 0), (1, 0.5), (2, 0)], [(0, 0.4), (1, 0.1), (2, 0.6)]),
    # same direction from different differences: c snaps to 1
    "parallel": ([(0, 0), (1, 0.4), (1.6, -0.1)], [(0.1, 0.5), (1.1, 0.9), (2.0, 1.4)]),
    # 4e-5 rad apart: c snaps to 1 although u != v
    "nearly parallel": ([(0, 0), (1, 0)],
                        [(0.1, 0.01), (0.1 + 1.2 * math.cos(4e-5), 0.01 + 1.2 * math.sin(4e-5))]),
    "antiparallel": ([(0, 0), (1, 0), (1.5, 0.6)], [(1.2, 0.4), (0.1, 0.4), (-0.3, 1.1)]),
    "identical": ([(0, 0), (1, 0.4), (1.7, 0.9)], [(0, 0), (1, 0.4), (1.7, 0.9)]),
}

MESHES = {"generic": (0.0035, 0.0101), "crossing inside": (0.013, 0.013), "identical": (0.013, 0.013)}


def _lattice(grid, hx, hy):
    xs, x_off = snapped_axis(grid.x_cuts, hx)
    ys, y_off = snapped_axis(grid.y_cuts, hy)
    return Lattice(grid.cell, xs, x_off, ys, y_off)


def _lattice_edges(lat, diagonal=True):
    """{kind: (weights, tails, heads)} of every edge, weights from :func:`lattice_weights`."""
    nx, ny = len(lat.xs), len(lat.ys)
    w = {"right": np.empty((ny, nx - 1)), "up": np.empty((ny - 1, nx)), "diag": np.empty((ny - 1, nx - 1))}
    for r0, right, up, diag in lattice_weights(lat, diagonal):
        w["right"][r0:r0 + len(right)] = right
        w["up"][r0:r0 + len(up)] = up
        w["diag"][r0:r0 + len(up)] = diag
    pts = np.stack(np.meshgrid(lat.xs, lat.ys), axis=-1)
    ends = {"right": (pts[:, :-1], pts[:, 1:]), "up": (pts[:-1], pts[1:]),
            "diag": (pts[:-1, :-1], pts[1:, 1:])}
    return {k: (w[k].ravel(), ends[k][0].reshape(-1, 2), ends[k][1].reshape(-1, 2)) for k in w}


def test_lattice_kernel_matches_closed_form():
    kinds = {name: {c.kind for row in ifd.build_cells(*curve_pair(p)).cells for c in row}
             for name, p in KERNEL_PAIRS.items()}
    assert "parallel" in kinds["parallel"] and "antiparallel" in kinds["antiparallel"]
    assert kinds["nearly parallel"] == {"parallel"}
    crossing = ifd.build_cells(*curve_pair(KERNEL_PAIRS["crossing"]))
    d0 = crossing.cell(0, 1).b0 - crossing.cell(0, 1).a0
    assert d0 @ d0 == crossing.cell(0, 1).du ** 2
    rng = np.random.default_rng(35)
    for name, pair in KERNEL_PAIRS.items():
        unit = None
        for s in (1e-8, 1.0, 1e6):
            t1 = ifd.build_curve(np.asarray(pair[0], float) * s)
            t2 = ifd.build_curve(np.asarray(pair[1], float) * s)
            grid = ifd.build_cells(t1, t2)
            # generic: the first cell spans two column tiles and two row
            # chunks; identical: a square mesh puts steps on the zero diagonal
            hx, hy = MESHES.get(name, (0.021, 0.017))
            lat = _lattice(grid, hx * s, hy * s)
            edges = _lattice_edges(lat)
            for kind, (w, a, b) in edges.items():
                ref = ifd.segment_weighted_length(grid, a, b)
                assert np.all(np.abs(w - ref) <= 1e-11 * ref), (name, s, kind)
                if s == 1.0:
                    for k in rng.choice(len(w), 3, replace=False):
                        quad = quadrature_weighted_length(grid, a[k], b[k], tol=1e-13)
                        assert w[k] == pytest.approx(quad, rel=1e-10, abs=1e-300)
            scaled = {kind: e[0] / (s * s) for kind, e in edges.items()}
            if unit is None:
                unit = scaled
            for kind in scaled:
                assert np.allclose(scaled[kind], unit[kind], rtol=1e-11, atol=0.0), (name, s, kind)
            if name == "identical":
                w, a, b = edges["diag"]
                on = (a[:, 0] == a[:, 1]) & (b[:, 0] == b[:, 1])
                assert on.sum() == min(len(lat.xs), len(lat.ys)) - 1
                assert np.all(w[on] == 0.0)


def test_staircase_lattice_of_a_point_weighs_zero():
    grid, cell = random_cell(np.random.default_rng(36))
    a = (0.5 * (cell.x0 + cell.x1), 0.5 * (cell.y0 + cell.y1))
    for w, _, _ in _lattice_edges(_staircase_lattice(cell, a, a, 5)).values():
        assert np.all(w == 0.0)
    # a vertical staircase: zero-width right and diagonal steps
    b = (a[0], cell.y1)
    for w, p, q in _lattice_edges(_staircase_lattice(cell, a, b, 7)).values():
        ref = ifd.segment_weighted_length(grid, p, q)
        assert np.all(np.abs(w - ref) <= 1e-11 * ref)
