import math

import numpy as np
import pytest

import ifd
from ifd.errors import BudgetExceeded
from ifd.shortest_path import snapped_axis

from helpers import (
    ARRANGEMENT_PAIR,
    PARALLEL,
    PERPENDICULAR,
    curve_pair,
    lattice_oracle,
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
        bf = ifd.bellman_ford(g)
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
            bf = ifd.bellman_ford(g, source=source)
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
    assert np.array_equal(ifd.bellman_ford(g), dist)


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
    for k in (2, 7, 32):
        assert ifd.staircase_cell_oracle(cell, (0, 0), (1, 1), k) == pytest.approx(2.0, abs=1e-12)
    assert ifd.staircase_cell_oracle(cell, (0.4, 0.7), (0.4, 0.7), 16) == 0.0
    v128 = ifd.staircase_cell_oracle(cell, (0, 0.5), (1, 1), 128)
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
            v = ifd.staircase_cell_oracle(cell, a, b, k)
            if prev is not None:
                assert v <= prev + 1e-12
            prev = v
