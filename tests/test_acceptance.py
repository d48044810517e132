"""Acceptance gates: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The worst-case graph
constants are not runnable, so the empirical checks use the documented
desk-scale presets against the independent lattice oracle.
"""

import math
import time

import numpy as np
import pytest

import ifd

from helpers import (
    PARALLEL,
    PERPENDICULAR,
    curve_pair,
    quadrature_weighted_length,
    random_cell,
    random_curve,
    random_monotone_pair,
    random_staircase,
    reference_split,
    scaled,
    staircase_path,
)


def _line(name, detail):
    print(f"[PASS] {name}: {detail}")


# -- 1. closed-form integrals vs adaptive quadrature --------------------------


def test_c1_closed_forms_match_quadrature():
    rng = np.random.default_rng(101)
    # CPU time of this process, so a busy machine does not fail the gate
    started = time.process_time()
    checked = 0
    worst = 0.0
    while checked < 1000:
        grid, cell = random_cell(rng)
        segs = []
        for _ in range(4):
            a, b = random_monotone_pair(rng, cell)
            segs += [(a, b), (a, (b[0], a[1])), (a, (a[0], b[1]))]
        ax = ifd.free_space_axes(cell)
        if ax.ell is not None:
            p, q = ax.ell
            for _ in range(3):
                f0, f1 = np.sort(rng.uniform(0, 1, 2))
                aa = (p.x + f0 * (q.x - p.x), p.y + f0 * (q.y - p.y))
                bb = (p.x + f1 * (q.x - p.x), p.y + f1 * (q.y - p.y))
                segs.append((aa, bb))
        starts, ends = zip(*segs)
        for a, b, exact in zip(starts, ends, ifd.piece_weights(cell, starts, ends).tolist()):
            oracle = quadrature_weighted_length(grid, a, b, tol=1e-12)
            err = abs(exact - oracle) / max(oracle, 1e-12)
            if oracle > 1e-12:
                worst = max(worst, err)
                assert err <= 1e-8
            else:
                assert exact <= 1e-10
            checked += 1
    elapsed = time.process_time() - started
    assert elapsed < 5.0
    _line("C1 closed-form integrals",
          f"{checked} segments, worst rel err {worst:.2e}, {elapsed:.2f}s")


# -- 2. the weight is 1-Lipschitz w.r.t. L1 -----------------------------------


def test_c2_lipschitz_suite():
    rng = np.random.default_rng(102)
    total = 0
    for _ in range(50):
        t1 = random_curve(rng, int(rng.integers(1, 7)))
        t2 = random_curve(rng, int(rng.integers(1, 7)))
        n = 2000
        x = rng.uniform(0, t1.length, (2, n))
        y = rng.uniform(0, t2.length, (2, n))
        w0 = ifd.weight(t1, t2, np.column_stack((x[0], y[0])))
        w1 = ifd.weight(t1, t2, np.column_stack((x[1], y[1])))
        d1 = np.abs(x[0] - x[1]) + np.abs(y[0] - y[1])
        assert np.all(w0 <= w1 + d1 + 1e-9)
        assert np.all(w1 <= w0 + d1 + 1e-9)
        total += n
    assert total >= 100_000
    _line("C2 Lipschitz suite", f"{total} point pairs over 50 curve pairs")


# -- 3. in-cell shortest path is optimal for every lattice --------------------


def test_c3_cell_path_optimality():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    worst_gap = 0.0
    for _ in range(100):
        _, cell = random_cell(rng)
        a, b = random_monotone_pair(rng, cell)
        best = ifd.cell_shortest_path(cell, a, b).weighted_length
        values = {}
        prev = None
        for k in (16, 32, 64, 128):
            v = staircase_path(cell, a, b, k).weighted_length
            assert best <= v + 1e-10, "lattice beat the closed-form path"
            if prev is not None:
                assert v <= prev + 1e-12, "refinement increased the oracle"
            values[k] = v
            prev = v
        w = b[0] - a[0]
        h = b[1] - a[1]
        predicted = (w + h) ** 2 / 128.0  # Lipschitz shift times lattice step
        gap = values[128] - best
        assert gap <= 2.0 * predicted + 1e-12
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _line("C3 in-cell optimality",
          f"100 cells, k in (16..128), worst k=128 gap {worst_gap:.2e}, {elapsed:.1f}s")


# -- 4. exact known instances --------------------------------------------------


def test_c4_exact_instances():
    t1, t2 = curve_pair(PARALLEL)
    both = ifd.approximate_integral_frechet(t1, t2, ifd.GraphConfig.desk(epsilon=0.25))
    assert both.value == pytest.approx(2.0, abs=1e-6)
    assert 2.0 - 1e-12 <= both.value <= 2.0 * 1.25

    g1_only = ifd.approximate_integral_frechet(
        t1, t2,
        ifd.GraphConfig(epsilon=0.1, c_g1=60.0, c_radius=62.0, c_mesh=8.0,
                        max_vertices=2_000_000, mode="g1"),
    )
    assert g1_only.value == pytest.approx(2.0, abs=1e-6)

    g2_only = ifd.approximate_integral_frechet(
        t1, t2, ifd.GraphConfig.desk(epsilon=0.25, mode="g2"))
    assert g2_only.value == pytest.approx(2.0, abs=1e-6)

    oracle = ifd.approximate_integral_frechet(
        t1, t2, ifd.GraphConfig.desk(epsilon=0.25, mode="oracle", max_vertices=50_000))
    assert oracle.value == pytest.approx(2.0, abs=1e-12)

    p1, p2 = curve_pair(PERPENDICULAR)
    perp = ifd.approximate_integral_frechet(
        p1, p2, ifd.GraphConfig.desk(epsilon=0.25, mode="g2"))
    assert perp.value == pytest.approx(math.sqrt(2), abs=1e-9)

    t = ifd.build_curve([(0, 0), (1, 0.4), (1.7, 0.9), (2.5, 0.6)])
    same = ifd.approximate_integral_frechet(t, t, ifd.GraphConfig.desk(epsilon=0.25))
    assert abs(same.value) <= 1e-9

    _line("C4 exact instances",
          f"parallel both={both.value:.9f} g1={g1_only.value:.9f} "
          f"g2={g2_only.value:.9f} oracle={oracle.value:.15f}, "
          f"perpendicular={perp.value:.12f}, identical={same.value:.2e}")


# -- 5. empirical (1+eps) band against the dense oracle -----------------------


def test_c5_empirical_band():
    rng = np.random.default_rng(105)
    started = time.perf_counter()
    pairs = [
        (
            random_curve(rng, int(rng.integers(2, 7)), equalize=True),
            random_curve(rng, int(rng.integers(2, 7)), equalize=True),
        )
        for _ in range(25)
    ]
    checked = 0
    worst_ratio = 0.0
    for eps in (0.25, 0.1):
        for t1, t2 in pairs:
            cfg = ifd.GraphConfig(
                epsilon=eps, c_g1=10.0, c_radius=62.0, c_mesh=8.0,
                max_vertices=4_000_000, mode="g1",
            )
            value = ifd.approximate_integral_frechet(t1, t2, cfg).value
            # the axis graph gets its own desk budget: its useful regime
            # is sparse, and this gate builds 50 of them
            try:
                g2_cfg = ifd.GraphConfig(
                    epsilon=eps, c_g1=10.0, c_radius=62.0, c_mesh=8.0,
                    max_vertices=150_000, mode="g2",
                )
                value = min(value, ifd.approximate_integral_frechet(t1, t2, g2_cfg).value)
            except (ifd.errors.BudgetExceeded, ifd.errors.NoFeasibleGraph,
                    ifd.errors.Disconnected):
                pass
            st = ifd.stats(t1, t2)
            sigma = eps * st.mu / (cfg.c_g1 * (st.len1 + st.len2))
            # same lattice as the grid graph plus diagonal moves, so the
            # oracle can only be at or below the graph value
            oracle = ifd.dense_grid_oracle(t1, t2, sigma, max_points=20_000_000)
            assert value <= (1.0 + eps) * oracle + 1e-12
            assert value >= oracle - 1e-6 * oracle
            worst_ratio = max(worst_ratio, value / oracle)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _line("C5 empirical band",
          f"{checked} runs (25 pairs x eps 0.25/0.1), worst value/oracle "
          f"{worst_ratio:.6f}, {elapsed:.0f}s")


# -- 6. symmetry and quadratic scaling -----------------------------------------


def test_c6_symmetry_and_scaling():
    rng = np.random.default_rng(106)
    t1 = random_curve(rng, 3, equalize=True)
    t2 = random_curve(rng, 4, equalize=True)
    cfg = ifd.GraphConfig.desk(epsilon=0.25, c_g1=10.0, max_vertices=2_000_000)
    fwd = ifd.approximate_integral_frechet(t1, t2, cfg)
    bwd = ifd.approximate_integral_frechet(t2, t1, cfg)
    assert abs(fwd.value - bwd.value) <= 1e-6 * fwd.value

    path = random_staircase(rng, (0.0, 0.0), (t1.length, t2.length), steps=4)
    base_cost = ifd.matching_cost(t1, t2, path)
    st = ifd.stats(t1, t2)
    sigma = cfg.epsilon * st.mu / (cfg.c_g1 * (st.len1 + st.len2))
    mesh_tol = 4.0 * sigma * (st.len1 + st.len2)
    for s in (0.5, 3.0):
        s1, s2 = scaled(t1, s), scaled(t2, s)
        scaled_cost = ifd.matching_cost(s1, s2, s * path.vertices)
        assert scaled_cost == pytest.approx(s * s * base_cost, rel=1e-9)
        res = ifd.approximate_integral_frechet(s1, s2, cfg)
        assert abs(res.value / (s * s) - fwd.value) <= mesh_tol
    _line("C6 symmetry and scaling",
          f"|F(T1,T2)-F(T2,T1)| rel {abs(fwd.value - bwd.value) / fwd.value:.2e}, "
          f"pipeline scaling within mesh tol {mesh_tol:.2e}")


# -- 7. locally-optimal transform ----------------------------------------------


def _cell_groups(grid, path):
    # the reference cutter keeps the pieces in path order
    _, p, q, i, j = reference_split(grid, path.vertices[:-1], path.vertices[1:])
    groups = []
    for a, b, key in zip(p, q, zip(i.tolist(), j.tolist())):
        if groups and groups[-1][0] == key:
            groups[-1][1].append((a, b))
        else:
            groups.append((key, [(a, b)]))
    return groups


def test_c7_locally_optimal_transform():
    rng = np.random.default_rng(107)
    transformed = antiparallel = 0
    while transformed < 50:
        t1 = random_curve(rng, int(rng.integers(1, 5)))
        # every other pair walks T1 backwards, so its cells are antiparallel
        if transformed % 10:
            t2 = random_curve(rng, int(rng.integers(1, 5)))
        else:
            t2 = ifd.build_curve(t1.vertices[::-1] + 0.2)
        grid = ifd.build_cells(t1, t2)
        for _ in range(5):
            path = random_staircase(rng, (0.0, 0.0), (t1.length, t2.length), steps=4)
            before = ifd.matching_cost(t1, t2, path)
            once = ifd.locally_optimize(t1, t2, path)
            after = ifd.matching_cost(t1, t2, once)
            assert after <= before + 1e-10 * (1.0 + before)
            twice = ifd.locally_optimize(t1, t2, once)
            assert ifd.matching_cost(t1, t2, twice) == pytest.approx(
                after, abs=1e-10 * (1.0 + after))
            for key, segs in _cell_groups(grid, path):
                cell = grid.cell(*key)
                antiparallel += cell.kind == "antiparallel"
                first, last = segs[0][0], segs[-1][1]
                new_sub = ifd.cell_shortest_path(cell, first, last)
                old_prof = ifd.partial_similarity_profile(
                    cell, [tuple(a) for a, _ in segs] + [tuple(last)])
                new_prof = ifd.partial_similarity_profile(cell, new_sub)
                deltas = np.linspace(0.0, cell.max_corner_weight(), 32)
                assert np.all(new_prof.value_at(deltas) >= old_prof.value_at(deltas) - 1e-9)
            transformed += 1
    assert antiparallel > 0
    _line("C7 locally-optimal transform",
          f"50 staircases, {antiparallel} antiparallel in-cell runs: cost non-increasing, "
          "idempotent, profiles dominate")


# -- 8. graph audits -------------------------------------------------------------


def test_c8_graph_audits(tmp_path):
    rng = np.random.default_rng(108)
    t1, t2 = curve_pair(PARALLEL)
    cfg = ifd.GraphConfig.desk(epsilon=0.25)
    grid = ifd.build_cells(t1, t2)
    audited = 0
    for g in (ifd.build_g1(t1, t2, cfg), ifd.build_g2(t1, t2, cfg)):
        dx = g.xs[g.heads] - g.xs[g.tails]
        dy = g.ys[g.heads] - g.ys[g.tails]
        assert float(min(dx.min(), dy.min())) >= -1e-9, "non-monotone edge"
        sample = rng.choice(g.n_edges, size=max(1, g.n_edges // 100), replace=False)
        for i in sample:
            a = (g.xs[g.tails[i]], g.ys[g.tails[i]])
            b = (g.xs[g.heads[i]], g.ys[g.heads[i]])
            q = quadrature_weighted_length(grid, a, b)
            assert g.weights[i] == pytest.approx(q, rel=1e-8, abs=1e-12)
            audited += 1

    # report round-trip through the CLI
    import json

    from ifd.cli import main

    a_file = tmp_path / "a.json"
    a_file.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    b_file = tmp_path / "b.json"
    b_file.write_text(json.dumps({"vertices": [[0, 1], [1, 1]]}))
    out = tmp_path / "r.json"
    assert main(["compute", "--a", str(a_file), "--b", str(b_file),
                 "--epsilon", "0.25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    cost = ifd.matching_cost(t1, t2, report["path"])
    assert cost == pytest.approx(report["integral"], rel=1e-9)
    _line("C8 graph audits",
          f"100% monotone, {audited} edge weights re-audited, report round-trip ok")
