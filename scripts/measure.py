#!/usr/bin/env python3
"""Per-layer tables of ifd on the benchmark's seeded corpora.

    PYTHONPATH=src python scripts/measure.py [TABLE ...] [--seed S] [--repeat N] [--epsilons E ...]

Every curve comes from ``perfbench/corpus.py`` or ``perfbench/baseline.c6_pair``
and every configuration from the ``grid`` workload, so a figure here breaks
down an operation the benchmark times, on the same inputs.  Times are the
least of ``--repeat`` runs; ``flt`` columns are the median minor page faults
(``ru_minflt``) of one run.  With no TABLE all four run, g2 first:

- ``g2``: the C6 pair (seed 106, 3 and 4 segments) at each of ``--epsilons``,
  g2 of the desk preset with a 3M budget, built with ``build_g2`` and searched
  with ``dijkstra``: ``vertices``, ``edges``, ``build s``, ``search s``;
  ``traced MB``, the tracemalloc peak of one more build and search, and
  ``B/vertex``, that peak per vertex; ``rss MB``, the growth of the process's
  peak RSS (``ru_maxrss``) over its value before the first build, read after
  the untraced runs.  The peak RSS only rises, so list the epsilons from
  coarse to fine.  It moves by about 10% between runs of the same code, so
  ``traced MB`` is the column that can show a change in memory.
- ``lattice``: the lattices of ``grid``'s three calls over
  ``corpus.grid_pairs(seed)``: g1 (right and up edges) at two epsilons and the
  oracle (right, up and diagonal edges).  ``points`` over all pairs, then one
  pass of ``lattice_weights`` and one of ``lattice_dp`` (value and path) over
  every pair: seconds, ns per point and faults.  Run it alone to read faults:
  after ``g2`` the heap is already grown and they read near 0.
- ``polish``: ``corpus.transform_cases(seed)``, one row per T1 segment count,
  20 staircases each.  ``optimize us`` per ``locally_optimize`` call;
  ``sweeps``, substitution sweeps per call (one untimed pass); ``us/sweep``;
  ``cost us`` per ``matching_cost`` call on a staircase; ``lattice us``,
  ``matching_cost`` on the g1 path of the row's first pair at ``grid``'s first
  g1 call (hundreds of vertices, where the staircases have a few, so the two
  fall on either side of the splitter's small-block bypass
  ``integrals._WALK_ALL``); ``dust us`` per ``locally_optimize`` call on the
  staircases with one vertical step moved onto T1's first inner parameter
  line, leaning back across it by 1e-10 of the extent; ``jump`` (untimed), the
  largest relative move of a polished cost when the inner staircase vertices
  are scaled by each of ``SCALINGS``.
- ``band``: ``grid``'s g1 call on each of ``corpus.grid_pairs(seed)`` at each
  of ``--epsilons``, plus g2 at a 150K budget; the smaller ``value`` (``win``
  names its graph) against ``grid``'s check, the dense ``oracle`` at the g1
  mesh: ``ratio``, ``g1 edges`` and ``sec``, the wall time of all three.
"""

import argparse
import dataclasses
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import corpus  # noqa: E402
import ifd  # noqa: E402
from baseline import c6_pair  # noqa: E402
from ifd import matching  # noqa: E402
from ifd.graphs import _affordable_mesh, _g1_mesh  # noqa: E402
from ifd.shortest_path import grid_lattice, lattice_dp, lattice_weights  # noqa: E402
from workloads import Grid  # noqa: E402

# factors on the inner staircase vertices whose polish the jump column compares
SCALINGS = (1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 3e-12)
G2_BUDGET = 3_000_000
BAND_G2_BUDGET = 150_000


def best_of(repeat, fn):
    """Least seconds and median minor page faults of one call of ``fn`` over ``repeat`` calls."""
    best, faults = math.inf, []
    for _ in range(repeat):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return best, int(statistics.median(faults))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def g2_table(args, grid):
    t1, t2 = (ifd.build_curve(c) for c in c6_pair())
    rss0 = peak_rss_mb()
    print(f"{'epsilon':<8} {'vertices':>9} {'edges':>9} {'build s':>8} {'search s':>9} "
          f"{'traced MB':>10} {'B/vertex':>9} {'rss MB':>7}")
    for eps in args.epsilons:
        cfg = ifd.GraphConfig.desk(eps, max_vertices=G2_BUDGET, mode="g2")
        build, _ = best_of(args.repeat, lambda: ifd.build_g2(t1, t2, cfg))
        g = ifd.build_g2(t1, t2, cfg)
        search, _ = best_of(args.repeat, lambda: ifd.dijkstra(g))
        rss = peak_rss_mb() - rss0
        del g
        tracemalloc.start()
        g = ifd.build_g2(t1, t2, cfg)
        ifd.dijkstra(g)
        traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{eps:<8g} {g.n_vertices:>9} {g.n_edges:>9} {build:>8.3f} {search:>9.3f} "
              f"{traced / 1e6:>10.1f} {traced / g.n_vertices:>9.0f} {rss:>7.1f}")
        del g


def _weights_pass(lats, diagonal):
    for lat in lats:
        for _ in lattice_weights(lat, diagonal):
            pass


def _dp_pass(lats, diagonal):
    for lat in lats:
        lattice_dp(lat, diagonal)


def lattice_table(args, grid):
    print(f"{'lattice':<15} {'points':>10} {'weights s':>10} {'weights ns/pt':>14} "
          f"{'weights flt':>12} {'dp s':>8} {'dp ns/pt':>9} {'dp flt':>8}")
    for mode, eps in grid.CALLS:
        cfg = grid.config(mode, eps)
        diagonal = mode == "oracle"
        lats = [grid_lattice(ifd.build_cells(t1, t2),
                             _affordable_mesh(t1, t2, cfg.max_vertices) if diagonal else _g1_mesh(t1, t2, cfg),
                             cfg.max_vertices)
                for t1, t2 in grid.curves]
        points = sum(lat.n_points for lat in lats)
        w, w_flt = best_of(args.repeat, lambda: _weights_pass(lats, diagonal))
        dp, dp_flt = best_of(args.repeat, lambda: _dp_pass(lats, diagonal))
        print(f"{f'{mode} eps={eps}':<15} {points:>10} {w:>10.4f} {w / points * 1e9:>14.1f} "
              f"{w_flt:>12} {dp:>8.4f} {dp / points * 1e9:>9.1f} {dp_flt:>8}")


def _dust(stairs, cut, extent):
    """``stairs`` with its vertical step nearest the line x = ``cut`` moved onto
    it, leaning from ``cut`` + e / 2 back to ``cut`` - e / 2, e = 1e-10 * ``extent``.

    Points before the step that lie past the line, and points after it short
    of the line, move onto the line, so the lean is the one step back.  The
    path's first and last points stay where they are.
    """
    pts = np.array(stairs, dtype=float)
    rises = [i for i in range(1, len(pts) - 2)
             if pts[i, 0] == pts[i + 1, 0] and pts[i, 1] < pts[i + 1, 1]]
    i = min(rises, key=lambda k: abs(pts[k, 0] - cut))
    pts[:i, 0] = np.minimum(pts[:i, 0], cut)
    pts[i + 2:, 0] = np.maximum(pts[i + 2:, 0], cut)
    e = 1e-10 * extent
    pts[i, 0], pts[i + 1, 0] = cut + 0.5 * e, cut - 0.5 * e
    return pts


def count_sweeps(cases):
    """Substitution sweeps that ``locally_optimize`` makes over ``cases``."""
    sweeps = 0
    sweep = matching._substitute_once

    def counted(*args):
        nonlocal sweeps
        sweeps += 1
        return sweep(*args)

    matching._substitute_once = counted
    try:
        for t1, t2, path in cases:
            matching.locally_optimize(t1, t2, path)
    finally:
        matching._substitute_once = sweep
    return sweeps


def jump(cases):
    """Largest relative move of the polished cost over ``cases`` when the
    inner staircase vertices are scaled by each of ``SCALINGS``."""
    worst = 0.0
    for t1, t2, stairs in cases:
        cost = ifd.matching_cost(t1, t2, ifd.locally_optimize(t1, t2, stairs))
        for f in SCALINGS:
            moved = np.array(stairs)
            moved[1:-1] *= f
            moved_cost = ifd.matching_cost(t1, t2, ifd.locally_optimize(t1, t2, moved))
            worst = max(worst, abs(moved_cost - cost) / cost)
    return worst


def polish_table(args, grid):
    all_cases = corpus.transform_cases(args.seed)
    g1 = grid.config(*grid.CALLS[0])
    print(f"{'segments':<9} {'pairs':>6} {'optimize us':>12} {'sweeps':>7} {'us/sweep':>9} {'cost us':>8} "
          f"{'lattice us':>11} {'dust us':>8} {'jump':>8}")
    for n in sorted({len(a) - 1 for a, _, _ in all_cases}):
        cases = [(ifd.build_curve(a), ifd.build_curve(b), s) for a, b, s in all_cases if len(a) == n + 1]
        polish, _ = best_of(args.repeat, lambda: [ifd.locally_optimize(*c) for c in cases])
        cost, _ = best_of(args.repeat, lambda: [ifd.matching_cost(*c) for c in cases])
        t1, t2, _ = cases[0]
        path = ifd.approximate_integral_frechet(t1, t2, g1).path
        long_cost, _ = best_of(args.repeat, lambda: ifd.matching_cost(t1, t2, path))
        dusty = [(t1, t2, _dust(stairs, t1.cum_length[1], max(t1.length, t2.length)))
                 for t1, t2, stairs in cases]
        dust, _ = best_of(args.repeat, lambda: [ifd.locally_optimize(*c) for c in dusty])
        sweeps = count_sweeps(cases) / len(cases)
        per_call = polish / len(cases) * 1e6
        print(f"{n:<9} {len(cases):>6} {per_call:>12.1f} {sweeps:>7.2f} {per_call / sweeps:>9.1f} "
              f"{cost / len(cases) * 1e6:>8.1f} {long_cost * 1e6:>11.1f} {dust / len(cases) * 1e6:>8.1f} "
              f"{jump(cases):>8.1e}")


def band_table(args, grid):
    print(f"{'eps':>5} {'pair':>4} {'value':>12} {'oracle':>12} {'ratio':>10} "
          f"{'g1 edges':>9} {'win':>4} {'sec':>6}")
    for eps in args.epsilons:
        cfg = grid.config("g1", eps)
        g2_cfg = dataclasses.replace(cfg, mode="g2", max_vertices=BAND_G2_BUDGET)
        for k, (t1, t2) in enumerate(grid.curves):
            started = time.perf_counter()
            res = ifd.approximate_integral_frechet(t1, t2, cfg)
            value, win = res.value, "g1"
            try:
                g2_value = ifd.approximate_integral_frechet(t1, t2, g2_cfg).value
                if g2_value < value:
                    value, win = g2_value, "g2"
            except (ifd.errors.NoFeasibleGraph, ifd.errors.Disconnected):
                pass
            oracle = grid.oracle_value(k, eps)
            elapsed = time.perf_counter() - started
            print(f"{eps:>5.2f} {k:>4d} {value:>12.6f} {oracle:>12.6f} {value / oracle:>10.6f} "
                  f"{res.graph_stats['g1']['edges']:>9d} {win:>4} {elapsed:>6.1f}")


# g2 runs first, so that its rss column reads the growth of this process's peak
TABLES = {"g2": g2_table, "lattice": lattice_table, "polish": polish_table, "band": band_table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tables", nargs="*", metavar="TABLE",
                    help=f"tables to print, of {', '.join(TABLES)} (default: all)")
    ap.add_argument("--seed", type=int, default=1, help="corpus seed, as in perfbench/run.py")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--epsilons", type=float, nargs="+", default=list(corpus.GRID_EPSILONS),
                    help="epsilons of the g2 and band tables")
    args = ap.parse_args()
    unknown = set(args.tables) - set(TABLES)
    if unknown:
        ap.error(f"unknown tables: {', '.join(sorted(unknown))}")

    grid = Grid(args.seed, ROOT, None)
    grid.setup()
    for name, table in TABLES.items():
        if name in (args.tables or TABLES):
            print(f"[{name}]")
            table(args, grid)


if __name__ == "__main__":
    main()
