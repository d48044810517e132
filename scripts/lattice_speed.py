#!/usr/bin/env python3
"""Time the lattice edge weights and the lattice dynamic program.

Builds six seeded curve pairs (2-6 equal segments per curve, each curve of
length 1, the second 0.4-0.6 to the side of the first) and, for each of
three lattices over them, times one pass of ``lattice_weights`` over every
pair and one ``lattice_dp`` (value and path) over every pair, best of
``--repeat`` runs:

- ``g1 eps=0.25`` and ``g1 eps=0.1``: the g1 lattice of
  ``GraphConfig(c_g1=10)`` (right and up edges);
- ``oracle``: the oracle-mode lattice at the desk budget of 10^6 points
  (right, up and diagonal edges).

Usage: PYTHONPATH=src python scripts/lattice_speed.py [--seed S] [--repeat N]
"""

import argparse
import math
import time

import numpy as np

import ifd
from ifd.graphs import _affordable_mesh, _g1_mesh
from ifd.shortest_path import grid_lattice, lattice_dp, lattice_weights

SLOTS = [(2, 5), (3, 6), (4, 2), (5, 3), (6, 4), (3, 3)]


def _curve(rng, n_segments, start, heading):
    pts = [np.asarray(start, dtype=float)]
    for _ in range(n_segments):
        heading += rng.uniform(-0.9, 0.9)
        pts.append(pts[-1] + np.array([math.cos(heading), math.sin(heading)]) / n_segments)
    return ifd.build_curve(pts)


def pairs(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n1, n2 in SLOTS:
        heading = rng.uniform(0.0, 2.0 * math.pi)
        side = rng.uniform(0.4, 0.6) * np.array([-math.sin(heading), math.cos(heading)])
        t1 = _curve(rng, n1, (0.0, 0.0), heading)
        t2 = _curve(rng, n2, side, heading + rng.uniform(-0.25, 0.25))
        out.append((t1, t2))
    return out


def lattices(curve_pairs):
    """(name, diagonal, lattices) of the three measured lattice kinds."""
    kinds = []
    for eps in (0.25, 0.1):
        cfg = ifd.GraphConfig(epsilon=eps, c_g1=10.0, max_vertices=4_000_000, mode="g1")
        lats = [grid_lattice(ifd.build_cells(t1, t2), _g1_mesh(t1, t2, cfg), cfg.max_vertices)
                for t1, t2 in curve_pairs]
        kinds.append((f"g1 eps={eps}", False, lats))
    budget = ifd.GraphConfig.desk(0.25).max_vertices
    lats = [grid_lattice(ifd.build_cells(t1, t2), _affordable_mesh(t1, t2, budget), budget)
            for t1, t2 in curve_pairs]
    kinds.append(("oracle", True, lats))
    return kinds


def best_of(repeat, fn):
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _weights_pass(lats, diagonal):
    for lat in lats:
        for _ in lattice_weights(lat, diagonal):
            pass


def _dp_pass(lats, diagonal):
    for lat in lats:
        lattice_dp(lat, diagonal)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"{'lattice':<14} {'points':>10} {'weights s':>10} {'weights ns/pt':>14} "
          f"{'dp s':>8} {'dp ns/pt':>9}")
    for name, diagonal, lats in lattices(pairs(args.seed)):
        points = sum(lat.n_points for lat in lats)
        w = best_of(args.repeat, lambda: _weights_pass(lats, diagonal))
        dp = best_of(args.repeat, lambda: _dp_pass(lats, diagonal))
        print(f"{name:<14} {points:>10} {w:>10.4f} {w / points * 1e9:>14.1f} "
              f"{dp:>8.4f} {dp / points * 1e9:>9.1f}")


if __name__ == "__main__":
    main()
