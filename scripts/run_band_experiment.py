#!/usr/bin/env python3
"""Empirical approximation-quality sweep.

For a batch of random curve pairs, compare the two-graph approximation
against the dense lattice oracle at the same mesh and print the observed
value/oracle ratio along with graph sizes and timings.  The worst-case
constants put even toy instances far beyond any budget, which is why the
desk-scale presets are the default here; the printed sizes show how the
grid graph grows as epsilon shrinks.

Usage: python scripts/run_band_experiment.py [--pairs N] [--seed S]
"""

import argparse
import math
import time

import numpy as np

import ifd
from ifd.graphs import _g1_mesh


def random_curve(rng, n_segments):
    pts = [rng.uniform(0.0, 1.0, 2)]
    ang = rng.uniform(0.0, 2.0 * math.pi)
    for _ in range(n_segments):
        ang += rng.uniform(-0.9, 0.9)
        step = rng.uniform(0.8, 1.2) / n_segments
        pts.append(pts[-1] + step * np.array([math.cos(ang), math.sin(ang)]))
    return ifd.build_curve(pts)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epsilons", type=float, nargs="*", default=[0.25, 0.1])
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    pairs = [
        (random_curve(rng, int(rng.integers(2, 7))), random_curve(rng, int(rng.integers(2, 7))))
        for _ in range(args.pairs)
    ]
    print(f"{'eps':>5} {'pair':>4} {'value':>12} {'oracle':>12} {'ratio':>10} "
          f"{'g1 edges':>9} {'win':>4} {'sec':>6}")
    for eps in args.epsilons:
        for idx, (t1, t2) in enumerate(pairs):
            cfg = ifd.GraphConfig(
                epsilon=eps, c_g1=10.0, c_radius=62.0, c_mesh=8.0,
                max_vertices=4_000_000, mode="g1",
            )
            started = time.perf_counter()
            res = ifd.approximate_integral_frechet(t1, t2, cfg)
            value, win = res.value, "g1"
            try:
                g2_cfg = ifd.GraphConfig(
                    epsilon=eps, c_g1=10.0, c_radius=62.0, c_mesh=8.0,
                    max_vertices=150_000, mode="g2",
                )
                g2_val = ifd.approximate_integral_frechet(t1, t2, g2_cfg).value
                if g2_val < value:
                    value, win = g2_val, "g2"
            except (ifd.errors.NoFeasibleGraph, ifd.errors.Disconnected):
                pass
            oracle = ifd.dense_grid_oracle(t1, t2, _g1_mesh(t1, t2, cfg), max_points=20_000_000)
            elapsed = time.perf_counter() - started
            edges = res.graph_stats.get("g1", {}).get("edges", 0)
            print(f"{eps:>5.2f} {idx:>4d} {value:>12.6f} {oracle:>12.6f} "
                  f"{value / oracle:>10.6f} {edges:>9d} "
                  f"{win:>4} {elapsed:>6.1f}")


if __name__ == "__main__":
    main()
