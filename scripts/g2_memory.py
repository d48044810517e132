#!/usr/bin/env python3
"""Measure the memory and time of building and searching g2.

Builds the C6 pair of the acceptance suite (seed 106: random curves of 3
and 4 segments whose segment lengths stay within [0.8, 1.2] of the mean)
and, for each epsilon, builds g2 with the desk preset (``mode="g2"``,
budget 3M vertices) and searches it with ``dijkstra``:

- ``vertices``, ``edges``: the size of g2;
- ``build s``, ``search s``: seconds of ``build_g2`` and of ``dijkstra``,
  best of ``--repeat`` untraced runs;
- ``traced MB``: the tracemalloc peak of one more build plus search;
- ``B/vertex``: that peak per vertex;
- ``rss MB``: growth of the process's peak RSS (``ru_maxrss``) over its
  value before the first build, read after the untraced runs.  The peak
  RSS only rises, so list the epsilons from coarse to fine.  It moves by
  about 10% between runs of the same code (51.7 to 56.7 MB at epsilon
  0.25, where ``traced MB`` stayed at 45.9 MB), so ``traced MB`` is the
  column that can show a change in memory.

Usage: PYTHONPATH=src python scripts/g2_memory.py [--epsilons E ...] [--repeat N]
"""

import argparse
import math
import resource
import time
import tracemalloc

import numpy as np

import ifd


def c6_pair():
    """The acceptance suite's C6 curves: seed 106, 3 and 4 segments of near-equal length."""
    rng = np.random.default_rng(106)
    curves = []
    for n in (3, 4):
        pts = [rng.uniform(0.0, 1.0, 2)]
        heading = rng.uniform(0.0, 2.0 * math.pi)
        for _ in range(n):
            heading += rng.uniform(-0.9, 0.9)
            step = rng.uniform(0.8, 1.2) / n
            pts.append(pts[-1] + step * np.array([math.cos(heading), math.sin(heading)]))
        curves.append(ifd.build_curve(pts))
    return curves


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.25, 0.1])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    t1, t2 = c6_pair()
    rss0 = peak_rss_mb()
    print(f"{'epsilon':<8} {'vertices':>9} {'edges':>9} {'build s':>8} {'search s':>9} "
          f"{'traced MB':>10} {'B/vertex':>9} {'rss MB':>7}")
    for eps in args.epsilons:
        cfg = ifd.GraphConfig.desk(eps, max_vertices=3_000_000, mode="g2")
        build = search = math.inf
        for _ in range(args.repeat):
            start = time.perf_counter()
            g = ifd.build_g2(t1, t2, cfg)
            built = time.perf_counter()
            ifd.dijkstra(g)
            build = min(build, built - start)
            search = min(search, time.perf_counter() - built)
            del g
        rss = peak_rss_mb() - rss0
        tracemalloc.start()
        g = ifd.build_g2(t1, t2, cfg)
        ifd.dijkstra(g)
        traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{eps:<8g} {g.n_vertices:>9} {g.n_edges:>9} {build:>8.3f} {search:>9.3f} "
              f"{traced / 1e6:>10.1f} {traced / g.n_vertices:>9.0f} {rss:>7.1f}")
        del g


if __name__ == "__main__":
    main()
