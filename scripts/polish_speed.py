#!/usr/bin/env python3
"""Time the in-cell polish (``locally_optimize``) and the matching cost.

For each of three curve sizes (2, 4 and 6 segments per curve) builds
``--pairs`` seeded curve pairs (random turning walks of length about 1,
the second 0.4-0.6 to the side of the first) and one seeded monotone
staircase per pair with twice as many steps as segments.  It then times
one ``locally_optimize`` and one ``matching_cost`` of the staircase per
pair, best of ``--repeat`` passes, and counts the substitution sweeps of
one untimed pass.  It also times ``matching_cost`` on one long lattice
path per size, a random walk of 2400 right and up steps over the first
pair's parameter rectangle, like a g1 path.  The staircases have at most
25 segments and the lattice path 2400, so the two costs fall on either
side of the splitter's small-block bypass (``integrals._WALK_ALL``).
Last it times ``locally_optimize`` on the same staircases with a step back
of 1e-10 of the extent at T1's first inner parameter line: one vertical
step of each staircase moves onto that line and leans back across it,
float dust that :class:`ifd.MonotonePath` accepts.  Last, untimed, it
polishes each staircase again with its inner vertices scaled by
1 - 1e-12, 1 + 1e-12 and 1 + 3e-12, float dust that must not move the
polish to another local optimum.

- ``optimize us``: microseconds per ``locally_optimize`` call;
- ``sweeps``: substitution sweeps per call;
- ``us/sweep``: the first divided by the second;
- ``cost us``: microseconds per ``matching_cost`` call on a staircase;
- ``lattice us``: microseconds of ``matching_cost`` on the lattice path;
- ``dust us``: microseconds per ``locally_optimize`` call on a staircase
  with the step back;
- ``jump``: the largest relative move of a polished cost under those
  scalings.

Usage: PYTHONPATH=src python scripts/polish_speed.py [--seed S] [--pairs N] [--repeat N]
"""

import argparse
import math
import time

import numpy as np

import ifd
from ifd import matching

SIZES = (2, 4, 6)
LATTICE_STEPS = 2400
# factors on the inner staircase vertices whose polish the jump column compares
SCALINGS = (1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 3e-12)


def _curve(rng, n_segments, start, heading):
    pts = [np.asarray(start, dtype=float)]
    for _ in range(n_segments):
        heading += rng.uniform(-0.9, 0.9)
        pts.append(pts[-1] + np.array([math.cos(heading), math.sin(heading)]) / n_segments)
    return ifd.build_curve(pts)


def _staircase(rng, end, steps):
    xs = np.sort(rng.uniform(0.0, end[0], steps)).tolist()
    ys = np.sort(rng.uniform(0.0, end[1], steps)).tolist()
    pts = [(0.0, 0.0)]
    for x, y in zip(xs, ys):
        pts += [(x, pts[-1][1]), (x, y)]
    pts.append(end)
    return pts


def _dust(stairs, cut, extent):
    """``stairs`` with one vertical step moved onto the line x = ``cut``, leaning
    from ``cut`` + e / 2 back to ``cut`` - e / 2, e = 1e-10 * ``extent``.

    Vertical step i runs at x_i from point 2i - 1 to point 2i; the first i
    whose next step x_(i+1) (or the end) reaches the line keeps the path
    monotone on either side of the step.
    """
    pts = list(stairs)
    xs = [p[0] for p in pts[1:-1:2]] + [pts[-1][0]]
    i = 1 + next(k for k, x in enumerate(xs[1:]) if x >= cut)
    e = 1e-10 * extent
    pts[2 * i - 1] = (cut + 0.5 * e, pts[2 * i - 1][1])
    pts[2 * i] = (cut - 0.5 * e, pts[2 * i][1])
    return pts


def _lattice_path(rng, end, steps):
    """A monotone walk of ``steps`` right and up moves, in random order, from (0, 0) to ``end``."""
    right = steps // 2
    moves = rng.permutation(np.arange(steps) < right)
    pts = np.zeros((steps + 1, 2))
    pts[1:, 0] = np.cumsum(moves) * (end[0] / right)
    pts[1:, 1] = np.cumsum(~moves) * (end[1] / (steps - right))
    pts = np.minimum(pts, end)
    pts[-1] = end
    return pts


def cases(seed, n_segments, n_pairs):
    """(t1, t2, staircase) for ``n_pairs`` seeded pairs of ``n_segments`` segments each."""
    rng = np.random.default_rng([seed, n_segments])
    out = []
    for _ in range(n_pairs):
        heading = rng.uniform(0.0, 2.0 * math.pi)
        side = rng.uniform(0.4, 0.6) * np.array([-math.sin(heading), math.cos(heading)])
        t1 = _curve(rng, n_segments, (0.0, 0.0), heading)
        t2 = _curve(rng, n_segments, side, heading + rng.uniform(-0.25, 0.25))
        out.append((t1, t2, _staircase(rng, (t1.length, t2.length), 2 * n_segments)))
    return out


def best_of(repeat, fn):
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def count_sweeps(pairs):
    """Substitution sweeps that ``locally_optimize`` makes over ``pairs``."""
    sweeps = 0
    sweep = matching._substitute_once

    def counted(*args):
        nonlocal sweeps
        sweeps += 1
        return sweep(*args)

    matching._substitute_once = counted
    try:
        for t1, t2, path in pairs:
            matching.locally_optimize(t1, t2, path)
    finally:
        matching._substitute_once = sweep
    return sweeps


def jump(pairs):
    """Largest relative move of the polished cost over ``pairs`` when the
    inner staircase vertices are scaled by each of ``SCALINGS``."""
    worst = 0.0
    for t1, t2, stairs in pairs:
        cost = ifd.matching_cost(t1, t2, ifd.locally_optimize(t1, t2, stairs))
        for f in SCALINGS:
            moved = np.array(stairs)
            moved[1:-1] *= f
            moved_cost = ifd.matching_cost(t1, t2, ifd.locally_optimize(t1, t2, moved))
            worst = max(worst, abs(moved_cost - cost) / cost)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"{'segments':<9} {'pairs':>6} {'optimize us':>12} {'sweeps':>7} {'us/sweep':>9} {'cost us':>8} "
          f"{'lattice us':>11} {'dust us':>8} {'jump':>8}")
    for n in SIZES:
        pairs = cases(args.seed, n, args.pairs)
        polish = best_of(args.repeat, lambda: [ifd.locally_optimize(*c) for c in pairs])
        cost = best_of(args.repeat, lambda: [ifd.matching_cost(*c) for c in pairs])
        t1, t2, _ = pairs[0]
        lattice = ifd.MonotonePath.from_points(
            _lattice_path(np.random.default_rng([args.seed, n]), (t1.length, t2.length), LATTICE_STEPS))
        long_cost = best_of(args.repeat, lambda: ifd.matching_cost(t1, t2, lattice))
        dusty = [(t1, t2, _dust(stairs, t1.cum_length[1], max(t1.length, t2.length)))
                 for t1, t2, stairs in pairs]
        dust = best_of(args.repeat, lambda: [ifd.locally_optimize(*c) for c in dusty])
        sweeps = count_sweeps(pairs) / len(pairs)
        per_call = polish / len(pairs) * 1e6
        print(f"{n:<9} {len(pairs):>6} {per_call:>12.1f} {sweeps:>7.2f} {per_call / sweeps:>9.1f} "
              f"{cost / len(pairs) * 1e6:>8.1f} {long_cost * 1e6:>11.1f} {dust / len(pairs) * 1e6:>8.1f} "
              f"{jump(pairs):>8.1e}")


if __name__ == "__main__":
    main()
