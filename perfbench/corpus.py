"""Seeded inputs of the three workloads; plain vertex lists, no `ifd` types.

Segment counts come from fixed slot lists and segments are equal, so every
seed yields pairs of the same shape and lattice sizes; the seed draws
positions, headings, turns and offsets.  That keeps the cost of a pass,
and hence the timings, comparable across seeds.
"""

import math

import numpy as np

from reference import Polyline

# C4 instances with their exact integral Frechet distances.  The identical
# curve is the first two segments of the C4 curve: with the third segment
# the default g2 has 249K vertices and takes ~35 s, too long for one
# operation of a timed run.
PARALLEL = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)], 2.0)
PERPENDICULAR = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (0.0, 1.0)], math.sqrt(2.0))
_SAME = [(0.0, 0.0), (1.0, 0.4), (1.7, 0.9)]
IDENTICAL = (_SAME, _SAME, 0.0)

# (segments of T1, segments of T2); every count from 2 to 6 appears
GRID_SLOTS = [(2, 5), (3, 6), (4, 2), (5, 3), (6, 4), (3, 3)]
GRID_EPSILONS = (0.25, 0.1)
# four pairs per slot: the cost of locally_optimize varies from pair to
# pair, and 100 pairs keep the cost of a pass close across seeds
TRANSFORM_SLOTS = [(n1, n2) for n1 in range(2, 7) for n2 in range(2, 7)] * 4
# every random arrangement pair has a 3-segment curve of length 1 and a
# partner of length 1.3, so the default g1 (c_g1 = 40, 10^6 vertices)
# projects ~1.6M vertices and is rejected: g2 carries the answer
ARRANGEMENT_SLOTS = [(3, 1), (1, 3), (3, 2), (2, 3), (3, 3)]
ARRANGEMENT_LONG = 1.3

# ball-lattice crossings the separation of a random arrangement pair aims at
_G2_TARGET = 5_000
# desk preset: ball radius c_radius * w and mesh epsilon * w / c_mesh
_BALL_MESH_PER_WEIGHT = 0.25 / 8.0
_BALL_RADIUS_PER_WEIGHT = 62.0
# smallest |sin| of the angle between a segment of T1 and one of T2.  ifd
# integrates on-axis pieces of nearly parallel cells with a relative error
# near 1e-16 / sin^2 (1.5e-9 on a whole matching at sin ~ 1.8e-4), which
# fails the 1e-9 re-integration check on some seeds; such pairs are
# redrawn, and the fault is recorded in CHANGES.md
_MIN_SIN = 1e-2
_MIN_GAP = 0.1


def curve(rng, n_segments, start, heading, length=1.0):
    """Equal segments summing to ``length``; each turn is within 0.9 rad.

    Equal segments fix the smallest segment length, and with it the g1
    mesh, so the lattice sizes of a slot do not depend on the seed.
    """
    pts = [np.asarray(start, dtype=float)]
    for _ in range(n_segments):
        heading += rng.uniform(-0.9, 0.9)
        step = np.array([math.cos(heading), math.sin(heading)])
        pts.append(pts[-1] + length / n_segments * step)
    return np.asarray(pts)


def _nearly_parallel(a, b):
    u = np.diff(a, axis=0)
    v = np.diff(b, axis=0)
    u /= np.linalg.norm(u, axis=1)[:, None]
    v /= np.linalg.norm(v, axis=1)[:, None]
    cross = u[:, None, 0] * v[None, :, 1] - u[:, None, 1] * v[None, :, 0]
    return float(np.abs(cross).min()) < _MIN_SIN


def following_pair(rng, n1, n2):
    """T1 at a random place and heading; T2 starts 0.4-0.6 to its side and
    heads within 0.25 rad of it, as two traces of one route would.

    Pairs that come within _MIN_GAP of each other are redrawn: where the
    curves touch, the lower bound tends to 0 and value / LB swings by seed.
    """
    while True:
        start = rng.uniform(0.0, 1.0, 2)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        side = rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 0.6)
        offset = side * np.array([-math.sin(heading), math.cos(heading)])
        a = curve(rng, n1, start, heading)
        b = curve(rng, n2, start + offset, heading + rng.uniform(-0.25, 0.25))
        ra, rb = Polyline(a), Polyline(b)
        gap = rb.distance_to(ra.points_at(np.linspace(0.0, ra.length, 400))).min()
        if gap >= _MIN_GAP and not _nearly_parallel(a, b):
            return a, b


def _lattice_lines(center, w, length):
    """Positions of one ball's lattice lines that fall inside [0, length]."""
    radius = _BALL_RADIUS_PER_WEIGHT * w
    k = math.ceil(2.0 * radius / (_BALL_MESH_PER_WEIGHT * w) - 1e-9)
    step = 2.0 * radius / k
    t = np.arange(k + 1)
    pos = center - radius + t * step
    return pos[(pos >= -1e-12) & (pos <= length + 1e-12)].clip(0.0, length)


def _ball_crossings(a, b):
    """Crossings of the desk-preset grid balls, and the smallest ball weight.

    Every cell-boundary edge pins a vertex of one curve against a segment
    of the other; its minimizer is that point-to-segment distance w.  The
    ball there is a square lattice of spacing epsilon * w / c_mesh and
    half-width c_radius * w; while that exceeds the parameter space, each
    of its lines crosses every line of the other direction.  Returns the
    count of distinct horizontal times distinct vertical lines.
    """
    t1, t2 = Polyline(a), Polyline(b)
    balls = set()
    for fixed, moving, swap in ((t1, t2, False), (t2, t1, True)):
        for k, p in enumerate(fixed.vertices):
            for j in range(len(moving.dirs)):
                rel = p - moving.vertices[j]
                t = min(max(float(rel @ moving.dirs[j]), 0.0), float(moving.segment_lengths[j]))
                w = float(np.linalg.norm(rel - t * moving.dirs[j]))
                here = (fixed.cum[k], moving.cum[j] + t)
                x, y = (here[1], here[0]) if swap else here
                balls.add((x, y, w))
    w_min = min(w for _, _, w in balls)
    if w_min <= 0.0:
        return math.inf, 0.0
    hs = np.concatenate([_lattice_lines(y, w, t2.length) for _, y, w in balls])
    vs = np.concatenate([_lattice_lines(x, w, t1.length) for x, _, w in balls])
    return float(len(np.unique(hs.round(9))) * len(np.unique(vs.round(9)))), w_min


def arrangement_pair(rng, n1, n2):
    """Random pair lifted apart until the predicted g2 size meets the target."""
    len1 = 1.0 if n1 == 3 else ARRANGEMENT_LONG
    len2 = ARRANGEMENT_LONG if n1 == 3 else 1.0
    while True:
        a = curve(rng, n1, (0.0, 0.0), rng.uniform(-0.3, 0.3), len1)
        b = curve(rng, n2, (rng.uniform(-0.2, 0.2), 0.0), rng.uniform(-0.3, 0.3), len2)
        if not _nearly_parallel(a, b):
            break
    lo, hi = 0.0, 64.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _ball_crossings(a, b + [0.0, mid])[0] > _G2_TARGET:
            lo = mid
        else:
            hi = mid
    b = b + [0.0, hi]
    # every ball must span the parameter space, so that its boundary lines
    # reach both corners; otherwise g2 could be disconnected with g1 rejected
    if _ball_crossings(a, b)[1] * _BALL_RADIUS_PER_WEIGHT <= max(len1, len2):
        raise RuntimeError("arrangement pair too close for a connected g2")
    return a, b


def staircase(rng, end, steps=4):
    """Monotone staircase from (0, 0) to ``end`` with random step splits."""
    sx = np.sort(rng.uniform(0.0, 1.0, steps))
    sy = np.sort(rng.uniform(0.0, 1.0, steps))
    pts = [(0.0, 0.0)]
    for i in range(steps):
        x, y = sx[i] * end[0], sy[i] * end[1]
        if rng.random() < 0.5:
            pts.append((x, pts[-1][1]))
        pts.append((pts[-1][0], y))
        pts.append((x, y))
    pts.append(tuple(end))
    out = [pts[0]]
    for p in pts[1:]:
        out.append((max(p[0], out[-1][0]), max(p[1], out[-1][1])))
    return np.asarray(out)


def grid_pairs(seed):
    rng = np.random.default_rng([seed, 1])
    return [following_pair(rng, n1, n2) for n1, n2 in GRID_SLOTS]


def arrangement_pairs(seed):
    """(a, b, exact value or None) in a fixed order: C4 first, then random."""
    rng = np.random.default_rng([seed, 2])
    out = [PARALLEL, PERPENDICULAR, IDENTICAL]
    out += [arrangement_pair(rng, n1, n2) + (None,) for n1, n2 in ARRANGEMENT_SLOTS]
    return out


def transform_cases(seed):
    """(a, b, staircase) triples; the staircase ends at the curves' lengths."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for n1, n2 in TRANSFORM_SLOTS:
        a, b = following_pair(rng, n1, n2)
        end = (Polyline(a).length, Polyline(b).length)
        out.append((a, b, staircase(rng, end)))
    return out
