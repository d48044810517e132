"""Shared generators and small independent oracles for the test suite."""

import math

import numpy as np

import ifd


def random_curve(rng, n_segments, scale=1.0, equalize=False, origin=None):
    """Random polyline with bounded turning angles.

    ``equalize`` keeps segment lengths within [0.8, 1.2]/n so the smallest
    segment stays comparable to the curve length.
    """
    start = rng.uniform(0.0, 1.0, 2) if origin is None else np.asarray(origin, float)
    pts = [start * scale]
    ang = rng.uniform(0.0, 2.0 * np.pi)
    for _ in range(n_segments):
        ang += rng.uniform(-0.9, 0.9)
        if equalize:
            step = rng.uniform(0.8, 1.2) / n_segments
        else:
            step = rng.uniform(0.4, 1.6) / n_segments
        pts.append(pts[-1] + step * scale * np.array([math.cos(ang), math.sin(ang)]))
    return ifd.build_curve(pts)


def random_cell(rng, kind="generic"):
    """Single-cell instance (one segment per curve) of the requested kind."""
    for _ in range(1000):
        p0 = rng.uniform(-1.0, 1.0, 2)
        a0 = rng.uniform(0.0, 2.0 * np.pi)
        l0 = rng.uniform(0.3, 2.0)
        q0 = rng.uniform(-1.0, 1.0, 2)
        a1 = rng.uniform(0.0, 2.0 * np.pi)
        l1 = rng.uniform(0.3, 2.0)
        t1 = ifd.build_curve([p0, p0 + l0 * np.array([math.cos(a0), math.sin(a0)])])
        t2 = ifd.build_curve([q0, q0 + l1 * np.array([math.cos(a1), math.sin(a1)])])
        grid = ifd.build_cells(t1, t2)
        cell = grid.cell(0, 0)
        if cell.kind == kind:
            return grid, cell
    raise RuntimeError(f"could not draw a {kind} cell")


def random_monotone_pair(rng, cell):
    """Two points of the cell with the first dominating the second."""
    xs = np.sort(rng.uniform(cell.x0, cell.x1, 2))
    ys = np.sort(rng.uniform(cell.y0, cell.y1, 2))
    return (float(xs[0]), float(ys[0])), (float(xs[1]), float(ys[1]))


def random_staircase(rng, start, end, steps):
    """Monotone staircase polyline from start to end with random step splits."""
    sx = np.sort(rng.uniform(0.0, 1.0, steps))
    sy = np.sort(rng.uniform(0.0, 1.0, steps))
    pts = [start]
    for i in range(steps):
        x = start[0] + sx[i] * (end[0] - start[0])
        y = start[1] + sy[i] * (end[1] - start[1])
        if rng.random() < 0.5:
            pts.append((x, pts[-1][1]))
        pts.append((pts[-1][0], y))
        pts.append((x, y))
    pts.append(end)
    return ifd.MonotonePath.from_points(_monotone_fix(pts))


def _monotone_fix(pts):
    out = [pts[0]]
    for p in pts[1:]:
        out.append((max(p[0], out[-1][0]), max(p[1], out[-1][1])))
    return out


def lattice_oracle(grid, a, b, k):
    """Plain-loop right/up/diagonal DP over [a, b], parameter lines included.

    Independent of the library's vectorized dynamic programs (same exact
    closed-form edge weights, straightforward table updates).
    """
    def axis(lo, hi, cuts):
        vals = set(np.linspace(lo, hi, k + 1))
        vals.update(float(c) for c in cuts if lo < c < hi)
        return sorted(vals)

    xs = axis(a[0], b[0], grid.x_cuts)
    ys = axis(a[1], b[1], grid.y_cuts)
    nx, ny = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys)
    here = np.column_stack([gx.ravel(), gy.ravel()])

    def weights(dc, dr):
        # weight of the step from (xs[c - dc], ys[r - dr]) to (xs[c], ys[r]), by point
        back = np.column_stack([np.roll(gx, dc, axis=1).ravel(), np.roll(gy, dr, axis=0).ravel()])
        return ifd.segment_weighted_length(grid, back, here).reshape(ny, nx)

    right, up, diag = weights(1, 0), weights(0, 1), weights(1, 1)
    dist = np.full((ny, nx), np.inf)
    dist[0, 0] = 0.0
    for r in range(ny):
        for c in range(nx):
            if c > 0:
                dist[r, c] = min(dist[r, c], dist[r, c - 1] + right[r, c])
            if r > 0:
                dist[r, c] = min(dist[r, c], dist[r - 1, c] + up[r, c])
            if r > 0 and c > 0:
                dist[r, c] = min(dist[r, c], dist[r - 1, c - 1] + diag[r, c])
    return float(dist[-1, -1])


PARALLEL = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)])
PERPENDICULAR = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (0.0, 1.0)])
ANTIPARALLEL = ([(0.0, 0.0), (1.0, 0.0)], [(1.0, 1.0), (0.0, 1.0)])
# a 3-segment curve of length 1 and a 1-segment curve of length 1.3, lifted
# apart until the desk-preset g2 (epsilon 0.25) has 5040 vertices, all of
# them crossings of ball-lattice lines
ARRANGEMENT_PAIR = (
    [(0.0, 0.0), (0.1318943782192208, -0.3061290317909692),
     (0.0041111770418172655, -0.6139968030954146), (0.08144677233260861, -0.9382348588694555)],
    [(-0.10271600978189879, 2.939953565560899), (1.132957260407639, 3.343824299012945)],
)


def curve_pair(pair):
    return ifd.build_curve(pair[0]), ifd.build_curve(pair[1])
