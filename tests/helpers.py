"""Shared generators and small independent oracles for the test suite."""

import bisect
import math
from typing import NamedTuple

import numpy as np
import pytest

import ifd
from ifd import graphs
from ifd.cell_paths import _dedupe, _shortest_vertices
from ifd.shortest_path import Lattice, _check_count, lattice_dp

# powers of two scale every float exactly, so under s values/s and costs/s^2 must not move
SCALES = (2.0 ** -40, 1.0, 2.0 ** 30)


def scale_id(s):
    """Test id of a power-of-two scale: '2^-40', '1', '2^30'."""
    return "1" if s == 1.0 else f"2^{math.frexp(s)[1] - 1}"


over_scales = pytest.mark.parametrize("s", SCALES, ids=scale_id)


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


def staircase_lattice(cell, a, b, k):
    """The (k + 1) x (k + 1) lattice spanned by a and b, all of it in ``cell``."""
    steps = np.arange(k + 1) / k
    ends = np.array([0, k])
    return Lattice(lambda i, j: cell, a[0] + (b[0] - a[0]) * steps, ends,
                   a[1] + (b[1] - a[1]) * steps, ends)


class Staircase(NamedTuple):
    vertices: tuple
    weighted_length: float


def staircase_path(cell, a, b, k=256):
    """Best right/up/diagonal path over the k x k lattice spanned by a and b.

    The brute-force reference for ``cell_shortest_path``, every cell kind
    included: the library's lattice dynamic program over one cell.  Raises
    ``ValueError`` unless k is a positive integer.
    """
    _check_count("k", k)
    value, points = lattice_dp(staircase_lattice(cell, a, b, k), diagonal=True)
    return Staircase(_dedupe([ifd.ParameterPoint(*p) for p in points]), value)


def bellman_ford(graph, source=None):
    """Plain relaxation loop; meant as a cross-check on small graphs."""
    s = graph.source if source is None else source
    n = graph.n_vertices
    dist = np.full(n, math.inf)
    dist[s] = 0.0
    tails = graph.tails
    heads = graph.heads
    wts = graph.weights
    for _ in range(n):
        cand = dist[tails] + wts
        better = cand < dist[heads]
        if not better.any():
            break
        np.minimum.at(dist, heads[better], cand[better])
    return dist


def path_weight_sum(graph, ids):
    """The plain left-to-right float sum of the edge weights along the
    vertex ids ``ids``, each step over the lightest of its parallel edges."""
    total = 0.0
    for a, b in zip(ids[:-1], ids[1:]):
        total += float(graph.weights[(graph.tails == a) & (graph.heads == b)].min())
    return total


def reference_split(grid, a, b):
    """Cut every segment a[k] -> b[k] at the parameter lines with one lexsort: ``integrals._split``'s reference.

    Returns ``(seg, p, q, i, j)`` in segment order, each segment's pieces
    as the library's splitter cuts them.  Every segment's parameters 0, 1
    and (cut - a) / d of the lines strictly inside it are sorted by segment
    and parameter in one batch, duplicates dropped, the points a + s d
    formed, a cut's coordinate on its line replaced by the line's own
    (both where an x-line and a y-line share the parameter), a itself
    written at 0 and b itself at 1, and each piece put in the cell of its
    midpoint (lower/left on a parameter line).
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    n = len(a)
    d = b - a
    ids = np.arange(n)
    segs, params = [ids, ids], [np.zeros(n), np.ones(n)]
    # each parameter's axis (-1 for the ends) and its line's coordinate
    axes, lines = [np.full(2 * n, -1)], [np.zeros(2 * n)]
    for axis, cuts in ((0, grid.x_cuts), (1, grid.y_cuts)):
        lo = np.minimum(a[:, axis], b[:, axis])
        hi = np.maximum(a[:, axis], b[:, axis])
        first = np.searchsorted(cuts, lo, side="right")
        count = np.maximum(np.searchsorted(cuts, hi, side="left") - first, 0)
        k = np.repeat(ids, count)
        idx = first[k] + np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
        segs.append(k)
        params.append((cuts[idx] - a[k, axis]) / d[k, axis])
        axes.append(np.full(len(k), axis))
        lines.append(cuts[idx])
    seg = np.concatenate(segs)
    s = np.concatenate(params)
    order = np.lexsort((s, seg))
    seg, s = seg[order], s[order]
    axis, line = np.concatenate(axes)[order], np.concatenate(lines)[order]
    keep = np.ones(len(seg), dtype=bool)
    keep[1:] = (seg[1:] != seg[:-1]) | (s[1:] != s[:-1])
    at = np.cumsum(keep) - 1  # each parameter's row among the kept ones
    seg, s = seg[keep], s[keep]
    pts = a[seg] + s[:, None] * d[seg]
    for ax in (0, 1):
        pts[at[axis == ax], ax] = line[axis == ax]
    pts[s == 0.0] = a[seg[s == 0.0]]
    pts[s == 1.0] = b[seg[s == 1.0]]
    same = seg[1:] == seg[:-1]  # consecutive cut points of one segment bound a piece
    p, q, seg = pts[:-1][same], pts[1:][same], seg[:-1][same]
    mid = 0.5 * (p + q)
    i = np.searchsorted(grid.x_cuts[1:-1], mid[:, 0], side="left")
    j = np.searchsorted(grid.y_cuts[1:-1], mid[:, 1], side="left")
    return seg, p, q, i, j


def reference_sweep(grid, p):
    """One substitution sweep grouped with numpy over :func:`reference_split`'s pieces.

    The array form of ``matching._substitute_once``: cut the whole path in
    one batch, group consecutive pieces of one cell, and substitute each
    group by the cell's shortest path.  Each substitute is cleaned with
    ``_dedupe`` on its own before the whole path is cleaned, two clean-ups
    where the library makes one, so the comparison shows that one clean-up
    per sweep gives the same bits.
    """
    _, a, b, i, j = reference_split(grid, p.vertices[:-1], p.vertices[1:])
    if not len(a):
        return p
    cut = np.flatnonzero((i[1:] != i[:-1]) | (j[1:] != j[:-1])) + 1
    first = np.concatenate(([0], cut))
    last = np.concatenate((cut, [len(a)])) - 1
    a, b = a.tolist(), b.tolist()
    out = [a[0]]
    for lo, hi, ci, cj in zip(first.tolist(), last.tolist(), i[first].tolist(), j[first].tolist()):
        out.extend(_dedupe(_shortest_vertices(grid.cell(ci, cj), a[lo], b[hi])[0])[1:])
    return ifd.MonotonePath.from_points(_dedupe(out))


def reference_polish(t1, t2, path):
    """(path, sweeps) of :func:`reference_sweep` iterated as ``locally_optimize`` iterates:
    until a sweep reproduces its input, at most 32 sweeps."""
    p = ifd.MonotonePath.from_points(path)
    grid = ifd.build_cells(t1, t2)
    for sweeps in range(1, 33):
        new = reference_sweep(grid, p)
        if np.array_equal(new.vertices, p.vertices):
            return new, sweeps
        p = new
    return p, 32


def seg_intersections(p, q, a, b, tol):
    """Intersections of closed segments ``pq`` and ``ab``, row by row.

    ``p, q, a, b`` are (n, 2) arrays or points broadcast to them.  Returns
    ``(k, t1, t2)``: the row of each intersection and its parameters along
    ``pq`` and ``ab``.  A collinear overlap gives up to four, the endpoints
    of each segment projected onto the other.
    """
    p, q, a, b = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (p, q, a, b)))
    rx, ry = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
    sx, sy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    rxs = rx * sy - ry * sx
    dx, dy = a[:, 0] - p[:, 0], a[:, 1] - p[:, 1]
    rlen = np.hypot(rx, ry)
    slen = np.hypot(sx, sy)
    parallel = np.abs(rxs) <= 1e-14 * np.maximum(rlen * slen, 1e-300)
    collinear = parallel & (np.abs(dx * ry - dy * rx) <= tol * rlen)
    rr = rx * rx + ry * ry
    ss = sx * sx + sy * sy
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (dx * sy - dy * sx) / rxs
        t2 = (dx * ry - dy * rx) / rxs
        e1 = tol / np.maximum(rlen, tol)
        e2 = tol / np.maximum(slen, tol)
        cases = [(~parallel & (-e1 <= t1) & (t1 <= 1 + e1) & (-e2 <= t2) & (t2 <= 1 + e2), t1, t2)]
        for pt, end in ((a, 0.0), (b, 1.0)):
            t = ((pt[:, 0] - p[:, 0]) * rx + (pt[:, 1] - p[:, 1]) * ry) / rr
            cases.append((collinear & (rr > 0) & (-1e-9 <= t) & (t <= 1 + 1e-9),
                          t, np.full_like(t, end)))
        for pt, end in ((p, 0.0), (q, 1.0)):
            t = ((pt[:, 0] - a[:, 0]) * sx + (pt[:, 1] - a[:, 1]) * sy) / ss
            cases.append((collinear & (ss > 0) & (-1e-9 <= t) & (t <= 1 + 1e-9),
                          np.full_like(t, end), t))
    k = np.concatenate([np.flatnonzero(hit) for hit, _, _ in cases])
    t1 = np.concatenate([u1[hit] for hit, u1, _ in cases])
    t2 = np.concatenate([u2[hit] for hit, _, u2 in cases])
    return k, np.clip(t1, 0.0, 1.0), np.clip(t2, 0.0, 1.0)


def reference_arrangement(h, v, a, iso, snap, cap):
    """The reference for ``graphs._arrangement``: every stage stays alive to
    the end, and the edges come in first-seen order.

    Snap-rounded arrangement of the segments and isolated points of
    ``graphs._splits``: horizontals ``h[i] = (y, x0, x1)``, verticals
    ``v[j] = (x, y0, y1)`` sorted by x, slope-1 axes
    ``a[k] = (px, py, qx, qy)`` and isolated points ``iso``.

    Every segment is split at its crossings and at the isolated points on
    it; splits that round to one ``snap`` key are one point.  Returns
    ``(coords, tails, heads, ends, iso_ids)``: the vertices in first-seen
    order, isolated points first, each edge (oriented right/up, the first
    piece of each vertex pair) with its embedding ``ends[e] = (tail, head)``,
    and the vertex id of every isolated point.
    Raises ``BudgetExceeded`` when the crossings exceed ``cap``.
    """
    p, q, seg, at = graphs._splits(h, v, a, iso, snap, cap)

    # pieces: consecutive splits along each segment, keeping the first
    # split of each run that shares a snap key
    order = np.lexsort((at, seg))
    seg, at = seg[order], at[order]
    pts = p[seg] + at[:, None] * (q[seg] - p[seg])
    key = np.rint(pts / snap)
    kept = np.ones(len(seg), dtype=bool)
    kept[1:] = (seg[1:] != seg[:-1]) | np.any(key[1:] != key[:-1], axis=1)
    seg, pts = seg[kept], pts[kept]
    piece = np.flatnonzero(seg[1:] == seg[:-1])
    ends = np.stack((pts[piece], pts[piece + 1]), axis=1)
    a, b = ends[:, 0], ends[:, 1]
    back = (b[:, 0] < a[:, 0]) | ((b[:, 0] == a[:, 0]) & (b[:, 1] < a[:, 1]))
    ends[back] = ends[back, ::-1]

    # vertices: one per snap key, numbered by first occurrence; the x and
    # y keys are ranked apart so one 1-D unique finds the distinct points
    pts = np.concatenate([iso, ends.reshape(-1, 2)])
    kx, ky = (np.unique(np.rint(pts[:, d] / snap), return_inverse=True)[1] for d in (0, 1))
    _, first, inv = np.unique(kx * (ky.max() + 1) + ky, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    vid = rank[inv]
    tails, heads = vid[len(iso)::2], vid[len(iso) + 1::2]
    _, first_edge = np.unique(tails * len(order) + heads, return_index=True)
    keep = np.sort(first_edge)
    return pts[first[order]], tails[keep], heads[keep], ends[keep], vid[:len(iso)]


class QuadratureDepth(Exception):
    """Adaptive Simpson hit its depth limit without reaching the tolerance."""


def _simpson(f, lo, hi, f_lo, f_mid, f_hi, tol, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    mh = 0.5 * (mid + hi)
    f_lm = f(lm)
    f_mh = f(mh)
    whole = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
    right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_mh + f_hi)
    if depth <= 0:
        raise QuadratureDepth("adaptive Simpson exceeded depth 60")
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson(f, lo, mid, f_lo, f_lm, f_mid, tol / 2.0, depth - 1) + _simpson(
        f, mid, hi, f_mid, f_mh, f_hi, tol / 2.0, depth - 1
    )


def _curve_at(curve):
    """Scalar arc-length evaluation of a curve by interpolating between its vertices."""
    verts = curve.vertices.tolist()
    cum = curve.cum_length.tolist()

    def at(s):
        i = min(max(bisect.bisect_right(cum, s) - 1, 0), len(verts) - 2)
        (x0, y0), (x1, y1) = verts[i], verts[i + 1]
        f = (s - cum[i]) / (cum[i + 1] - cum[i])
        return x0 + f * (x1 - x0), y0 + f * (y1 - y0)

    return at


def quadrature_weighted_length(grid, a, b, tol=1e-12):
    """Adaptive-Simpson weighted length of the segment a -> b.

    Cuts the segment where it crosses ``grid.x_cuts`` and ``grid.y_cuts``
    and integrates |T2(y) - T1(x)| times the L1 speed over each piece,
    evaluating the curves from their vertices; it shares no code with the
    library's splitter or closed forms.  ``tol`` is relative.
    """
    ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
    ts = {0.0, 1.0}
    for lo, hi, cuts in ((ax, bx, grid.x_cuts), (ay, by, grid.y_cuts)):
        ts.update((c - lo) / (hi - lo) for c in cuts.tolist() if min(lo, hi) < c < max(lo, hi))
    ts = sorted(ts)
    at1, at2 = _curve_at(grid.t1), _curve_at(grid.t2)
    total = 0.0
    for s0, s1 in zip(ts[:-1], ts[1:]):
        px, py = ax + s0 * (bx - ax), ay + s0 * (by - ay)
        dx, dy = (s1 - s0) * (bx - ax), (s1 - s0) * (by - ay)
        l1len = abs(dx) + abs(dy)
        if l1len == 0.0:
            continue

        def f(s, px=px, py=py, dx=dx, dy=dy, l1len=l1len):
            x1, y1 = at1(px + s * dx)
            x2, y2 = at2(py + s * dy)
            return math.hypot(x2 - x1, y2 - y1) * l1len

        f0, fm, f1 = f(0.0), f(0.5), f(1.0)
        scale = max(abs(f0), abs(fm), abs(f1), 1e-300)
        total += _simpson(f, 0.0, 1.0, f0, fm, f1, tol * scale, 60)
    return total


PARALLEL = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)])
PERPENDICULAR = ([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0), (0.0, 1.0)])
ANTIPARALLEL = ([(0.0, 0.0), (1.0, 0.0)], [(1.0, 1.0), (0.0, 1.0)])
# two antiparallel cells, (0, 1) and (1, 0); the staircase detours through
# cell (0, 1), and its polish costs POLISHED_DETOUR
ANTIPARALLEL_TURNS = ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
                      [(1.2, 1.1), (1.2, 0.1), (0.2, 0.1)])
DETOUR = [(0.0, 0.0), (0.3, 0.0), (0.3, 1.7), (1.6, 1.7), (1.6, 2.0), (2.0, 2.0)]
POLISHED_DETOUR = 3.0130703832848837
# the first two segments of the C4 identical curve, twice; its desk-preset
# g2 at epsilon 0.25 has 16,900 vertices
IDENTICAL = ([(0.0, 0.0), (1.0, 0.4), (1.7, 0.9)],) * 2
# a 3-segment curve of length 1 and a 1-segment curve of length 1.3, lifted
# apart until the desk-preset g2 (epsilon 0.25) has 5040 vertices, all of
# them crossings of ball-lattice lines
ARRANGEMENT_PAIR = (
    [(0.0, 0.0), (0.1318943782192208, -0.3061290317909692),
     (0.0041111770418172655, -0.6139968030954146), (0.08144677233260861, -0.9382348588694555)],
    [(-0.10271600978189879, 2.939953565560899), (1.132957260407639, 3.343824299012945)],
)

# T1 turns at x = 1 and T2 at y = |(0.2, 1)|; each path steps back at
# x = 1 by at most 2e-10, float dust to MonotonePath, and the back-stepping
# piece crosses T2's turn, so an in-cell run's entry misses dominating its exit
DUST_PAIR = ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.3)], [(0.0, 1.0), (0.2, 2.0), (0.5, 3.0)])
DUST_PATHS = (
    [(0.0, 0.0), (1.0 + 1e-10, 0.5), (1.0 - 1e-10, 1.5)],
    [(0.0, 0.0), (1.0, 0.5), (1.0 - 1e-10, 1.5)],
    [(0.0, 0.0), (0.5, 1.5), (1.0 + 1e-10, 1.6), (1.0 - 1e-10, 1.7)],
)


def curve_pair(pair):
    return ifd.build_curve(pair[0]), ifd.build_curve(pair[1])


def scaled(curve, factor):
    return ifd.build_curve(curve.vertices * factor)
