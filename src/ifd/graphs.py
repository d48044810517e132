"""The two approximation graphs over parameter space.

Graph ``g1`` is a uniform monotone grid whose mesh shrinks with epsilon and
the smallest segment length; it wins whenever the optimal path spends
weight above that scale.  Graph ``g2`` is the arrangement of all monotone
free-space axes, axis-aligned lattices ("grid balls") around the
weight minimizers of the cell-boundary edges, and two diagonal connectors
at the corners; it covers the regime where the optimal path hugs the axes.
g1 is searched by a sweep over its lattice; g2 is built as numpy arrays
(ball lines generated and merged for all balls at once, splits, pieces,
snap-keyed vertices) and searched by a topological sweep.  Shortest paths
on both are exact upper bounds on the integral distance, and their minimum
is the reported approximation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import PolygonalCurve, stats
from .errors import (
    BudgetExceeded,
    DegenerateBall,
    Disconnected,
    NoFeasibleGraph,
)
from .integrals import segment_weighted_length
# perfbench's tracer wraps names in this module's namespace: the strip
# wrappers of the lattice tile kernel are imported only for it, and _search_g2 calls dijkstra through
# this module's global so that the wrapped search is the one that runs
from .integrals import horizontal_strip_weights, vertical_strip_weights  # noqa: F401
from .matching import MonotonePath
from .param_space import build_cells, edge_min, free_space_axes
from .shortest_path import (
    adjacency,
    axis_size,
    dense_grid_oracle_path,
    dijkstra,
    grid_lattice,
    lattice_dp,
    lattice_weights,
)

__all__ = [
    "GraphConfig",
    "MonotoneDigraph",
    "ApproxResult",
    "build_g1",
    "build_grid_ball",
    "build_g2",
    "approximate_integral_frechet",
]

_PAIR_BLOCK = 1 << 18  # candidate crossings tested per numpy block


@dataclass(frozen=True)
class GraphConfig:
    """Knobs of the two graphs.

    Defaults are the worst-case constants, which are far too fine to run
    on anything but toy inputs; :meth:`desk` returns the practical preset
    used by the CLI.
    """

    epsilon: float
    c_g1: float = 40000.0     # grid mesh divisor: mesh = eps*mu/(c_g1*(len1+len2))
    c_radius: float = 62.0    # ball radius multiple of the edge-minimum weight
    c_mesh: float = 456.0     # ball mesh divisor: mesh = eps*w(u)/c_mesh
    max_vertices: int = 10_000_000
    mode: str = "both"        # g1 | g2 | both | oracle

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if min(self.c_g1, self.c_radius, self.c_mesh) <= 0:
            raise ValueError("graph constants must be positive")
        if self.max_vertices <= 0:
            raise ValueError("max_vertices must be positive")
        if self.mode not in ("g1", "g2", "both", "oracle"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def desk(cls, epsilon: float, **kw) -> "GraphConfig":
        kw.setdefault("c_g1", 40.0)
        kw.setdefault("c_radius", 62.0)
        kw.setdefault("c_mesh", 8.0)
        kw.setdefault("max_vertices", 1_000_000)
        return cls(epsilon=epsilon, **kw)


@dataclass
class MonotoneDigraph:
    """Directed geometric graph embedded in parameter space.

    Every edge tail dominates no coordinate of its head (the graph is
    monotone) and carries the exact weighted length of its embedding.
    """

    xs: np.ndarray
    ys: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    source: int
    sink: int
    _csr: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.validate_monotone()

    @property
    def n_vertices(self) -> int:
        return len(self.xs)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def validate_monotone(self):
        """Raise ``ValueError`` on a backward edge or a negative weight.

        A step back counts only beyond 1e-9 times the largest coordinate,
        so snap-rounded vertices pass at every scale.
        """
        if self.n_edges == 0:
            return
        dx = self.xs[self.heads] - self.xs[self.tails]
        dy = self.ys[self.heads] - self.ys[self.tails]
        extent = float(max(np.abs(self.xs).max(), np.abs(self.ys).max()))
        if float(min(dx.min(), dy.min())) < -1e-9 * extent:
            raise ValueError("graph contains a non-monotone edge")
        if float(self.weights.min()) < -1e-12:
            raise ValueError("graph contains a negative edge weight")

    def csr(self):
        """The search's :class:`~ifd.shortest_path.Adjacency`, built once."""
        if self._csr is None:
            self._csr = adjacency(self.n_vertices, self.tails, self.heads, self.weights)
        return self._csr


def _g1_mesh(t1, t2, cfg) -> float:
    st = stats(t1, t2)
    return cfg.epsilon * st.mu / (cfg.c_g1 * (st.len1 + st.len2))


def build_g1(t1: PolygonalCurve, t2: PolygonalCurve, cfg: GraphConfig) -> MonotoneDigraph:
    """Uniform monotone grid graph with exact closed-form edge weights.

    The grid is snapped so every parameter line is a grid line, which
    keeps each edge inside one cell and never widens the mesh.  The search
    in :func:`approximate_integral_frechet` sweeps the same lattice without
    building this graph; the graph stays as the reference it is tested
    against.
    """
    lat = grid_lattice(build_cells(t1, t2), _g1_mesh(t1, t2, cfg), cfg.max_vertices)
    xs, ys = lat.xs, lat.ys
    nx, ny = len(xs), len(ys)
    w_right = np.empty((ny, nx - 1))
    w_up = np.empty((ny - 1, nx))
    for r0, right, up, _ in lattice_weights(lat, diagonal=False):
        w_right[r0:r0 + len(right)] = right
        w_up[r0:r0 + len(up)] = up

    ids = np.arange(nx * ny, dtype=np.int64).reshape(ny, nx)
    right_tails = ids[:, :-1].ravel()
    up_tails = ids[:-1, :].ravel()
    tails = np.concatenate([right_tails, up_tails])
    heads = np.concatenate([right_tails + 1, up_tails + nx])
    weights = np.concatenate([w_right.ravel(), w_up.ravel()])
    return MonotoneDigraph(
        xs=np.tile(xs, ny),
        ys=np.repeat(ys, nx),
        tails=tails,
        heads=heads,
        weights=weights,
        source=0,
        sink=nx * ny - 1,
    )


def _ball_lattice(center, radius, mesh, bounds):
    """Index arithmetic shared by the grid balls' budget check and lines.

    Ball i has ``k[i] + 1`` lattice lines per axis, at ``origin[i] + t *
    step[i]`` for t = 0..k[i] (columns x, y); ``[first, last]`` is the index
    range inside ``bounds`` with a 1e-9 tolerance in index units, so
    ``last - first + 1`` counts the lines without building them.
    """
    k = np.maximum(1.0, np.ceil(2.0 * radius / mesh - 1e-9))
    step = 2.0 * radius / k
    origin = center - radius[:, None]
    first = np.maximum(0.0, np.ceil((0.0 - origin) / step[:, None] - 1e-9))
    last = np.minimum(k[:, None], np.floor((bounds - origin) / step[:, None] + 1e-9))
    return origin, step, k, first, last


def build_grid_ball(center, radius, mesh, bounds):
    """Axis-aligned lattices filling the L-infinity balls around ``center``.

    ``center`` is one point or an (n, 2) array; ``radius`` and ``mesh`` are
    scalars or one value per ball.  Returns ``(h, v)``: (m, 3) arrays of
    horizontal rows ``(y, x0, x1)`` and vertical rows ``(x, y0, y1)``, ball
    by ball in lattice order, clipped to the parameter rectangle
    ``bounds``; the boundary lines of each square are included.
    """
    center = np.reshape(np.asarray(center, dtype=float), (-1, 2))
    radius, mesh = (np.broadcast_to(np.asarray(z, dtype=float), len(center))
                    for z in (radius, mesh))
    if np.any(radius <= 0.0) or np.any(mesh <= 0.0):
        raise DegenerateBall(f"radius {radius.min()!r} / mesh {mesh.min()!r}")
    bounds = np.asarray(bounds, dtype=float)
    origin, step, k, first, last = _ball_lattice(center, radius, mesh, bounds)
    # candidates widen the counted range by one index, and by as many more
    # as the clip's 1e-12 tolerance spans when the step is below it
    pad = 1.0 + np.floor(1e-12 * bounds / step[:, None])
    lo, hi = np.maximum(first - pad, 0.0), np.minimum(last + pad, k[:, None])
    lines = []
    for d in (1, 0):  # horizontals sit at y, verticals at x
        span_lo = np.maximum(center[:, 1 - d] - radius, 0.0)
        span_hi = np.minimum(center[:, 1 - d] + radius, bounds[1 - d])
        n = np.where(span_hi > span_lo, np.maximum(hi[:, d] - lo[:, d] + 1.0, 0.0), 0.0)
        n = n.astype(np.int64)
        ball = np.repeat(np.arange(len(n)), n)
        t = lo[ball, d] + (np.arange(len(ball)) - np.repeat(np.cumsum(n) - n, n))
        fixed = origin[ball, d] + t * step[ball]
        keep = (-1e-12 * bounds[d] <= fixed) & (fixed <= bounds[d] * (1.0 + 1e-12))
        ball = ball[keep]
        lines.append(np.stack((np.clip(fixed[keep], 0.0, bounds[d]),
                               span_lo[ball], span_hi[ball]), axis=1))
    return lines[0], lines[1]


def _merge_lines(lines, snap):
    """Union collinear intervals: rows (fixed, lo, hi) -> maximal segments.

    Rows whose ``fixed`` rounds to one snap key are one line, kept at the
    first row's ``fixed`` after a stable sort by ``lo``; an interval joins
    the run before it when it starts within ``snap`` of the run's reach.
    Output rows are sorted by key, then by ``lo``.
    """
    if len(lines) == 0:
        return lines.reshape(0, 3)
    key = np.rint(lines[:, 0] / snap)
    order = np.lexsort((lines[:, 1], key))
    key, (fixed, lo, hi) = key[order], lines[order].T
    new_key = np.r_[True, key[1:] != key[:-1]]
    head = np.maximum.accumulate(np.where(new_key, np.arange(len(key)), 0))
    # running max of hi within each key, exact through the ranks of hi
    values, rank = np.unique(hi, return_inverse=True)
    reach = values[np.maximum.accumulate(head * len(values) + rank) - head * len(values)]
    runs = np.flatnonzero(new_key | np.r_[False, lo[1:] > reach[:-1] + snap])
    return np.stack((fixed[head[runs]], lo[runs], np.maximum.reduceat(hi, runs)), axis=1)


def _seg_intersections(p, q, a, b, tol):
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


def _hv_crossings(h, v, snap, cap):
    """Every crossing of a horizontal ``h[i] = (y, x0, x1)`` and a vertical
    ``v[j] = (x, y0, y1)`` (rows of ``v`` sorted by x), as a (2, k) array of
    index pairs (i, j).

    Candidates are the verticals within ``snap`` of a horizontal's x range,
    tested in blocks of about ``_PAIR_BLOCK`` pairs so memory stays small.
    Raises ``BudgetExceeded`` with the number of all crossings when it
    exceeds ``cap``.
    """
    lo = np.searchsorted(v[:, 0], h[:, 1] - snap, side="left")
    hi = np.searchsorted(v[:, 0], h[:, 2] + snap, side="right")
    base = np.concatenate(([0], np.cumsum(hi - lo)))
    found, count, i = [np.empty((2, 0), dtype=np.int64)], 0, 0
    while i < len(h):
        j = max(i + 1, int(np.searchsorted(base, base[i] + _PAIR_BLOCK, side="right")) - 1)
        n_cand = hi[i:j] - lo[i:j]
        rows = np.repeat(np.arange(i, j), n_cand)
        cols = np.arange(base[i], base[j]) - np.repeat(base[i:j] - lo[i:j], n_cand)
        y = h[rows, 0]
        hit = (v[cols, 1] - snap <= y) & (y <= v[cols, 2] + snap)
        count += int(np.count_nonzero(hit))
        if count <= cap:
            found.append(np.stack((rows[hit], cols[hit])))
        i = j
    if count > cap:
        raise BudgetExceeded(count, cap)
    return np.concatenate(found, axis=1)


def _arrangement(h, v, o, iso, snap, cap):
    """Snap-rounded arrangement of horizontals ``h[i] = (y, x0, x1)``,
    verticals ``v[j] = (x, y0, y1)`` sorted by x, general segments
    ``o[k] = (px, py, qx, qy)`` and isolated points ``iso``.

    Every segment is split at its crossings and at the isolated points on
    it; splits that round to one ``snap`` key are one point.  Returns
    ``(coords, tails, heads, ends)``: the vertices in first-seen order,
    isolated points first, and each edge (oriented right/up, the first
    piece of each vertex pair) with its embedding ``ends[e] = (tail, head)``.
    Raises ``BudgetExceeded`` when the crossings exceed ``cap``.
    """
    p = np.concatenate([h[:, [1, 0]], v[:, [0, 1]], o[:, :2]])
    q = np.concatenate([h[:, [2, 0]], v[:, [0, 2]], o[:, 2:]])
    n, n_h = len(p), len(h)
    rows, cols = _hv_crossings(h, v, snap, cap)
    seg, at = [], []
    for idx, x, lo, hi in ((rows, v[cols, 0], h[rows, 1], h[rows, 2]),
                           (n_h + cols, h[rows, 0], v[cols, 1], v[cols, 2])):
        keep = hi > lo
        seg.append(idx[keep])
        at.append(np.clip((x[keep] - lo[keep]) / (hi[keep] - lo[keep]), 0.0, 1.0))
    count = len(rows)
    # the few general segments against every other segment, both ways
    for i in range(n_h + len(v), n):
        k, t1, t2 = _seg_intersections(p[i], q[i], p, q, snap)
        other = k != i
        k, t1, t2 = k[other], t1[other], t2[other]
        seg += [np.full(len(k), i), k]
        at += [t1, t2]
        count += len(k)
    if count > cap:
        raise BudgetExceeded(count, cap)
    for pt in iso:
        k, t1, _ = _seg_intersections(p, q, pt, pt, snap)
        seg.append(k)
        at.append(t1)
    seg = np.concatenate(seg + [np.arange(n), np.arange(n)])
    at = np.concatenate(at + [np.zeros(n), np.ones(n)])

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
    return pts[first[order]], tails[keep], heads[keep], ends[keep]


def build_g2(t1: PolygonalCurve, t2: PolygonalCurve, cfg: GraphConfig) -> MonotoneDigraph:
    """Arrangement graph: free-space axes, grid balls, and corner connectors.

    Cell axes are clipped to their cell (antiparallel cells contribute
    nothing); every cell-boundary edge, outer boundary included, gets a
    grid ball at its weight minimizer, or a bare vertex when that weight is
    below the snap; the source/sink connectors exist exactly when the
    corner cells' axes meet their cell.  One index-range computation
    (:func:`_ball_lattice`) counts every ball's lines for the budget
    pre-check before any line exists; :func:`build_grid_ball` then
    generates them from the same ranges as arrays, and
    :func:`_merge_lines` unions them per snap key.  :func:`_arrangement`
    splits all lines at once: the intersections become vertices, numbered
    with the source 0 and the sink 1 first, every edge points right/up, and
    all edge weights come from one batched closed-form call over the
    embedded pieces.
    """
    grid = build_cells(t1, t2)
    l1, l2 = grid.extent
    snap = 1e-12 * max(l1, l2)

    diag_segs, iso = [], [(0.0, 0.0), (l1, l2)]

    for col in grid.cells:
        for cell in col:
            if cell.kind == "antiparallel":
                continue
            axes = free_space_axes(cell)
            if axes.ell is None:
                continue
            p, q = axes.ell
            if math.hypot(q.x - p.x, q.y - p.y) <= snap:
                iso.append((p.x, p.y))
            else:
                diag_segs.append((p, q))

    centers, weights = [], []
    for edge in grid.edges():
        u, w = edge_min(grid, edge)
        if w < snap:  # a rounding-level minimum gets a bare vertex, no ball
            iso.append((u.x, u.y))
            continue
        centers.append(u)
        weights.append(w)
    centers = np.array(centers, dtype=float).reshape(-1, 2)
    weights = np.array(weights, dtype=float)
    radius = cfg.c_radius * weights
    mesh = cfg.epsilon * weights / cfg.c_mesh
    bounds = np.array([l1, l2])
    _, _, _, first, last = _ball_lattice(centers, radius, mesh, bounds)
    counts = [(int(nv), int(nh)) for nv, nh in np.maximum(last - first + 1.0, 0.0).tolist()]
    projected_lines = sum(nv + nh for nv, nh in counts)
    # a ball's own lattice crossings alone are that many vertices
    projected_internal = sum(nv * nh for nv, nh in counts)
    # ball lattices dominate the crossing count; reject hopeless inputs
    # from the counts alone, before any line exists (the arrangement pass
    # enforces the exact budget)
    if projected_internal > 2 * cfg.max_vertices:
        raise BudgetExceeded(projected_internal, cfg.max_vertices)
    if (projected_lines // 2 + 1) ** 2 > 8 * cfg.max_vertices:
        raise BudgetExceeded((projected_lines // 2 + 1) ** 2, cfg.max_vertices)
    h, v = (_merge_lines(lines, snap) for lines in build_grid_ball(centers, radius, mesh, bounds))

    # the source and sink connectors, each from its corner to the nearer end
    # of its corner cell's axis
    for cell, end, corner in ((grid.cell(0, 0), 0, (0.0, 0.0)),
                              (grid.cell(grid.n_cols - 1, grid.n_rows - 1), 1, (l1, l2))):
        ell = None if cell.kind == "antiparallel" else free_space_axes(cell).ell
        if ell is not None and math.dist(corner, ell[end]) > snap:
            diag_segs.append((corner, ell[0]) if end == 0 else (ell[1], corner))

    o = np.array(diag_segs, dtype=float).reshape(-1, 4)
    coords, tails, heads, ends = _arrangement(h, v, o, np.array(iso, dtype=float), snap,
                                              cfg.max_vertices)
    if len(coords) > cfg.max_vertices:
        raise BudgetExceeded(len(coords), cfg.max_vertices)
    return MonotoneDigraph(
        xs=coords[:, 0].copy(),
        ys=coords[:, 1].copy(),
        tails=tails,
        heads=heads,
        weights=segment_weighted_length(grid, ends[:, 0], ends[:, 1]),
        source=0,
        sink=1,
    )


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of the full approximation pipeline."""

    value: float
    average: float
    winning_mode: str
    path: MonotonePath
    graph_stats: dict


def _affordable_mesh(t1, t2, budget):
    grid = build_cells(t1, t2)
    l1, l2 = grid.extent
    h = math.sqrt(l1 / budget) * math.sqrt(l2)  # a product l1 * l2 would underflow at tiny scales
    for _ in range(200):
        n = axis_size(grid.x_cuts, h) * axis_size(grid.y_cuts, h)
        if n <= budget:
            return h
        h *= 1.25
    raise BudgetExceeded(n, budget)


def _search_g1(t1, t2, cfg):
    """g1's shortest path by a sweep over its lattice; no graph is built."""
    lat = grid_lattice(build_cells(t1, t2), _g1_mesh(t1, t2, cfg), cfg.max_vertices)
    value, pts = lattice_dp(lat, diagonal=False)
    return value, pts, {"vertices": lat.n_points, "edges": lat.n_edges(diagonal=False)}


def _search_g2(t1, t2, cfg):
    g = build_g2(t1, t2, cfg)
    res = dijkstra(g)
    return res.distance, res.points, {"vertices": g.n_vertices, "edges": g.n_edges}


def _search_oracle(t1, t2, cfg):
    """The dense right/up/diagonal lattice at the finest mesh the budget affords."""
    h = _affordable_mesh(t1, t2, cfg.max_vertices)
    value, pts, lat = dense_grid_oracle_path(t1, t2, h, max_points=cfg.max_vertices)
    return value, pts, {"mesh": h, "vertices": lat.n_points, "edges": lat.n_edges(diagonal=True)}


# each search returns (distance, path points, sizes for graph_stats)
_SEARCHES = {"g1": _search_g1, "g2": _search_g2, "oracle": _search_oracle}


def approximate_integral_frechet(t1: PolygonalCurve, t2: PolygonalCurve,
                                 cfg: GraphConfig) -> ApproxResult:
    """Approximate the integral distance and return the realizing matching.

    Runs the shortest-path search on each graph requested by ``cfg.mode``
    (a lattice sweep for g1, a topological sweep of the built arrangement
    for g2, both for ``"both"``) and keeps the minimum; the value is
    always an upper bound on the true distance because every graph path
    is a feasible monotone matching.  ``mode='oracle'`` runs the dense
    lattice, diagonals included, instead.  Raises
    :class:`NoFeasibleGraph` when every requested search exceeds the
    budget and :class:`Disconnected` when none reaches the sink.
    """
    wanted = ("g1", "g2") if cfg.mode == "both" else (cfg.mode,)
    graph_stats = {}
    best = None
    for name in wanted:
        try:
            distance, pts, sizes = _SEARCHES[name](t1, t2, cfg)
        except BudgetExceeded as exc:
            graph_stats[name] = {
                "status": "budget_exceeded",
                "projected_vertices": exc.projected,
                "vertices": 0,
                "edges": 0,
                "distance": None,
            }
            continue
        reachable = math.isfinite(distance)
        graph_stats[name] = {
            "status": "ok" if reachable else "disconnected",
            **sizes,
            "distance": distance if reachable else None,
        }
        if reachable and (best is None or distance < best[0]):
            best = (distance, name, pts)
    if best is None:
        if all(st["status"] == "budget_exceeded" for st in graph_stats.values()):
            raise NoFeasibleGraph(
                "every requested graph exceeds the vertex budget "
                f"{cfg.max_vertices}: "
                + ", ".join(
                    f"{name} projected {st['projected_vertices']}"
                    for name, st in graph_stats.items()
                )
            )
        raise Disconnected(f"no finite route; graph stats: {graph_stats}")
    value, name, pts = best
    return ApproxResult(
        value=value,
        average=value / (t1.length + t2.length),
        winning_mode=name,
        path=MonotonePath.from_points(pts),
        graph_stats=graph_stats,
    )
