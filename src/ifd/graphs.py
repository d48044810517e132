"""The two approximation graphs over parameter space.

Graph ``g1`` is a uniform monotone grid whose mesh shrinks with epsilon and
the smallest segment length; it wins whenever the optimal path spends
weight above that scale.  Graph ``g2`` is the arrangement of all monotone
free-space axes, axis-aligned lattices ("grid balls") around the
weight minimizers of the cell-boundary edges, and two connectors along the
boundary from the corners to the corner cells' axes; it covers the regime
where the optimal path hugs the axes.
g1 is searched by a sweep over its lattice; g2 is built as numpy arrays
(ball lines generated and merged for all balls at once, splits, pieces,
snap-keyed vertices) and searched by a topological sweep.  Shortest paths
on both are exact upper bounds on the integral distance, and their minimum
is the reported approximation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import PolygonalCurve, _check_finite, stats
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
from .param_space import _clipped_axis, build_cells, edge_min, steps_back
# imported only for perfbench's tracer, as the strip wrappers are:
# build_g2 clips its axes with _clipped_axis
from .param_space import free_space_axes  # noqa: F401
from .shortest_path import (
    _EDGE_BLOCK,
    _check_count,
    adjacency,
    axis_size,
    dense_grid_oracle_path,
    dijkstra,
    grid_lattice,
    lattice_dp,
    lattice_weights,
)

__all__ = [
    "MODES",
    "GraphConfig",
    "MonotoneDigraph",
    "ApproxResult",
    "build_g1",
    "build_grid_ball",
    "build_g2",
    "approximate_integral_frechet",
]

_PAIR_BLOCK = 1 << 14  # candidate crossings tested per numpy block

# each mode and the searches it runs, in order; the smaller value wins
MODES = {"g1": ("g1",), "g2": ("g2",), "both": ("g1", "g2"), "oracle": ("oracle",)}


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
    mode: str = "both"        # a key of MODES

    def __post_init__(self):
        # NaN fails every comparison, and isfinite rejects it and infinity
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not all(c > 0 and math.isfinite(c) for c in (self.c_g1, self.c_radius, self.c_mesh)):
            raise ValueError("graph constants must be positive and finite")
        _check_count("max_vertices", self.max_vertices)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def desk(cls, epsilon: float, **kw) -> "GraphConfig":
        kw.setdefault("c_g1", 40.0)
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
        and a negative weight only beyond 1e-12 times the largest |weight|,
        so snap-rounded vertices and rounding-level weights pass at every
        scale.
        """
        if self.n_edges == 0:
            return
        extent = float(max(np.abs(self.xs).max(), np.abs(self.ys).max()))
        for a in range(0, self.n_edges, _EDGE_BLOCK):
            t, h = self.tails[a:a + _EDGE_BLOCK], self.heads[a:a + _EDGE_BLOCK]
            if steps_back(min(float((c[h] - c[t]).min()) for c in (self.xs, self.ys)), extent):
                raise ValueError("graph contains a non-monotone edge")
        lo, hi = float(self.weights.min()), float(self.weights.max())
        if lo < -1e-12 * max(-lo, hi):
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
    against.  Each vertex's right edge and up edge come together, grouped
    by tail, so the search takes the edges as they are.
    """
    lat = grid_lattice(build_cells(t1, t2), _g1_mesh(t1, t2, cfg), cfg.max_vertices)
    xs, ys = lat.xs, lat.ys
    nx, ny = len(xs), len(ys)
    # slot 0 of a vertex holds its right edge, slot 1 its up edge
    w = np.empty((ny, nx, 2))
    for r0, right, up, _ in lattice_weights(lat, diagonal=False):
        w[r0:r0 + len(right), :-1, 0] = right
        w[r0:r0 + len(up), :, 1] = up
    has = np.ones((ny, nx, 2), dtype=bool)
    has[:, -1, 0] = has[-1, :, 1] = False
    has = has.ravel()
    tails = np.repeat(np.arange(nx * ny, dtype=np.int64), 2)[has]
    heads = np.tile(np.array([1, nx], dtype=np.int64), nx * ny)[has]
    heads += tails
    return MonotoneDigraph(
        xs=np.tile(xs, ny),
        ys=np.repeat(ys, nx),
        tails=tails,
        heads=heads,
        weights=w.ravel()[has],
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

    Raises :class:`DegenerateBall` on a radius or mesh that is not positive
    and finite, and ``ValueError`` on a NaN or infinite center or bound.
    """
    center = np.reshape(np.asarray(center, dtype=float), (-1, 2))
    radius, mesh = (np.broadcast_to(np.asarray(z, dtype=float), len(center))
                    for z in (radius, mesh))
    for name, z in (("radius", radius), ("mesh", mesh)):
        bad = np.flatnonzero(~((z > 0.0) & (z < math.inf)))  # NaN fails too
        if len(bad):
            raise DegenerateBall(f"ball {bad[0]} has {name} {z[bad[0]]!r}")
    bounds = np.asarray(bounds, dtype=float)
    _check_finite(center, "center")
    _check_finite(bounds.reshape(1, 2), "bounds")
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


def _hv_crossings(h, v, snap, cap, sloped, counted):
    """Every crossing of a row ``h[i] = (y, x0, x1)`` and a vertical
    ``v[j] = (x, y0, y1)`` (rows of ``v`` sorted by x), as a (2, k) array of
    index pairs (i, j), and the number of them on the first ``counted`` rows.

    A row is horizontal, or with ``sloped`` the slope-1 segment from
    (x0, y) to (x1, y + x1 - x0); a zero-length row is a point.
    Candidates are the verticals within ``snap`` of a row's x range, tested
    in blocks of about ``_PAIR_BLOCK`` pairs so memory stays small; pairs
    stop being stored once the count exceeds ``cap``.
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
        if sloped:
            y += np.clip(v[cols, 0], h[rows, 1], h[rows, 2]) - h[rows, 1]
        hit = (v[cols, 1] - snap <= y) & (y <= v[cols, 2] + snap)
        count += int(np.count_nonzero(hit[:np.searchsorted(rows, counted)]))
        if count <= cap:
            found.append(np.stack((rows[hit], cols[hit])))
        i = j
    return np.concatenate(found, axis=1), count


def _splits(h, v, a, iso, snap, cap):
    """Where g2's segments split: at their crossings and isolated points.

    The segments are the horizontals ``h[i] = (y, x0, x1)`` sorted by y,
    the verticals ``v[j] = (x, y0, y1)`` sorted by x and the slope-1 axes
    ``a[k] = (px, py, qx, qy)``, numbered in that order from ``p`` to
    ``q``.  Returns ``(p, q, seg, at)``: segment ``seg[m]`` splits at
    ``at[m]`` of its length, both ends included.  One routine finds every
    split: the horizontals, then the axes and the isolated points ``iso``
    as zero-length rows, against the verticals, then with x and y swapped
    the axes and points against the horizontals.  An axis's interior lies
    in its cell's open interior, so another axis or a point meets it only
    at an end.  Raises ``BudgetExceeded`` when the segment crossings of all
    passes exceed ``cap``; points do not count.
    """
    n_h, n_hv, n = len(h), len(h) + len(v), len(h) + len(v) + len(a)
    p = np.concatenate([h[:, [1, 0]], v[:, [0, 1]], a[:, :2]])
    q = np.concatenate([h[:, [2, 0]], v[:, [0, 2]], a[:, 2:]])
    seg, at, count = [], [], 0
    for rows, r0, cols, c0 in ((h, 0, v, n_h),
                               (np.concatenate([a[:, [1, 0, 2]], iso[:, [1, 0, 0]]]), n_hv, v, n_h),
                               (np.concatenate([a[:, [0, 1, 3]], iso[:, [0, 1, 1]]]), n_hv, h, 0)):
        sloped = rows is not h
        (i, j), crossed = _hv_crossings(rows, cols, snap, cap - count, sloped,
                                        len(a) if sloped else len(h))
        count += crossed
        # the crossing is (x, y) in the pass's frame, on the row
        x, y = cols[j, 0], rows[i, 0]
        if sloped:
            x = np.clip(x, rows[i, 1], rows[i, 2])
            y += x - rows[i, 1]
        for idx, z, lines, first in ((i, x, rows, r0), (j, y, cols, c0)):
            lo, hi = lines[idx, 1], lines[idx, 2]
            keep = hi > lo  # no split along a point or a zero-length line
            seg.append(first + idx[keep])
            at.append(np.clip((z[keep] - lo[keep]) / (hi[keep] - lo[keep]), 0.0, 1.0))
    if count > cap:
        raise BudgetExceeded(count, cap)
    seg = np.concatenate(seg + [np.arange(n), np.arange(n)])
    at = np.concatenate(at + [np.zeros(n), np.ones(n)])
    return p, q, seg, at


def _arrangement(h, v, a, iso, snap, cap):
    """Snap-rounded arrangement of the segments and points of :func:`_splits`.

    Every segment is split at its crossings and at the isolated points on
    it; splits that round to one ``snap`` key are one point.  Returns
    ``(coords, tails, heads, ends, iso_ids)``: the vertices in (x key,
    y key) order, the edges sorted by (tail, head), with the embedding
    ``ends[e] = (tail, head)`` of the first piece between its two vertices,
    and the vertex id of every isolated point.  Every segment runs from p
    to q with p <= q and its splits are sorted along it, so every piece,
    and so every edge, already points right/up.
    Each stage's arrays are released once the next stage holds what it
    needs, so the peak stays a few times the size of the result.  Raises
    ``BudgetExceeded`` when the crossings exceed ``cap``.
    """
    p, q, seg, at = _splits(h, v, a, iso, snap, cap)
    order = np.lexsort((at, seg))
    seg, at = seg[order], at[order]
    del order

    # pieces: consecutive splits along each segment, keeping the first
    # split of each run that shares a snap key
    base = p[seg]
    pts = q[seg]
    pts -= base
    pts *= at[:, None]
    pts += base
    del base, at
    kept = np.empty(len(seg), dtype=bool)
    kept[:1] = True
    np.not_equal(seg[1:], seg[:-1], out=kept[1:])
    for d in (0, 1):
        key = np.rint(pts[:, d] / snap)
        kept[1:] |= key[1:] != key[:-1]
    del key
    seg, pts = seg[kept], pts[kept]
    piece = np.flatnonzero(seg[1:] == seg[:-1])
    del seg

    # every edge end in one array behind the isolated points, so the
    # vertices are numbered over both without a copy
    flat = np.empty((len(iso) + 2 * len(piece), 2))
    flat[:len(iso)] = iso
    ends = flat[len(iso):].reshape(-1, 2, 2)
    ends[:, 0] = pts[piece]
    piece += 1
    ends[:, 1] = pts[piece]
    del pts, piece

    # vertices: one per snap key, numbered in (x key, y key) order; the
    # sort is stable, so each key's first point in flat represents it
    kx, ky = flat[:, 0] / snap, flat[:, 1] / snap
    perm = np.lexsort((np.rint(ky, out=ky), np.rint(kx, out=kx)))
    kx, ky = kx[perm], ky[perm]
    new = np.empty(len(perm), dtype=bool)
    new[0] = True
    new[1:] = (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])
    del kx, ky
    coords = flat[perm[new]]
    vid = np.empty(len(flat), dtype=np.int64)
    vid[perm] = np.cumsum(new) - 1
    del perm, new

    # edges: the first piece of each vertex pair, in (tail, head) order
    n_v = len(coords)
    pair = vid[len(iso)::2] * n_v
    pair += vid[len(iso) + 1::2]
    iso_ids = vid[:len(iso)].copy()
    del vid
    pair, first_edge = np.unique(pair, return_index=True)
    ends = ends[first_edge]
    del flat
    return coords, pair // n_v, pair % n_v, ends, iso_ids


def build_g2(t1: PolygonalCurve, t2: PolygonalCurve, cfg: GraphConfig) -> MonotoneDigraph:
    """Arrangement graph: free-space axes, grid balls, and corner connectors.

    Cell axes are clipped to their cell (antiparallel cells contribute
    nothing); every cell-boundary edge, outer boundary included, gets a
    grid ball at its weight minimizer, or a bare vertex when that weight is
    below the snap; the source/sink connectors exist exactly when the
    corner cells' axes meet their cell, and run along the boundary.  One
    index-range computation (:func:`_ball_lattice`) counts every ball's
    lines for the budget pre-check before any line exists;
    :func:`build_grid_ball` then generates them from the same ranges as
    arrays, and :func:`_merge_lines` unions them and the connectors per
    snap key.  The axes are the only segments that are not axis-parallel,
    all of slope 1.  :func:`_arrangement` splits all segments at once: the
    crossings become vertices, numbered in (x, y) snap-key order, every
    edge points right/up, and all edge weights come from one batched
    closed-form call over the embedded pieces.
    """
    grid = build_cells(t1, t2)
    l1, l2 = grid.extent
    snap = 1e-12 * max(l1, l2)

    axes, iso = [], [(0.0, 0.0), (l1, l2)]
    for col in grid.cells:
        for cell in col:
            ell = _clipped_axis(cell)
            if ell is None:
                continue
            p, q = ell
            if math.hypot(q.x - p.x, q.y - p.y) <= snap:
                iso.append((p.x, p.y))
            else:
                axes.append((p.x, p.y, q.x, q.y))

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
    h, v = build_grid_ball(centers, radius, mesh, bounds)

    # the source and sink connectors, each from its corner to the nearer end
    # of its corner cell's axis, lie on the boundary: _clip_slope1 puts that
    # end exactly on x = 0 or y = 0 at the source, and exactly on x = l1 or
    # y = l2 at the sink; each becomes the ball-line row on the side whose
    # coordinate the end shares with the corner
    for cell, end, (cx, cy) in ((grid.cell(0, 0), 0, (0.0, 0.0)),
                                (grid.cell(grid.n_cols - 1, grid.n_rows - 1), 1, (l1, l2))):
        ell = _clipped_axis(cell)
        if ell is not None and math.dist((cx, cy), ell[end]) > snap:
            x, y = ell[end]
            if abs(x - cx) <= abs(y - cy):
                v = np.vstack((v, (cx, min(y, cy), max(y, cy))))
            else:
                h = np.vstack((h, (cy, min(x, cx), max(x, cx))))
    h, v = _merge_lines(h, snap), _merge_lines(v, snap)

    coords, tails, heads, ends, iso_ids = _arrangement(
        h, v, np.array(axes, dtype=float).reshape(-1, 4), np.array(iso, dtype=float),
        snap, cfg.max_vertices)
    if len(coords) > cfg.max_vertices:
        raise BudgetExceeded(len(coords), cfg.max_vertices)
    weights = segment_weighted_length(grid, ends[:, 0], ends[:, 1])
    del ends
    return MonotoneDigraph(
        xs=coords[:, 0].copy(),
        ys=coords[:, 1].copy(),
        tails=tails,
        heads=heads,
        weights=weights,
        source=int(iso_ids[0]),
        sink=int(iso_ids[1]),
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
    graph_stats = {}
    best = None
    for name in MODES[cfg.mode]:
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
