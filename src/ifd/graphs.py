"""The two approximation graphs over parameter space.

Graph ``g1`` is a uniform monotone grid whose mesh shrinks with epsilon and
the smallest segment length; it wins whenever the optimal path spends
weight above that scale.  Graph ``g2`` is the arrangement of all monotone
free-space axes, axis-aligned lattices ("grid balls") around the
weight minimizers of the cell-boundary edges, and two diagonal connectors
at the corners; it covers the regime where the optimal path hugs the axes.
Shortest paths on both are exact upper bounds on the integral distance,
and their minimum is the reported approximation.
"""

import math
from array import array
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
# kernels are imported only for it, and _search_g2 calls dijkstra through
# this module's global so that the wrapped search is the one that runs
from .integrals import horizontal_strip_weights, vertical_strip_weights  # noqa: F401
from .matching import MonotonePath
from .param_space import ParameterPoint, build_cells, edge_min, free_space_axes
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

_DEGENERATE_W = 1e-12  # edge minimizers below this get a bare vertex, no ball
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
    label: str = ""
    # set by builders whose construction proves monotonicity structurally
    prevalidated: bool = field(default=False, repr=False, compare=False)
    _csr: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.prevalidated:
            self.validate_monotone()

    @property
    def n_vertices(self) -> int:
        return len(self.xs)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def point(self, i: int) -> ParameterPoint:
        return ParameterPoint(float(self.xs[i]), float(self.ys[i]))

    def validate_monotone(self, tol: float = 1e-9):
        if self.n_edges == 0:
            return
        dx = self.xs[self.heads] - self.xs[self.tails]
        dy = self.ys[self.heads] - self.ys[self.tails]
        if float(min(dx.min(), dy.min())) < -tol:
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
    # every edge steps +1 in x or +1 in y along sorted axes, so checking the
    # axes and the weight sign covers 100% of the edges
    assert np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)
    assert float(weights.min()) >= 0.0
    return MonotoneDigraph(
        xs=np.tile(xs, ny),
        ys=np.repeat(ys, nx),
        tails=tails,
        heads=heads,
        weights=weights,
        source=0,
        sink=nx * ny - 1,
        label="g1",
        prevalidated=True,
    )


def build_grid_ball(center, radius: float, mesh: float, bounds):
    """Axis-aligned lattice filling the L-infinity ball around ``center``.

    Returns ``('h'|'v', fixed, lo, hi)`` tuples clipped to the parameter
    rectangle ``bounds``; the boundary lines of the square are included.
    """
    if radius <= 0.0 or mesh <= 0.0:
        raise DegenerateBall(f"radius {radius!r} / mesh {mesh!r}")
    l1, l2 = bounds
    cx, cy = float(center[0]), float(center[1])
    k = max(1, int(math.ceil(2.0 * radius / mesh - 1e-9)))
    step = 2.0 * radius / k
    xlo, xhi = max(cx - radius, 0.0), min(cx + radius, l1)
    ylo, yhi = max(cy - radius, 0.0), min(cy + radius, l2)
    segs = []
    if xhi > xlo:
        for t in range(k + 1):
            y = cy - radius + t * step
            if -1e-12 <= y <= l2 + 1e-12:
                segs.append(("h", min(max(y, 0.0), l2), xlo, xhi))
    if yhi > ylo:
        for t in range(k + 1):
            x = cx - radius + t * step
            if -1e-12 <= x <= l1 + 1e-12:
                segs.append(("v", min(max(x, 0.0), l1), ylo, yhi))
    return segs


def _ball_line_estimate(center, radius, mesh, bounds):
    """(horizontal, vertical) lattice-line counts surviving the clip to bounds."""
    if radius <= 0 or mesh <= 0:
        return 0, 0
    k = max(1, int(math.ceil(2.0 * radius / mesh - 1e-9)))
    step = 2.0 * radius / k
    counts = []
    for coord, hi in ((center[1], bounds[1]), (center[0], bounds[0])):
        lo_t = (0.0 - (coord - radius)) / step
        hi_t = (hi - (coord - radius)) / step
        lo_i = max(0, int(math.ceil(lo_t - 1e-9)))
        hi_i = min(k, int(math.floor(hi_t + 1e-9)))
        counts.append(max(0, hi_i - lo_i + 1))
    return counts[0], counts[1]


def _merge_lines(raw, snap):
    """Union collinear intervals: raw (fixed, lo, hi) -> maximal segments."""
    groups = {}
    for fixed, lo, hi in raw:
        groups.setdefault(round(fixed / snap), []).append((fixed, lo, hi))
    merged = []
    for key in sorted(groups):
        items = sorted(groups[key], key=lambda t: t[1])
        fixed = items[0][0]
        cur_lo, cur_hi = items[0][1], items[0][2]
        for _, lo, hi in items[1:]:
            if lo <= cur_hi + snap:
                cur_hi = max(cur_hi, hi)
            else:
                merged.append((fixed, cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        merged.append((fixed, cur_lo, cur_hi))
    return merged


def _seg_intersections(p, q, a, b, tol):
    """Intersection parameters of two closed segments; handles collinear overlap."""
    rx, ry = q[0] - p[0], q[1] - p[1]
    sx, sy = b[0] - a[0], b[1] - a[1]
    rxs = rx * sy - ry * sx
    dx, dy = a[0] - p[0], a[1] - p[1]
    rlen = math.hypot(rx, ry)
    slen = math.hypot(sx, sy)
    out = []
    if abs(rxs) <= 1e-14 * max(rlen * slen, 1e-300):
        if abs(dx * ry - dy * rx) > tol * max(rlen, 1.0):
            return out
        rr = rx * rx + ry * ry
        ss = sx * sx + sy * sy
        for pt, t2 in ((a, 0.0), (b, 1.0)):
            if rr > 0:
                t1 = ((pt[0] - p[0]) * rx + (pt[1] - p[1]) * ry) / rr
                if -1e-9 <= t1 <= 1 + 1e-9:
                    out.append((min(max(t1, 0.0), 1.0), t2))
        for pt, t1 in ((p, 0.0), (q, 1.0)):
            if ss > 0:
                t2 = ((pt[0] - a[0]) * sx + (pt[1] - a[1]) * sy) / ss
                if -1e-9 <= t2 <= 1 + 1e-9:
                    out.append((t1, min(max(t2, 0.0), 1.0)))
        return out
    t1 = (dx * sy - dy * sx) / rxs
    t2 = (dx * ry - dy * rx) / rxs
    e1 = tol / max(rlen, tol)
    e2 = tol / max(slen, tol)
    if -e1 <= t1 <= 1 + e1 and -e2 <= t2 <= 1 + e2:
        out.append((min(max(t1, 0.0), 1.0), min(max(t2, 0.0), 1.0)))
    return out


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


def _add_splits(segs, idx, at, lo, hi):
    """Split ``segs[idx[k]]``, spanning ``lo[k]..hi[k]``, at ``at[k]``."""
    keep = hi > lo
    along = np.clip((at[keep] - lo[keep]) / (hi[keep] - lo[keep]), 0.0, 1.0)
    for i, t in zip(idx[keep].tolist(), along.tolist()):
        segs[i]["splits"].add(t)


class _Arrangement:
    """Snap-rounded arrangement of axis-aligned and monotone segments.

    Horizontal-vertical crossings (the bulk) are found by bucketing the
    vertical segments on x, all at once in numpy; the few general segments
    fall back to pairwise tests.  Distinct horizontals (resp. verticals)
    never intersect because collinear ones were merged beforehand.
    """

    def __init__(self, snap):
        self.snap = snap
        self.segs = []       # dicts: kind, p, q, splits(set of params)
        self.points = []     # isolated points that must also split segments

    def add_seg(self, p, q, kind):
        self.segs.append({
            "kind": kind,
            "p": (float(p[0]), float(p[1])),
            "q": (float(q[0]), float(q[1])),
            "splits": set(),
        })

    def add_point(self, p):
        self.points.append((float(p[0]), float(p[1])))

    def key(self, pt):
        return (round(pt[0] / self.snap), round(pt[1] / self.snap))

    def run(self, crossing_cap):
        """Split every segment at its crossings.

        Raises ``BudgetExceeded`` with the number of crossings when it
        exceeds ``crossing_cap``; horizontal-vertical crossings are counted
        before any split is stored.
        """
        snap = self.snap
        hs = [s for s in self.segs if s["kind"] == "h"]
        vs = sorted((s for s in self.segs if s["kind"] == "v"), key=lambda s: s["p"][0])
        h = np.array([(s["p"][1], s["p"][0], s["q"][0]) for s in hs]).reshape(-1, 3)
        v = np.array([(s["p"][0], s["p"][1], s["q"][1]) for s in vs]).reshape(-1, 3)
        rows, cols = _hv_crossings(h, v, snap, crossing_cap)
        _add_splits(hs, rows, v[cols, 0], h[rows, 1], h[rows, 2])
        _add_splits(vs, cols, h[rows, 0], v[cols, 1], v[cols, 2])
        count = len(rows)
        for so in self.segs:
            if so["kind"] != "o":
                continue
            for sj in self.segs:
                if sj is so:
                    continue
                hits = _seg_intersections(so["p"], so["q"], sj["p"], sj["q"], snap)
                for t1, t2 in hits:
                    so["splits"].add(t1)
                    sj["splits"].add(t2)
                count += len(hits)
        if count > crossing_cap:
            raise BudgetExceeded(count, crossing_cap)
        for pt in self.points:
            for s in self.segs:
                for t1, _ in _seg_intersections(s["p"], s["q"], pt, pt, snap):
                    s["splits"].add(t1)

    def pieces(self):
        for s in self.segs:
            p, q = s["p"], s["q"]
            params = sorted(s["splits"] | {0.0, 1.0})
            prev = None
            for t in params:
                pt = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
                if prev is None:
                    prev = pt
                elif self.key(prev) != self.key(pt):
                    yield prev, pt
                    prev = pt


def build_g2(t1: PolygonalCurve, t2: PolygonalCurve, cfg: GraphConfig) -> MonotoneDigraph:
    """Arrangement graph: free-space axes, grid balls, and corner connectors.

    Cell axes are clipped to their cell (antiparallel cells contribute
    nothing); every cell-boundary edge, outer boundary included, gets a
    grid ball at its weight minimizer; the source/sink connectors exist
    exactly when the corner cells' axes meet their cell.  All pairwise
    intersections become vertices, every edge points right/up, and all
    edge weights come from one batched closed-form call over the embedded
    pieces.
    """
    grid = build_cells(t1, t2)
    l1, l2 = grid.extent
    snap = 1e-12 * max(l1, l2)

    h_raw, v_raw, diag_segs, iso = [], [], [], []
    iso.append((0.0, 0.0))
    iso.append((l1, l2))

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

    projected_lines = 0
    projected_internal = 0
    balls = []
    for edge in grid.edges():
        u, w = edge_min(grid, edge)
        if w < _DEGENERATE_W:
            iso.append((u.x, u.y))
            continue
        radius = cfg.c_radius * w
        mesh = cfg.epsilon * w / cfg.c_mesh
        nh, nv = _ball_line_estimate(u, radius, mesh, (l1, l2))
        projected_lines += nh + nv
        # a ball's own lattice crossings alone are that many vertices
        projected_internal += nh * nv
        balls.append((u, radius, mesh))
    # ball lattices dominate the crossing count; reject hopeless inputs
    # before materializing anything (the arrangement pass enforces the
    # exact budget)
    if projected_internal > 2 * cfg.max_vertices:
        raise BudgetExceeded(projected_internal, cfg.max_vertices)
    if (projected_lines // 2 + 1) ** 2 > 8 * cfg.max_vertices:
        raise BudgetExceeded((projected_lines // 2 + 1) ** 2, cfg.max_vertices)
    for u, radius, mesh in balls:
        try:
            for kind, fixed, lo, hi in build_grid_ball(u, radius, mesh, (l1, l2)):
                (h_raw if kind == "h" else v_raw).append((fixed, lo, hi))
        except DegenerateBall:
            iso.append((u.x, u.y))

    conn_segs = []
    s_cell = grid.cell(0, 0)
    if s_cell.kind != "antiparallel":
        ell = free_space_axes(s_cell).ell
        if ell is not None:
            c_s = ell[0]
            if math.hypot(c_s.x, c_s.y) > snap:
                conn_segs.append(((0.0, 0.0), c_s))
    t_cell = grid.cell(grid.n_cols - 1, grid.n_rows - 1)
    if t_cell.kind != "antiparallel":
        ell = free_space_axes(t_cell).ell
        if ell is not None:
            c_t = ell[1]
            if math.hypot(l1 - c_t.x, l2 - c_t.y) > snap:
                conn_segs.append((c_t, (l1, l2)))

    arr = _Arrangement(snap)
    for fixed, lo, hi in _merge_lines(h_raw, snap):
        arr.add_seg((lo, fixed), (hi, fixed), "h")
    for fixed, lo, hi in _merge_lines(v_raw, snap):
        arr.add_seg((fixed, lo), (fixed, hi), "v")
    for p, q in diag_segs:
        arr.add_seg(p, q, "o")
    for p, q in conn_segs:
        arr.add_seg(p, q, "o")
    for pt in iso:
        arr.add_point(pt)
    arr.run(crossing_cap=cfg.max_vertices)

    vid = {}
    coords = []

    def vertex(pt):
        key = arr.key(pt)
        if key not in vid:
            vid[key] = len(coords)
            coords.append(pt)
        return vid[key]

    for pt in iso:
        vertex(pt)
    edges = {}  # (tail, head) -> None, in insertion order; the first piece wins
    embed = array("d")  # x, y of each edge's tail, then of its head
    for p, q in arr.pieces():
        if (q[0], q[1]) < (p[0], p[1]):
            p, q = q, p
        ia, ib = vertex(p), vertex(q)
        if ia == ib or (ia, ib) in edges:
            continue
        edges[(ia, ib)] = None
        embed.extend((*p, *q))
    if len(vid) > cfg.max_vertices:
        raise BudgetExceeded(len(vid), cfg.max_vertices)

    pts = np.asarray(coords) if coords else np.empty((0, 2))
    tails = np.fromiter((k[0] for k in edges), dtype=np.int64, count=len(edges))
    heads = np.fromiter((k[1] for k in edges), dtype=np.int64, count=len(edges))
    embed = np.frombuffer(embed, dtype=float).reshape(-1, 4)
    return MonotoneDigraph(
        xs=pts[:, 0].copy(),
        ys=pts[:, 1].copy(),
        tails=tails,
        heads=heads,
        weights=segment_weighted_length(grid, embed[:, :2], embed[:, 2:]),
        source=vid[arr.key((0.0, 0.0))],
        sink=vid[arr.key((l1, l2))],
        label="g2",
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
    h = math.sqrt(max(l1 * l2, 1e-30) / budget)
    for _ in range(200):
        n = axis_size(grid.x_cuts, h) * axis_size(grid.y_cuts, h)
        if n <= budget:
            return h
        h *= 1.25
    raise BudgetExceeded(n, budget)


def _search_g1(t1, t2, cfg):
    """g1's shortest path by a sweep over its lattice; no graph is built."""
    lat = grid_lattice(build_cells(t1, t2), _g1_mesh(t1, t2, cfg), cfg.max_vertices)
    value, pts = lattice_dp(lat, diagonal=False, path=True)
    return value, pts, lat.n_points, lat.n_edges(diagonal=False)


def _search_g2(t1, t2, cfg):
    g = build_g2(t1, t2, cfg)
    res = dijkstra(g)
    return res.distance, res.points, g.n_vertices, g.n_edges


def approximate_integral_frechet(t1: PolygonalCurve, t2: PolygonalCurve,
                                 cfg: GraphConfig) -> ApproxResult:
    """Approximate the integral distance and return the realizing matching.

    Runs the shortest-path search on each graph requested by ``cfg.mode``
    (a lattice sweep for g1, a topological sweep of the built arrangement
    for g2) and keeps the minimum; the value is always an upper bound on
    the true distance because every graph path is a feasible monotone
    matching.
    ``mode='oracle'`` runs the dense lattice, diagonals included, instead.
    """
    total_len = t1.length + t2.length
    graph_stats = {}
    if cfg.mode == "oracle":
        h = _affordable_mesh(t1, t2, cfg.max_vertices)
        value, pts, lat = dense_grid_oracle_path(t1, t2, h, max_points=cfg.max_vertices)
        graph_stats["oracle"] = {
            "status": "ok",
            "mesh": h,
            "vertices": lat.n_points,
            "edges": lat.n_edges(diagonal=True),
            "distance": value,
        }
        return ApproxResult(
            value=value,
            average=value / total_len,
            winning_mode="oracle",
            path=MonotonePath.from_points(pts),
            graph_stats=graph_stats,
        )

    wanted = ("g1", "g2") if cfg.mode == "both" else (cfg.mode,)
    searches = {"g1": _search_g1, "g2": _search_g2}
    best = None
    saw_budget = False
    for name in wanted:
        try:
            distance, pts, n_vertices, n_edges = searches[name](t1, t2, cfg)
        except BudgetExceeded as exc:
            graph_stats[name] = {
                "status": "budget_exceeded",
                "projected_vertices": exc.projected,
                "vertices": 0,
                "edges": 0,
                "distance": None,
            }
            saw_budget = True
            continue
        reachable = math.isfinite(distance)
        graph_stats[name] = {
            "status": "ok" if reachable else "disconnected",
            "vertices": n_vertices,
            "edges": n_edges,
            "distance": distance if reachable else None,
        }
        if reachable and (best is None or distance < best[0]):
            best = (distance, name, pts)
    if best is None:
        if saw_budget and all(
            st["status"] == "budget_exceeded" for st in graph_stats.values()
        ):
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
        average=value / total_len,
        winning_mode=name,
        path=MonotonePath.from_points(pts),
        graph_stats=graph_stats,
    )
