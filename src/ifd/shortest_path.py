"""Shortest paths: one topological sweep on monotone digraphs and one lattice dynamic program.

Every edge of a monotone digraph points right or up, so the graph is
acyclic: one sweep over a topological order (Kahn's algorithm, a whole
level of vertices at a time, in numpy) settles every distance, and the
path is reconstructed backwards with ties broken toward the smallest
vertex id.  Rectangular lattices (the uniform grid g1, the dense
snapped-grid oracle and the per-cell staircase of
``cell_paths.staircase_fallback_path``) share one weight
generator and one row-by-row dynamic program over right/up(/diagonal)
moves.  Every sweep records the move into each point in a one-byte table
and backtracks over it, so every caller gets the path with the value.
The generator calls one kernel, ``integrals._tile_weights``, per tile of
at most ``_ROW_CHUNK`` rows by ``_COL_CHUNK`` columns inside one cell;
every edge weight is an exact closed form.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curves import PolygonalCurve
from .errors import BudgetExceeded
from .integrals import _tile_weights
from .param_space import ParameterCell, build_cells

_ROW_CHUNK = 64    # lattice rows per weight block
_COL_CHUNK = 256   # lattice columns per kernel tile, so its temporaries stay in cache

__all__ = [
    "PathResult",
    "Adjacency",
    "dijkstra",
    "dense_grid_oracle",
    "snapped_axis",
]


@dataclass(frozen=True)
class PathResult:
    """Distance plus the realizing vertex sequence and its embedding."""

    distance: float
    vertex_ids: tuple
    points: np.ndarray
    kahan_length: float  # compensated re-sum of the path's edge weights

    @property
    def reachable(self) -> bool:
        return math.isfinite(self.distance)


def _kahan_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


class Adjacency(NamedTuple):
    """Compressed sparse rows: vertex ``v``'s out-edges are the slice
    ``indptr[v]:indptr[v + 1]`` of ``indices`` (heads) and ``data`` (weights).

    Edges are sorted by tail, then head, and parallel edges are one edge
    carrying their minimum weight.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)


def adjacency(n: int, tails, heads, weights) -> Adjacency:
    """Sorted, deduplicated :class:`Adjacency` of ``n`` vertices."""
    order = np.lexsort((heads, tails))
    t, h, w = tails[order], heads[order], weights[order]
    if len(t):
        new_group = np.empty(len(t), dtype=bool)
        new_group[0] = True
        new_group[1:] = (np.diff(t) != 0) | (np.diff(h) != 0)
        starts = np.flatnonzero(new_group)
        w = np.minimum.reduceat(w, starts)
        t, h = t[starts], h[starts]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(t, minlength=n), out=indptr[1:])
    return Adjacency(indptr, np.asarray(h, dtype=np.int64), np.asarray(w, dtype=float))


def _sweep_distances(adj: Adjacency, source: int) -> np.ndarray:
    """Distances from ``source`` by Kahn's algorithm, one level of vertices at a time.

    A vertex enters a level once all its in-edges are relaxed, so its
    distance is the minimum of ``dist[tail] + weight`` over its in-edges:
    the floating-point value any label-setting search settles on.  Raises
    ``ValueError`` when the order misses a vertex, which happens exactly
    when the graph has a cycle.
    """
    indptr, heads, weights = adj.indptr, adj.indices, adj.data
    n = len(indptr) - 1
    indeg = np.bincount(heads, minlength=n)
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    level = np.flatnonzero(indeg == 0)
    slot = np.empty(n, dtype=np.int64)
    settled = 0
    while level.size:
        settled += level.size
        lo = indptr[level]
        count = indptr[level + 1] - lo
        ends = np.cumsum(count)
        # ids of every out-edge of the level, row after row
        edge = np.arange(ends[-1]) + np.repeat(lo - ends + count, count)
        h = heads[edge]
        np.minimum.at(dist, h, np.repeat(dist[level], count) + weights[edge])
        np.subtract.at(indeg, h, 1)
        # the next level, each vertex once: of its repeats, only the one
        # whose index stuck in ``slot`` survives
        ready = h[indeg[h] == 0]
        idx = np.arange(len(ready))
        slot[ready] = idx
        level = ready[slot[ready] == idx]
    if settled < n:
        raise ValueError("graph contains a cycle")
    return dist


def dijkstra(graph, source: int | None = None, target: int | None = None) -> PathResult:
    """Exact shortest distance and path on a nonnegative-weight monotone digraph.

    ``source``/``target`` default to the graph's own endpoints.  An
    unreachable target yields an infinite distance and an empty path.  The
    search is one topological sweep (the graph is acyclic), not a priority
    queue; distances equal Dijkstra's bit for bit, and the path walks back
    over in-edges within ``1e-12 * |dist|`` of tight, smallest
    predecessor id first.  A cycle (zero-length edges both ways between
    two vertices at one point) raises ``ValueError``.
    """
    s = graph.source if source is None else source
    t = graph.sink if target is None else target
    adj = graph.csr()
    dist = _sweep_distances(adj, s)
    d = float(dist[t])
    if not math.isfinite(d):
        return PathResult(math.inf, (), np.empty((0, 2)), 0.0)
    # tight in-edges of every reached vertex; edge ids run in (tail, head)
    # order, so the smallest tight edge id into a head is its smallest
    # tight predecessor
    n = len(dist)
    tails = np.repeat(np.arange(n), np.diff(adj.indptr))
    reached = np.flatnonzero(np.isfinite(dist[adj.indices]))
    head = adj.indices[reached]
    slack = dist[tails[reached]] + adj.data[reached] - dist[head]
    tight = slack <= 1e-12 * np.abs(dist[head])
    pred_edge = np.full(n, adj.nnz, dtype=np.int64)
    np.minimum.at(pred_edge, head[tight], reached[tight])
    path = [t]
    weights_used = []
    cur = t
    while cur != s:
        e = pred_edge[cur]
        weights_used.append(float(adj.data[e]))
        cur = int(tails[e])
        path.append(cur)
    path.reverse()
    weights_used.reverse()
    pts = np.column_stack([graph.xs[path], graph.ys[path]])
    return PathResult(d, tuple(path), pts, _kahan_sum(weights_used))


def _axis_steps(cuts, spacing):
    return [max(1, int(math.ceil((hi - lo) / spacing - 1e-12)))
            for lo, hi in zip(cuts[:-1], cuts[1:])]


def axis_size(cuts, spacing: float) -> int:
    """Number of coordinates :func:`snapped_axis` returns, without building them."""
    return 1 + sum(_axis_steps(cuts, spacing))


def snapped_axis(cuts: np.ndarray, spacing: float):
    """Subdivide each interval of ``cuts`` into equal steps no wider than ``spacing``.

    Every cut stays a lattice coordinate.  Returns the coordinate array and
    the index of each cut in it.
    """
    cuts = np.asarray(cuts, dtype=float)
    steps = _axis_steps(cuts, spacing)
    coords = [lo + (hi - lo) * np.arange(m) / m
              for lo, hi, m in zip(cuts[:-1], cuts[1:], steps)]
    coords.append(np.array([cuts[-1]]))
    return np.concatenate(coords), np.concatenate(([0], np.cumsum(steps)))


class Lattice(NamedTuple):
    """Rectangular lattice over parameter space, split into cell blocks.

    ``xs[x_off[i]:x_off[i + 1] + 1]`` spans cell column ``i`` (likewise
    ``ys``/``y_off`` for rows) and ``cell_at(i, j)`` is that block's cell.
    """

    cell_at: Callable[[int, int], ParameterCell]
    xs: np.ndarray
    x_off: np.ndarray
    ys: np.ndarray
    y_off: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.xs) * len(self.ys)

    def n_edges(self, diagonal: bool) -> int:
        nx, ny = len(self.xs), len(self.ys)
        return ny * (nx - 1) + (ny - 1) * nx + (ny - 1) * (nx - 1) * diagonal


def grid_lattice(grid, h: float, max_points: int) -> Lattice:
    """Snapped lattice of mesh ``h`` over the whole grid; counted before it is built."""
    n = axis_size(grid.x_cuts, h) * axis_size(grid.y_cuts, h)
    if n > max_points:
        raise BudgetExceeded(n, max_points)
    xs, x_off = snapped_axis(grid.x_cuts, h)
    ys, y_off = snapped_axis(grid.y_cuts, h)
    return Lattice(grid.cell, xs, x_off, ys, y_off)


def _staircase_lattice(cell: ParameterCell, a, b, k: int) -> Lattice:
    steps = np.arange(k + 1) / k
    ends = np.array([0, k])
    return Lattice(lambda i, j: cell, a[0] + (b[0] - a[0]) * steps, ends,
                   a[1] + (b[1] - a[1]) * steps, ends)


def lattice_weights(lat: Lattice, diagonal: bool):
    """Edge weights of the lattice, ``_ROW_CHUNK`` lattice rows at a time.

    Yields ``(r0, right, up, diag)`` for the strip between rows ``r0`` and
    ``r1 = r0 + len(up)``, all inside one cell row: ``right`` has the
    rightward edges on rows ``r0..r1`` (``r1 - r0 + 1`` rows), ``up`` the
    upward edges from row ``r`` to ``r + 1`` and ``diag`` (``None`` unless
    ``diagonal``) the diagonal ones.  Every weight is an exact closed form
    from one kernel call per tile of at most ``_COL_CHUNK`` columns inside
    the cell holding it.
    """
    xs, x_off, ys, y_off = lat.xs, lat.x_off, lat.ys, lat.y_off
    nx = len(xs)
    for j in range(len(y_off) - 1):
        for r0 in range(y_off[j], y_off[j + 1], _ROW_CHUNK):
            r1 = min(r0 + _ROW_CHUNK, y_off[j + 1])
            right = np.empty((r1 - r0 + 1, nx - 1))
            up = np.empty((r1 - r0, nx))
            diag = np.empty((r1 - r0, nx - 1)) if diagonal else None
            for i in range(len(x_off) - 1):
                cell = lat.cell_at(i, j)
                eta = ys[r0:r1 + 1] - cell.y0
                for a in range(x_off[i], x_off[i + 1], _COL_CHUNK):
                    b = min(a + _COL_CHUNK, x_off[i + 1])
                    w = _tile_weights(cell, xs[a:b + 1] - cell.x0, eta, diagonal)
                    right[:, a:b], up[:, a:b + 1] = w[0], w[1]
                    if diagonal:
                        diag[:, a:b] = w[2]
            yield r0, right, up, diag


# move table entries: bit 0 steps left (x), bit 1 steps down (y)
_LEFT, _UP, _DIAG = 1, 2, 3


def _row_update(prev, up, diag, r, moves, out, best):
    """One DP row into ``out``: enter from below or diagonally, then sweep right.

    ``r`` holds the running sums of the row's rightward weights (0 first)
    and ``best`` is scratch of the row's length.  ``moves`` receives the
    move that reached each point; ties go to the move that enters the row.
    """
    np.add(prev, up, out=out)
    moves[:] = _UP
    if diag is not None:
        via = np.add(prev[:-1], diag, out=best[1:])
        moves[1:][via < out[1:]] = _DIAG
        np.minimum(out[1:], via, out=out[1:])
    entered = np.subtract(out, r, out=out)
    np.minimum.accumulate(entered, out=best)
    moves[best < entered] = _LEFT
    return np.add(r, best, out=out)


def lattice_dp(lat: Lattice, diagonal: bool):
    """Best right/up(/diagonal) path from the first lattice point to the last: (value, points).

    Streams the weights row chunk by row chunk, records the move that
    reached each point in an int8 table (one byte per lattice point) and
    backtracks over it.
    """
    nx = len(lat.xs)
    moves = np.empty((len(lat.ys), nx), dtype=np.int8)
    moves[0] = _LEFT
    prev, out, best = None, np.empty(nx), np.empty(nx)
    sums = np.zeros((_ROW_CHUNK + 1, nx))  # running sums of each row's rightward weights
    for r0, right, up, diag in lattice_weights(lat, diagonal):
        np.cumsum(right, axis=1, out=sums[:len(right), 1:])
        if prev is None:
            prev = sums[0].copy()
        for t in range(len(up)):
            prev, out = _row_update(prev, up[t], None if diag is None else diag[t], sums[t + 1],
                                    moves[r0 + t + 1], out, best), prev
    return float(prev[-1]), _backtrack(lat, moves)


def _backtrack(lat: Lattice, moves) -> np.ndarray:
    r, c = moves.shape[0] - 1, moves.shape[1] - 1
    rows, cols = [r], [c]
    while r or c:
        m = int(moves[r, c])
        c -= m & 1
        r -= m >> 1
        rows.append(r)
        cols.append(c)
    return np.column_stack([lat.xs[cols[::-1]], lat.ys[rows[::-1]]])


def dense_grid_oracle(t1: PolygonalCurve, t2: PolygonalCurve, h: float,
                      max_points: int = 16_000_000) -> float:
    """Best monotone right/up/diagonal lattice path over the snapped grid.

    An upper bound on the integral distance that never increases when the
    lattice is refined by a vertex superset.  Streams the dynamic program
    row by row; beyond one row of distances it keeps the one-byte move
    table of :func:`lattice_dp`.
    """
    return dense_grid_oracle_path(t1, t2, h, max_points)[0]


def dense_grid_oracle_path(t1, t2, h, max_points: int = 8_000_000):
    """(value, path points, lattice) of :func:`dense_grid_oracle`."""
    lat = grid_lattice(build_cells(t1, t2), h, max_points)
    return (*lattice_dp(lat, diagonal=True), lat)
