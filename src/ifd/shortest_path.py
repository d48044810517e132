"""Shortest paths: one topological sweep on monotone digraphs and one lattice dynamic program.

Every edge of a monotone digraph points right or up, so the graph is
acyclic: one sweep over a topological order (Kahn's algorithm, a whole
level of vertices at a time, in numpy) settles every distance.  The sweep
reads the out-edges grouped by tail; parallel edges stay as they are,
since the sweep keeps the least sum over them anyway.  The path is
reconstructed backwards over exactly tight edges: each vertex's
predecessor is the smallest tail id among its tight in-edges.
Rectangular lattices (the uniform grid g1 and the dense snapped-grid
oracle) share one weight generator and one row-by-row dynamic program over
right/up(/diagonal) moves.  Every sweep records the move into each point
in bit planes (one bit per point, two with diagonals) and backtracks over
them, so every caller gets the path with the value.
The generator calls one kernel, ``integrals._tile_weights``, per tile of
at most ``_ROW_CHUNK`` rows by ``_COL_CHUNK`` columns inside one cell;
every edge weight is an exact closed form.  It allocates its weight
strips and the kernel's scratch once per sweep.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .curves import PolygonalCurve
from .errors import BudgetExceeded
from .integrals import _tile_scratch, _tile_weights
from .param_space import ParameterCell, build_cells

_ROW_CHUNK = 64    # lattice rows per weight block
_COL_CHUNK = 256   # lattice columns per kernel tile, so its temporaries stay in cache
_ORACLE_POINTS = 16_000_000  # default lattice budget of the dense oracle
_EDGE_BLOCK = 1 << 16  # edges per block of the graph checks and the predecessor pass

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

    @property
    def reachable(self) -> bool:
        return math.isfinite(self.distance)


class Adjacency(NamedTuple):
    """Compressed sparse rows: vertex ``v``'s out-edges are the slice
    ``indptr[v]:indptr[v + 1]`` of ``indices`` (heads) and ``data`` (weights).

    Edges are grouped by tail and parallel edges stay, each with its own
    weight.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)


def adjacency(n: int, tails, heads, weights) -> Adjacency:
    """:class:`Adjacency` of ``n`` vertices, out-edges grouped by tail.

    Edges already grouped (tails never decrease, as in every g2) are taken
    as they are, without a copy; any others get one stable sort by tail.
    """
    if np.any(tails[1:] < tails[:-1]):
        order = np.argsort(tails, kind="stable")
        tails, heads, weights = tails[order], heads[order], weights[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return Adjacency(indptr, np.asarray(heads, dtype=np.int64), np.asarray(weights, dtype=float))


def _sweep_distances(adj: Adjacency, source: int) -> np.ndarray:
    """Distances from ``source`` by Kahn's algorithm, one level of vertices at a time.

    A vertex enters a level once all its in-edges, parallel ones included,
    are relaxed, so its distance is the minimum of ``dist[tail] + weight``
    over its in-edges: the floating-point value any label-setting search
    settles on.  Raises ``ValueError`` when the order misses a vertex,
    which happens exactly when the graph has a cycle.
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
    queue; distances equal Dijkstra's bit for bit.  Every reached vertex
    takes as predecessor the smallest tail among its exactly tight in-edges
    (``dist[tail] + w == dist[head]``; the sweep stored one of these very
    sums), read from the graph's own ``tails``, ``heads`` and ``weights``;
    a parallel edge counts like any other.  The path follows these
    predecessors back from the target, so its edge weights summed from the
    source reproduce ``distance`` exactly.  A cycle (zero-length edges both
    ways between two vertices at one point) raises ``ValueError``.
    """
    s = graph.source if source is None else source
    t = graph.sink if target is None else target
    adj = graph.csr()
    dist = _sweep_distances(adj, s)
    d = float(dist[t])
    if not math.isfinite(d):
        return PathResult(math.inf, (), np.empty((0, 2)))
    # the smallest tail of an exactly tight in-edge of every reached
    # vertex, over the graph's own edges in blocks of _EDGE_BLOCK; an
    # unreached head is skipped, since inf + w == inf would look tight
    pred = np.full(len(dist), len(dist), dtype=np.int64)
    for e in range(0, graph.n_edges, _EDGE_BLOCK):
        tails, heads = graph.tails[e:e + _EDGE_BLOCK], graph.heads[e:e + _EDGE_BLOCK]
        at_head = dist[heads]
        tight = np.isfinite(at_head) & (dist[tails] + graph.weights[e:e + _EDGE_BLOCK] == at_head)
        np.minimum.at(pred, heads[tight], tails[tight])
    path = [t]
    cur = t
    while cur != s:
        cur = int(pred[cur])
        path.append(cur)
    path.reverse()
    pts = np.column_stack([graph.xs[path], graph.ys[path]])
    return PathResult(d, tuple(path), pts)


def _check_count(name: str, value) -> None:
    """``ValueError`` unless ``value`` is a positive integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _axis_steps(cuts, spacing):
    """Steps per interval of ``cuts`` at ``spacing``; ``ValueError`` unless the spacing is positive and finite."""
    if not 0.0 < spacing < math.inf:  # NaN fails too
        raise ValueError(f"lattice spacing must be positive and finite, got {spacing!r}")
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
    """Snapped lattice of mesh ``h`` over the whole grid; counted before it is built.

    ``max_points`` must be a positive integer (``ValueError``); a larger
    count raises :class:`BudgetExceeded`.
    """
    _check_count("max_points", max_points)
    n = axis_size(grid.x_cuts, h) * axis_size(grid.y_cuts, h)
    if n > max_points:
        raise BudgetExceeded(n, max_points)
    xs, x_off = snapped_axis(grid.x_cuts, h)
    ys, y_off = snapped_axis(grid.y_cuts, h)
    return Lattice(grid.cell, xs, x_off, ys, y_off)


def lattice_weights(lat: Lattice, diagonal: bool):
    """Edge weights of the lattice, ``_ROW_CHUNK`` lattice rows at a time.

    Yields ``(r0, right, up, diag)`` for the strip between rows ``r0`` and
    ``r1 = r0 + len(up)``, all inside one cell row: ``right`` has the
    rightward edges on rows ``r0..r1`` (``r1 - r0 + 1`` rows), ``up`` the
    upward edges from row ``r`` to ``r + 1`` and ``diag`` (``None`` unless
    ``diagonal``) the diagonal ones.  Every weight is an exact closed form
    from one kernel call per tile of at most ``_COL_CHUNK`` columns inside
    the cell holding it.  The strips and the kernel's scratch are allocated
    once per sweep, so a yielded strip stays valid only until the next
    step: copy what must outlive it.
    """
    xs, x_off, ys, y_off = lat.xs, lat.x_off, lat.ys, lat.y_off
    nx = len(xs)
    rows = min(_ROW_CHUNK, int(np.diff(y_off).max()))
    cols = min(_COL_CHUNK, int(np.diff(x_off).max()))
    scratch = _tile_scratch(rows + 1, cols + 1)
    right_rows = np.empty((rows + 1, nx - 1))
    up_rows = np.empty((rows, nx))
    diag_rows = np.empty((rows, nx - 1)) if diagonal else None
    for j in range(len(y_off) - 1):
        for r0 in range(y_off[j], y_off[j + 1], _ROW_CHUNK):
            r1 = min(r0 + _ROW_CHUNK, y_off[j + 1])
            right, up = right_rows[:r1 - r0 + 1], up_rows[:r1 - r0]
            diag = diag_rows[:r1 - r0] if diagonal else None
            for i in range(len(x_off) - 1):
                cell = lat.cell_at(i, j)
                eta = ys[r0:r1 + 1] - cell.y0
                for a in range(x_off[i], x_off[i + 1], _COL_CHUNK):
                    b = min(a + _COL_CHUNK, x_off[i + 1])
                    tile = (right[:, a:b], up[:, a:b + 1], diag[:, a:b] if diagonal else None)
                    _tile_weights(cell, xs[a:b + 1] - cell.x0, eta, diagonal, tile, scratch)
            yield r0, right, up, diag


def _row_update(prev, up, diag, r, moves, out, best):
    """One DP row into ``out``: enter from below or diagonally, then sweep right.

    ``r`` holds the running sums of the row's rightward weights (0 first)
    and ``best`` is scratch of the row's length.  ``moves[0]`` receives
    whether each point is entered from the left and, with diagonals,
    ``moves[1, 1:]`` whether the diagonal beat the vertical; ties go to the
    move that enters the row, and a left entry overrides the other two.
    """
    np.add(prev, up, out=out)
    if diag is not None:
        via = np.add(prev[:-1], diag, out=best[1:])
        np.less(via, out[1:], out=moves[1, 1:])
        np.minimum(out[1:], via, out=out[1:])
    entered = np.subtract(out, r, out=out)
    np.minimum.accumulate(entered, out=best)
    np.less(best, entered, out=moves[0])
    return np.add(r, best, out=out)


def lattice_dp(lat: Lattice, diagonal: bool):
    """Best right/up(/diagonal) path from the first lattice point to the last: (value, points).

    Streams the weights row chunk by row chunk and records the move that
    reached each point in bit planes, packed one row chunk at a time: one
    bit per lattice point for "entered from the left" and, with diagonals,
    a second for "diagonal beat vertical".  Then it backtracks over them.
    """
    nx = len(lat.xs)
    planes = np.zeros((len(lat.ys), 1 + diagonal, (nx + 7) // 8), dtype=np.uint8)
    planes[0, 0] = np.packbits(np.ones(nx, dtype=bool))  # the first row is entered from the left
    moves = np.zeros((_ROW_CHUNK, 1 + diagonal, nx), dtype=bool)  # no diagonal enters column 0
    prev, out, best = None, np.empty(nx), np.empty(nx)
    sums = np.zeros((_ROW_CHUNK + 1, nx))  # running sums of each row's rightward weights
    for r0, right, up, diag in lattice_weights(lat, diagonal):
        np.cumsum(right, axis=1, out=sums[:len(right), 1:])
        if prev is None:
            prev = sums[0].copy()
        for t in range(len(up)):
            prev, out = _row_update(prev, up[t], None if diag is None else diag[t], sums[t + 1],
                                    moves[t], out, best), prev
        planes[r0 + 1:r0 + 1 + len(up)] = np.packbits(moves[:len(up)], axis=2)
    return float(prev[-1]), _backtrack(lat, planes)


def _backtrack(lat: Lattice, planes) -> np.ndarray:
    """Walk back from the last lattice point: left where that bit is set,
    else diagonally where that bit is set, else up."""
    _, k, width = planes.shape
    bits = memoryview(planes.reshape(-1))
    r, c = planes.shape[0] - 1, len(lat.xs) - 1
    rows, cols = [r], [c]
    while r or c:
        at, shift = r * k * width + (c >> 3), 7 - (c & 7)
        if bits[at] >> shift & 1:
            c -= 1
        else:
            if k > 1 and bits[at + width] >> shift & 1:
                c -= 1
            r -= 1
        rows.append(r)
        cols.append(c)
    return np.column_stack([lat.xs[cols[::-1]], lat.ys[rows[::-1]]])


def dense_grid_oracle(t1: PolygonalCurve, t2: PolygonalCurve, h: float,
                      max_points: int = _ORACLE_POINTS) -> float:
    """Best monotone right/up/diagonal lattice path over the snapped grid.

    An upper bound on the integral distance that never increases when the
    lattice is refined by a vertex superset.  Streams the dynamic program
    row by row; beyond one row of distances it keeps the move bit planes
    of :func:`lattice_dp`, two bits per lattice point.
    """
    return dense_grid_oracle_path(t1, t2, h, max_points)[0]


def dense_grid_oracle_path(t1, t2, h, max_points: int = _ORACLE_POINTS):
    """(value, path points, lattice) of :func:`dense_grid_oracle`."""
    lat = grid_lattice(build_cells(t1, t2), h, max_points)
    return (*lattice_dp(lat, diagonal=True), lat)
