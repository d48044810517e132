"""Shortest weighted monotone paths inside one cell, and per-cell similarity profiles.

The in-cell optimum between dominated points a and b hugs the cell's
monotone axis: enter the axis where it first meets the rectangle spanned
by a and b, ride it as far as possible, leave for b.  When the axis misses
the rectangle, the optimum bends around the rectangle corner closest to
the axis.  The path follows from this geometry alone; weights only report
its cost, so :func:`cell_shortest_path` weighs what the vertex helper
finds and the substitution sweeps in ``matching`` call the helper
unweighed.  The same path is simultaneously optimal for the partial
similarity at every threshold, which is what the profile type captures.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AntiparallelCell, NotMonotone
from .integrals import _A_EPS, piece_quadratics, piece_weights
from .param_space import (
    CellGrid,
    GridEdge,
    ParameterCell,
    ParameterPoint,
    dominates,
    free_space_axes,
)
from .shortest_path import _staircase_lattice, lattice_dp

__all__ = [
    "CellPath",
    "SimilarityProfile",
    "cell_shortest_path",
    "two_cell_path",
    "partial_similarity_profile",
    "staircase_fallback_path",
]


@dataclass(frozen=True)
class CellPath:
    """Monotone polyline within one cell (or two, for edge crossings)."""

    vertices: tuple
    branch: str  # 'through_axis' | 'around_corner' | 'degenerate_fallback'
    weighted_length: float
    cells: tuple


def _dedupe(points, tol=1e-15):
    out = [points[0]]
    for p in points[1:]:
        if abs(p[0] - out[-1][0]) > tol or abs(p[1] - out[-1][1]) > tol:
            out.append(p)
    if len(out) == 1 and len(points) > 1:
        out.append(points[-1])
    return tuple(out)


def _polyline_length(cell, points):
    return float(piece_weights(cell, points[:-1], points[1:]).sum())


def _shortest_vertices(cell: ParameterCell, a, b):
    """(vertices, branch) of the shortest monotone path from a to b inside one cell.

    Pure geometry, no weights.  The dominance check and the vertex dedupe
    are relative to ``max(|x1|, |y1|)`` of the cell, so the path scales
    with the curves.
    """
    a = ParameterPoint(float(a[0]), float(a[1]))
    b = ParameterPoint(float(b[0]), float(b[1]))
    scale = max(abs(cell.x1), abs(cell.y1))
    if not dominates(a, b, tol=1e-12 * scale):
        raise NotMonotone(f"{a} does not dominate {b}")
    if cell.kind == "antiparallel":
        raise AntiparallelCell(f"cell ({cell.i},{cell.j}) is antiparallel")
    k = cell.axis_intercept
    # axis line y = x + k against the rectangle spanned by a and b
    lo = max(a.x, a.y - k)
    hi = min(b.x, b.y - k)
    if lo <= hi:
        c1 = ParameterPoint(lo, lo + k)
        c2 = ParameterPoint(hi, hi + k)
        return _dedupe([a, c1, c2, b], 1e-15 * scale), "through_axis"
    if k > b.y - a.x:
        corner = ParameterPoint(a.x, b.y)  # axis passes above-left
    else:
        corner = ParameterPoint(b.x, a.y)  # axis passes below-right
    return _dedupe([a, corner, b], 1e-15 * scale), "around_corner"


def cell_shortest_path(cell: ParameterCell, a, b) -> CellPath:
    """Shortest weighted monotone path from a to b inside one cell, with its weight.

    Requires ``a <= b`` in the dominance order.  Raises
    :class:`AntiparallelCell` when the cell has no monotone axis; callers
    fall back to :func:`staircase_fallback_path`.
    """
    verts, branch = _shortest_vertices(cell, a, b)
    return CellPath(
        vertices=verts,
        branch=branch,
        weighted_length=_polyline_length(cell, verts),
        cells=(cell,),
    )


def staircase_fallback_path(cell: ParameterCell, a, b, k: int = 256) -> CellPath:
    """Best right/up/diagonal path over the k x k lattice spanned by a and b.

    Used where no monotone axis exists, and as the brute-force reference
    for :func:`cell_shortest_path`.  Raises ``ValueError`` when k < 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    value, points = lattice_dp(_staircase_lattice(cell, a, b, k), diagonal=True)
    return CellPath(
        vertices=_dedupe([ParameterPoint(*p) for p in points]),
        branch="degenerate_fallback",
        weighted_length=value,
        cells=(cell,),
    )


def two_cell_path(o, p, edge: GridEdge, grid: CellGrid) -> CellPath:
    """Shortest path between on-axis points of two cells sharing ``edge``.

    When both clipped axes end on the shared edge in dominance order the
    path rides one axis, runs along the edge, and rides the other.
    Otherwise the crossing point on the edge is found by ternary search
    (with a 64-point scan to bracket the minimum first) over the exact
    per-side in-cell optima, which makes the middle piece cross the edge
    perpendicularly.  The tolerances are relative to the parameter
    extent, so the path scales with the curves.
    """
    o = ParameterPoint(float(o[0]), float(o[1]))
    p = ParameterPoint(float(p[0]), float(p[1]))
    scale = max(grid.extent)
    tol = 1e-15 * scale  # vertex dedupe
    if not dominates(o, p, tol=1e-12 * scale):
        raise NotMonotone(f"{o} does not dominate {p}")
    mid = 0.5 * (edge.lo + edge.hi)
    if edge.vertical:
        i_lo, _ = grid.locate(edge.fixed, mid, prefer_lower=True)
        cell_o = grid.cell(i_lo, edge.span_index)
        cell_p = grid.cell(min(i_lo + 1, grid.n_cols - 1), edge.span_index)
    else:
        _, j_lo = grid.locate(mid, edge.fixed, prefer_lower=True)
        cell_o = grid.cell(edge.span_index, j_lo)
        cell_p = grid.cell(edge.span_index, min(j_lo + 1, grid.n_rows - 1))
    if cell_o.kind == "antiparallel" or cell_p.kind == "antiparallel":
        raise AntiparallelCell("two-cell crossing touches an antiparallel cell")

    ell_o = free_space_axes(cell_o).ell
    ell_p = free_space_axes(cell_p).ell

    def on_edge(q):
        return abs((q.x if edge.vertical else q.y) - edge.fixed) <= 1e-9 * scale

    if ell_o is not None and ell_p is not None:
        c_o = ell_o[1]  # top-right endpoint of the first cell's clipped axis
        c_p = ell_p[0]  # bottom-left endpoint of the second cell's clipped axis
        if on_edge(c_o) and on_edge(c_p) and dominates(c_o, c_p, tol=1e-12 * scale):
            verts = _dedupe([o, c_o, c_p, p], tol)
            # the piece along the shared edge evaluates identically in either cell
            length = (
                _polyline_length(cell_o, _dedupe([o, c_o], tol))
                + _polyline_length(cell_o, [c_o, c_p])
                + _polyline_length(cell_p, _dedupe([c_p, p], tol))
            )
            return CellPath(vertices=verts, branch="through_axis",
                            weighted_length=length, cells=(cell_o, cell_p))

    # crossing-point search along the shared edge
    if edge.vertical:
        w_lo, w_hi = o.y, p.y
        mk = lambda w: ParameterPoint(edge.fixed, w)
    else:
        w_lo, w_hi = o.x, p.x
        mk = lambda w: ParameterPoint(w, edge.fixed)
    w_lo = max(w_lo, edge.lo)
    w_hi = min(w_hi, edge.hi)
    if w_hi < w_lo:
        w_lo = w_hi = min(max(w_lo, edge.lo), edge.hi)

    def cost(w):
        z = mk(w)
        return (
            cell_shortest_path(cell_o, o, z).weighted_length
            + cell_shortest_path(cell_p, z, p).weighted_length
        )

    span = w_hi - w_lo
    if span <= 0.0:
        best = w_lo
    else:
        scan = np.linspace(w_lo, w_hi, 64)
        vals = [cost(w) for w in scan]
        idx = int(np.argmin(vals))
        lo = scan[max(idx - 1, 0)]
        hi = scan[min(idx + 1, len(scan) - 1)]
        while hi - lo > 1e-12 * span:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if cost(m1) <= cost(m2):
                hi = m2
            else:
                lo = m1
        best = 0.5 * (lo + hi)
    z = mk(best)
    left = cell_shortest_path(cell_o, o, z)
    right = cell_shortest_path(cell_p, z, p)
    verts = _dedupe(list(left.vertices) + list(right.vertices)[1:], tol)
    return CellPath(
        vertices=verts,
        branch="around_corner",
        weighted_length=left.weighted_length + right.weighted_length,
        cells=(cell_o, cell_p),
    )


@dataclass(frozen=True)
class SimilarityProfile:
    """delta -> L1 length of the sub-path where the weight stays below delta.

    Exact per straight piece: the squared weight is quadratic in the piece
    parameter, so the sublevel set is an interval with algebraic endpoints.
    """

    pieces: tuple  # (A, B, C, l1len) per straight piece
    total_l1: float

    def value_at(self, delta):
        deltas = np.atleast_1d(np.asarray(delta, dtype=float))
        out = np.zeros_like(deltas)
        for A, B, C, l1len in self.pieces:
            if l1len == 0.0:
                continue
            d2 = deltas * deltas
            if A <= _A_EPS * C:
                out += np.where(C <= d2 + 1e-15, l1len, 0.0)
                continue
            disc = B * B - 4.0 * A * (C - d2)
            r = np.sqrt(np.maximum(disc, 0.0))
            s_lo = np.clip((-B - r) / (2.0 * A), 0.0, 1.0)
            s_hi = np.clip((-B + r) / (2.0 * A), 0.0, 1.0)
            out += np.where(disc >= 0.0, (s_hi - s_lo) * l1len, 0.0)
        return out if np.ndim(delta) else float(out[0])


def partial_similarity_profile(cell: ParameterCell, path) -> SimilarityProfile:
    """Exact partial-similarity profile of a path that stays within one cell."""
    vertices = np.asarray(getattr(path, "vertices", path), dtype=float)
    A, B, C, l1len = piece_quadratics(cell, vertices[:-1], vertices[1:])
    pieces = tuple(zip(A.tolist(), B.tolist(), C.tolist(), l1len.tolist()))
    total = 0.0
    for *_, length in pieces:
        total += length
    return SimilarityProfile(pieces=pieces, total_l1=total)
