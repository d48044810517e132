"""Shortest weighted monotone paths inside one cell, and per-cell similarity profiles.

The in-cell optimum between dominated points a and b hugs the cell's
monotone axis: enter the axis where it first meets the rectangle spanned
by a and b, ride it as far as possible, leave for b.  When the axis misses
the rectangle, the optimum bends around the rectangle corner closest to
the axis.  An antiparallel cell's axis lies at infinity
(:attr:`~ifd.param_space.ParameterCell.axis_intercept` is +-inf), so its
path always bends around the corner on the axis's side, the cheaper one;
on an exactly antiparallel cell every monotone path weighs the same.  The
path follows from this geometry alone, so the vertex helper
``_shortest_vertices`` does geometry and nothing else: it checks no
dominance and merges no vertices.  Each caller does those jobs once,
for itself.  :func:`cell_shortest_path` checks its two points, cleans the
vertices with ``_dedupe`` and weighs them; :func:`two_cell_path` checks
its two ends once by the same rule.  The substitution sweeps in
``matching`` check the whole path once on entry and once on exit, and
clean each sweep once.  The same path is simultaneously optimal for the
partial similarity at every threshold, which is what the profile type
captures.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import _check_finite
from .errors import NotMonotone, OutOfRange
from .integrals import _piece_frame, piece_weights
from .param_space import (
    CellGrid,
    GridEdge,
    ParameterCell,
    ParameterPoint,
    _clip_slope1,
    _clipped_axis,
    _level_roots,
    steps_back,
)

__all__ = [
    "CellPath",
    "SimilarityProfile",
    "cell_shortest_path",
    "two_cell_path",
    "partial_similarity_profile",
]


@dataclass(frozen=True)
class CellPath:
    """Monotone polyline within one cell (or two, for edge crossings)."""

    vertices: tuple
    branch: str  # 'through_axis' | 'around_corner'
    weighted_length: float


def _dedupe(points):
    """Merge consecutive points that agree within 1e-15 times the largest
    |coordinate| among ``points``; the first of a run stays.

    The tolerance comes from the points themselves, so the cleanup scales
    with the curves.  When everything merges into the first point, the last
    point is kept as well, so the path keeps two ends.
    """
    tol = 1e-15 * max(abs(c) for p in points for c in p)
    last = points[0]
    out = [last]
    for p in points[1:]:
        if abs(p[0] - last[0]) > tol or abs(p[1] - last[1]) > tol:
            out.append(p)
            last = p
    if len(out) == 1 and len(points) > 1:
        out.append(points[-1])
    return tuple(out)


def _polyline_length(cell, points):
    return float(piece_weights(cell, points[:-1], points[1:]).sum())


def _shortest_vertices(cell: ParameterCell, a, b):
    """(vertices, branch) of the shortest monotone path from a to b inside one cell: geometry only.

    ``a`` and ``b`` are float pairs.  The vertices are a, the axis entry and
    exit (or the corner) and b, raw: nothing is checked and nothing is
    merged, so a and b that miss the dominance order by float dust give a
    path with steps back of that size.  The callers check and clean.  The
    axis entry and exit lie on the sides of the rectangle spanned by a and
    b, with those sides' coordinates (``param_space._clip_slope1``).  On
    an antiparallel cell the intercept k is +-inf, so the axis misses
    every rectangle and the path takes the corner on its side.
    """
    (ax, ay), (bx, by) = a, b
    k = cell.axis_intercept
    ell = _clip_slope1(k, ax, bx, ay, by, 0.0)
    if ell is not None:
        return ((ax, ay), *ell, (bx, by)), "through_axis"
    # the corner closest to the axis: above-left when the axis passes there, else below-right
    corner = (ax, by) if k > by - ax else (bx, ay)
    return ((ax, ay), corner, (bx, by)), "around_corner"


def _checked_pair(a, b, cell_a, cell_b):
    """a and b as :class:`ParameterPoint` floats, checked as :func:`cell_shortest_path` says,
    a in ``cell_a`` and b in ``cell_b``."""
    ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
    if not all(map(math.isfinite, (ax, ay, bx, by))):
        _check_finite(np.array(((ax, ay), (bx, by))))
    extent = max(abs(ax), abs(ay), abs(bx), abs(by))
    if steps_back(min(bx - ax, by - ay), extent):
        raise NotMonotone(f"{ParameterPoint(ax, ay)} does not dominate {ParameterPoint(bx, by)}")
    _check_in_cell(cell_a, ((ax, ay),), extent)
    _check_in_cell(cell_b, ((bx, by),), extent)
    return ParameterPoint(ax, ay), ParameterPoint(bx, by)


def _check_in_cell(cell: ParameterCell, points, extent: float):
    """Raise :class:`OutOfRange` on a point of ``points`` outside ``cell`` beyond
    float dust, 1e-9 of ``extent`` (``param_space.steps_back``)."""
    for x, y in points:
        if steps_back(min(x - cell.x0, cell.x1 - x, y - cell.y0, cell.y1 - y), extent):
            raise OutOfRange(f"{ParameterPoint(x, y)} lies outside cell ({cell.i},{cell.j})")


def _cell_path(cell: ParameterCell, a, b) -> CellPath:
    """:func:`cell_shortest_path` of points already checked."""
    verts, branch = _shortest_vertices(cell, a, b)
    verts = _dedupe(verts)
    return CellPath(
        vertices=tuple(ParameterPoint(x, y) for x, y in verts),
        branch=branch,
        weighted_length=_polyline_length(cell, verts),
    )


def cell_shortest_path(cell: ParameterCell, a, b) -> CellPath:
    """Shortest weighted monotone path from a to b inside one cell, with its weight.

    The checks are this wrapper's: ``ValueError`` names a NaN or infinite
    point (point 0 is a, point 1 is b), :class:`NotMonotone` rejects a
    and b out of the dominance order, and :class:`OutOfRange` a point
    outside the cell, each by more than 1e-9 of their largest |coordinate|
    (``param_space.steps_back``, the rule of
    :meth:`~ifd.matching.MonotonePath.from_points`), so the path scales
    with the curves.  Every cell kind has an answer: on an antiparallel
    cell it is the cheaper of the two corner paths.  It merges the
    vertices of ``_shortest_vertices`` with ``_dedupe`` and weighs them.
    """
    return _cell_path(cell, *_checked_pair(a, b, cell, cell))


def _edge_cells(grid: CellGrid, edge: GridEdge):
    """The two cells that share ``edge``, lower/left first; ``ValueError`` if two cells do not."""
    cuts, spans = (grid.x_cuts, grid.n_rows) if edge.vertical else (grid.y_cuts, grid.n_cols)
    k = int(np.searchsorted(cuts, edge.fixed))
    if not (0 < k < len(cuts) - 1 and cuts[k] == edge.fixed and 0 <= edge.span_index < spans):
        raise ValueError(f"{edge} is not shared by two cells")
    if edge.vertical:
        return grid.cell(k - 1, edge.span_index), grid.cell(k, edge.span_index)
    return grid.cell(edge.span_index, k - 1), grid.cell(edge.span_index, k)


def two_cell_path(o, p, edge: GridEdge, grid: CellGrid) -> CellPath:
    """Shortest path between on-axis points of two cells sharing ``edge``.

    When both clipped axes end on the shared edge in dominance order the
    path rides one axis, runs along the edge, and rides the other.
    Otherwise the crossing point on the edge is found by ternary search
    (with a 64-point scan to bracket the minimum first) over the exact
    per-side in-cell optima, which makes the middle piece cross the edge
    perpendicularly.  ``ValueError`` rejects an edge that two cells do not
    share.  o and p are checked once, o in the lower/left cell and p in the
    other, by the rules of :func:`cell_shortest_path`, and the points on
    the edge between them are not checked again.  An antiparallel cell's
    axis misses it, so a crossing that touches one is always searched.
    The on-edge and axis-end tolerances are relative to the parameter
    extent, so the path scales with the curves.
    """
    cell_o, cell_p = _edge_cells(grid, edge)
    o, p = _checked_pair(o, p, cell_o, cell_p)
    ell_o, ell_p = _clipped_axis(cell_o), _clipped_axis(cell_p)
    scale = max(grid.extent)

    def on_edge(q):
        return abs((q.x if edge.vertical else q.y) - edge.fixed) <= 1e-9 * scale

    if ell_o is not None and ell_p is not None:
        c_o = ell_o[1]  # top-right endpoint of the first cell's clipped axis
        c_p = ell_p[0]  # bottom-left endpoint of the second cell's clipped axis
        tol = 1e-12 * scale  # c_o dominates c_p up to tol
        if on_edge(c_o) and on_edge(c_p) and c_o.x <= c_p.x + tol and c_o.y <= c_p.y + tol:
            verts = _dedupe([o, c_o, c_p, p])
            # the piece along the shared edge evaluates identically in either cell
            length = (
                _polyline_length(cell_o, [o, c_o])
                + _polyline_length(cell_o, [c_o, c_p])
                + _polyline_length(cell_p, [c_p, p])
            )
            return CellPath(vertices=verts, branch="through_axis", weighted_length=length)

    # crossing-point search along the shared edge
    if edge.vertical:
        w_lo, w_hi = o.y, p.y
        mk = lambda w: ParameterPoint(edge.fixed, float(w))
    else:
        w_lo, w_hi = o.x, p.x
        mk = lambda w: ParameterPoint(float(w), edge.fixed)
    w_lo = max(w_lo, edge.lo)
    w_hi = min(w_hi, edge.hi)
    if w_hi < w_lo:
        w_lo = w_hi = min(max(w_lo, edge.lo), edge.hi)

    def cost(w):
        z = mk(w)
        return (
            _cell_path(cell_o, o, z).weighted_length
            + _cell_path(cell_p, z, p).weighted_length
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
    left = _cell_path(cell_o, o, z)
    right = _cell_path(cell_p, z, p)
    verts = _dedupe(list(left.vertices) + list(right.vertices)[1:])
    return CellPath(
        vertices=verts,
        branch="around_corner",
        weighted_length=left.weighted_length + right.weighted_length,
    )


@dataclass(frozen=True)
class SimilarityProfile:
    """delta -> L1 length of the sub-path where the weight stays below delta.

    Exact per straight piece: along it the leash is sqrt(tau^2 + p^2) for
    tau over [t0, t0 + step], so the sublevel set is the part of that
    interval where |tau| <= sqrt(delta^2 - p^2).
    """

    pieces: tuple  # (t0, p, step, l1len) per straight piece
    total_l1: float

    def value_at(self, delta):
        """The profile at ``delta`` (a number or an array); an infinite delta gives ``total_l1``.

        Raises ``ValueError`` on a NaN delta.
        """
        deltas = np.atleast_1d(np.asarray(delta, dtype=float))
        if np.isnan(deltas).any():
            raise ValueError("delta must be a number, got nan")
        out = np.zeros_like(deltas)
        for t0, p, step, l1len in self.pieces:
            # the roots in the piece parameter s = tau - t0, NaN where delta < |p|
            lo, hi = _level_roots(-t0, p, deltas)
            if step == 0.0:
                out += np.where(lo <= hi, l1len, 0.0)  # the leash does not move
            else:
                share = np.clip(hi, 0.0, step) - np.clip(lo, 0.0, step)
                out += np.where(lo <= hi, share * (l1len / step), 0.0)
        return out if np.ndim(delta) else float(out[0])


def partial_similarity_profile(cell: ParameterCell, path) -> SimilarityProfile:
    """Exact partial-similarity profile of a path that stays within one cell.

    Raises ``ValueError`` naming the first vertex with a NaN or infinite
    coordinate, and :class:`OutOfRange` on a vertex outside the cell by more
    than 1e-9 of the largest |coordinate| (``param_space.steps_back``).
    """
    vertices = np.asarray(getattr(path, "vertices", path), dtype=float)
    _check_finite(vertices)
    _check_in_cell(cell, vertices.tolist(), float(np.abs(vertices).max(initial=0.0)))
    t0, p, step, _, _, l1len = _piece_frame(cell, vertices[:-1], vertices[1:])
    pieces = tuple(zip(t0.tolist(), p.tolist(), step.tolist(), l1len.tolist()))
    total = 0.0
    for *_, length in pieces:
        total += length
    return SimilarityProfile(pieces=pieces, total_l1=total)
