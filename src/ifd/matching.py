"""Parameter-space paths as matchings between the two curves.

A monotone path from the bottom-left to the top-right corner of parameter
space is a matching: parametrize it by L1 arc length and project onto the
axes to obtain the two reparametrizations.  The cost of the matching is
the path's weighted length, evaluated exactly piece by piece.

:func:`matching_cost` is the only place a matching is weighed.  The
substitution sweeps of :func:`locally_optimize` are geometric: the in-cell
shortest path follows from the cell's monotone axis alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cell_paths import _dedupe, _shortest_vertices
# perfbench's tracer wraps this name in this module's namespace; it is
# imported only for that, since the sweep below calls _shortest_vertices
from .cell_paths import cell_shortest_path  # noqa: F401
from .curves import _EVAL_SLACK, PolygonalCurve, _check_finite
from .errors import NotMonotone, OutOfRange
from .integrals import _split, _walk, segment_weighted_length
from .param_space import build_cells, steps_back, weight

__all__ = [
    "MonotonePath",
    "matching_cost",
    "evaluate_matching",
    "locally_optimize",
    "max_leash",
]


@dataclass(frozen=True)
class MonotonePath:
    """xy-monotone polyline with cached cumulative L1 lengths."""

    vertices: np.ndarray
    cum_l1: np.ndarray

    @classmethod
    def from_points(cls, points):
        """Validate and wrap a point sequence.

        Raises ``ValueError`` on a NaN or infinite coordinate and
        :class:`NotMonotone` on a step back beyond 1e-9 of the largest
        |coordinate|; smaller steps back are float dust and are clamped to
        zero.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            raise NotMonotone("empty path")
        extent = float(np.abs(pts).max())  # NaN if any coordinate is
        if not math.isfinite(extent):
            _check_finite(pts)
        d = np.diff(pts, axis=0)
        if d.size:
            if steps_back(float(d.min()), extent):
                raise NotMonotone(f"backward step of {float(d.min()):.3e}")
            d = np.maximum(d, 0.0)  # clamp float dust
        cum = np.concatenate(([0.0], np.cumsum(d.sum(axis=1)))) if d.size else np.zeros(1)
        return cls(vertices=pts, cum_l1=cum)

    @property
    def total_l1(self) -> float:
        return float(self.cum_l1[-1])

    @property
    def start(self):
        return tuple(self.vertices[0].tolist())

    @property
    def end(self):
        return tuple(self.vertices[-1].tolist())


def _as_path(path) -> MonotonePath:
    return path if isinstance(path, MonotonePath) else MonotonePath.from_points(path)


def _check_in_rectangle(t1: PolygonalCurve, t2: PolygonalCurve, path: MonotonePath):
    """Raise :class:`OutOfRange` on a path vertex outside [0, |T1|] x [0, |T2|]
    by more than the slack of :meth:`PolygonalCurve.point_at`."""
    v = path.vertices
    for lo, hi, curve in zip(v.min(axis=0).tolist(), v.max(axis=0).tolist(), (t1, t2)):
        slack = _EVAL_SLACK * curve.length
        if not (lo >= -slack and hi <= curve.length + slack):  # NaN fails too
            raise OutOfRange(f"path coordinates {lo!r}..{hi!r} outside [0, {curve.length!r}]")


def matching_cost(t1: PolygonalCurve, t2: PolygonalCurve, path) -> float:
    """Weighted length of the path: the integral cost of the induced matching.

    Raises :class:`OutOfRange` on a vertex outside the parameter rectangle.
    """
    p = _as_path(path)
    _check_in_rectangle(t1, t2, p)
    grid = build_cells(t1, t2)
    return float(segment_weighted_length(grid, p.vertices[:-1], p.vertices[1:]).sum())


def evaluate_matching(path, t: float):
    """Point of the path at L1 arc-length fraction ``t`` in [0, 1].

    The x and y projections of this map are the two monotone
    reparametrizations of the matching.  Raises ``ValueError`` on a NaN
    ``t``; other values are clamped to [0, 1].
    """
    if math.isnan(t):
        raise ValueError("t must be a number in [0, 1], got nan")
    p = _as_path(path)
    if p.total_l1 == 0.0:
        return p.start
    s = min(max(t, 0.0), 1.0) * p.total_l1
    i = int(np.searchsorted(p.cum_l1, s, side="right")) - 1
    i = min(max(i, 0), len(p.vertices) - 2)
    span = p.cum_l1[i + 1] - p.cum_l1[i]
    frac = 0.0 if span == 0.0 else (s - p.cum_l1[i]) / span
    q = p.vertices[i] + frac * (p.vertices[i + 1] - p.vertices[i])
    return (float(q[0]), float(q[1]))


def _runs(grid, verts):
    """The maximal in-cell runs ``(i, j, pieces)`` of a path of float pairs.

    The path is cut by :func:`integrals._walk`; ``pieces`` lists a run's
    ``(p, q)`` in path order.
    """
    runs, cell = [], None
    for _, p, q, i, j in _walk(grid, verts, verts[1:]):
        if (i, j) != cell:
            cell, pieces = (i, j), []
            runs.append((i, j, pieces))
        pieces.append((p, q))
    return runs


def _substitute_once(grid, verts, memo):
    """One substitution sweep, geometry only: each in-cell run becomes the cell's shortest path.

    Takes and returns lists of float pairs.  The sweep checks nothing:
    :func:`locally_optimize` checks the path once on entry and once on
    exit.  The substitutes come raw from ``_shortest_vertices``, and the
    sweep cleans the whole path once with ``_dedupe``.  ``memo`` keeps the
    raw substitute of each run by ``(i, j, entry, exit)`` for the whole
    call.
    """
    runs = _runs(grid, verts)
    if not runs:
        return verts
    out = [runs[0][2][0][0]]
    for i, j, pieces in runs:
        key = (i, j, pieces[0][0], pieces[-1][1])
        tail = memo.get(key)
        if tail is None:
            tail = memo[key] = _shortest_vertices(grid.cell(i, j), key[2], key[3])[0][1:]
        out.extend(tail)
    return list(_dedupe(out))


def locally_optimize(t1: PolygonalCurve, t2: PolygonalCurve, path) -> MonotonePath:
    """Replace every in-cell subpath by the cell's shortest path.

    The path is cut where it crosses the parameter grid; between
    consecutive crossings it lies in one cell and gets substituted by the
    in-cell optimum, which never increases the cost and dominates the
    original's similarity profile at every threshold.  Antiparallel cells
    are no exception: their subpath becomes the cheaper corner path.

    A replaced subpath can run along a cell boundary, in which case the
    next sweep may cut the path differently and shave a little more, so
    the substitution repeats until the sweep reproduces its input exactly;
    returning that fixpoint makes the transform idempotent.  The cuts of
    :func:`integrals._walk` and the axis ends of ``_shortest_vertices``
    carry their line's coordinate exactly, so rounding cannot move a vertex
    across a line between sweeps; the cap of 32 sweeps is only a guard.

    The call checks its path once on entry, by the rules of
    :meth:`MonotonePath.from_points` and the rectangle, and its result once
    on exit by the same rules; the sweeps between check nothing, and each
    cleans its path once.  A step back that the entry check clamps as float
    dust is therefore polished, not rejected.  The sweeps weigh nothing;
    take the cost of the result from :func:`matching_cost`.  Their
    tolerances are relative to the parameter extent, so scaling both curves
    by a power of two scales the result exactly.  Raises
    :class:`OutOfRange` on a vertex outside the parameter rectangle.
    """
    path = _as_path(path)
    _check_in_rectangle(t1, t2, path)
    p = [tuple(v) for v in path.vertices.tolist()]
    grid = build_cells(t1, t2)
    memo = {}
    for _ in range(32):
        new = _substitute_once(grid, p, memo)
        if new == p:
            break
        p = new
    return MonotonePath.from_points(p)


def max_leash(t1: PolygonalCurve, t2: PolygonalCurve, path) -> float:
    """Largest weight along the path (the matching's bottleneck distance).

    The squared weight is convex on each straight in-cell piece, so the
    maximum sits at a path vertex or at a piece end on a parameter line.
    """
    p = _as_path(path)
    _, a, b, _, _ = _split(build_cells(t1, t2), p.vertices[:-1], p.vertices[1:])
    return float(weight(t1, t2, np.concatenate((p.vertices, a, b))).max())
