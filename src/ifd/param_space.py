"""Parameter space of a curve pair: cells, weight function and free-space axes.

The parameter space is the rectangle [0, |T1|] x [0, |T2|]; a point (x, y)
maps to the point pair (T1(x), T2(y)) and its weight is the Euclidean
distance between them.  Each segment pair spans an axis-aligned cell.  Every
weight here is the length of the leash T2(y) - T1(x); along a cell side one
curve stays at a vertex and the other runs along a segment, so each side
question (minimum, crossings of a level) is a point-to-segment question.

The squared weight on a cell is the quadratic form

    w^2(xi, eta) = xi^2 - 2 c xi eta + eta^2 - 2 du xi + 2 dv eta + |d0|^2

in cell-local coordinates, where u and v are the unit segment directions,
c = u . v, d0 the offset between the segment start points, du = d0 . u and
dv = d0 . v.  The form describes the model only (axes, centre, the cell
kind, with c snapped to +-1 on nearly parallel cells); no weight is
evaluated from it.  The sublevel sets are ellipse slices whose monotone principal
axis (slope +1) carries the in-cell shortest paths.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .curves import PolygonalCurve
from .errors import AntiparallelCell, OutOfRange

__all__ = [
    "ParameterPoint",
    "ParameterCell",
    "CellGrid",
    "FreeSpaceAxes",
    "EllipseSlice",
    "GridEdge",
    "weight",
    "build_cells",
    "free_space_axes",
    "edge_min",
    "ellipse_slice",
]

# |u . v| above this is treated as parallel/antiparallel (center ~ 1/(1-c^2))
_DEGENERACY_TOL = 1e-9
# clip tolerance, relative to the rectangle's far corner, so shared corners
# belong to both cells' axes (and level crossings to their sides) at every scale
_CLIP_TOL = 1e-12


class ParameterPoint(NamedTuple):
    x: float
    y: float


def steps_back(step: float, extent: float) -> bool:
    """Whether a coordinate ``step`` between path points goes back beyond
    float dust, 1e-9 of ``extent`` (the largest |coordinate| of the points):
    the one dominance rule of every path check."""
    return step < -1e-9 * extent


@dataclass(frozen=True)
class ParameterCell:
    """One segment-by-segment rectangle of parameter space."""

    i: int                 # column: segment index into T1
    j: int                 # row: segment index into T2
    x0: float
    x1: float
    y0: float
    y1: float
    a0: np.ndarray         # T1 vertex at arc length x0
    u: np.ndarray          # unit direction of T1 segment i
    b0: np.ndarray         # T2 vertex at arc length y0
    v: np.ndarray          # unit direction of T2 segment j
    c: float               # u . v
    kind: str              # 'generic' | 'parallel' | 'antiparallel'
    du: float = field(repr=False, default=0.0)   # d0 . u
    dv: float = field(repr=False, default=0.0)   # d0 . v

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def leash(self, x, y) -> np.ndarray:
        """Vector T2(y) - T1(x) for a point of this cell (scalar or array input)."""
        xi = np.asarray(x, dtype=float) - self.x0
        eta = np.asarray(y, dtype=float) - self.y0
        return (self.b0 + eta[..., None] * self.v) - (self.a0 + xi[..., None] * self.u)

    def weight_sq(self, x, y):
        """Squared weight at global parameter coordinates (scalar or array)."""
        d = self.leash(x, y)
        return (d * d).sum(axis=-1)

    def weight_at(self, x, y):
        return np.sqrt(self.weight_sq(x, y))

    def contains(self, p) -> bool:
        """True if ``p`` lies in the closed cell, up to 1e-12 of the cell's far corner."""
        tol = _cell_tol(self)
        return (
            self.x0 - tol <= p[0] <= self.x1 + tol
            and self.y0 - tol <= p[1] <= self.y1 + tol
        )

    @property
    def axis_intercept(self) -> float:
        """Intercept k of the monotone axis line y - x = k in global coordinates.

        Computed as -(du + dv)/(1 + c), which stays stable for c -> 1.  An
        antiparallel cell's axis lies at infinity, on the side this formula
        takes as c -> -1 from above: k = +-inf, the sign of -(du + dv).
        """
        if self.kind == "antiparallel":
            return math.copysign(math.inf, -(self.du + self.dv))
        return (self.y0 - self.x0) - (self.du + self.dv) / (1.0 + self.c)

    def corner_weights(self):
        xs = [self.x0, self.x0, self.x1, self.x1]
        ys = [self.y0, self.y1, self.y0, self.y1]
        return self.weight_at(xs, ys).tolist()

    def min_weight(self) -> float:
        """Minimum weight over the closed cell rectangle.

        Zero when the segments cross inside the cell; otherwise the convex
        weight takes its minimum on the boundary, a point-to-segment
        distance on one of the four sides.
        """
        cross = _cross(self.u, self.v)
        if cross != 0.0:
            d0 = self.b0 - self.a0
            xi = _cross(d0, self.v) / cross
            eta = _cross(d0, self.u) / cross
            if 0.0 <= xi <= self.width and 0.0 <= eta <= self.height:
                return 0.0
        return min(_pinned(q, base, d, n)[3] for _, q, base, d, n, _ in _sides(self))

    def max_corner_weight(self) -> float:
        return max(self.corner_weights())


@dataclass(frozen=True)
class GridEdge:
    """One cell-boundary segment of the parameter grid.

    A vertical edge lies on the line x = ``fixed`` and spans
    [``lo``, ``hi``] in y; a horizontal edge swaps the roles.
    ``span_index`` is the segment index along the other curve.
    """

    vertical: bool
    fixed: float
    lo: float
    hi: float
    span_index: int


@dataclass(frozen=True)
class CellGrid:
    """The parameter cells of a curve pair plus coordinate lookups.

    The grid is its two curves: the cuts are their vertex arc lengths, and
    each cell is built on first use and cached, so a caller builds only
    the cells it asks for.
    """

    t1: PolygonalCurve
    t2: PolygonalCurve

    @property
    def x_cuts(self) -> np.ndarray:
        return self.t1.cum_length

    @property
    def y_cuts(self) -> np.ndarray:
        return self.t2.cum_length

    @cached_property
    def _built(self) -> dict:
        """The cells built so far, keyed by (i, j)."""
        return {}

    @property
    def cells(self) -> list:
        """``cells[i][j]``: one cell per segment pair, columns follow T1, rows follow T2."""
        return [[self.cell(i, j) for j in range(self.n_rows)] for i in range(self.n_cols)]

    @property
    def n_cols(self) -> int:
        return len(self.x_cuts) - 1

    @property
    def n_rows(self) -> int:
        return len(self.y_cuts) - 1

    @property
    def extent(self):
        return float(self.x_cuts[-1]), float(self.y_cuts[-1])

    def cell(self, i: int, j: int) -> ParameterCell:
        """Cell (i, j), built on first use; indices work as in ``cells[i][j]``."""
        cell = self._built.get((i, j))
        if cell is None:
            key = range(self.n_cols)[i], range(self.n_rows)[j]
            cell = self._built.get(key)
            if cell is None:
                cell = self._built[key] = _make_cell(self.t1, self.t2, *key)
        return cell

    def locate(self, x: float, y: float):
        """Cell indices (i, j) containing (x, y).  A point on a parameter
        line belongs to the lower/left cell, as a piece on that line does;
        points outside the rectangle go to the nearest cell."""
        return (int(np.searchsorted(self.x_cuts[1:-1], x, side="left")),
                int(np.searchsorted(self.y_cuts[1:-1], y, side="left")))

    def edges(self) -> Iterator[GridEdge]:
        """All cell-boundary edges, including the ones on the outer boundary."""
        for x in self.x_cuts:
            for j in range(self.n_rows):
                yield GridEdge(True, float(x), float(self.y_cuts[j]), float(self.y_cuts[j + 1]), j)
        for y in self.y_cuts:
            for i in range(self.n_cols):
                yield GridEdge(False, float(y), float(self.x_cuts[i]), float(self.x_cuts[i + 1]), i)


@dataclass(frozen=True)
class FreeSpaceAxes:
    """Principal axes of a cell's ellipse family.

    ``center`` is the unconstrained minimizer of the squared weight (it may
    lie far outside the cell); ``ell`` is the slope +1 line through it
    clipped to the cell (None when the line misses the cell).  Along
    ``ell`` the weight is w(t) = hypot(w_center, slope * t) with t the L1
    offset from the center, which degenerates to a single-kink
    piecewise-linear map because w_center is zero for every non-parallel
    cell.
    """

    center: ParameterPoint
    slope: float            # dw per unit of L1 travel along ell: |u - v| / 2
    w_center: float
    ell: Optional[tuple]

    def w_at(self, t: float) -> float:
        """Weight at L1 offset ``t`` from the center along the axis line."""
        return math.hypot(self.w_center, self.slope * t)

    def point_at(self, t: float) -> ParameterPoint:
        return ParameterPoint(self.center.x + 0.5 * t, self.center.y + 0.5 * t)

    def l1_of(self, p) -> float:
        """L1 offset of an on-axis point from the center."""
        return (p[0] - self.center.x) + (p[1] - self.center.y)


def weight(t1: PolygonalCurve, t2: PolygonalCurve, p):
    """Euclidean distance between T1(p.x) and T2(p.y).

    One point gives a float; an (n, 2) array of points gives n weights.
    """
    p = np.asarray(p, dtype=float)
    w = np.linalg.norm(t2.point_at(p[..., 1]) - t1.point_at(p[..., 0]), axis=-1)
    return float(w) if p.ndim == 1 else w


def _make_cell(t1, t2, i, j) -> ParameterCell:
    u = t1.directions[i]
    v = t2.directions[j]
    c = float(np.dot(u, v))
    d0 = t2.vertices[j] - t1.vertices[i]
    if c >= 1.0 - _DEGENERACY_TOL:
        kind = "parallel"
        c = 1.0
    elif c <= -1.0 + _DEGENERACY_TOL:
        kind = "antiparallel"
        c = -1.0
    else:
        kind = "generic"
    return ParameterCell(
        i=i, j=j,
        x0=float(t1.cum_length[i]), x1=float(t1.cum_length[i + 1]),
        y0=float(t2.cum_length[j]), y1=float(t2.cum_length[j + 1]),
        a0=t1.vertices[i], u=u, b0=t2.vertices[j], v=v,
        c=c, kind=kind,
        du=float(np.dot(d0, u)), dv=float(np.dot(d0, v)),
    )


def build_cells(t1: PolygonalCurve, t2: PolygonalCurve) -> CellGrid:
    """The cell grid of a curve pair; its cells are built on first use."""
    return CellGrid(t1, t2)


def _clip_slope1(k: float, x0, x1, y0, y1, tol: float):
    """Clip the line y = x + k to [x0, x1] x [y0, y1]: its (lower, upper) ends as float pairs, or None.

    Each end carries the coordinate of its side as it is; the other one is
    computed from k and clamped into the rectangle, so an end at a corner
    is the corner.  The line misses when its lower end lies past its upper
    one by more than ``tol`` in x; within ``tol`` both ends are the lower
    one.  An infinite k misses every rectangle.
    """
    lo = (x0, max(y0, x0 + k)) if x0 >= y0 - k else (y0 - k, y0)
    hi = (x1, min(y1, x1 + k)) if x1 <= y1 - k else (y1 - k, y1)
    if lo[0] > hi[0] + tol:
        return None
    return lo, (hi if hi[0] >= lo[0] else lo)


def _clipped_axis(cell: ParameterCell):
    """The cell's axis clipped to the cell as two :class:`ParameterPoint`, or None where it misses.

    The clip tolerance is 1e-12 of the far corner, so shared corners belong
    to both cells' axes; an antiparallel cell's axis, at infinity, misses.
    """
    ell = _clip_slope1(cell.axis_intercept, cell.x0, cell.x1, cell.y0, cell.y1, _cell_tol(cell))
    return None if ell is None else (ParameterPoint(*ell[0]), ParameterPoint(*ell[1]))


def free_space_axes(cell: ParameterCell) -> FreeSpaceAxes:
    """Axes of the cell's weight quadratic.

    For a generic cell the center solves the 2x2 normal equations of the
    quadratic (Hessian [[1, -c], [-c, 1]], eigenvectors (1, 1) and
    (1, -1)), so the monotone axis always has slope +1.  Parallel cells
    keep the whole minimizing slope +1 line.
    Antiparallel cells raise :class:`AntiparallelCell`: their axis lies at
    infinity, so they have no finite centre.
    """
    if cell.kind == "antiparallel":
        raise AntiparallelCell(f"cell ({cell.i},{cell.j}) is antiparallel")
    k = cell.axis_intercept
    slope = 0.5 * float(np.linalg.norm(cell.u - cell.v))
    if cell.kind == "parallel":
        # any point of the minimizing line works; pick the one nearest the
        # cell midpoint so the reported center is well scaled
        xm = 0.5 * (cell.x0 + cell.x1)
        ym = 0.5 * (cell.y0 + cell.y1)
        cx = 0.5 * (xm + ym - k)
        center = ParameterPoint(cx, cx + k)
        w_center = float(cell.weight_at(center.x, center.y))
    else:
        den = 1.0 - cell.c * cell.c
        xi = (cell.du - cell.c * cell.dv) / den
        eta = (cell.c * cell.du - cell.dv) / den
        center = ParameterPoint(cell.x0 + xi, cell.y0 + eta)
        # u and v span the plane, so the unconstrained minimum is exactly 0;
        # evaluating the quadratic at a far-away center would lose precision
        w_center = 0.0
    return FreeSpaceAxes(center=center, slope=slope, w_center=w_center, ell=_clipped_axis(cell))


def _cell_tol(cell: ParameterCell) -> float:
    return _CLIP_TOL * max(abs(cell.x1), abs(cell.y1))


def _cross(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _pinned(q, base, d, length):
    """One curve pinned at point q, the other on the segment base + t d, 0 <= t <= length.

    Returns ``(along, off, t, w)``: the projection of q onto the segment's
    line and its signed offset from it, then the clamped nearest parameter
    and the distance there.
    """
    r = q - base
    along = float(np.dot(r, d))
    t = min(max(along, 0.0), length)
    return along, _cross(r, d), t, float(np.linalg.norm(q - (base + t * d)))


def _level_roots(along, off, delta):
    """Both t where sqrt((t - along)^2 + off^2) == delta: along -+ sqrt(delta^2 - off^2).

    Elementwise over broadcast arrays.  The radicand is taken as
    (delta - |off|)(delta + |off|), which does not cancel near the touching
    level; both roots are NaN where delta < |off|, so every comparison
    with them is false.
    """
    off = np.abs(off)
    with np.errstate(invalid="ignore"):
        r = np.sqrt((delta - off) * (delta + off))
    return along - r, along + r


def _sides(cell: ParameterCell):
    """Each side as (name, pinned point, segment start, direction, length, first coordinate)."""
    return (
        ("bottom", cell.b0, cell.a0, cell.u, cell.width, cell.x0),
        ("top", cell.b0 + cell.height * cell.v, cell.a0, cell.u, cell.width, cell.x0),
        ("left", cell.a0, cell.b0, cell.v, cell.height, cell.y0),
        ("right", cell.a0 + cell.width * cell.u, cell.b0, cell.v, cell.height, cell.y0),
    )


def edge_min(grid: CellGrid, edge: GridEdge):
    """Minimizer of the weight along a cell-grid edge.

    One curve point is pinned at a parameter line, the other runs along a
    segment, so this is a point-to-segment distance: project and clamp.
    Returns ``(point, weight)``.
    """
    fixed, moving = (grid.t1, grid.t2) if edge.vertical else (grid.t2, grid.t1)
    k = edge.span_index
    _, _, t, w = _pinned(fixed.point_at(edge.fixed), moving.vertices[k],
                         moving.directions[k], edge.hi - edge.lo)
    s = edge.lo + t
    p = ParameterPoint(edge.fixed, s) if edge.vertical else ParameterPoint(s, edge.fixed)
    return p, w


@dataclass(frozen=True)
class EllipseSlice:
    """Sublevel set {w <= delta} of one cell, described by its boundary crossings.

    ``crossings`` maps each cell side to the parameter values (global
    coordinates along that side) where w == delta.
    """

    cell: ParameterCell
    delta: float
    crossings: dict

    @property
    def is_empty(self) -> bool:
        return self.cell.min_weight() > self.delta + _cell_tol(self.cell)

    @property
    def is_full(self) -> bool:
        return self.cell.max_corner_weight() <= self.delta + _cell_tol(self.cell)

    def contains(self, p) -> bool:
        """True if ``p`` is in the cell with weight at most delta, both up to 1e-12 of the far corner."""
        reach = self.delta + _cell_tol(self.cell)
        return self.cell.contains(p) and float(self.cell.weight_sq(p[0], p[1])) <= reach * reach


def ellipse_slice(cell: ParameterCell, delta: float) -> EllipseSlice:
    """Descriptor of {w <= delta} within a cell (possibly empty or full).

    Raises :class:`OutOfRange` on a negative or NaN delta; an infinite one
    gives the full cell.
    """
    if not delta >= 0:  # NaN fails too
        raise OutOfRange(f"delta must be nonnegative, got {delta!r}")
    tol = _cell_tol(cell)
    crossings = {}
    for name, q, base, d, length, start in _sides(cell):
        along, off, _, _ = _pinned(q, base, d, length)
        roots = [start + min(max(t, 0.0), length)
                 for t in _level_roots(along, off, delta) if -tol <= t <= length + tol]
        crossings[name] = sorted(set(roots))
    return EllipseSlice(cell=cell, delta=delta, crossings=crossings)
