"""Exact weighted lengths of straight segments in parameter space.

The weighted length of a segment is the integral of the weight against L1
speed.  Along any straight step inside a cell the leash T2(y) - T1(x)
moves on a straight line, so its length is sqrt(tau^2 + p^2): tau is the
leash's component along the move, running over a step as long as the
move, and p its component across it, a cross product, so the radicand is
a sum of squares by construction.  One step form, :func:`_step_mean`,
integrates that root for in-cell pieces (:func:`piece_weights`, framed by
:func:`_piece_frame`) and for lattice diagonals.
:func:`segment_weighted_length` weighs any segments (two points, or two
(n, 2) arrays): :func:`_split` cuts them at the parameter lines, and only
where a line crosses a segment is it cut.  A segment's pieces run from its
own point a to its own point b; each cut between them lies on its line,
with that line's coordinate, and only its other coordinate is computed, as
a + s d.  The one cutting loop is the plain-Python :func:`_walk`, which
the polish's runs share; a block of more than ``_WALK_ALL`` segments first
keeps, in one vectorized test, every segment that no line crosses as its
own piece (a, b) and walks only the rest.
Lattices have their own kernel, :func:`_tile_weights`: it weighs the
right, up and diagonal edges of a tile of lattice points from one leash
length per point; right and up edges keep the difference of two
primitives, :func:`_primitives`, shared by a whole row or column.  Given
output arrays and :func:`_tile_scratch`, the kernel writes every tile
temporary into the scratch and every weight into the outputs.
"""

import math
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import numpy as np

from .curves import _check_finite
from .param_space import CellGrid, ParameterCell

__all__ = [
    "piece_weights",
    "segment_weighted_length",
]

_BLOCK = 4096        # segments per pass, so temporaries stay small for any batch
# blocks up to this many segments are walked whole, without the crossing
# test; it is the crossover of the two where about a tenth of the segments cross
_WALK_ALL = 32


def _views(scratch, shape, count):
    """The first ``count`` buffers of ``scratch`` as ``shape`` arrays, or ``None`` each without scratch.

    Each view is a contiguous prefix of its flat buffer, so a ufunc that
    writes into it runs the same contiguous loop as on a fresh array; a
    ``None`` out lets the ufunc allocate that fresh array.
    """
    if scratch is None:
        return (None,) * count
    n = math.prod(shape)
    return [buf[:n].reshape(shape) for buf in scratch[:count]]


def _step_mean(t0, d, r0, r1, q, out=None, scratch=None):
    """Mean of sqrt(tau^2 + q) over the step tau = t0 .. t0 + d, free of cancellation.

    ``r0`` and ``r1`` are the roots at the two ends (arrays of one shape,
    at least 1-d).  With rs = r0 + r1 and ts = t0 + t1, t1 r1 - t0 r0 =
    d (rs + ts^2 / rs) / 2, and the arsinh difference is one arsinh when t0
    and t1 share a sign, a sum of two positive ones where the step crosses
    the foot of the leash (tau = 0); no term subtracts two primitives, which
    would lose |t0| ulps far from the foot.  The root is convex along the
    step, so a step with both roots 0 has mean 0.

    The result goes to ``out`` if given; ``scratch`` (four float buffers,
    then two bool ones, see :func:`_tile_scratch`) holds the temporaries,
    which are fresh arrays without it.
    """
    b_t1, b_ts, b_den, b_arc, b_le, b_eq = _views(scratch, t0.shape, 6)
    t1 = np.add(t0, d, out=b_t1)
    ts = np.add(t0, t1, out=b_ts)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = np.multiply(t1, r0, out=b_den)
        arc = np.multiply(t0, r1, out=b_arc)
        den += arc
        np.multiply(d, ts, out=arc)
        arc /= den
        np.arcsinh(arc, out=arc)
        # across the foot, or a leash that is linear in tau (q == 0), whose
        # arsinh argument can overflow where t0^2 underflows
        across = np.less_equal(np.multiply(t0, t1, out=den), 0.0, out=b_le)
        across |= np.equal(q, 0.0, out=b_eq)
        if across.any():
            qa = q[across]
            h = np.sqrt(qa)
            arc[across] = np.where(qa > 0.0, np.arcsinh(t1[across] / h) - np.arcsinh(t0[across] / h), 0.0)
        rs = np.add(r0, r1, out=den)
        out = np.multiply(ts, ts, out=out)
        out /= rs
        out += rs
        arc *= q
        inv = 2.0 / d
        if np.isfinite(inv).all():
            arc *= inv
        else:  # 2 / d overflows on steps below about 1.1e-308
            arc = np.where(np.isfinite(inv), arc * inv, arc / d * 2.0)
        out += arc
    out *= 0.25
    if not rs.all():
        out[rs == 0.0] = 0.0
    return out


def _cell_table(grid: CellGrid, i, j):
    """The fields of cell (i[k], j[k]) that :func:`_piece_frame` reads, one row per k."""
    t1, t2 = grid.t1, grid.t2
    return SimpleNamespace(x0=grid.x_cuts[i], y0=grid.y_cuts[j], a0=t1.vertices[i],
                           u=t1.directions[i], b0=t2.vertices[j], v=t2.directions[j])


def _piece_frame(cell, a, b):
    """The leash frame of each in-cell piece a -> b: ``(t0, p, step, r0, r1, l1len)`` arrays.

    ``a`` and ``b`` are (n, 2) arrays of global parameter points.  ``cell``
    is one :class:`ParameterCell` holding every piece, or any object with
    its fields ``x0, y0, a0, u, b0, v`` holding one row per piece.

    Along the piece the leash runs from ``lead`` (at a) to ``lead + move``
    (at b), so its length is sqrt(tau^2 + p^2) for tau = t0 .. t0 + step,
    with step = |move|, t0 = lead . move / step and p = lead x move / step;
    r0 and r1 are the leash lengths at a and b.  Where the leash does not
    move (step == 0), t0 = 0 and p = r0.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = b - a
    xi = (a[:, 0] - cell.x0)[:, None]
    eta = (a[:, 1] - cell.y0)[:, None]
    lead = (cell.b0 + eta * cell.v) - (cell.a0 + xi * cell.u)  # leash at a
    move = d[:, 1:] * cell.v - d[:, :1] * cell.u
    step = np.hypot(*move.T)
    r0, r1 = np.hypot(*lead.T), np.hypot(*(lead + move).T)
    moving = step > 0.0
    unit = move / np.where(moving, step, 1.0)[:, None]
    t0 = lead[:, 0] * unit[:, 0] + lead[:, 1] * unit[:, 1]
    p = np.where(moving, lead[:, 0] * unit[:, 1] - lead[:, 1] * unit[:, 0], r0)
    return t0, p, step, r0, r1, np.abs(d).sum(axis=1)


def piece_weights(cell, a, b) -> np.ndarray:
    """Exact weighted lengths of the in-cell pieces a -> b; see :func:`_piece_frame`."""
    t0, p, step, r0, r1, l1len = _piece_frame(cell, a, b)
    moving = step > 0.0
    mean = r0.copy()  # a leash that does not move keeps its length
    mean[moving] = _step_mean(t0[moving], step[moving], r0[moving], r1[moving], p[moving] ** 2)
    return l1len * mean


def _walk(grid: CellGrid, a, b):
    """Cut each segment a[k] -> b[k] (sequences of float pairs) at the parameter lines, in plain Python.

    Returns the pieces as ``(k, p, q, i, j)`` tuples, ordered by segment and
    along each segment.  The first piece starts at a and the last ends at
    b, each as given; the cuts between them are at the parameters
    s = (cut - a) / d of the lines strictly inside a -> b, those strictly
    between 0 and 1 and equal ones merged.  A cut takes its line's
    coordinate as it is (both, where an x-line and a y-line share s), and
    only the other one is a + s d, so consecutive cuts may step back by one
    ulp there: float dust to every dominance check.  A segment that no
    line crosses stays the one piece (a, b).  Each piece goes to the cell
    (i, j) of its midpoint, the lower/left one on a parameter line.
    """
    xc, yc = grid.x_cuts.tolist(), grid.y_cuts.tolist()
    xin, yin = xc[1:-1], yc[1:-1]
    out = []
    append, left, right = out.append, bisect_left, bisect_right
    for k, ((ax, ay), (bx, by)) in enumerate(zip(a, b)):
        dx, dy = bx - ax, by - ay
        fx, ex = (right(xc, ax), left(xc, bx)) if dx >= 0.0 else (right(xc, bx), left(xc, ax))
        fy, ey = (right(yc, ay), left(yc, by)) if dy >= 0.0 else (right(yc, by), left(yc, ay))
        # the points at which the pieces end: the cuts, each on its line, then b
        if fx < ex or fy < ey:
            xs = {(c - ax) / dx: c for c in xc[fx:ex]}
            ys = {(c - ay) / dy: c for c in yc[fy:ey]}
            ends = [(xs.get(s, ax + s * dx), ys.get(s, ay + s * dy))
                    for s in sorted(xs.keys() | ys.keys()) if 0.0 < s < 1.0]
            ends.append((bx, by))
        else:
            ends = ((bx, by),)
        p, px, py = (ax, ay), ax, ay
        for q in ends:
            qx, qy = q
            append((k, p, q, left(xin, 0.5 * (px + qx)), left(yin, 0.5 * (py + qy))))
            p, px, py = q, qx, qy
    return out


def _split(grid: CellGrid, a, b):
    """Cut every segment a[k] -> b[k] (a point or an (n, 2) array each) at the parameter lines.

    Returns ``(seg, p, q, i, j)``, one row per piece: the segment index, the
    piece ends and the cell indices, cut as :func:`_walk` cuts.  Each
    segment's pieces come together and in order along it.  A block of at
    most ``_WALK_ALL`` segments is walked whole, in segment order; in a
    larger one a vectorized test keeps every segment that no parameter line
    crosses as its one piece (a, b), and the walk's pieces of the crossing
    ones follow.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if len(a) <= _WALK_ALL:
        return _piece_arrays(_walk(grid, a.tolist(), b.tolist()))
    cross = np.zeros(len(a), dtype=bool)
    for axis, cuts in ((0, grid.x_cuts), (1, grid.y_cuts)):
        lo = np.minimum(a[:, axis], b[:, axis])
        hi = np.maximum(a[:, axis], b[:, axis])
        cross |= np.searchsorted(cuts, lo, side="right") < np.searchsorted(cuts, hi, side="left")
    whole = np.flatnonzero(~cross)
    p, q = a[whole], b[whole]
    mid = 0.5 * (p + q)
    i = np.searchsorted(grid.x_cuts[1:-1], mid[:, 0], side="left")
    j = np.searchsorted(grid.y_cuts[1:-1], mid[:, 1], side="left")
    walked = np.flatnonzero(cross)
    if not len(walked):
        return whole, p, q, i, j
    k, *pieces = _piece_arrays(_walk(grid, a[walked].tolist(), b[walked].tolist()))
    return (np.concatenate((whole, walked[k])),
            *(np.concatenate(x) for x in zip((p, q, i, j), pieces)))


def _piece_arrays(pieces):
    """:func:`_walk`'s pieces as the arrays ``(seg, p, q, i, j)``."""
    seg, p, q, i, j = zip(*pieces) if pieces else ((),) * 5
    return (np.array(seg, dtype=np.intp), np.array(p, dtype=float).reshape(-1, 2),
            np.array(q, dtype=float).reshape(-1, 2), np.array(i, dtype=np.intp), np.array(j, dtype=np.intp))


def segment_weighted_length(grid: CellGrid, a, b):
    """Exact weighted length of a -> b: cut at the parameter lines, then the closed form.

    Two points give a float; two (n, 2) arrays give the n lengths as an array.
    Raises ``ValueError`` naming the first segment with a NaN or infinite
    end (its row lists a then b); :func:`piece_weights` is the unchecked
    kernel.
    """
    single = np.ndim(a) == 1
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        _check_finite(np.hstack((a, b)), "segment")
    totals = np.empty(len(a))
    for k in range(0, len(a), _BLOCK):
        block = slice(k, k + _BLOCK)
        seg, p, q, i, j = _split(grid, a[block], b[block])
        w = piece_weights(_cell_table(grid, i, j), p, q)
        totals[block] = np.bincount(seg, weights=w, minlength=len(totals[block]))
    return float(totals[0]) if single else totals


# -- lattice tiles ----------------------------------------------------------


def _primitives(t, r, p, out=None, tmp=None):
    """(t r + p^2 arsinh(t / |p|)) / 2, the antiderivative of sqrt(t^2 + p^2), with r = sqrt(t^2 + p^2).

    ``p`` is constant along each row or column of ``t``; where p^2 is 0
    the arsinh term is multiplied by zero as a whole, leaving the flat
    t |t| / 2.  The result goes to ``out`` and t r to ``tmp``, if given.
    """
    q = p * p
    inv = np.divide(1.0, np.abs(p), out=np.zeros_like(q), where=q > 0.0)
    out = np.multiply(t, inv, out=out)
    np.arcsinh(out, out=out)
    out *= q
    out += np.multiply(t, r, out=tmp)
    out *= 0.5
    return out


def _diagonal_steps(one_c, sin, xi, eta, t, p, r, out=None, scratch=None):
    """Weights of the diagonal steps of a tile; see :func:`_tile_weights`."""
    dx, dy = float(xi[1] - xi[0]), float(eta[1] - eta[0])
    l1 = abs(dx) + abs(dy)
    # the leash (t, p) moves by (d_t, d_p) per step, exactly 0 on a parallel
    # cell with a square mesh
    d_t, d_p = (dx - dy) + one_c * dy, sin * dy
    move = math.hypot(d_t, d_p)
    r0, r1 = r[:-1, :-1], r[1:, 1:]
    if move == 0.0:
        out = np.add(r0, r1, out=out)
        out *= 0.5 * l1
        return out
    e_t, e_p = d_t / move, d_p / move
    # the leash's components along the move and across it
    t_lo = t[:-1, :-1]
    _, b_along, b_across = _views(scratch, t_lo.shape, 3)
    along = np.multiply(t_lo, e_t, out=b_along)
    along += (p[:-1] * e_p)[:, None]
    across = np.multiply(t_lo, e_p, out=b_across)
    across -= (p[:-1] * e_t)[:, None]
    across *= across
    # t is spent: its buffer and the ones after it hold the step's temporaries
    out = _step_mean(along, move, r0, r1, across, out, None if scratch is None else scratch[3:])
    out *= l1
    return out


def _tile_scratch(rows: int, cols: int):
    """Scratch buffers for :func:`_tile_weights` on tiles of up to ``rows`` x ``cols`` points.

    Seven float buffers and two bool ones, flat: a tile takes a contiguous
    prefix of each for its leash lengths, its primitives (or the diagonal
    leash components), its T and S, and the step temporaries of
    :func:`_step_mean`.
    """
    n = rows * cols
    return [np.empty(n) for _ in range(7)] + [np.empty(n, dtype=bool) for _ in range(2)]


def _tile_weights(cell: ParameterCell, xi: np.ndarray, eta: np.ndarray, diagonal: bool,
                  out=None, scratch=None):
    """Exact weights of every edge of the lattice tile ``eta x xi`` (cell-local coordinates).

    Returns ``(right, up, diag)`` of shapes ``(m + 1, n)``, ``(m, n + 1)``
    and ``(m, n)`` for ``n + 1`` columns and ``m + 1`` rows; ``diag`` is
    ``None`` unless ``diagonal``, whose steps are ``(xi[1] - xi[0],
    eta[1] - eta[0])`` throughout.  ``out``, if given, holds three arrays
    of those shapes (the last ``None`` unless ``diagonal``) to write into,
    and ``scratch`` (:func:`_tile_scratch`) the temporaries; without them
    every array is fresh.  Both give the same bits.

    In the frame of T1's segment the leash has the components
    T = xi - (c eta + du) along -u and p = u x d0 + (u x v) eta across it,
    so W2 = T^2 + p^2 and R = sqrt(W2) are taken once per lattice point;
    likewise W2 = S^2 + p'^2 with S = eta - (c xi - dv) and
    p' = v x d0 + (u x v) xi.  Here c = u . v = 1 - |u - v|^2 / 2 comes
    from the directions, not from the cell's ``c``, which is snapped to
    +-1 on nearly (anti)parallel cells; p and p' are cross products, which
    stay accurate near a crossing, where |d0|^2 - du^2 would cancel.

    Right and up edges are differences of the arsinh primitive in T and S.
    A diagonal step (dxi, deta) moves the leash by (dxi - c deta,
    (u x v) deta), so along it the leash is sqrt(tau^2 + Q): tau runs from
    the leash's component along that move over the move's length, and Q is
    the square of its component across it; :func:`_step_mean` integrates
    the step, with R at both ends.  Where the leash does not move, the
    step weighs its constant length.
    """
    out_right, out_up, out_diag = (None, None, None) if out is None else out
    du, dv, u, v = cell.du, cell.dv, cell.u, cell.v
    d0 = cell.b0 - cell.a0
    gap = u - v
    one_c = 0.5 * float(gap @ gap)  # 1 - u . v, exactly 0 when u == v
    c = 1.0 - one_c
    sin = u[0] * v[1] - u[1] * v[0]
    p_h = (u[0] * d0[1] - u[1] * d0[0]) + sin * eta
    p_v = (v[0] * d0[1] - v[1] * d0[0]) + sin * xi
    b_r, b_prim, b_tmp, b_t, b_s = _views(scratch, (len(eta), len(xi)), 5)
    t = np.subtract(xi, (c * eta + du)[:, None], out=b_t)
    r = np.multiply(t, t, out=b_r)
    r += (p_h * p_h)[:, None]
    np.sqrt(r, out=r)
    prim = _primitives(t, r, p_h[:, None], b_prim, b_tmp)
    right = np.subtract(prim[:, 1:], prim[:, :-1], out=out_right)
    s = np.subtract(eta[:, None], c * xi - dv, out=b_s)
    prim = _primitives(s, r, p_v, b_prim, b_tmp)
    up = np.subtract(prim[1:], prim[:-1], out=out_up)
    diag = _diagonal_steps(one_c, sin, xi, eta, t, p_h, r, out_diag, scratch) if diagonal else None
    return right, up, diag


def horizontal_strip_weights(cell: ParameterCell, xi, eta) -> np.ndarray:
    """Weights of the horizontal lattice edges between consecutive ``xi`` at each ``eta``.

    Local cell coordinates; returns shape (len(eta), len(xi) - 1).
    """
    return _tile_weights(cell, np.asarray(xi, dtype=float), np.asarray(eta, dtype=float), False)[0]


def vertical_strip_weights(cell: ParameterCell, eta, xi) -> np.ndarray:
    """Weights of the vertical lattice edges between consecutive ``eta`` at each ``xi``.

    Returns shape (len(eta) - 1, len(xi)).
    """
    return _tile_weights(cell, np.asarray(xi, dtype=float), np.asarray(eta, dtype=float), False)[1]
