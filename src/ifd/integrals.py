"""Exact weighted lengths of straight segments in parameter space.

The weighted length of a segment is the integral of the weight against L1
speed.  Within one cell the squared weight along a straight piece is a
quadratic A s^2 + B s + C in the normalized parameter, so

    integral sqrt(A s^2 + B s + C) ds

has the standard arsinh antiderivative.  :func:`arsinh_form` is the one
closed form for straight pieces, vectorized: :func:`piece_weights` feeds it
in-cell pieces, and :func:`segment_weighted_length` feeds it any segments
(two points, or two (n, 2) arrays) after cutting them all at the parameter
lines in one pass.  Lattices have their own kernel, :func:`_tile_weights`:
it weighs the right, up and diagonal edges of a tile of lattice points
from one leash length per point.
"""

import math
from types import SimpleNamespace

import numpy as np

from .errors import NegativeRadicand
from .param_space import CellGrid, ParameterCell

__all__ = [
    "arsinh_form",
    "piece_quadratics",
    "piece_weights",
    "segment_weighted_length",
]

_A_EPS = 1e-14       # A below this times C: the leash is constant along the piece
_Q_NEG_TOL = 1e-9    # w^2 below -this times the endpoint w^2 signals bad coefficients
_BLOCK = 4096        # segments per pass, so temporaries stay small for any batch
_HUGE = 2.0 ** 200   # coefficients past this (or nonflat A below its inverse) are rescaled


def _unit_step(t0, hsq):
    """integral_{t0}^{t0+1} sqrt(t^2 + hsq) dt, free of cancellation.

    With r the root at both ends, t1 r1 - t0 r0 = ((r0 + r1) + (t0 + t1)^2 / (r0 + r1)) / 2
    and the arsinh difference is one arsinh when t0 and t1 share a sign, a
    sum of two positive ones when they do not; no term subtracts two
    primitives, which would lose |t0| ulps far from the foot.
    """
    t1 = t0 + 1.0
    r0 = np.sqrt(t0 * t0 + hsq)
    r1 = np.sqrt(t1 * t1 + hsq)
    rs = r0 + r1
    ts = t0 + t1
    h = np.sqrt(hsq)
    # |same's argument| <= 1 / h, so only the masked hsq == 0 entries overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        same = np.arcsinh(ts / (t1 * r0 + t0 * r1))
        across = np.arcsinh(t1 / h) - np.arcsinh(t0 / h)
        curved = hsq * np.where(t0 * t1 > 0.0, same, across)
    return 0.25 * (rs + ts * ts / rs) + 0.5 * np.where(hsq > 0.0, curved, 0.0)


def arsinh_form(A, B, C, l1len):
    """``l1len * integral_0^1 sqrt(A s^2 + B s + C) ds``, elementwise over broadcast arrays.

    Completing the square gives A ((s + t0)^2 + hsq) with t0 = B / 2A and
    hsq = (4AC - B^2) / 4A^2, whose root integrates to the arsinh primitive.
    Where A <= 1e-14 C the weight is constant to that relative precision
    and the trapezoid rule is used instead.  Both tests are scale-free.
    Raises :class:`NegativeRadicand` when the quadratic dips below zero on
    [0, 1] by more than 1e-9 of its endpoint values.

    When some coefficient exceeds 2^200, or some A outside the trapezoid
    case is below 2^-200 (a very short or very far piece), each piece's
    A, B and C are scaled by the power of four 4^-m that brings the largest
    of them into [1/2, 2), and its result is scaled back by 2^m, so that
    4AC, B^2 and 4A^2 neither underflow nor overflow.  Both scalings are
    exact, so they change no result that was finite without them.
    """
    A, B, C, l1len = (np.asarray(v, dtype=float) for v in (A, B, C, l1len))
    flat = A <= _A_EPS * C
    top = np.maximum(np.maximum(A, np.abs(B)), C)
    half = 0
    if top.max(initial=0.0) > _HUGE or np.where(flat, 1.0, A).min(initial=1.0) < 1.0 / _HUGE:
        half = np.frexp(top)[1] // 2
        A, B, C = (np.ldexp(v, -2 * half) for v in (A, B, C))
        l1len = np.ldexp(l1len, half)
        flat = A <= _A_EPS * C
    any_flat = bool(flat.any())
    a_safe = np.where(flat, 1.0, A) if any_flat else A
    t0 = B / (2.0 * a_safe)
    hsq = (4.0 * a_safe * C - B * B) / (4.0 * a_safe * a_safe)
    if (hsq < 0.0).any():
        # only a negative hsq lets the quadratic's minimum on [0, 1] go below zero
        m = np.minimum(np.maximum(-t0, 0.0), 1.0)  # argmin of (s + t0)^2 on [0, 1]
        qmin = np.where(flat, 0.0, a_safe * ((m + t0) ** 2 + hsq))
        if (qmin < -_Q_NEG_TOL * np.maximum(C, A + B + C)).any():
            low = float(np.ldexp(qmin, 2 * half).min())
            raise NegativeRadicand(f"w^2 reaches {low:.3e} along a piece")
        hsq = np.maximum(hsq, 0.0)
    out = l1len * np.sqrt(a_safe) * _unit_step(t0, hsq)
    if any_flat:
        trap = l1len * 0.5 * (np.sqrt(np.maximum(C, 0.0)) + np.sqrt(np.maximum(A + B + C, 0.0)))
        out = np.where(flat, trap, out)
    return out


def _cell_table(grid: CellGrid, i, j):
    """The fields of cell (i[k], j[k]) that :func:`piece_quadratics` reads, one row per k."""
    t1, t2 = grid.t1, grid.t2
    return SimpleNamespace(x0=grid.x_cuts[i], y0=grid.y_cuts[j], a0=t1.vertices[i],
                           u=t1.directions[i], b0=t2.vertices[j], v=t2.directions[j])


def piece_quadratics(cell, a, b):
    """(A, B, C, l1len) arrays with w^2(s) = A s^2 + B s + C along each piece a -> b.

    ``a`` and ``b`` are (n, 2) arrays of global parameter points.  ``cell``
    is one :class:`ParameterCell` holding every piece, or any object with
    its fields ``x0, y0, a0, u, b0, v`` holding one row per piece.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = b - a
    xi = (a[:, 0] - cell.x0)[:, None]
    eta = (a[:, 1] - cell.y0)[:, None]
    lead = (cell.b0 + eta * cell.v) - (cell.a0 + xi * cell.u)  # leash at a
    vel = d[:, 1:] * cell.v - d[:, :1] * cell.u                # leash velocity
    A = np.einsum("ij,ij->i", vel, vel)
    B = 2.0 * np.einsum("ij,ij->i", lead, vel)
    C = np.einsum("ij,ij->i", lead, lead)
    return A, B, C, np.abs(d).sum(axis=1)


def piece_weights(cell, a, b) -> np.ndarray:
    """Exact weighted lengths of the in-cell pieces a -> b; see :func:`piece_quadratics`."""
    return arsinh_form(*piece_quadratics(cell, a, b))


def _split(grid: CellGrid, a, b):
    """Cut every segment a[k] -> b[k] (a point or an (n, 2) array each) at the parameter lines.

    Returns ``(seg, p, q, i, j)``, one row per piece, ordered by segment and
    along each segment: the segment index, the piece endpoints and the cell
    indices.  A piece on a parameter line resolves to the lower/left cell.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    n = len(a)
    d = b - a
    ids = np.arange(n)
    segs, params = [ids, ids], [np.zeros(n), np.ones(n)]
    for axis, cuts in ((0, grid.x_cuts), (1, grid.y_cuts)):
        lo = np.minimum(a[:, axis], b[:, axis])
        hi = np.maximum(a[:, axis], b[:, axis])
        first = np.searchsorted(cuts, lo, side="right")
        count = np.maximum(np.searchsorted(cuts, hi, side="left") - first, 0)
        k = np.repeat(ids, count)
        idx = first[k] + np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
        segs.append(k)
        params.append((cuts[idx] - a[k, axis]) / d[k, axis])
    seg = np.concatenate(segs)
    s = np.concatenate(params)
    order = np.lexsort((s, seg))
    seg, s = seg[order], s[order]
    keep = np.ones(len(seg), dtype=bool)
    keep[1:] = (seg[1:] != seg[:-1]) | (s[1:] != s[:-1])
    seg, s = seg[keep], s[keep]
    pts = a[seg] + s[:, None] * d[seg]
    same = seg[1:] == seg[:-1]  # consecutive cut points of one segment bound a piece
    p, q, seg = pts[:-1][same], pts[1:][same], seg[:-1][same]
    mid = 0.5 * (p + q)
    # counting the inner cuts below the midpoint clamps to the outer cells
    i = np.searchsorted(grid.x_cuts[1:-1], mid[:, 0], side="left")
    j = np.searchsorted(grid.y_cuts[1:-1], mid[:, 1], side="left")
    return seg, p, q, i, j


def segment_weighted_length(grid: CellGrid, a, b):
    """Exact weighted length of a -> b: cut at the parameter lines, then the closed form.

    Two points give a float; two (n, 2) arrays give the n lengths as an array.
    """
    single = np.ndim(a) == 1
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    totals = np.empty(len(a))
    for k in range(0, len(a), _BLOCK):
        block = slice(k, k + _BLOCK)
        seg, p, q, i, j = _split(grid, a[block], b[block])
        w = piece_weights(_cell_table(grid, i, j), p, q)
        totals[block] = np.bincount(seg, weights=w, minlength=len(totals[block]))
    return float(totals[0]) if single else totals


# -- lattice tiles ----------------------------------------------------------


def _primitives(t, r, p):
    """(t r + p^2 arsinh(t / |p|)) / 2, the antiderivative of sqrt(t^2 + p^2), with r = sqrt(t^2 + p^2).

    ``p`` is constant along each row or column of ``t``; where p^2 is 0
    the arsinh term is multiplied by zero as a whole, leaving the flat
    t |t| / 2.
    """
    q = p * p
    inv = np.divide(1.0, np.abs(p), out=np.zeros_like(q), where=q > 0.0)
    out = t * inv
    np.arcsinh(out, out=out)
    out *= q
    out += t * r
    out *= 0.5
    return out


def _diagonal_steps(one_c, sin, xi, eta, t, p, w2, r):
    """Weights of the diagonal steps of a tile; see :func:`_tile_weights`."""
    dx, dy = float(xi[1] - xi[0]), float(eta[1] - eta[0])
    l1 = abs(dx) + abs(dy)
    # the leash (t, p) moves by (d_t, d_p) per step, so A >= 0, and A is
    # exactly 0 on a parallel cell with a square mesh
    d_t, d_p = (dx - dy) + one_c * dy, sin * dy
    a = d_t * d_t + d_p * d_p
    w0, r0, r1 = w2[:-1, :-1], r[:-1, :-1], r[1:, 1:]
    if a == 0.0:
        return (0.5 * l1) * (r0 + r1)
    root_a = math.sqrt(a)
    # the leash along the step is sqrt(tau^2 + q) for tau from t0 to t1 = t0 + sqrt(A)
    t0 = t[:-1, :-1] * (d_t / root_a) + (p[:-1] * (d_p / root_a))[:, None]
    q = w0 - t0 * t0
    t1 = t0 + root_a
    neg = q < 0.0
    if neg.any():
        lo = np.minimum(np.maximum(t0[neg], 0.0), t1[neg])  # argmin of |tau| on the step
        qmin = q[neg] + lo * lo
        if (qmin < -_Q_NEG_TOL * np.maximum(w0[neg], w2[1:, 1:][neg])).any():
            raise NegativeRadicand(f"w^2 reaches {qmin.min():.3e} along a lattice diagonal")
        q[neg] = 0.0
    rs = r0 + r1
    ts = t0 + t1
    # _unit_step for a step of length sqrt(A): no term subtracts two primitives
    with np.errstate(divide="ignore", invalid="ignore"):
        arc = np.arcsinh(root_a * ts / (t1 * r0 + t0 * r1))
        across = t0 * t1 <= 0.0  # steps over the foot of the leash: a sum of two arsinhs
        if across.any():
            qa = q[across]
            h = np.sqrt(qa)
            arc[across] = np.where(qa > 0.0, np.arcsinh(t1[across] / h) - np.arcsinh(t0[across] / h), 0.0)
        out = ts * ts
        out /= rs
        out += rs
        arc *= q
        arc *= 2.0 / root_a
        out += arc
    out *= 0.25 * l1
    if not rs.all():
        out[rs == 0.0] = 0.0  # the leash is convex along the step, so 0 at both ends is 0 throughout
    flat = w0 >= a / _A_EPS  # A <= 1e-14 W2: the leash is constant along the step
    if flat.any():
        out[flat] = (0.5 * l1) * rs[flat]
    return out


def _tile_weights(cell: ParameterCell, xi: np.ndarray, eta: np.ndarray, diagonal: bool):
    """Exact weights of every edge of the lattice tile ``eta x xi`` (cell-local coordinates).

    Returns ``(right, up, diag)`` of shapes ``(m + 1, n)``, ``(m, n + 1)``
    and ``(m, n)`` for ``n + 1`` columns and ``m + 1`` rows; ``diag`` is
    ``None`` unless ``diagonal``, whose steps are ``(xi[1] - xi[0],
    eta[1] - eta[0])`` throughout.

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
    (u x v) deta), of squared length A, so along it the squared leash is
    tau^2 + Q with tau running from tau0, the leash's component along that
    move, over a length sqrt(A), and Q = W2 - tau0^2; the step is
    integrated as in :func:`_unit_step`, with R at both ends.  The
    trapezoid weighs steps where A <= 1e-14 W2 and all of them when
    A == 0.  Raises :class:`NegativeRadicand` as :func:`arsinh_form` does.
    """
    du, dv, u, v = cell.du, cell.dv, cell.u, cell.v
    d0 = cell.b0 - cell.a0
    gap = u - v
    one_c = 0.5 * float(gap @ gap)  # 1 - u . v, exactly 0 when u == v
    c = 1.0 - one_c
    sin = u[0] * v[1] - u[1] * v[0]
    p_h = (u[0] * d0[1] - u[1] * d0[0]) + sin * eta
    p_v = (v[0] * d0[1] - v[1] * d0[0]) + sin * xi
    t = xi - (c * eta + du)[:, None]
    w2 = t * t
    w2 += (p_h * p_h)[:, None]
    r = np.sqrt(w2)
    right = _primitives(t, r, p_h[:, None])
    right = right[:, 1:] - right[:, :-1]
    s = eta[:, None] - (c * xi - dv)
    up = _primitives(s, r, p_v)
    up = up[1:] - up[:-1]
    diag = _diagonal_steps(one_c, sin, xi, eta, t, p_h, w2, r) if diagonal else None
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
