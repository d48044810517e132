"""Exact weighted lengths of straight segments in parameter space.

The weighted length of a segment is the integral of the weight against L1
speed.  Within one cell the squared weight along a straight piece is a
quadratic A s^2 + B s + C in the normalized parameter, so

    integral sqrt(A s^2 + B s + C) ds

has the standard arsinh antiderivative.  :func:`arsinh_form` is the one
closed form for straight pieces, vectorized: :func:`piece_weights` feeds it
in-cell pieces, and :func:`segment_weighted_length` feeds it any segments
(two points, or two (n, 2) arrays) after cutting them all at the parameter
lines in one pass.  The strip kernels weigh lattice rows with one
primitive per lattice point.  An adaptive-Simpson quadrature over the raw
curve evaluations serves as the independent cross-check.

The per-case forms ``weighted_length_general``, ``weighted_length_axis_aligned``
and ``weighted_length_on_axis``, ``WeightedSegment.kind`` and
``errors.NotOnAxis`` are gone; :func:`weighted_length` and
:func:`piece_weights` weigh every piece.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NegativeRadicand, NonConvergence
from .param_space import CellGrid, ParameterCell, ParameterPoint

__all__ = [
    "WeightedSegment",
    "split_at_parameter_lines",
    "arsinh_form",
    "piece_quadratics",
    "piece_weights",
    "weighted_length",
    "segment_weighted_length",
    "quadrature_weighted_length",
]

_A_EPS = 1e-14       # A below this times C: the leash is constant along the piece
_Q_NEG_TOL = 1e-9    # w^2 below -this times the endpoint w^2 signals bad coefficients
_BLOCK = 4096        # segments per pass, so temporaries stay small for any batch
_HUGE = 2.0 ** 200   # coefficients past this (or nonflat A below its inverse) are rescaled


@dataclass(frozen=True)
class WeightedSegment:
    """A straight piece of a path, confined to one cell."""

    a: ParameterPoint
    b: ParameterPoint
    cell: ParameterCell

    @property
    def l1_length(self) -> float:
        return abs(self.b.x - self.a.x) + abs(self.b.y - self.a.y)


def _primitive(t, hsq):
    """Antiderivative of sqrt(t^2 + hsq); exact |t| t / 2 branch for hsq ~ 0."""
    t = np.asarray(t, dtype=float)
    hsq = np.asarray(hsq, dtype=float)
    r = np.sqrt(t * t + hsq)
    safe = np.where(hsq > 0.0, hsq, 1.0)
    with np.errstate(invalid="ignore"):
        curved = 0.5 * (t * r + hsq * np.arcsinh(t / np.sqrt(safe)))
    flat = 0.5 * t * np.abs(t)
    scale = t * t + hsq
    out = np.where(hsq > 1e-30 * np.maximum(scale, 1e-300), curved, flat)
    return out if out.ndim else float(out)


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


def weighted_length(seg: WeightedSegment) -> float:
    """Exact weighted length of one in-cell piece."""
    return float(piece_weights(seg.cell, seg.a, seg.b)[0])


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


def split_at_parameter_lines(grid: CellGrid, a, b):
    """Cut the segment a -> b (or each of the (n, 2) segments a -> b) at every parameter line.

    Returns the ordered pieces as :class:`WeightedSegment`; each piece lies
    in exactly one cell (boundary pieces resolve to the lower/left cell).
    """
    _, p, q, i, j = _split(grid, a, b)
    return [
        WeightedSegment(a=ParameterPoint(*pp), b=ParameterPoint(*qq), cell=grid.cell(ii, jj))
        for pp, qq, ii, jj in zip(p.tolist(), q.tolist(), i.tolist(), j.tolist())
    ]


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


# -- vectorized per-cell kernels (lattice and grid-graph construction) --------


def horizontal_strip_weights(cell: ParameterCell, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Weights of horizontal lattice edges between consecutive ``xi`` at each ``eta``.

    Local cell coordinates; returns shape (len(eta), len(xi) - 1).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    foot = cell.c * eta + cell.du
    q = np.maximum(
        (1.0 - cell.c * cell.c) * eta * eta
        + 2.0 * (cell.dv - cell.c * cell.du) * eta
        + (cell.d0sq - cell.du * cell.du),
        0.0,
    )
    t = xi[None, :] - foot[:, None]
    p = _primitive(t, q[:, None])
    return p[:, 1:] - p[:, :-1]


def vertical_strip_weights(cell: ParameterCell, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Weights of vertical lattice edges between consecutive ``eta`` at each ``xi``.

    Returns shape (len(eta) - 1, len(xi)).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    foot = cell.c * xi - cell.dv
    q = np.maximum(
        (1.0 - cell.c * cell.c) * xi * xi
        + 2.0 * (cell.c * cell.dv - cell.du) * xi
        + (cell.d0sq - cell.dv * cell.dv),
        0.0,
    )
    t = eta[:, None] - foot[None, :]
    p = _primitive(t, q[None, :])
    return p[1:, :] - p[:-1, :]


def diagonal_block_weights(cell: ParameterCell, xi0: np.ndarray, eta0: np.ndarray,
                           dxi: float, deta: float) -> np.ndarray:
    """Weights of uniform diagonal steps (dxi, deta) starting at eta0 x xi0.

    Returns shape (len(eta0), len(xi0)).
    """
    xi0 = np.asarray(xi0, dtype=float)
    eta0 = np.asarray(eta0, dtype=float)
    d0 = cell.b0 - cell.a0
    dax = d0[0] + eta0[:, None] * cell.v[0] - xi0[None, :] * cell.u[0]
    day = d0[1] + eta0[:, None] * cell.v[1] - xi0[None, :] * cell.u[1]
    ex = deta * cell.v[0] - dxi * cell.u[0]
    ey = deta * cell.v[1] - dxi * cell.u[1]
    return arsinh_form(ex * ex + ey * ey, 2.0 * (dax * ex + day * ey),
                       dax * dax + day * day, abs(dxi) + abs(deta))


def _simpson(f, lo, hi, f_lo, f_mid, f_hi, tol, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    mh = 0.5 * (mid + hi)
    f_lm = f(lm)
    f_mh = f(mh)
    whole = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lm + f_mid)
    right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_mh + f_hi)
    if depth <= 0:
        raise NonConvergence("adaptive Simpson exceeded depth 60")
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson(f, lo, mid, f_lo, f_lm, f_mid, tol / 2.0, depth - 1) + _simpson(
        f, mid, hi, f_mid, f_mh, f_hi, tol / 2.0, depth - 1
    )


def quadrature_weighted_length(grid: CellGrid, a, b, tol: float = 1e-12) -> float:
    """Adaptive-Simpson weighted length of a -> b, split at parameter lines.

    Evaluates the weight from the raw curves (not the cell quadratics), so
    it is an independent oracle for the closed forms.  ``tol`` is relative.
    """
    pieces = split_at_parameter_lines(grid, a, b)
    t1, t2 = grid.t1, grid.t2
    total = 0.0
    for seg in pieces:
        l1len = seg.l1_length
        if l1len == 0.0:
            continue
        pa, pb = seg.a, seg.b

        def f(s):
            x = pa.x + s * (pb.x - pa.x)
            y = pa.y + s * (pb.y - pa.y)
            d = t2.point_at(y) - t1.point_at(x)
            return math.hypot(d[0], d[1]) * l1len

        f0, fm, f1 = f(0.0), f(0.5), f(1.0)
        scale = max(abs(f0), abs(fm), abs(f1), 1e-300)
        total += _simpson(f, 0.0, 1.0, f0, fm, f1, tol * scale, 60)
    return total
