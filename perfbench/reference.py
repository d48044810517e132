"""Independent reference for checking `ifd` outputs; imports nothing from `ifd`.

Two jobs:

- ``path_cost`` re-integrates a monotone parameter-space path over the two
  curves with Gauss-Legendre quadrature.  Every leg is cut where it crosses
  a curve vertex parameter (so both curve points move linearly) and at the
  nearest approach of the two moving points (the only place the distance
  can have a kink).  Each piece is then graded geometrically towards that
  approach point, which keeps the rule accurate when the distance nearly
  vanishes there.
- ``lower_bound`` returns LB = int d(T1(x), T2) dx + int d(T2(y), T1) dy.
  Any monotone matching covers x once, and w(x, y) >= d(T1(x), T2), so the
  cost of every matching is at least LB (the same holds for y).  Each
  integral is a midpoint sum minus the largest error a 1-Lipschitz
  integrand allows, h^2/4 per step, clamped at zero per step.
"""

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GRADE_RATIO = 0.15
# 0.15**20 ~ 3e-17: the innermost piece is far below double resolution
_GRADE_LEVELS = 20
_CHUNK = 4096


class Polyline:
    """Unit-speed polygonal curve; ``cum`` holds the arc length of each vertex."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        seg = [math.hypot(*(pts[k + 1] - pts[k])) for k in range(len(pts) - 1)]
        if len(pts) < 2 or min(seg) <= 0.0:
            raise ValueError("a polyline needs two or more distinct consecutive vertices")
        self.vertices = pts
        self.cum = np.array([0.0] + [math.fsum(seg[:k + 1]) for k in range(len(seg))])
        self.dirs = (pts[1:] - pts[:-1]) / np.asarray(seg)[:, None]
        self.segment_lengths = np.asarray(seg)

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    def segment_of(self, s):
        """Index of the segment holding arc length ``s`` (vectorized, clamped)."""
        i = np.searchsorted(self.cum, s, side="right") - 1
        return np.clip(i, 0, len(self.dirs) - 1)

    def points_at(self, s):
        s = np.asarray(s, dtype=float)
        i = self.segment_of(s)
        return self.vertices[i] + (s - self.cum[i])[..., None] * self.dirs[i]

    def distance_to(self, pts):
        """Euclidean distance from each point of an (n, 2) array to the polyline."""
        pts = np.asarray(pts, dtype=float)
        a = self.vertices[:-1]
        d = self.vertices[1:] - a
        rel = pts[:, None, :] - a[None, :, :]
        t = np.clip((rel * d[None]).sum(axis=2) / (d * d).sum(axis=1)[None], 0.0, 1.0)
        gap = rel - t[..., None] * d[None]
        return np.sqrt((gap * gap).sum(axis=2)).min(axis=1)


def check_path(path, len1: float, len2: float, rel_tol: float = 1e-9):
    """Return a list of problems: monotonicity and the two endpoints."""
    p = np.asarray(path, dtype=float).reshape(-1, 2)
    problems = []
    scale = max(len1, len2)
    tol = rel_tol * scale
    if len(p) < 2:
        return [f"path has {len(p)} vertices"]
    step = np.diff(p, axis=0)
    if float(step.min()) < -1e-12 * scale:
        problems.append(f"path steps backwards by {float(step.min()):.3e}")
    if abs(p[0, 0]) > tol or abs(p[0, 1]) > tol:
        problems.append(f"path starts at {p[0].tolist()}, not (0, 0)")
    if abs(p[-1, 0] - len1) > tol or abs(p[-1, 1] - len2) > tol:
        problems.append(f"path ends at {p[-1].tolist()}, not ({len1}, {len2})")
    return problems


def _graded_nodes():
    """Distances from the singular end of a unit piece, and their weights."""
    edges = _GRADE_RATIO ** np.arange(_GRADE_LEVELS + 1)
    lo = np.append(edges[1:], 0.0)
    hi = edges
    half = 0.5 * (hi - lo)
    u = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES[None, :]
    wts = half[:, None] * _GL_WEIGHTS[None, :]
    return u.ravel(), wts.ravel()


_UNIT_U, _UNIT_W = _graded_nodes()


def path_cost(t1: Polyline, t2: Polyline, path) -> float:
    """Weighted L1 length of a monotone path: the cost of its matching."""
    p = np.asarray(path, dtype=float).reshape(-1, 2)
    a, b = p[:-1], p[1:]
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    ell = np.abs(dx) + np.abs(dy)
    keep = ell > 0.0
    a, dx, dy, ell = a[keep], dx[keep], dy[keep], ell[keep]
    if not len(a):
        return 0.0

    # leg fractions where x or y crosses a vertex parameter of its curve
    def crossings(start, delta, cuts):
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (cuts[None, 1:-1] - start[:, None]) / delta[:, None]
        return np.where((f > 0.0) & (f < 1.0), f, 1.0)

    cuts = np.hstack([
        np.zeros((len(a), 1)),
        crossings(a[:, 0], dx, t1.cum),
        crossings(a[:, 1], dy, t2.cum),
        np.ones((len(a), 1)),
    ])
    cuts.sort(axis=1)
    f0 = cuts[:, :-1].ravel()
    f1 = cuts[:, 1:].ravel()
    leg = np.repeat(np.arange(len(a)), cuts.shape[1] - 1)
    live = f1 > f0
    f0, f1, leg = f0[live], f1[live], leg[live]

    # on each piece T1(x(f)) - T2(y(f)) = base + f * slope
    fm = 0.5 * (f0 + f1)
    xm = a[leg, 0] + fm * dx[leg]
    ym = a[leg, 1] + fm * dy[leg]
    i = t1.segment_of(xm)
    j = t2.segment_of(ym)
    base = (t1.vertices[i] + (a[leg, 0] - t1.cum[i])[:, None] * t1.dirs[i]
            - t2.vertices[j] - (a[leg, 1] - t2.cum[j])[:, None] * t2.dirs[j])
    slope = dx[leg][:, None] * t1.dirs[i] - dy[leg][:, None] * t2.dirs[j]
    qq = (slope * slope).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        fstar = np.where(qq > 0.0, -(base * slope).sum(axis=1) / qq, f0)
    fstar = np.clip(fstar, f0, f1)

    # two graded halves per piece, both anchored at the approach point
    anchor = np.concatenate([fstar, fstar])
    span = np.concatenate([fstar - f0, f1 - fstar])
    sign = np.concatenate([-np.ones_like(f0), np.ones_like(f0)])
    base2 = np.concatenate([base, base])
    slope2 = np.concatenate([slope, slope])
    scale = np.concatenate([ell[leg], ell[leg]])
    total = []
    for lo in range(0, len(anchor), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        f = anchor[sl, None] + sign[sl, None] * span[sl, None] * _UNIT_U[None, :]
        gx = base2[sl, 0, None] + f * slope2[sl, 0, None]
        gy = base2[sl, 1, None] + f * slope2[sl, 1, None]
        dist = np.sqrt(gx * gx + gy * gy)
        total.append((dist @ _UNIT_W) * span[sl] * scale[sl])
    return math.fsum(np.concatenate(total))


def one_sided_bound(t1: Polyline, t2: Polyline, steps: int) -> float:
    """Guaranteed lower bound on the integral of d(T1(x), T2) over x."""
    h = t1.length / steps
    mids = t1.points_at((np.arange(steps) + 0.5) * h)
    d = t2.distance_to(mids)
    return math.fsum(np.maximum(h * d - 0.25 * h * h, 0.0))


def lower_bound(t1: Polyline, t2: Polyline, steps: int = 1 << 14) -> float:
    """LB on the integral Frechet distance that every monotone matching respects."""
    return one_sided_bound(t1, t2, steps) + one_sided_bound(t2, t1, steps)


def close(value: float, ref: float, rel: float, absolute: float) -> bool:
    return abs(value - ref) <= rel * abs(ref) + absolute
