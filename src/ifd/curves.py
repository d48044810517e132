"""Polygonal curves with exact arc-length parametrization.

A curve is stored as its vertex list plus the prefix sums of segment
lengths, so evaluation at an arc length is a binary search and a lerp.
All coordinates are planar doubles; consecutive duplicate vertices are
collapsed at construction time.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, TooFewVertices

__all__ = ["PolygonalCurve", "CurveStats", "build_curve", "stats"]

# slack, relative to the curve length, for evaluating slightly outside [0, length]
_EVAL_SLACK = 1e-9


@dataclass(frozen=True)
class PolygonalCurve:
    """Arc-length parametrized polyline in the plane.

    ``vertices`` is an (m, 2) float array with m >= 2 and no consecutive
    duplicates; ``cum_length`` holds the arc length of each vertex, so
    ``cum_length[0] == 0`` and ``cum_length[-1]`` is the total length.
    """

    vertices: np.ndarray
    cum_length: np.ndarray
    directions: np.ndarray = field(repr=False)  # unit vector per segment

    @property
    def length(self) -> float:
        return float(self.cum_length[-1])

    @property
    def n_segments(self) -> int:
        return len(self.vertices) - 1

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.cum_length)

    def point_at(self, s):
        """Evaluate the curve at arc length ``s`` (unit speed).

        A scalar gives one point of shape (2,); an array of arc lengths
        gives one point per entry, shape ``s.shape + (2,)``.  Arc lengths
        within 1e-9 of the length outside [0, length] are clamped to the
        ends; farther ones raise :class:`OutOfRange`.
        """
        s = np.asarray(s, dtype=float)
        slack = _EVAL_SLACK * self.length
        outside = ~((s >= -slack) & (s <= self.length + slack))  # NaN is outside
        if outside.any():
            bad = float(s[outside].flat[0])
            raise OutOfRange(f"arc length {bad!r} outside [0, {self.length!r}]")
        s = np.clip(s, 0.0, self.length)
        i = np.clip(np.searchsorted(self.cum_length, s, side="right") - 1, 0, self.n_segments - 1)
        return self.vertices[i] + (s - self.cum_length[i])[..., None] * self.directions[i]

    def scaled(self, factor: float) -> "PolygonalCurve":
        return build_curve(self.vertices * factor)


@dataclass(frozen=True)
class CurveStats:
    """Global quantities of a curve pair used to size the approximation graphs."""

    mu: float    # length of the smallest segment across both curves
    zeta: float  # largest ratio of segment lengths over all pairs
    len1: float
    len2: float


def _check_finite(rows, what="point"):
    """Raise ``ValueError`` naming the first row of the 2-d array ``rows`` with a NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise ValueError(f"{what} {bad[0]} has a non-finite coordinate: {rows[bad[0]].tolist()}")


def build_curve(points) -> PolygonalCurve:
    """Build a :class:`PolygonalCurve` from a point sequence.

    Consecutive points closer than 1e-12 times the bounding-box diagonal
    are collapsed.  Raises ``ValueError`` on a NaN or infinite coordinate
    and :class:`TooFewVertices` if fewer than two distinct points remain.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        pts = pts.reshape(-1, 2)
    _check_finite(pts)
    if len(pts) < 2:
        raise TooFewVertices(f"need at least 2 points, got {len(pts)}")
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    tol = 1e-12 * diag
    kept = [pts[0]]
    for p in pts[1:]:
        if float(np.linalg.norm(p - kept[-1])) > tol:
            kept.append(p)
    if len(kept) < 2:
        raise TooFewVertices("all points coincide")
    verts = np.asarray(kept)
    deltas = np.diff(verts, axis=0)
    seg_len = np.linalg.norm(deltas, axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    dirs = deltas / seg_len[:, None]
    return PolygonalCurve(vertices=verts, cum_length=cum, directions=dirs)


def stats(t1: PolygonalCurve, t2: PolygonalCurve) -> CurveStats:
    """Smallest segment length and largest segment-length ratio of a curve pair.

    The ratio is taken over all ordered pairs of segments drawn from the
    union of both curves, which is a conservative superset of the
    cross-curve pairs.
    """
    lens = np.concatenate([t1.segment_lengths, t2.segment_lengths])
    mu = float(lens.min())
    zeta = float(lens.max() / lens.min())
    return CurveStats(mu=mu, zeta=zeta, len1=t1.length, len2=t2.length)
