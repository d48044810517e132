import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ifd
from ifd.errors import OutOfRange, TooFewVertices

from helpers import over_scales, random_curve


def test_single_segment():
    c = ifd.build_curve([(0, 0), (1, 0)])
    assert c.length == 1.0
    assert np.allclose(c.cum_length, [0.0, 1.0])


def test_duplicate_collapsed():
    c = ifd.build_curve([(0, 0), (0, 0), (3, 4)])
    assert len(c.vertices) == 2
    assert c.length == pytest.approx(5.0)


def test_too_few_vertices():
    with pytest.raises(TooFewVertices):
        ifd.build_curve([(0, 0)])
    with pytest.raises(TooFewVertices):
        ifd.build_curve([(1, 2), (1, 2), (1, 2)])


def test_non_finite_coordinates():
    # a NaN or infinite vertex is named, not mistaken for coinciding points
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"point 1 has a non-finite coordinate"):
            ifd.build_curve([(0, 0), (1, bad), (2, 0)])


def test_point_at_second_segment():
    c = ifd.build_curve([(0, 0), (3, 0), (3, 4)])
    assert np.allclose(c.point_at(4.0), (3.0, 1.0))
    assert np.allclose(c.point_at(0.0), (0.0, 0.0))
    assert np.allclose(c.point_at(3.0), (3.0, 0.0))


def test_point_at_out_of_range():
    c = ifd.build_curve([(0, 0), (1, 0)])
    with pytest.raises(OutOfRange, match=r"arc length 1\.1 outside"):
        c.point_at(1.1)
    with pytest.raises(OutOfRange, match=r"arc length -0\.1 outside"):
        c.point_at(-0.1)
    with pytest.raises(OutOfRange, match=r"arc length 1\.1 outside"):
        c.point_at([0.5, 1.1])
    # tiny slack is clamped instead
    assert np.allclose(c.point_at(1.0 + 1e-10), (1.0, 0.0))


@over_scales
def test_point_at_slack_is_relative(s):
    # a curve of length 28 s: the slack is 1e-9 of the length at every scale
    c = ifd.build_curve(np.array([(0.0, 0.0), (12.0, 0.0), (12.0, 16.0)]) * s)
    end, start = c.vertices[-1], c.vertices[0]
    assert np.array_equal(c.point_at(np.nextafter(c.length, np.inf)), end)
    assert np.array_equal(c.point_at(c.length * (1.0 + 5e-10)), end)
    assert np.array_equal(c.point_at(-5e-10 * c.length), start)
    for outside in (c.length * (1.0 + 1e-8), -1e-8 * c.length, -100.0 * c.length):
        with pytest.raises(OutOfRange):
            c.point_at(outside)
        with pytest.raises(OutOfRange):
            c.point_at([0.0, outside])


def test_points_at_matches_scalar():
    rng = np.random.default_rng(0)
    c = random_curve(rng, 5)
    s = rng.uniform(0, c.length, 50)
    bulk = c.point_at(s)
    assert bulk.shape == (50, 2) and c.point_at(s[0]).shape == (2,)
    for i, si in enumerate(s):
        assert np.array_equal(bulk[i], c.point_at(si))


def test_stats_examples():
    t1 = ifd.build_curve([(0, 0), (3, 0), (3, 4)])
    t2 = ifd.build_curve([(0, 1), (1, 1)])
    st_ = ifd.stats(t1, t2)
    assert st_.mu == pytest.approx(1.0)
    assert st_.zeta == pytest.approx(4.0)

    t = ifd.build_curve([(0, 0), (1, 0)])
    assert ifd.stats(t, t) == ifd.CurveStats(1.0, 1.0, 1.0, 1.0)

    t1 = ifd.build_curve([(0, 0), (2, 0)])
    t2 = ifd.build_curve([(0, 0), (0, 1), (0, 3)])
    st_ = ifd.stats(t1, t2)
    assert st_.mu == pytest.approx(1.0)
    assert st_.zeta == pytest.approx(2.0)


def test_stats_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t1 = random_curve(rng, int(rng.integers(1, 6)))
        t2 = random_curve(rng, int(rng.integers(1, 6)))
        a = ifd.stats(t1, t2)
        b = ifd.stats(t2, t1)
        assert a.mu == b.mu and a.zeta == b.zeta
        assert (a.len1, a.len2) == (b.len2, b.len1)


coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=2, max_size=8)


def _try_build(pts):
    try:
        return ifd.build_curve(pts)
    except TooFewVertices:
        return None


@settings(max_examples=150, deadline=None)
@given(point_lists, st.floats(0, 1), st.floats(0, 1))
def test_arc_length_dominates_chord(pts, f1, f2):
    c = _try_build(pts)
    if c is None:
        return
    s1, s2 = sorted((f1 * c.length, f2 * c.length))
    gap = np.linalg.norm(c.point_at(s2) - c.point_at(s1))
    assert gap <= (s2 - s1) + 1e-9 * (1 + c.length)


@settings(max_examples=100, deadline=None)
@given(point_lists, st.floats(0, 1), st.floats(1e-9, 1))
def test_point_at_is_1lipschitz(pts, f, hf):
    c = _try_build(pts)
    if c is None:
        return
    s = f * c.length
    h = min(hf * c.length, c.length - s)
    step = np.linalg.norm(c.point_at(s + h) - c.point_at(s))
    assert step <= h + 1e-9 * (1 + c.length)


def test_zeta_bounds_every_ratio():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t1 = random_curve(rng, int(rng.integers(1, 5)))
        t2 = random_curve(rng, int(rng.integers(1, 5)))
        st_ = ifd.stats(t1, t2)
        lens = np.concatenate([t1.segment_lengths, t2.segment_lengths])
        assert st_.zeta * lens.min() >= lens.max() - 1e-12
