import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deffuant import (
    Ball,
    BallSpace,
    Box,
    ConfigurationError,
    Interval,
    PointCloud,
    chebyshev_center,
    diameter,
    expected_center_distance,
    minimum_enclosing_ball,
)
from deffuant import geometry
from deffuant.geometry import farthest_pair, farthest_pairs
from deffuant.norms import NORMS, cross_distances, lengths
from oracles import bruteforce_enclosing_ball

EQUILATERAL_CIRCUMRADIUS = 0.5773502691896258  # side 1: 1/sqrt(3)


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

def test_interval_space():
    s = Interval(-1.0, 3.0)
    assert s.dimension == 1
    assert s.diameter() == 4.0
    draws = s.sample(np.random.default_rng(0), 1000)
    assert draws.shape == (1000, 1)
    assert draws.min() >= -1.0 and draws.max() <= 3.0
    with pytest.raises(ConfigurationError):
        Interval(1.0, 1.0)


def test_an_interval_is_the_one_dimensional_box():
    s = Interval(-1.0, 3.0)
    assert isinstance(s, Box)
    assert s.lower.tolist() == [-1.0] and s.upper.tolist() == [3.0]


@pytest.mark.parametrize("lower, upper", [([-1.0], [3.0]), ([0.0, -2.0], [1e-3, 5.0]),
                                          ([1e6, 0.0, -7.5], [1e6 + 1.0, 1e-9, 2.25])])
def test_box_sample_has_the_bits_of_rng_uniform(lower, upper):
    draws = Box(lower, upper).sample(np.random.default_rng(3), 4000)
    reference = np.random.default_rng(3).uniform(lower, upper, size=(4000, len(lower)))
    assert np.array_equal(draws, reference)


@pytest.mark.parametrize("make", [
    lambda: Interval(0.0, np.inf),
    lambda: Interval(-1e308, 1e308),        # the side overflows
    lambda: Box([0.0, 0.0], [1.0, np.inf]),
    lambda: Box([np.nan], [1.0]),
    lambda: BallSpace([0.0], np.inf),
    lambda: BallSpace([np.inf, 0.0], 1.0),
    lambda: BallSpace([1e308], 1e308),      # center + radius overflows
    lambda: PointCloud([[0.0, 1.0], [np.nan, 2.0]]),
    lambda: PointCloud([0.0, -np.inf]),
])
def test_spaces_reject_non_finite_parameters(make):
    with pytest.raises(ConfigurationError):
        make()


def test_box_space():
    s = Box([0.0, 0.0], [2.0, 1.0])
    assert s.dimension == 2
    assert s.diameter("euclidean") == pytest.approx(np.sqrt(5.0))
    assert s.diameter("l1") == 3.0
    assert s.diameter("linf") == 2.0
    draws = s.sample(np.random.default_rng(0), 500)
    assert np.all(draws >= [0.0, 0.0]) and np.all(draws <= [2.0, 1.0])
    with pytest.raises(ConfigurationError):
        Box([0.0, 2.0], [1.0, 2.0])


def test_ball_space_sampling_stays_inside():
    rng = np.random.default_rng(1)
    for norm in NORMS:
        s = BallSpace([1.0, -2.0], 0.7, norm=norm)
        draws = s.sample(rng, 2000)
        assert np.all(lengths(draws - s.center, norm) <= 0.7 + 1e-12)
    assert BallSpace([0.0], 1.0).diameter() == 2.0


@pytest.mark.parametrize("norm, d", [("linf", 1), ("linf", 2), ("linf", 5), ("l1", 1)])
@pytest.mark.parametrize("size", [1, 7, 64, 100])
def test_a_cube_shaped_ball_draws_the_bits_of_rng_uniform(norm, d, size):
    # a linf ball, and a ball of any norm but euclidean at d = 1, is its cube
    center = np.linspace(-1.0, 2.0, d)
    draws = BallSpace(center, 0.7, norm).sample(np.random.default_rng(size), size)
    reference = center + np.random.default_rng(size).uniform(-0.7, 0.7, (size, d))
    assert np.array_equal(draws, reference)


def test_an_l1_ball_at_d_12_is_drawn_exactly_in_o_of_size_times_d_words():
    size, d, r = 1000, 12, 2.5
    bits = np.random.Philox(key=12)
    before = bits.state["state"]["counter"][0]
    center = np.arange(d, dtype=float)
    draws = BallSpace(center, r, "l1").sample(np.random.Generator(bits), size)
    # 4 words a counter: about 2 d + 1 words a draw (exponentials and signs)
    assert (bits.state["state"]["counter"][0] - before) * 4 <= 2 * size * (2 * d + 1)
    norms = lengths(draws - center, "l1")
    assert draws.shape == (size, d) and np.all(norms <= r * (1 + 1e-12))
    # |x|_1 / r is Beta(d, 1), of mean d / (d + 1)
    assert abs(norms.mean() - r * d / (d + 1)) <= 4 * norms.std(ddof=1) / math.sqrt(size)
    # every orthant is reached: each sign is taken on every axis
    assert np.all((draws > center).any(axis=0)) and np.all((draws < center).any(axis=0))


def test_ball_space_norm_mismatch():
    s = BallSpace([0.0, 0.0], 1.0, norm="l1")
    with pytest.raises(ConfigurationError):
        s.diameter("euclidean")
    with pytest.raises(ConfigurationError):
        chebyshev_center(s, "euclidean")


def test_point_cloud_space():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    s = PointCloud(pts)
    assert s.dimension == 2
    assert s.diameter("euclidean") == pytest.approx(np.sqrt(5.0))
    draws = s.sample(np.random.default_rng(0), 50)
    assert all(any(np.array_equal(d, p) for p in pts) for d in draws)


# ---------------------------------------------------------------------------
# Diameter
# ---------------------------------------------------------------------------

def test_diameter():
    assert diameter(np.array([[1.0, 2.0]])) == 0.0
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert diameter(pts) == 5.0
    assert diameter(pts, "l1") == 7.0
    assert diameter(pts, "linf") == 4.0
    with pytest.raises(ConfigurationError):
        diameter(np.empty((0, 2)))


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("chunk, rows", [(1 << 17, 64), (12, 2), (1, 1)])
def test_farthest_pair_is_the_first_maximum_of_the_full_matrix(monkeypatch, norm, chunk,
                                                               rows):
    # the upper-triangle blocks, one state and a stack of them, give the
    # value and the row-major first position of the full matrix's maximum;
    # small blocks put ties in different blocks
    monkeypatch.setattr(geometry, "_DISTANCE_CHUNK", chunk)
    monkeypatch.setattr(geometry, "_DISTANCE_ROWS", rows)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 7, 12, 70):
        for d in (1, 2, 3):
            # points on a grid of three values a side tie at the diameter;
            # uniform points do not; equal points have diameter 0 at (0, 0)
            xs = np.concatenate((rng.integers(0, 3, size=(4, n, d)) / 2.0,
                                 rng.random((2, n, d)), np.full((1, n, d), 0.25)))
            expected = []
            for x in xs:
                full = cross_distances(x, x, norm)
                k = int(full.argmax())
                expected.append((float(full.flat[k]), *divmod(k, n)))
                assert farthest_pair(x, norm) == expected[-1]
            assert farthest_pairs(xs, norm) == expected
            assert farthest_pairs(xs[:1], norm) == expected[:1]


def test_farthest_pair_and_diameter_take_one_point_set():
    stack = np.zeros((3, 4, 2))
    with pytest.raises(ConfigurationError):
        farthest_pair(stack)
    with pytest.raises(ConfigurationError):
        diameter(stack)
    with pytest.raises(ConfigurationError):
        farthest_pairs(np.empty((2, 0, 2)))


def _first_maximum(x, norm):
    """(diam, a, b) of the first row-major maximum of the full distance matrix."""
    full = cross_distances(x, x, norm)
    k = int(full.argmax())
    return float(full.flat[k]), *divmod(k, len(x))


def _point_set(rng, kind, n, d):
    if kind == "grid":       # three values a side: many pairs tie at the diameter
        return rng.integers(0, 3, size=(n, d)) / 2.0
    if kind == "equal":      # diameter 0, at (0, 0)
        return np.full((n, d), 0.25)
    if kind == "sphere":     # every point can end a farthest pair: the whole scan
        v = rng.normal(size=(n, d))
        return v / lengths(v)[:, None]
    if kind == "clusters":
        return rng.normal(size=(3, d))[rng.integers(0, 3, n)] + 0.05 * rng.normal(size=(n, d))
    if kind == "ends":       # two far ends symmetric about a small cloud's centre
        x = 0.1 * rng.random((n, d)) - 0.05
        h = rng.random(d) + 0.5
        x[rng.integers(n)], x[rng.integers(n)] = h, -h
        return x
    return rng.random((n, d))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(["uniform", "grid", "equal", "sphere", "clusters",
                                       "ends"]), min_size=1, max_size=4),
       n=st.one_of(st.integers(1, geometry._FILTER_MIN_POINTS - 1),
                   st.integers(geometry._FILTER_MIN_POINTS, 160)),
       d=st.integers(1, 3), norm=st.sampled_from(NORMS),
       scale=st.sampled_from([1e-3, 1.0, 1e3, 1e8]),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e8]))
def test_farthest_pairs_is_the_first_maximum_of_the_full_matrix(seed, kinds, n, d, norm,
                                                                  scale, offset):
    # the candidate filter keeps every maximiser, and the first one, on both
    # sides of the size threshold and through the whole-scan fallback
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=d)
    xs = np.stack([_point_set(rng, kind, n, d) * scale + offset * signs for kind in kinds])
    expected = [_first_maximum(x, norm) for x in xs]
    assert [farthest_pair(x, norm) for x in xs] == expected
    assert farthest_pairs(xs, norm) == expected


def test_the_rounding_margin_keeps_an_end_an_ulp_inside_the_farthest_radius():
    # two far ends symmetric about c, the centre of the bounding box, at a
    # large offset: r of the second end is one ulp below R and L - R is above
    # it, so only the margin keeps that end among the candidates
    x = np.repeat(np.array([[34747243.0, 69168971.0]]), 64, axis=0)
    half = np.array([56664300.615, 15856164.067])
    x[0] += half
    x[-1] -= half
    r = lengths(x - (x.min(axis=0) + x.max(axis=0)) / 2.0)
    far = float(cross_distances(x[:1], x[-1:])[0, 0])
    assert r[-1] + np.spacing(r[-1]) == r[0] == r.max()
    assert far - r[0] > r[-1]
    assert farthest_pair(x) == _first_maximum(x, "euclidean") == (far, 0, 63)
    assert farthest_pairs(np.stack((x, x[::-1]))) == [(far, 0, 63)] * 2


def _overflowing_sets():
    x = np.random.default_rng(23).random((200, 2))
    for at, value, name in ((17, np.nan, "nan"), (101, np.inf, "inf"), (3, -np.inf, "-inf")):
        y = x.copy()
        y[at, 1] = value
        yield pytest.param(y, id=name)
    yield pytest.param((2.0 * x - 1.0) * 1e308, id="differences-overflow")
    yield pytest.param(1e308 - 1e300 * x, id="centre-overflows")
    yield pytest.param(-1e308 + 1e300 * x, id="centre-overflows-below")


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("x", _overflowing_sets())
def test_non_finite_and_overflowing_sets_take_the_whole_scan(norm, x):
    # the filter warns of nothing and keeps no candidates; the whole scan
    # (which skips a block whose maximum is NaN) gives the answer
    assert geometry._candidates(x[None], norm)[0] is None
    with np.errstate(over="ignore", invalid="ignore"):
        assert farthest_pair(x, norm) == geometry._scan(x[None], norm)[0]


def test_a_uniform_set_measures_few_distances_and_a_circle_all(monkeypatch):
    n, measured = 2000, []

    def counted(a, b, norm="euclidean"):
        out = cross_distances(a, b, norm)
        measured.append(out.size)
        return out

    monkeypatch.setattr(geometry, "cross_distances", counted)
    farthest_pair(np.random.default_rng(29).random((n, 2)))
    assert sum(measured) < 0.01 * n * (n + 1) / 2
    measured.clear()
    angle = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    circle = np.stack((np.cos(angle), np.sin(angle)), axis=1)
    expected = (0.0, 0, 0)
    for start in range(0, n, 250):
        block = cross_distances(circle[start:start + 250], circle)
        at = int(block.argmax())
        if block.flat[at] > expected[0]:
            expected = (float(block.flat[at]), start + at // n, at % n)
    assert farthest_pair(circle) == expected
    assert sum(measured) >= n * (n + 1) / 2


# ---------------------------------------------------------------------------
# Minimum enclosing ball
# ---------------------------------------------------------------------------

def test_meb_trivial_cases():
    b = minimum_enclosing_ball(np.array([[2.0, 3.0]]))
    assert np.allclose(b.center, [2.0, 3.0]) and b.radius == 0.0

    b = minimum_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(b.center, [1.0, 0.0], atol=1e-14)
    assert b.radius == pytest.approx(1.0, abs=1e-14)


def test_meb_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    b = minimum_enclosing_ball(pts)
    assert np.allclose(b.center, [0.5, np.sqrt(3.0) / 6.0], atol=1e-12)
    assert b.radius == pytest.approx(EQUILATERAL_CIRCUMRADIUS, abs=1e-12)


def test_meb_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = minimum_enclosing_ball(pts)
    assert np.allclose(b.center, [0.5, 0.5], atol=1e-12)
    assert b.radius == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_meb_collinear_and_duplicates():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [3.0, 3.0], [2.0, 2.0]])
    b = minimum_enclosing_ball(pts)
    assert np.allclose(b.center, [1.5, 1.5], atol=1e-12)
    assert b.radius == pytest.approx(1.5 * np.sqrt(2.0), abs=1e-12)


def test_meb_interior_points_do_not_matter():
    rng = np.random.default_rng(2)
    hull = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    inner = np.array([2.0, 1.0]) + 0.3 * rng.normal(size=(20, 2))
    a = minimum_enclosing_ball(hull)
    b = minimum_enclosing_ball(np.vstack([hull, inner]))
    assert np.allclose(a.center, b.center, atol=1e-10)
    assert a.radius == pytest.approx(b.radius, abs=1e-10)


def test_meb_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for n, d in [(5, 1), (8, 2), (12, 2), (9, 3)]:
        pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0)
        ball = minimum_enclosing_ball(pts)
        _, ref_radius = bruteforce_enclosing_ball(pts)
        assert ball.radius == pytest.approx(ref_radius, abs=1e-6)
        # center is optimal: covering from our center needs no more than the
        # oracle radius
        attained = lengths(pts - ball.center).max()
        assert attained <= ref_radius + 1e-6


@pytest.mark.parametrize("pts", [
    np.random.default_rng(6).normal(size=(20_000, 2)),
    np.random.default_rng(7).normal(size=(100, 8)),
], ids=["20000-points-d2", "sphere-100-d8"])
def test_a_large_or_high_dimensional_meb_contains_every_point(pts):
    if pts.shape[1] == 8:   # every point on the unit sphere: all are extreme
        pts = pts / lengths(pts)[:, None]
    ball = minimum_enclosing_ball(pts)
    assert ball.contains(pts, tol=0.0)
    assert ball.radius >= diameter(pts) / 2.0


@pytest.mark.parametrize("pts", [
    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.5, 0.0]],     # ties on a line
    [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.0], [1.0, -1.0, 0.0],
     [1.0, 0.0, 0.0]],                                                  # a flat hull
    [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],                               # one point thrice
    [[0.0], [3.0], [1.5], [3.0]],
])
def test_meb_of_ties_and_flat_hulls_matches_bruteforce_oracle(pts):
    pts = np.array(pts)
    ball = minimum_enclosing_ball(pts)
    _, ref_radius = bruteforce_enclosing_ball(pts)
    assert ball.radius == pytest.approx(ref_radius, abs=1e-9)
    assert ball.contains(pts, tol=0.0)


def test_meb_covers_and_respects_radius_bounds():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(int(rng.integers(2, 30)), d))
        ball = minimum_enclosing_ball(pts)
        assert ball.contains(pts)
        diam = diameter(pts)
        assert ball.radius >= diam / 2.0 - 1e-9
        assert ball.radius <= (np.sqrt(3.0) / 2.0) * diam + 1e-9


# ---------------------------------------------------------------------------
# Chebyshev centers
# ---------------------------------------------------------------------------

def test_chebyshev_interval_exact():
    b = chebyshev_center(Interval(0.0, 1.0))
    assert b.center[0] == 0.5 and b.radius == 0.5


def test_chebyshev_box_all_norms():
    s = Box([0.0, 0.0], [2.0, 1.0])
    assert chebyshev_center(s, "euclidean").radius == pytest.approx(np.sqrt(1.25))
    assert chebyshev_center(s, "l1").radius == pytest.approx(1.5)
    assert chebyshev_center(s, "linf").radius == pytest.approx(1.0)
    assert np.allclose(chebyshev_center(s, "l1").center, [1.0, 0.5])


def test_chebyshev_ball_identity():
    s = BallSpace([3.0, -1.0], 0.25, norm="linf")
    b = chebyshev_center(s, "linf")
    assert np.allclose(b.center, [3.0, -1.0]) and b.radius == 0.25


def test_chebyshev_cloud_linf_is_bounding_box_midpoint():
    pts = np.array([[0.0, 0.0], [4.0, 1.0], [2.0, 3.0]])
    b = chebyshev_center(PointCloud(pts), "linf")
    assert np.allclose(b.center, [2.0, 1.5])
    assert b.radius == pytest.approx(2.0)


def test_chebyshev_covers_samples():
    rng = np.random.default_rng(5)
    cases = [
        (Interval(-2.0, 5.0), "euclidean"),
        (Box([0.0, 1.0, -1.0], [1.0, 2.0, 0.0]), "l1"),
        (BallSpace([0.5], 1.5), "euclidean"),
        (PointCloud(rng.normal(size=(25, 2))), "euclidean"),
        (PointCloud(rng.normal(size=(25, 2))), "l1"),
        (PointCloud(rng.normal(size=(25, 2))), "linf"),
    ]
    for space, norm in cases:
        ball = chebyshev_center(space, norm)
        draws = space.sample(rng, 400)
        assert ball.contains(draws, norm)


def test_ball_contains_tolerance():
    b = Ball([0.0], 1.0)
    assert b.contains(np.array([[1.0 + 1e-10]]))
    assert not b.contains(np.array([[1.1]]))


# ---------------------------------------------------------------------------
# Expected distance to the center
# ---------------------------------------------------------------------------

def test_expected_distance_interval_closed_form():
    est, se = expected_center_distance(Interval(0.0, 1.0), np.array([0.5]))
    assert est == 0.25 and se == 0.0
    # off-center: ((c-a)^2 + (b-c)^2) / (2 (b-a))
    est, _ = expected_center_distance(Interval(0.0, 1.0), np.array([0.3]))
    assert est == pytest.approx(0.29, abs=1e-15)
    # centers outside the interval
    est, _ = expected_center_distance(Interval(0.0, 1.0), np.array([-0.5]))
    assert est == pytest.approx(1.0, abs=1e-15)
    est, _ = expected_center_distance(Interval(0.0, 1.0), np.array([2.0]))
    assert est == pytest.approx(1.5, abs=1e-15)


def test_expected_distance_interval_matches_quadrature():
    a, b, c = -1.0, 2.5, 0.4
    est, _ = expected_center_distance(Interval(a, b), np.array([c]))
    xs = np.linspace(a, b, 2_000_001)
    ref = np.trapezoid(np.abs(xs - c), xs) / (b - a)
    assert est == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("a, b, c", [(0.0, 1.0, 0.5), (-1.0, 2.5, 0.4), (0.0, 1.0, -0.5),
                                     (0.0, 1.0, 2.0), (-3.0, -2.0, -2.75)])
def test_expected_distance_of_a_one_dimensional_box_is_the_interval_closed_form(a, b, c):
    center = np.array([c])
    if c <= a:
        exact = (a + b) / 2.0 - c
    elif c >= b:
        exact = c - (a + b) / 2.0
    else:
        exact = ((c - a) ** 2 + (b - c) ** 2) / (2.0 * (b - a))
    assert expected_center_distance(Box([a], [b]), center) == (exact, 0.0)
    for norm in NORMS:   # every norm is |x| on a line
        assert expected_center_distance(Box([a], [b]), center, norm) == (exact, 0.0)


def test_expected_distance_of_a_wide_interval_is_finite_and_warns_of_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = expected_center_distance(Interval(0.0, 1e200), np.array([5e199]), "l1")
    assert est == pytest.approx(2.5e199, rel=1e-15) and se == 0.0


@pytest.mark.parametrize("k", [0, 400, 499, 500, 501, 600, 900])
@pytest.mark.parametrize("a, b, c", [(-1.0, 2.5, 0.4), (0.0, 1.0, -0.5), (0.0, 1.0, 2.0)])
def test_expected_distance_scales_exactly_with_a_power_of_two(k, a, b, c):
    # scaling a, b and c by 2^k is exact, on either side of the rescaling
    est, _ = expected_center_distance(Interval(math.ldexp(a, k), math.ldexp(b, k)),
                                      np.array([math.ldexp(c, k)]))
    assert est == math.ldexp(expected_center_distance(Interval(a, b), np.array([c]))[0], k)


def test_expected_distance_1d_ball_closed_form():
    est, se = expected_center_distance(BallSpace([2.0], 0.5), np.array([2.0]))
    assert est == 0.25 and se == 0.0


# Every closed form below is checked against scipy.integrate (in the tests
# only: scipy is not a dependency) or a fixed-seed Monte Carlo mean of 10^7
# draws.  Quadrature asks for a relative 1e-12 or better on integrands split
# at their kinks, and a closed form is held to a relative 1e-9 of it.  A
# Monte Carlo mean is held to 4 of its own standard errors.
_ORD = {"euclidean": 2, "l1": 1, "linf": np.inf}


def _random_box(rng, d, inside):
    lower = rng.uniform(-2.0, 2.0, d)
    upper = lower + rng.uniform(0.1, 3.0, d)
    if inside:
        return lower, upper, rng.uniform(lower, upper)
    return lower, upper, np.where(rng.random(d) < 0.5, lower - rng.uniform(0.01, 2.0, d),
                                  upper + rng.uniform(0.01, 2.0, d))


def _monte_carlo(space, center, norm, draws=10 ** 7, seed=2027):
    """Mean distance and its standard error over ``draws`` draws, 10^6 at a time."""
    rng = np.random.default_rng(seed)
    dists = np.concatenate([np.linalg.norm(space.sample(rng, 10 ** 6) - center,
                                           ord=_ORD[norm], axis=1)
                            for _ in range(draws // 10 ** 6)])
    return dists.mean(), dists.std(ddof=1) / math.sqrt(draws)


def _split(a, b, c):
    """[a, b] cut at c where c lies inside it: the kinks of |x - c|."""
    return [a, c, b] if a < c < b else [a, b]


def test_expected_distance_of_the_unit_square_from_its_centre():
    square, c = Box([0.0, 0.0], [1.0, 1.0]), np.array([0.5, 0.5])
    exact = {"euclidean": (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0,
             "l1": 0.5, "linf": 1.0 / 3.0}
    for norm, value in exact.items():
        est, se = expected_center_distance(square, c, norm)
        assert est == pytest.approx(value, rel=1e-15) and se == 0.0
    assert exact["euclidean"] == pytest.approx(0.382598, abs=5e-7)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("inside", [True, False])
def test_expected_distance_of_a_box_under_l1_and_linf_matches_quadrature(d, inside):
    quad = pytest.importorskip("scipy.integrate").quad
    rng = np.random.default_rng(100 * d + inside)
    for _ in range(5):
        lower, upper, c = _random_box(rng, d, inside)
        box = Box(lower, upper)
        l1 = sum(quad(lambda x, ck=ck: abs(x - ck), a, b, points=[ck] if a < ck < b else None,
                      epsabs=0.0, epsrel=1e-13)[0] / (b - a)
                 for a, b, ck in zip(lower, upper, c))
        assert expected_center_distance(box, c, "l1") == (pytest.approx(l1, rel=1e-9), 0.0)

        # E max_k |X_k - c_k| = integral over t of P(max > t), from the share
        # of each side within t of c_k
        def tail(t):
            inside_t = np.minimum(c + t, upper) - np.maximum(c - t, lower)
            return 1.0 - np.prod(np.clip(inside_t / (upper - lower), 0.0, 1.0))

        kinks = np.abs(np.concatenate((lower - c, upper - c)))
        top = kinks.max()
        linf = quad(tail, 0.0, top, points=kinks[kinks < top], epsabs=0.0, epsrel=1e-13,
                    limit=200)[0]
        assert expected_center_distance(box, c, "linf") == (pytest.approx(linf, rel=1e-9), 0.0)


@pytest.mark.parametrize("inside", [True, False])
def test_expected_distance_of_a_rectangle_under_euclidean_matches_quadrature(inside):
    dblquad = pytest.importorskip("scipy.integrate").dblquad
    rng = np.random.default_rng(31 + inside)
    for _ in range(5):
        (x0, y0), (x1, y1), (cx, cy) = _random_box(rng, 2, inside)
        total = sum(dblquad(lambda y, x: math.hypot(x - cx, y - cy), xa, xb, ya, yb,
                            epsabs=0.0, epsrel=1e-12)[0]
                    for xs in [_split(x0, x1, cx)] for xa, xb in zip(xs, xs[1:])
                    for ys in [_split(y0, y1, cy)] for ya, yb in zip(ys, ys[1:]))
        est, se = expected_center_distance(Box([x0, y0], [x1, y1]), np.array([cx, cy]))
        assert est == pytest.approx(total / ((x1 - x0) * (y1 - y0)), rel=1e-9) and se == 0.0


@pytest.mark.parametrize("norm, center", [("linf", [-0.3, 0.4, 2.5, 0.1]),
                                          ("euclidean", [0.2, 1.7])])
def test_expected_distance_of_a_box_matches_ten_million_draws(norm, center):
    c = np.array(center)
    box = Box(np.zeros(c.size), np.arange(1.0, c.size + 1.0))
    est, se = expected_center_distance(box, c, norm)
    mean, mc_se = _monte_carlo(box, c, norm)
    assert se == 0.0 and abs(est - mean) < 4 * mc_se


def test_expected_distance_of_a_box_far_out_neither_overflows_nor_underflows():
    for scale in (2.0 ** -600, 2.0 ** 400):
        box, c = Box([0.0, -1.0], [1.0, 2.0]), np.array([0.3, 2.5])
        big = Box(box.lower * scale, box.upper * scale)
        for norm in NORMS:
            assert expected_center_distance(big, c * scale, norm)[0] == pytest.approx(
                expected_center_distance(box, c, norm)[0] * scale, rel=1e-14)


def test_expected_distance_of_a_disk_from_its_centre_matches_quadrature():
    # r d / (d + 1) in every norm, against the integral of |x| over the
    # quarter of the ball in the positive quadrant, over its area; the linf
    # length has a kink on the diagonal, where the inner integral is cut
    quad = pytest.importorskip("scipy.integrate").quad
    r, center = 1.5, np.array([0.3, -0.2])
    quarters = {"euclidean": (math.hypot, lambda x: math.sqrt(r * r - x * x), math.pi / 4),
                "l1": (lambda y, x: x + y, lambda x: r - x, 0.5),
                "linf": (max, lambda x: r, 1.0)}
    for norm, (length, height, area) in quarters.items():
        total = quad(lambda x: quad(length, 0.0, height(x), args=(x,), epsabs=0.0,
                                    epsrel=1e-12, points=[x] if x < height(x) else None)[0],
                     0.0, r, epsabs=0.0, epsrel=1e-12)[0]
        est, se = expected_center_distance(BallSpace(center, r, norm), center, norm)
        assert est == r * 2 / 3 and se == 0.0
        assert est == pytest.approx(total / (area * r * r), rel=1e-9), norm


def test_expected_distance_of_a_3d_ball_from_its_centre_matches_monte_carlo():
    for norm in NORMS:
        space, c = BallSpace([0.0, 1.0, -1.0], 2.0, norm), np.array([0.0, 1.0, -1.0])
        est, se = expected_center_distance(space, c, norm)
        assert est == 1.5 and se == 0.0   # r d / (d + 1)
        mean, mc_se = _monte_carlo(space, c, norm, draws=2 * 10 ** 6 if norm == "l1"
                                   else 10 ** 7)
        assert abs(est - mean) < 4 * mc_se


def test_expected_distance_of_a_cloud_weights_each_row_once():
    points = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.5, 2.0], [0.5, 2.0], [0.5, 2.0]]
    cloud, c = PointCloud(points), np.array([0.25, 0.5])
    for norm in NORMS:
        exact = math.fsum(np.linalg.norm(np.subtract(p, c), ord=_ORD[norm]) for p in points)
        est, se = expected_center_distance(cloud, c, norm)
        assert est == pytest.approx(exact / len(points), rel=1e-15) and se == 0.0
        mean, mc_se = _monte_carlo(cloud, c, norm)
        assert abs(est - mean) < 4 * mc_se


@pytest.mark.parametrize("space, center", [
    (Box([0.0] * 3, [1.0] * 3), [0.5] * 3),          # a euclidean box of d >= 3
    (BallSpace([0.0, 0.0], 1.0), [0.1, 0.0]),        # a ball off its centre
])
def test_monte_carlo_expected_distance_keeps_its_draws(space, center):
    # the same MONTE_CARLO_SAMPLES draws of the same stream, measured whole
    c = np.array(center)
    dists = lengths(space.sample(np.random.default_rng(7), geometry.MONTE_CARLO_SAMPLES) - c)
    est, se = expected_center_distance(space, c, rng=np.random.default_rng(7))
    assert (est, se) == (float(dists.mean()),
                         float(dists.std(ddof=1) / np.sqrt(geometry.MONTE_CARLO_SAMPLES)))
    assert se > 0


def test_expected_distance_validation():
    s = BallSpace([0.0, 0.0], 1.0)
    with pytest.raises(ConfigurationError):
        expected_center_distance(s, np.array([0.1, 0.0]))  # off its centre: rng required
    with pytest.raises(ConfigurationError):
        expected_center_distance(s, np.zeros(3), rng=np.random.default_rng(0))
