import math
import warnings

import numpy as np
import pytest

from deffuant import (
    Ball,
    BallSpace,
    Box,
    ConfigurationError,
    Interval,
    PointCloud,
    chebyshev_center,
    diameter,
    distance_potential,
    expected_center_distance,
    minimum_enclosing_ball,
)
from deffuant.norms import NORMS, lengths
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
# Diameter and potential
# ---------------------------------------------------------------------------

def test_diameter():
    assert diameter(np.array([[1.0, 2.0]])) == 0.0
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert diameter(pts) == 5.0
    assert diameter(pts, "l1") == 7.0
    assert diameter(pts, "linf") == 4.0
    with pytest.raises(ConfigurationError):
        diameter(np.empty((0, 2)))


def test_distance_potential():
    pts = np.array([0.0, 1.0])
    assert distance_potential(pts, np.array([0.25])) == pytest.approx(1.0)
    assert distance_potential(pts, np.array([0.5])) == pytest.approx(1.0)
    assert distance_potential(pts, np.array([0.0])) == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        distance_potential(np.zeros((2, 2)), np.zeros(3))


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


def test_expected_distance_disk_monte_carlo():
    # uniform unit disk: E || X || = 2/3
    rng = np.random.default_rng(6)
    est, se = expected_center_distance(
        BallSpace([0.0, 0.0], 1.0), np.array([0.0, 0.0]), rng=rng)
    assert se > 0
    assert abs(est - 2.0 / 3.0) < 5 * se


def test_expected_distance_3d_ball_monte_carlo():
    # uniform ball radius r in d dimensions: E || X - c || = r d / (d + 1)
    rng = np.random.default_rng(7)
    est, se = expected_center_distance(
        BallSpace([0.0, 0.0, 0.0], 2.0), np.zeros(3), rng=rng)
    assert abs(est - 1.5) < 5 * se


def test_expected_distance_validation():
    s = BallSpace([0.0, 0.0], 1.0)
    with pytest.raises(ConfigurationError):
        expected_center_distance(s, np.zeros(2))  # rng required
    with pytest.raises(ConfigurationError):
        expected_center_distance(s, np.zeros(3), rng=np.random.default_rng(0))
