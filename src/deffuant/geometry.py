"""Opinion-space geometry: enclosing balls and diameters.

The smallest enclosing ball of a bounded convex region gives the center and
radius that drive the consensus-probability lower bound; for point clouds
under the euclidean norm it is computed exactly with Welzl's randomized
algorithm (support sets of at most d+1 points, circumcenters solved through
the Gram system of the support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .norms import cross_distances, lengths, validate_norm

# The tolerance of Ball.contains; MEB containment uses a tighter relative guard.
_COVER_TOL = 1e-9
_WELZL_SHUFFLE_SEED = 0x5EB


@dataclass(eq=False)
class Ball:
    """Closed ball: center and nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).ravel()
        self.radius = float(self.radius)
        if self.radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {self.radius}")

    def contains(self, points: np.ndarray, norm: str = "euclidean", tol: float = _COVER_TOL) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(np.all(lengths(pts - self.center, norm) <= self.radius + tol))


# ---------------------------------------------------------------------------
# Opinion spaces
# ---------------------------------------------------------------------------

class OpinionSpace:
    """Bounded convex region initial opinions are drawn from."""

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, d) i.i.d. uniform draws from the region."""
        raise NotImplementedError

    def diameter(self, norm: str = "euclidean") -> float:
        raise NotImplementedError


@dataclass(eq=False)
class Box(OpinionSpace):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if self.lower.shape != self.upper.shape:
            raise ConfigurationError("box bounds must have equal length")
        with np.errstate(over="ignore"):
            if not (np.all(self.lower < self.upper) and np.isfinite(self.upper - self.lower).all()):
                raise ConfigurationError("box needs lower < upper and a finite side on every "
                                         f"axis, got {self.lower} and {self.upper}")

    @property
    def dimension(self):
        return self.lower.shape[0]

    def sample(self, rng, size):
        # The bits of rng.uniform(lower, upper), without its per-call
        # broadcasting: lower + (upper - lower) u, scaled and shifted in place.
        u = rng.random((size, self.dimension))
        u *= self.upper - self.lower
        u += self.lower
        return u

    def diameter(self, norm="euclidean"):
        return float(lengths(self.upper - self.lower, norm))


def Interval(a: float, b: float) -> Box:
    """The interval [a, b]: the one-dimensional ``Box``."""
    return Box([a], [b])


@dataclass(eq=False)
class BallSpace(OpinionSpace):
    """Ball-shaped region in the given norm (default euclidean)."""

    center: np.ndarray
    radius: float
    norm: str = "euclidean"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).ravel()
        self.radius = float(self.radius)
        with np.errstate(over="ignore"):
            if not (self.radius > 0 and np.isfinite(np.abs(self.center) + self.radius).all()):
                raise ConfigurationError("ball needs radius > 0 and a finite center +/- "
                                         f"radius, got {self.center} and {self.radius}")
        validate_norm(self.norm)

    @property
    def dimension(self):
        return self.center.shape[0]

    def sample(self, rng, size):
        d = self.dimension
        if self.norm == "euclidean":
            dirs = rng.normal(size=(size, d))
            dirs /= lengths(dirs)[:, None]
            radii = self.radius * rng.random(size) ** (1.0 / d)
            return self.center + dirs * radii[:, None]
        if self.norm == "linf" or d == 1:   # the ball is its bounding cube
            return self.center + rng.uniform(-self.radius, self.radius, (size, d))
        # l1: random signs on the first d of d + 1 exponentials over their sum,
        # uniform on the simplex x >= 0, sum x <= 1 (Devroye 1986, sec. V.2)
        e = rng.standard_exponential((size, d + 1))
        x = e[:, :d] / e.sum(axis=1, keepdims=True)
        x[rng.random((size, d)) < 0.5] *= -1.0
        return self.center + self.radius * x

    def diameter(self, norm="euclidean"):
        if norm != self.norm:
            raise ConfigurationError(
                f"ball declared in norm {self.norm!r}, queried in {norm!r}"
            )
        return 2.0 * self.radius


@dataclass(eq=False)
class PointCloud(OpinionSpace):
    """Empirical region: finite sample points, uniform over the points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or not np.isfinite(pts).all():
            raise ConfigurationError("point cloud needs a finite (n, d) array with n >= 1")
        self.points = pts

    @property
    def dimension(self):
        return self.points.shape[1]

    def sample(self, rng, size):
        idx = rng.integers(0, self.points.shape[0], size=size)
        return self.points[idx]

    def diameter(self, norm="euclidean"):
        return diameter(self.points, norm)


# ---------------------------------------------------------------------------
# Diameter
# ---------------------------------------------------------------------------

def _as_points(points: np.ndarray) -> np.ndarray:
    """Coerce to (n, d); a 1-D array means n one-dimensional points."""
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


# The farthest pair of a set of _FILTER_MIN_POINTS points or more is looked for
# among a few candidates (``_candidates``).  Let c be the centre of the set's
# bounding box, r_p = |p - c| and R = max r_p, and let L be one entry of the
# distance matrix: the larger of the farthest distances from the point at R and
# from that point's own farthest point.  A maximising pair (a, b) is at a
# distance D >= L, and D <= r_a + r_b <= r_a + R, so both of its ends have
# r_p >= L - R.  The points kept are those whose computed r_p is at least
# L - R - tau.  A computed length has a relative error of at most
# gamma_{d+2} = (d + 2) u / (1 - (d + 2) u), u = 2^-53: one rounding of each
# coordinate difference, d products and d - 1 sums, and a square root (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 2.2 and 3.1).  That
# puts every maximiser's computed r_p at or above L - R - 2 gamma_{d+2} L, and
# tau = 4 (gamma_{d+2} (L + 2 R) + 2^-500) covers this, the two roundings of
# the threshold itself, and a square that underflows (at most sqrt(d) 2^-537
# on a length).  As fl(a - b) = (a - b)(1 + delta), the margin holds at any
# magnitude of the coordinates.  The kept points are scanned in index order,
# so their pairs keep their row-major order and the first maximum,
# (diam, a, b), is the same bit for bit.  A set is scanned whole instead when:
# - it has fewer than _FILTER_MIN_POINTS points: the filter's fixed cost of
#   about 30 us is then more than the whole scan's (at d = 2, 43 us whole
#   against 38 us filtered at n = 64; at d = 1 the two meet near n = 110);
# - more than _KEPT_SHARE of its points are kept (points on a circle or a
#   sphere, or a cloud within a few ulps of consensus): a scan of m kept
#   points costs (m / n)^2 of the whole one, so a larger share saves little;
# - a coordinate, the centre, an r_p, L or the threshold is not finite: NaN or
#   infinite opinions, or coordinates near 1e308 whose differences overflow.
# One farthest_pair call at d = 2 (timeit, best of 5, 2 cores) takes, whole
# against filtered: 0.089 against 0.043 ms at n = 100, 5.2 against 0.09 ms at
# n = 1000 and 97 against 0.30 ms at n = 5000 on uniform points in the square,
# 5.2 against 2.5 ms at n = 1000 on three tight clusters (two thirds kept),
# and 0.089 against 0.125 ms at n = 100 and 5.27 against 5.35 ms at n = 1000
# on a circle, which is scanned whole after the filter.
#
# The whole scan takes the distance matrix's upper triangle a block at a time:
# a block holds at most _DISTANCE_CHUNK floats in its (states, rows, columns,
# d) difference array (1 MB; larger blocks were no faster at n = 1000) and at
# most _DISTANCE_ROWS rows, which keeps the part of each block below the
# diagonal small.  One whole scan at d = 2 (timeit, medians of 9 alternated
# runs, 2 cores) took, with 64 / 32 / 16 rows: 0.197 / 0.195 / 0.217 ms at
# n = 100, 13.7 / 12.2 / 12.5 ms at n = 1000 and 51.8 / 51.0 / 47.9 ms at
# n = 2000.
_DISTANCE_CHUNK = 1 << 17
_DISTANCE_ROWS = 32
_FILTER_MIN_POINTS = 64
_KEPT_SHARE = 0.75


def _upper_blocks(n: int, floats: int):
    """(start, rows) of each block of the distance matrix's upper triangle:
    rows [start, start + rows) against columns [start, n), at ``floats``
    floats an entry."""
    start = 0
    while start < n:
        rows = max(1, min(_DISTANCE_CHUNK // (floats * (n - start)), _DISTANCE_ROWS))
        yield start, rows
        start += rows


def _scan(states: np.ndarray, norm: str) -> list[tuple[float, int, int]]:
    """The first row-major maximum of each set's distance matrix, from its
    upper triangle: the matrix is symmetric bit for bit (a difference and its
    negation have the same length).  All the sets are measured together, a
    block at a time (``_upper_blocks``), so memory stays bounded at any n."""
    k, n, d = states.shape
    found = [(0.0, 0, 0)] * k
    for start, rows in _upper_blocks(n, k * d):
        block = cross_distances(states[:, start:start + rows], states[:, start:],
                                norm).reshape(k, -1)
        width = n - start
        for s, at in enumerate(block.argmax(axis=1).tolist()):
            top = block.item(s, at)
            if top > found[s][0]:   # a tie keeps the earlier maximum
                found[s] = (top, start + at // width, start + at % width)
    return found


def _candidates(states: np.ndarray, norm: str) -> list[Optional[np.ndarray]]:
    """For each set of the stack, the indices of the points that can end a
    farthest pair, ascending, or None where the set is to be scanned whole."""
    k, n, d = states.shape
    gamma = (d + 2) * 2.0 ** -53 / (1 - (d + 2) * 2.0 ** -53)
    each = np.arange(k)
    with np.errstate(over="ignore", invalid="ignore"):
        centre = (states.min(axis=1) + states.max(axis=1)) / 2.0
        r = lengths(states - centre[:, None], norm)
        far = r.argmax(axis=1)   # a NaN is its first maximum
        row = cross_distances(states[each, far][:, None], states, norm)[:, 0]
        other = cross_distances(states[each, row.argmax(axis=1)][:, None], states,
                                norm)[:, 0]
        big, top = np.maximum(row.max(axis=1), other.max(axis=1)), r[each, far]
        threshold = big - top - 4.0 * (gamma * (big + 2.0 * top) + 2.0 ** -500)
        keep = r >= threshold[:, None]
    return [np.flatnonzero(kept) if math.isfinite(t) and kept.sum() <= _KEPT_SHARE * n
            else None for t, kept in zip(threshold.tolist(), keep)]


def farthest_pair(points: np.ndarray, norm: str = "euclidean") -> tuple[float, int, int]:
    """The diameter of a point set and one pair (a, b) of points that attains
    it: ``farthest_pairs`` of the one set."""
    pts = _as_points(points)
    if pts.ndim != 2:
        raise ConfigurationError(f"points must be (n, d), got shape {pts.shape}")
    return farthest_pairs(pts[None], norm)[0]


def farthest_pairs(states: np.ndarray, norm: str = "euclidean") -> list[tuple[float, int, int]]:
    """The diameter of each point set of a stack (k, n, d) and one pair (a, b)
    of points that attains it, the first maximum of the set's distance matrix
    in row-major order.

    A set of _FILTER_MIN_POINTS points or more is scanned only among the
    points that can end a farthest pair (``_candidates``, a margin for
    rounding included), and their indices are mapped back: O(n d) in place of
    O(n^2 d) when few are kept, as on uniform points (0.09 ms against 5.2 ms
    at n = 1000, d = 2).  Smaller sets, sets that keep more than _KEPT_SHARE
    of their points and sets with a non-finite coordinate or intermediate are
    scanned whole, together in one stack (``_scan``).
    """
    k, n, d = states.shape
    if n == 0:
        raise ConfigurationError("diameter of an empty point set")
    if n < _FILTER_MIN_POINTS:
        return _scan(states, norm)
    candidates = _candidates(states, norm)
    whole = [s for s, kept in enumerate(candidates) if kept is None]
    found = dict(zip(whole, _scan(states[whole], norm))) if whole else {}
    for s, kept in enumerate(candidates):
        if kept is not None:
            diam, a, b = _scan(states[s, kept][None], norm)[0]
            found[s] = (diam, int(kept[a]), int(kept[b]))
    return [found[s] for s in range(k)]


def diameter(points: np.ndarray, norm: str = "euclidean") -> float:
    """Maximum pairwise distance of a point set (0 for a single point)."""
    return farthest_pair(points, norm)[0]


# ---------------------------------------------------------------------------
# Minimum enclosing ball (euclidean, exact, any dimension)
# ---------------------------------------------------------------------------

def _circumball(pts: np.ndarray) -> Ball:
    """Smallest ball with all given points on its boundary (within their affine hull)."""
    k = pts.shape[0]
    if k == 1:
        return Ball(pts[0].copy(), 0.0)
    p0 = pts[0]
    v = pts[1:] - p0
    gram = 2.0 * (v @ v.T)
    rhs = gram.diagonal() / 2.0
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    offset = v.T @ w
    center = p0 + offset
    return Ball(center, float(lengths(offset)))


def _in_ball(ball: Optional[Ball], p: np.ndarray) -> bool:
    if ball is None:
        return False
    return float(lengths(p - ball.center)) <= ball.radius * (1 + 1e-13) + 1e-13


def minimum_enclosing_ball(points: np.ndarray) -> Ball:
    """Exact euclidean minimum enclosing ball (Welzl, randomized, recursive)."""
    pts = _as_points(points)
    n, d = pts.shape
    if n == 0:
        raise ConfigurationError("minimum enclosing ball of an empty point set")
    order = np.random.default_rng(_WELZL_SHUFFLE_SEED).permutation(n)
    pts = pts[order]

    def welzl(stop: int, support: tuple[int, ...]) -> Optional[Ball]:
        # The smallest ball of pts[stop:] with the support on its boundary:
        # each point found outside, from the last one down, joins the support
        # of a new ball of the points after it.  A call adds one point to the
        # support, so the recursion is at most min(n, d + 1) frames deep.
        ball = _circumball(pts[list(support)]) if support else None
        if len(support) == d + 1:
            return ball
        for i in range(n - 1, stop - 1, -1):
            if not _in_ball(ball, pts[i]):
                ball = welzl(i + 1, support + (i,))
        return ball

    center = welzl(0, ()).center
    # Report the true attained radius so containment holds exactly.
    return Ball(center, float(lengths(pts - center).max()))


# ---------------------------------------------------------------------------
# Chebyshev center of a space
# ---------------------------------------------------------------------------

def chebyshev_center(space: OpinionSpace, norm: str = "euclidean") -> Ball:
    """Center and radius of the smallest enclosing ball of the region.

    box/ball have closed forms; point clouds use the exact MEB for
    the euclidean norm and the bounding-box midpoint otherwise (exact for
    linf, an approximation for l1).
    """
    validate_norm(norm)
    if isinstance(space, Box):
        half = (space.upper - space.lower) / 2.0
        return Ball((space.lower + space.upper) / 2.0, float(lengths(half, norm)))
    if isinstance(space, BallSpace):
        if space.norm != norm:
            raise ConfigurationError(f"ball declared in norm {space.norm!r}, queried in {norm!r}")
        return Ball(space.center.copy(), space.radius)
    if isinstance(space, PointCloud):
        if norm == "euclidean":
            return minimum_enclosing_ball(space.points)
        center = (space.points.min(axis=0) + space.points.max(axis=0)) / 2.0
        return Ball(center, float(lengths(space.points - center, norm).max()))
    raise ConfigurationError(f"unsupported opinion space {type(space).__name__}")


# ---------------------------------------------------------------------------
# Expected distance to the center
# ---------------------------------------------------------------------------

MONTE_CARLO_SAMPLES = 200_000
_MEASURE_ROWS = 4096


def _interval_mean(a: float, b: float, c: float) -> float:
    """E|X - c| for X uniform on [a, b]."""
    # Past about 2^500 the squares below overflow, so such an interval is
    # measured scaled by a power of two, which is exact, and scaled back;
    # below it every number keeps its bits.
    big = max(abs(a), abs(b), abs(c))
    k = math.frexp(big)[1] if big > 2.0 ** 500 else 0
    a, b, c = (math.ldexp(float(v), -k) for v in (a, b, c))
    if c <= a:
        mean = (a + b) / 2.0 - c
    elif c >= b:
        mean = c - (a + b) / 2.0
    else:
        mean = ((c - a) ** 2 + (b - c) ** 2) / (2.0 * (b - a))
    return math.ldexp(mean, k)


def _box_linf_mean(box: Box, c: np.ndarray) -> float:
    """E max_k |X_k - c_k| = integral over t >= 0 of 1 - prod_k F_k(t), with F_k
    the CDF of |X_k - c_k|: the share of [c_k - t, c_k + t] inside the box's
    side.  Between the sorted breakpoints |c_k - lower_k|, |upper_k - c_k|
    each F_k is linear, u + w s with s running from 0 to 1 across the piece,
    so the product is a polynomial of degree d in s, integrated exactly."""
    near, far = c - box.lower, box.upper - c
    t = np.unique(np.abs(np.concatenate(([0.0], near, far))))[:, None]
    cdf = np.maximum(0.0, np.minimum(t, near) + np.minimum(t, far)) / (box.upper - box.lower)
    u, w = cdf[:-1], np.diff(cdf, axis=0)
    coef = np.ones((len(u), 1))   # of s^0, s^1, ... on each piece
    for k in range(box.dimension):
        coef = (np.pad(coef * u[:, k:k + 1], ((0, 0), (0, 1)))
                + np.pad(coef * w[:, k:k + 1], ((0, 0), (1, 0))))
    return float(np.diff(t[:, 0]) @ (1.0 - coef @ (1.0 / np.arange(1, box.dimension + 2))))


def _corner_integral(a: float, b: float) -> float:
    """The integral of sqrt(x^2 + y^2) over the rectangle from (0, 0) to
    (a, b), signed: (1/6)[2ab rho + a^3 ln((b + rho)/a) + b^3 ln((a + rho)/b)]
    for a, b > 0, rho = sqrt(a^2 + b^2), with ln((b + rho)/a) = asinh(b/a)."""
    x, y = abs(a), abs(b)
    if x == 0.0 or y == 0.0:
        return 0.0
    g = (2.0 * x * y * math.hypot(x, y) + x ** 3 * math.asinh(y / x)
         + y ** 3 * math.asinh(x / y)) / 6.0
    return g if (a > 0) == (b > 0) else -g


def _box_euclidean_2d_mean(box: Box, c: np.ndarray) -> float:
    """The mean of |X - c| over a rectangle: the signed corner integrals of
    its four corners about c, over its area.  With c outside the box the
    four terms cancel, and precision falls as c moves away.  Measured scaled
    by a power of two, exact, so that the cubes neither overflow nor
    underflow."""
    lo, hi = box.lower - c, box.upper - c
    k = math.frexp(float(np.abs(np.concatenate((lo, hi))).max()))[1]
    (x0, y0), (x1, y1) = (np.ldexp(lo, -k).tolist(), np.ldexp(hi, -k).tolist())
    total = (_corner_integral(x1, y1) - _corner_integral(x0, y1)
             - _corner_integral(x1, y0) + _corner_integral(x0, y0))
    return math.ldexp(total / ((x1 - x0) * (y1 - y0)), k)


def expected_center_distance(
    space: OpinionSpace,
    center: np.ndarray,
    norm: str = "euclidean",
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, float]:
    """(estimate, std_error) of the mean distance from a uniform draw to ``center``.

    Exact in closed form, evaluated in floats, with std_error 0.0, for:
    - a one-dimensional box or ball, an interval [a, b], in any norm;
    - a box under l1: the sum of its coordinates' interval means;
    - a box under linf: the integral of 1 - prod_k F_k(t) over t >= 0, F_k the
      piecewise-linear CDF of |X_k - c_k|, exact between its breakpoints;
    - a box under euclidean at d = 2: the corner integrals of its four
      corners about ``center``, signed, so ``center`` may lie outside;
    - a ball from its own centre in its own norm: r d / (d + 1), since the
      norm of a uniform draw is distributed as r U^(1/d);
    - a point cloud: the mean distance of its points, each row once.
    Otherwise (a euclidean box of d >= 3, a ball measured from another point
    or in another norm) a Monte Carlo mean of MONTE_CARLO_SAMPLES draws from
    ``rng`` with its sample standard error.
    """
    validate_norm(norm)
    c = np.asarray(center, dtype=float).ravel()
    d = space.dimension
    if c.shape[0] != d:
        raise ConfigurationError(f"center dimension {c.shape[0]} != space dimension {d}")

    if isinstance(space, Box):
        if d == 1 or norm == "l1":
            return sum(map(_interval_mean, space.lower, space.upper, c)), 0.0
        if norm == "linf":
            return _box_linf_mean(space, c), 0.0
        if d == 2:
            return _box_euclidean_2d_mean(space, c), 0.0
    elif isinstance(space, BallSpace):
        if d == 1:
            return _interval_mean(space.center[0] - space.radius,
                                  space.center[0] + space.radius, c[0]), 0.0
        if norm == space.norm and np.array_equal(c, space.center):
            return space.radius * d / (d + 1), 0.0
    elif isinstance(space, PointCloud):
        return float(lengths(space.points - c, norm).mean()), 0.0

    if rng is None:
        raise ConfigurationError("Monte Carlo estimate needs an rng")
    draws = space.sample(rng, MONTE_CARLO_SAMPLES)
    # measured _MEASURE_ROWS draws at a time, so the differences never fill
    # a whole draws-sized array
    dists = np.empty(MONTE_CARLO_SAMPLES)
    for s in range(0, MONTE_CARLO_SAMPLES, _MEASURE_ROWS):
        dists[s:s + _MEASURE_ROWS] = lengths(draws[s:s + _MEASURE_ROWS] - c, norm)
    est = float(dists.mean())
    se = float(dists.std(ddof=1) / np.sqrt(MONTE_CARLO_SAMPLES))
    return est, se
