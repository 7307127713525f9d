"""Opinion-space geometry: enclosing balls, diameters, distance potentials.

The smallest enclosing ball of a bounded convex region gives the center and
radius that drive the consensus-probability lower bound; for point clouds
under the euclidean norm it is computed exactly with Welzl's randomized
algorithm (support sets of at most d+1 points, circumcenters solved through
the Gram system of the support).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .norms import cross_distances, lengths, validate_norm

log = logging.getLogger(__name__)

# Radius/diameter comparisons; MEB containment uses a tighter relative guard.
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
        # The bits of rng.uniform(lower, upper), without its per-call broadcasting.
        return self.lower + (self.upper - self.lower) * rng.random((size, self.dimension))

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
        # l1/linf balls: rejection from the bounding box
        out = np.empty((size, d))
        filled = 0
        while filled < size:
            batch = rng.uniform(-self.radius, self.radius, size=(max(size, 64), d))
            keep = batch[lengths(batch, self.norm) <= self.radius]
            take = min(size - filled, keep.shape[0])
            out[filled : filled + take] = keep[:take]
            filled += take
        return self.center + out

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
# Diameter and potential
# ---------------------------------------------------------------------------

def _as_points(points: np.ndarray) -> np.ndarray:
    """Coerce to (n, d); a 1-D array means n one-dimensional points."""
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


# Distance-matrix rows measured at once are capped so that the (rows, n, d)
# difference array holds at most this many floats (1 MB); larger blocks were
# no faster at n = 1000.
_DISTANCE_CHUNK = 1 << 17


def farthest_pair(points: np.ndarray, norm: str = "euclidean") -> tuple[float, int, int]:
    """The diameter of a point set and one pair (a, b) of points that attains it.

    The distance matrix is measured a block of rows at a time, so memory
    stays bounded at any n; the maximum is the same as over the whole matrix.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if n == 0:
        raise ConfigurationError("diameter of an empty point set")
    rows = max(1, _DISTANCE_CHUNK // (n * d))
    best, a, b = 0.0, 0, 0
    for start in range(0, n, rows):
        block = cross_distances(pts[start:start + rows], pts, norm)
        k = int(block.argmax())
        if block.flat[k] > best:
            best = float(block.flat[k])
            a, b = divmod(k, n)
            a += start
    return best, a, b


def diameter(points: np.ndarray, norm: str = "euclidean") -> float:
    """Maximum pairwise distance of a point set (0 for a single point)."""
    return farthest_pair(points, norm)[0]


def distance_potential(points: np.ndarray, c: np.ndarray, norm: str = "euclidean") -> float:
    """Sum of distances from each point to c (nonincreasing along trajectories)."""
    pts = _as_points(points)
    c = np.asarray(c, dtype=float).ravel()
    if pts.shape[1] != c.shape[0]:
        raise ConfigurationError(f"dimension mismatch: points d={pts.shape[1]}, c d={c.shape[0]}")
    return float(lengths(pts - c, norm).sum())


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
    """Exact euclidean minimum enclosing ball (Welzl, randomized, iterative)."""
    pts = _as_points(points)
    n, d = pts.shape
    if n == 0:
        raise ConfigurationError("minimum enclosing ball of an empty point set")
    order = np.random.default_rng(_WELZL_SHUFFLE_SEED).permutation(n)
    pts = pts[order]
    max_support = d + 1

    # Explicit stack replays the recursion
    #   welzl(i, R) = trivial(R)                      if i == n or |R| == d+1
    #               = welzl(i+1, R)                   if pts[i] inside that ball
    #               = welzl(i+1, R + [pts[i]])        otherwise
    # Phase 0 enters a call, phase 1 resumes it after the first recursion.
    result: Optional[Ball] = None
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        idx, phase, support = stack.pop()
        if phase == 0:
            if idx == n or len(support) == max_support:
                result = _circumball(pts[list(support)]) if support else None
            else:
                stack.append((idx, 1, support))
                stack.append((idx + 1, 0, support))
        else:
            if not _in_ball(result, pts[idx]):
                stack.append((idx + 1, 0, support + (idx,)))
    assert result is not None
    # Report the true attained radius so containment holds exactly.
    attained = float(lengths(pts - result.center).max())
    return Ball(result.center, attained)


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
        ball = Ball((space.lower + space.upper) / 2.0, float(lengths(half, norm)))
    elif isinstance(space, BallSpace):
        ball = Ball(space.center.copy(), space.radius)   # space.diameter checks the norm
    elif isinstance(space, PointCloud):
        if norm == "euclidean":
            ball = minimum_enclosing_ball(space.points)
        else:
            if norm == "l1":
                log.info("l1 chebyshev center of a point cloud uses the bounding-box "
                         "midpoint (approximate)")
            center = (space.points.min(axis=0) + space.points.max(axis=0)) / 2.0
            radius = float(lengths(space.points - center, norm).max())
            ball = Ball(center, radius)
    else:
        raise ConfigurationError(f"unsupported opinion space {type(space).__name__}")

    diam = space.diameter(norm)
    if ball.radius > (np.sqrt(3.0) / 2.0) * diam + _COVER_TOL:
        log.warning(
            "enclosing radius %.6g exceeds sqrt(3)/2 * diameter (%.6g); "
            "bound violated, continuing", ball.radius, (np.sqrt(3.0) / 2.0) * diam,
        )
    return ball


# ---------------------------------------------------------------------------
# Expected distance to the center
# ---------------------------------------------------------------------------

MONTE_CARLO_SAMPLES = 200_000


def expected_center_distance(
    space: OpinionSpace,
    center: np.ndarray,
    norm: str = "euclidean",
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, float]:
    """(estimate, std_error) of the mean distance from a uniform draw to ``center``.

    Exact in closed form for every one-dimensional box or ball, an interval
    [a, b] in any norm; otherwise a Monte Carlo mean of MONTE_CARLO_SAMPLES
    draws from ``rng`` with its sample standard error.
    """
    validate_norm(norm)
    c = np.asarray(center, dtype=float).ravel()
    if c.shape[0] != space.dimension:
        raise ConfigurationError(
            f"center dimension {c.shape[0]} != space dimension {space.dimension}"
        )

    interval = None
    if isinstance(space, Box) and space.dimension == 1:
        interval = (space.lower[0], space.upper[0])
    elif isinstance(space, BallSpace) and space.dimension == 1:
        interval = (space.center[0] - space.radius, space.center[0] + space.radius)
    if interval is not None:
        # Past about 2^500 the squares below overflow, so such an interval is
        # measured scaled by a power of two, which is exact, and scaled back;
        # below it every number keeps its bits.
        big = max(abs(v) for v in (*interval, c[0]))
        k = math.frexp(big)[1] if big > 2.0 ** 500 else 0
        a, b, c0 = (math.ldexp(float(v), -k) for v in (*interval, c[0]))
        if c0 <= a:
            mean = (a + b) / 2.0 - c0
        elif c0 >= b:
            mean = c0 - (a + b) / 2.0
        else:
            mean = ((c0 - a) ** 2 + (b - c0) ** 2) / (2.0 * (b - a))
        return math.ldexp(mean, k), 0.0

    if rng is None:
        raise ConfigurationError("Monte Carlo estimate needs an rng")
    draws = space.sample(rng, MONTE_CARLO_SAMPLES)
    dists = lengths(draws - c, norm)
    est = float(dists.mean())
    se = float(dists.std(ddof=1) / np.sqrt(MONTE_CARLO_SAMPLES))
    return est, se
