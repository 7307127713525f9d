"""The geometric quantities behind the consensus bound.

The bound max(0, 1 - E||X - c|| / (epsilon - r)) is built from three
geometric ingredients, each provided by the package:

  * chebyshev_center(space)        -> smallest ball B(c, r) around a region,
  * expected_center_distance(...)  -> E||X - c|| for X uniform on the region
                                      (closed form for boxes under l1 and
                                      linf, rectangles, balls from their
                                      centre and clouds; Monte Carlo with a
                                      reported standard error otherwise),
  * minimum_enclosing_ball(points) -> exact smallest ball around a finite
                                      opinion cloud, for live trajectories.

The script walks through each on concrete regions, checks the enclosing
radius against its universal diameter envelopes

    diameter / 2  <=  r  <=  diameter * sqrt(3)/2      (euclidean, any d)

and finishes with a certified separation gap between two opinion clusters:
a lower bound on the distance between their convex hulls, which is how a
split population is shown to be permanently split (pairs further apart
than epsilon can never interact).
"""

import numpy as np

from deffuant import (
    BallSpace,
    Box,
    Interval,
    PointCloud,
    certified_hull_gap,
    chebyshev_center,
    diameter,
    expected_center_distance,
    minimum_enclosing_ball,
)


def main() -> None:
    rng = np.random.default_rng(11)

    print("smallest enclosing balls of opinion regions")
    regions = [
        ("interval [0, 1]", Interval(0.0, 1.0)),
        ("box [0,1] x [0,2]", Box([0.0, 0.0], [1.0, 2.0])),
        ("ball B((1,1), 0.5)", BallSpace([1.0, 1.0], 0.5)),
        ("5-point cloud in the plane", PointCloud(rng.random((5, 2)))),
    ]
    for name, space in regions:
        ball = chebyshev_center(space)
        dist, se = expected_center_distance(space, ball.center, rng=rng)
        se_txt = f" +/- {se:.4f}" if se > 0 else " (exact)"
        center = np.array2string(ball.center, precision=3)
        print(f"  {name:<28} center {center:<16} radius {ball.radius:.4f}   "
              f"E||X - c|| = {dist:.4f}{se_txt}")

    print("\nexact minimum enclosing ball of a finite cloud vs diameter envelopes")
    for n, d in [(20, 2), (50, 3), (100, 5)]:
        pts = rng.normal(size=(n, d))
        ball = minimum_enclosing_ball(pts)
        diam = diameter(pts)
        lo, hi = diam / 2.0, diam * np.sqrt(3.0) / 2.0
        ok = lo <= ball.radius + 1e-12 and ball.radius <= hi + 1e-12
        print(f"  n={n:>3}, d={d}:  diam/2 = {lo:.4f}  <=  r = {ball.radius:.4f}"
              f"  <=  diam*sqrt(3)/2 = {hi:.4f}   [{'ok' if ok else 'VIOLATED'}]")

    print("\ncertified separation between two opinion clusters")
    left = rng.normal(loc=(0.0, 0.0), scale=0.08, size=(30, 2))
    right = rng.normal(loc=(0.7, 0.1), scale=0.08, size=(25, 2))
    gap = certified_hull_gap(left, right)
    closest = np.sqrt(((left[:, None, :] - right[None, :, :]) ** 2)
                      .sum(axis=2)).min()
    print(f"  closest pair of points        : {closest:.4f}")
    print(f"  certified convex-hull gap     : {gap:.4f}  (never exceeds the above)")
    print(f"  a confidence range epsilon < {gap:.4f} can never rejoin "
          f"these clusters.")


if __name__ == "__main__":
    main()
