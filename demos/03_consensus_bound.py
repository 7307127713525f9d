"""Monte Carlo consensus probability versus the closed-form lower bound.

For opinions drawn uniformly from a region with smallest enclosing ball
B(c, r), the probability of eventual consensus is at least

    max(0, 1 - E||X - c|| / (epsilon - r))        (valid when epsilon > r)

On the unit interval the ball is B(0.5, 0.5) and E|X - 0.5| = 0.25, so the
bound switches on only once epsilon clears the radius by a margin: it is 0
up to epsilon = 0.75 and then climbs.  This script sweeps epsilon, runs an
ensemble of independently seeded trials at each value, and compares the
Wilson 95% interval of the consensus frequency against the bound.

Two supporting observations are reported as well:

  * the estimate should (weakly) increase with epsilon -- this softer trend
    is logged rather than asserted, since finite samples can wiggle;
  * below epsilon = r the bound's hypothesis fails and it is reported as
    inapplicable rather than silently treated as 0.
"""

import numpy as np

from deffuant import (
    BoundInapplicableError,
    ConstantGraph,
    ConstantMu,
    Interval,
    ModelParams,
    TrialConfig,
    bound_comparison_report,
    chebyshev_center,
    complete_edges,
    expected_center_distance,
    run_ensemble,
    theoretical_lower_bound,
)

N = 10
TRIALS = 300
HORIZON = 1_000_000  # trials stop early once the verdict is decided
SEED = 2026
SWEEP = (0.55, 0.65, 0.75, 0.9, 1.1, 1.5)


def main() -> None:
    space = Interval(0.0, 1.0)
    ball = chebyshev_center(space)
    expected_dist, _ = expected_center_distance(space, ball.center)
    print(f"space: unit interval; enclosing ball center {ball.center[0]:.2f}, "
          f"radius {ball.radius:.2f}; E||X - c|| = {expected_dist:.4f}")
    print(f"{TRIALS} trials per epsilon, n={N}, complete graph, mu=0.5\n")

    header = (f"{'epsilon':>8} {'bound':>8} {'p_hat':>8} "
              f"{'95% interval':>18} {'margin':>8}  verdict counts")
    print(header)
    print("-" * len(header))

    p_hats = []
    for epsilon in SWEEP:
        template = TrialConfig(
            n=N,
            params=ModelParams(epsilon=epsilon),
            space=space,
            graph_schedule=ConstantGraph(N, complete_edges(N)),
            mu_schedule=ConstantMu(0.5),
            horizon=HORIZON,
            master_seed=SEED,
        )
        ensemble = run_ensemble(template, TRIALS, workers=4)
        try:
            bound = theoretical_lower_bound(epsilon, ball, expected_dist)
        except BoundInapplicableError:
            bound = None
        estimate = ensemble.estimate
        report = bound_comparison_report(estimate, bound)
        p_hats.append(estimate.p_hat)

        bound_txt = f"{report.bound:8.4f}" if report.bound is not None else "     n/a"
        margin_txt = f"{report.margin:+8.4f}" if report.margin is not None else "        "
        print(f"{epsilon:>8.2f} {bound_txt} {estimate.p_hat:8.4f} "
              f"[{estimate.ci_low:7.4f}, {estimate.ci_high:7.4f}] {margin_txt}  "
              f"{ensemble.counts}")
        if report.passed is False:
            print("          ^^ estimate contradicts the bound -- "
                  "this would be a bug")

    trend = all(a <= b + 1e-12 for a, b in zip(p_hats, p_hats[1:]))
    print(f"\nconsensus frequency weakly increasing along the sweep: {trend} "
          f"(logged, not asserted)")

    print("\nepsilon below the enclosing radius:")
    try:
        theoretical_lower_bound(0.4, ball, expected_dist)
    except BoundInapplicableError as exc:
        print(f"  epsilon=0.4 -> inapplicable: {exc}")


if __name__ == "__main__":
    main()
