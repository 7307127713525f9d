"""What the contraction checks actually measure, and what they catch.

A fired update moves both agents toward each other by the same amount with
rate mu <= 1/2.  For any fixed reference point c this forces two
inequalities on the pair's summed distance to c:

  basic    sum-of-distances never rises, and
  refined  the drop must additionally cover 2 * displacement
           - 2 * ||midpoint - c||, a strictly tighter budget.

The refined form matters: it is sensitive to *overshooting* updates that
jump past the midpoint, which the basic form cannot see.  This script

  1. evaluates both slacks on a legitimate step (both >= 0),
  2. hand-builds a broken update with rate 0.9 and shows the refined
     slack go negative while the basic slack stays 0,
  3. replays a long run and confirms the summed distance to a whole grid
     of reference points never rises between any two recorded states.
"""

import numpy as np

from deffuant import (
    ConstantGraph,
    ModelParams,
    OpinionState,
    UniformMu,
    check_potential_monotone,
    complete_edges,
    lattice_points,
    pair_contraction_slacks,
    run_trajectory,
    step,
)


def show(tag: str, report) -> None:
    ok = "ok " if min(report.basic_slack, report.refined_slack) >= -1e-12 else "BAD"
    print(f"  [{ok}] {tag:<28} basic={report.basic_slack:+.4f}  "
          f"refined={report.refined_slack:+.4f}")


def main() -> None:
    params = ModelParams(epsilon=1.0)
    c = np.array([0.0])

    print("slacks against reference point c = 0 (all must be >= 0)\n")

    pre = OpinionState(0, np.array([0.0, 1.0]))
    post, fired = step(pre, (0, 1), mu=0.25, params=params)
    assert fired
    show("legitimate update, mu=0.25", pair_contraction_slacks(pre, post, (0, 1), c))

    post, _ = step(pre, (0, 1), mu=0.5, params=params)
    show("full merge, mu=0.5 (tight)", pair_contraction_slacks(pre, post, (0, 1), c))

    # A broken integrator that overshoots the midpoint (rate 0.9).  The pair
    # swaps places, so the summed distance to c is unchanged and the basic
    # inequality is blind to it -- but the refined one charges the oversized
    # displacement and goes negative.
    overshoot = OpinionState(1, np.array([0.9, 0.1]))
    show("overshoot, rate 0.9 (broken)", pair_contraction_slacks(pre, overshoot, (0, 1), c))

    print("\nthe refined slack is the one that catches the bad update.\n")

    n = 10
    params2 = ModelParams(epsilon=0.8, dimension=2)
    rng = np.random.default_rng(42)
    trajectory = run_trajectory(
        OpinionState(0, rng.random((n, 2))),
        ConstantGraph(n, complete_edges(n)),
        UniformMu(0.1, 0.5),
        params2,
        5_000,
        np.random.default_rng(43),
        record_stride=25,
    )
    grid = lattice_points(np.zeros(2), np.ones(2), 25)
    result = check_potential_monotone(trajectory.times, trajectory.states, grid)
    print(f"replayed a 2-D run ({trajectory.steps_run} steps, "
          f"{len(trajectory.states)} recorded states)")
    print(f"summed distance to each of {len(grid)} reference points "
          f"monotone non-increasing: {result.ok}")


if __name__ == "__main__":
    main()
