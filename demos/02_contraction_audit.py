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
    ConstantMu,
    EdgeSet,
    ModelParams,
    OpinionState,
    UniformMu,
    check_potential_monotone,
    complete_edges,
    contraction_slacks,
    lattice_points,
    run_trajectory,
)


def one_step(x: np.ndarray, mu: float, params: ModelParams):
    """Opinions after one update of agents 0 and 1 at rate mu, and whether it
    fired: a one-step run on the graph whose only edge is (0, 1)."""
    traj = run_trajectory(OpinionState(0, x), ConstantGraph(len(x), EdgeSet([(0, 1)])),
                          ConstantMu(mu), params, 1, np.random.default_rng(0))
    return traj.states[-1], bool(traj.events["fired"][0])


def show(tag: str, pre: np.ndarray, post: np.ndarray, c: np.ndarray) -> None:
    basic, refined, _, _ = contraction_slacks(pre[None], post[None], c[None])
    basic, refined = basic[0, 0], refined[0, 0]
    ok = "ok " if min(basic, refined) >= -1e-12 else "BAD"
    print(f"  [{ok}] {tag:<28} basic={basic:+.4f}  refined={refined:+.4f}")


def main() -> None:
    params = ModelParams(epsilon=1.0)
    c = np.array([0.0])

    print("slacks against reference point c = 0 (all must be >= 0)\n")

    pre = np.array([[0.0], [1.0]])
    post, fired = one_step(pre, 0.25, params)
    assert fired
    show("legitimate update, mu=0.25", pre, post, c)

    post, _ = one_step(pre, 0.5, params)
    show("full merge, mu=0.5 (tight)", pre, post, c)

    # A broken integrator that overshoots the midpoint (rate 0.9).  The pair
    # swaps places, so the summed distance to c is unchanged and the basic
    # inequality is blind to it -- but the refined one charges the oversized
    # displacement and goes negative.
    overshoot = np.array([[0.9], [0.1]])
    show("overshoot, rate 0.9 (broken)", pre, overshoot, c)

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
    violation = check_potential_monotone(trajectory.times, trajectory.states, grid)
    print(f"replayed a 2-D run ({trajectory.steps_run} steps, "
          f"{len(trajectory.states)} recorded states)")
    print(f"summed distance to each of {len(grid)} reference points "
          f"monotone non-increasing: {violation is None}")


if __name__ == "__main__":
    main()
