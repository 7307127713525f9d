"""One fully audited run, watched as it happens.

Twelve agents start with opinions spread over [0, 1] and only listen to
peers whose opinion is within epsilon = 0.25 of their own, so the
population fragments into local clusters instead of agreeing globally.
Every step is checked live by the invariant observers:

  * the update identity (symmetric moves, rate in range, sum conserved),
  * pair contraction and potential decay toward reference points,
  * monotone population diameter.

The script prints an ASCII timeline of the opinions, the final clusters,
and the audit totals.  Any violated invariant would abort the run with an
exception instead of printing a wrong answer.
"""

import numpy as np

from deffuant import (
    ConstantGraph,
    ConstantMu,
    ContractionObserver,
    DiameterMonotoneObserver,
    ModelParams,
    OpinionState,
    UpdateIdentityObserver,
    complete_edges,
    connected_components,
    lattice_points,
    profile,
    run_trajectory,
)

N = 12
EPSILON = 0.25
HORIZON = 4_000
SEED = 7


def ascii_row(opinions: np.ndarray, width: int = 64) -> str:
    """Mark each agent's opinion on a [0, 1] axis; '*' marks collisions."""
    cells = [" "] * width
    for value in opinions.ravel():
        k = min(width - 1, int(value * (width - 1) + 0.5))
        cells[k] = "*" if cells[k] != " " else "o"
    return "|" + "".join(cells) + "|"


def main() -> None:
    params = ModelParams(epsilon=EPSILON)
    rng = np.random.default_rng(SEED)
    initial = OpinionState(0, np.sort(rng.random(N)))

    identity = UpdateIdentityObserver(params)
    contraction = ContractionObserver(lattice_points(np.array([0.0]),
                                                     np.array([1.0]), 9), params)
    diam = DiameterMonotoneObserver(params)

    trajectory = run_trajectory(
        initial,
        ConstantGraph(N, complete_edges(N)),
        ConstantMu(0.5),
        params,
        HORIZON,
        np.random.default_rng(SEED + 1),
        observers=(identity, contraction, diam),
        record_stride=HORIZON // 16,
    )

    print(f"{N} agents, epsilon={EPSILON}, mu=0.5, complete graph, "
          f"{HORIZON} steps\n")
    print("step     opinions in [0, 1]")
    for t, x in zip(trajectory.times, trajectory.states):
        print(f"{t:>6}   {ascii_row(x)}")

    in_range, _ = profile(trajectory.states[-1], complete_edges(N).array, params)
    groups = connected_components(in_range, N)
    print(f"\nfinal clusters (mutually within epsilon): {len(groups)}")
    for members in groups:
        value = trajectory.states[-1][members[0], 0]
        print(f"  {len(members):>2} agents near {value:.4f}: {members}")

    print("\nlive audit totals")
    print(f"  fired steps checked        : {contraction.fired_steps}")
    print(f"  min basic contraction slack: {contraction.min_basic_slack:.3e}  (>= 0)")
    print(f"  min refined slack          : {contraction.min_refined_slack:.3e}  (>= 0)")
    print(f"  max potential drift        : {contraction.max_potential_drift:.3e}  (<= 0)")
    print(f"  max pair-sum error         : {identity.max_sum_error:.3e}")
    print(f"  max diameter increase      : {diam.max_increase:.3e}  (<= 0)")
    print(f"  final diameter             : {diam.diameter:.6f}")


if __name__ == "__main__":
    main()
