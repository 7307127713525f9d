"""The social graph can change every step; agreement still arrives.

Three wiring policies over the same 12 agents (1-D opinions, epsilon=0.9,
mu=0.5):

  everyone        complete graph, fixed for all time
  committees      alternating steps: two halves meet internally, then the
                  whole group meets as a single chain ("plenary")
  gossip          a fresh Erdos-Renyi draw (p = 0.2) every step

For each run two stopping times are reported:

  tau(delta)   first step at which every *currently possible* interaction
               (social edge whose endpoints are within epsilon) is already
               shorter than delta.  A per-step snapshot: under switching
               wiring it only quantifies over the edges present right now,
               so it can fire on a conveniently sparse step.
  T(delta)     first recorded step from which the interaction profile is
               connected and stays delta-short through the horizon -- the
               robust certificate that settlement covered the whole
               population and held.  Certification needs a recorded state
               whose own step has a connected profile, which is why the
               recording stride here is coprime to the committee cycle:
               the snapshots sample both phases.

Sparser or intermittent wiring slows mixing, and the certificate T always
trails the snapshot tau.
"""

from itertools import combinations

import numpy as np

from deffuant import (
    ConstantGraph,
    ConstantMu,
    CyclicGraph,
    EdgeSet,
    ErdosRenyiGraph,
    ModelParams,
    OpinionGraphChangeCounter,
    OpinionState,
    StoppingTimeTracker,
    complete_edges,
    path_edges,
    run_trajectory,
    settle_time,
)

N = 12
DELTA = 0.01
HORIZON = 20_000
RECORD_STRIDE = 7  # odd, so recorded steps hit both committee phases
SEEDS = range(5)


def committee_schedule() -> CyclicGraph:
    half = N // 2
    internal = EdgeSet(tuple(combinations(range(half), 2))
                       + tuple(combinations(range(half, N), 2)))
    plenary = path_edges(N)
    return CyclicGraph(N, (internal, plenary))


def run_once(schedule, seed: int):
    params = ModelParams(epsilon=0.9)
    init_rng = np.random.default_rng((seed, 0))
    tracker = StoppingTimeTracker(DELTA, params)
    changes = OpinionGraphChangeCounter(params)
    trajectory = run_trajectory(
        OpinionState(0, init_rng.random(N)),
        schedule,
        ConstantMu(0.5),
        params,
        HORIZON,
        np.random.default_rng((seed, 1)),
        observers=(tracker, changes),
        record_stride=RECORD_STRIDE,
        record_events=False,
    )
    settled = settle_time(trajectory.times, trajectory.states, schedule, DELTA, params)
    spread = float(np.ptp(trajectory.states[-1]))
    return tracker.time, settled, spread, changes


def main() -> None:
    print(f"n={N}, epsilon=0.9, mu=0.5, delta={DELTA}, horizon={HORIZON}\n")
    policies = [
        ("everyone", lambda seed: ConstantGraph(N, complete_edges(N))),
        ("committees", lambda seed: committee_schedule()),
        ("gossip", lambda seed: ErdosRenyiGraph(N, 0.2, seed=seed)),
    ]
    ordered = True
    for name, make in policies:
        taus = []
        print(f"{name}")
        for seed in SEEDS:
            tau, settled, spread, changes = run_once(make(seed), seed)
            taus.append(tau if tau is not None else np.inf)
            if tau is not None and settled is not None:
                ordered = ordered and tau <= settled
            print(f"  seed {seed}:  tau({DELTA}) = {tau!s:>6}   "
                  f"T({DELTA}) = {settled!s:>6}   final spread {spread:.2e}   "
                  f"range-edges gained/lost {changes.gained_steps}/"
                  f"{changes.lost_steps}")
        print(f"  median tau = {np.median(taus):.0f}\n")

    print(f"tau <= T whenever both exist: {ordered} -- the snapshot comes")
    print("first, the connected certificate only once coverage is complete.")


if __name__ == "__main__":
    main()
