"""The benchmark's workloads: which deffuant commands each one runs, on what.

Every end-to-end and per-layer metric must be reported by every workload, so
each workload pairs one ``simulate`` config with one ``estimate`` config of
the same scale:

* ``small`` runs simulate-n10 and estimate-n10.  Fixed per-step costs
  dominate: the engine loop, the rate draw, the observer hooks, one
  events.csv row per step, per-trial set-up and the process pool.
* ``large`` runs simulate-n1000 and estimate-er100.  Per-step work that
  grows with n dominates: the O(m) stopping-time tracker, the O(n^2)
  diameter observer, settle_time, complete_edges at set-up, and
  Erdos-Renyi ``edges_at``.

All configs keep the full audit and the default ``deltas`` [0.01].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

_BOX2 = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    simulate_label: str
    simulate: dict          # deffuant config JSON for ``simulate``
    simulates_per_round: int  # new simulate seeds per round, besides the first seed
    estimate_label: str
    estimate: dict          # deffuant config JSON for ``estimate``
    trials: int


WORKLOADS = {
    "small": Workload(
        name="small",
        why=("simulate-n10 and estimate-n10: engine loop, hooks, CSV rows, "
             "per-trial set-up and the pool dominate; the tracker, settle_time "
             "and edges_at do almost nothing"),
        simulate_label="simulate-n10",
        # Epsilon 1.5 exceeds the diameter of the unit square, so every step
        # fires and runs the full audit.  At 0.5 the share of fired steps runs
        # from 0.36 to 1.0 with the clusters a seed forms, and the cost of a
        # step with it.  Many short commands average out a CPU speed that
        # drifts by 20 % within seconds on a shared machine.
        simulate={"n": 10, "dimension": 2, "epsilon": 1.5, "space": _BOX2,
                  "graph": {"kind": "complete"},
                  "mu": {"kind": "uniform", "low": 0.1, "high": 0.5},
                  "horizon": 5000},
        simulates_per_round=2,
        estimate_label="estimate-n10",
        # The criterion-6 reference ensemble: about 76 steps per trial.
        estimate={"n": 10, "dimension": 1, "epsilon": 0.9,
                  "space": {"kind": "interval", "a": 0.0, "b": 1.0},
                  "graph": {"kind": "complete"},
                  "mu": {"kind": "constant", "value": 0.5},
                  "horizon": 10000},
        trials=250,
    ),
    "large": Workload(
        name="large",
        why=("simulate-n1000 and estimate-er100: the O(m) tracker, O(n^2) "
             "diameter, settle_time, complete_edges set-up and ER edges_at "
             "dominate; engine overhead is negligible"),
        simulate_label="simulate-n1000",
        # Two recorded states (steps 0 and 40): settle_time is a visible
        # share of the run but not all of it.  Short commands give a run
        # several samples.
        simulate={"n": 1000, "dimension": 2, "epsilon": 0.5, "space": _BOX2,
                  "graph": {"kind": "complete"},
                  "mu": {"kind": "constant", "value": 0.5},
                  "horizon": 40, "record_stride": 40},
        simulates_per_round=1,
        estimate_label="estimate-er100",
        # Trials wait for tau_delta, which falls between 5000 and 10000 steps
        # depending on the seed; a 2000-step horizon makes every trial run to
        # the horizon, so trials per second does not swing with the seed.
        estimate={"n": 100, "dimension": 2, "epsilon": 0.3, "space": _BOX2,
                  "graph": {"kind": "erdos_renyi", "p": 0.5},
                  "mu": {"kind": "uniform", "low": 0.1, "high": 0.5},
                  "horizon": 2000},
        trials=2,
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload shrunk to a smoke-test size (same n, fewer steps).

    Estimate trials keep 250 steps, so the classifier's periodic checks (every
    100 steps) still run in a trial that has not decided.
    """
    sim = dict(workload.simulate, horizon=min(workload.simulate["horizon"], 20),
               record_stride=10)
    est = dict(workload.estimate, horizon=min(workload.estimate["horizon"], 250))
    return replace(workload, simulate=sim, estimate=est, trials=2)
