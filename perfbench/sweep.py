"""Per-step cost of the engine alone and with each observer, at n = 10, 100, 1000.

Usage: python3 perfbench/sweep.py SEED RESULT.json [BUDGET_S]

Regenerates the baseline table of ROADMAP.md: a constant complete graph,
d = 2, microseconds per step of ``run_trajectory`` with no recording, each
row with that one observer added.  Epsilon 1.5 exceeds the diameter of the
unit square, so every step fires and the observers do their full work on
every step, whatever the seed.  Also times the engine and ``edges_at`` on
``ErdosRenyiGraph(p=0.5)`` at n = 100.  Each cell runs for about BUDGET_S
seconds (default 0.2), sized from its baseline figure.  Observer set-up
(``at_start``) is left out of the timed span.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

SIZES = (10, 100, 1000)
# The ROADMAP baseline, us/step at n = 10, 100, 1000, measured on a 2-core
# machine with Python 3.11 and numpy 2.4.
BASELINE = {
    "engine": (12, 12, 40),
    "identity": (39, 38, 58),
    "contraction": (75, 77, 91),
    "diameter": (32, 40, 571),
    "tracker": (14, 30, 28770),
    "change_counter": (60, 69, 138),
    "audit3": (126, 139, 650),
}
ER_BASELINE_US = 180


def main(seed: int, result_path: str, budget_s: float = 0.2) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from deffuant import (
        ConstantGraph, ConstantMu, ContractionObserver, DiameterMonotoneObserver,
        ErdosRenyiGraph, ModelParams, OpinionGraphChangeCounter, OpinionState,
        StoppingTimeTracker, TrajectoryObserver, UpdateIdentityObserver, complete_edges,
        lattice_points, run_trajectory,
    )

    class Clock(TrajectoryObserver):
        """Listed first and last: stamps the loop's start and end."""

        def at_start(self, state):
            self.start = perf_counter()

        def at_end(self, t, state, social_edges):
            if not hasattr(self, "end"):
                self.end = perf_counter()

    params = ModelParams(epsilon=1.5, dimension=2)
    rng = np.random.default_rng(seed)

    def us_per_step(x0, schedule, observers, baseline_us):
        steps = max(20, min(5000, int(budget_s * 1e6 / baseline_us)))
        clock = Clock()
        run_trajectory(OpinionState(0, x0), schedule, ConstantMu(0.5), params, steps,
                       np.random.default_rng(rng.integers(2**63)),
                       observers=[clock, *observers, clock],
                       record_stride=None, record_events=False)
        return (clock.end - clock.start) / steps * 1e6

    metrics = {}
    for col, n in enumerate(SIZES):
        x0 = rng.random((n, 2))
        schedule = ConstantGraph(n, complete_edges(n))
        schedule.edges.array  # built on first use; keep that out of the timings
        lattice = lattice_points(x0.min(axis=0), x0.max(axis=0), 10)
        rows = {
            "engine": lambda: [],
            "identity": lambda: [UpdateIdentityObserver(params)],
            "contraction": lambda: [ContractionObserver(lattice, params)],
            "diameter": lambda: [DiameterMonotoneObserver(params)],
            "tracker": lambda: [StoppingTimeTracker(0.01, params)],
            "change_counter": lambda: [OpinionGraphChangeCounter(params)],
            "audit3": lambda: [UpdateIdentityObserver(params),
                               ContractionObserver(lattice, params),
                               DiameterMonotoneObserver(params)],
        }
        for row, make in rows.items():
            metrics[f"sweep.n{n}.{row}.us_per_step"] = us_per_step(
                x0, schedule, make(), BASELINE[row][col])
        del schedule

    x0 = rng.random((100, 2))
    er = ErdosRenyiGraph(100, 0.5, seed=int(rng.integers(2**63)))
    metrics["sweep.n100.er_engine.us_per_step"] = us_per_step(x0, er, [], ER_BASELINE_US)
    calls = max(256, min(4096, int(budget_s * 1e6 / ER_BASELINE_US)))
    er = ErdosRenyiGraph(100, 0.5, seed=int(rng.integers(2**63)))
    t0 = perf_counter()
    for t in range(calls):
        er.edges_at(t)
    metrics["sweep.n100.er_edges_at.us_per_call"] = (perf_counter() - t0) / calls * 1e6

    Path(result_path).write_text(json.dumps(metrics))
    return 0


def baseline_of(metric: str):
    """The ROADMAP figure a sweep metric is compared with."""
    parts = metric.split(".")
    if parts[2] in BASELINE:
        return BASELINE[parts[2]][SIZES.index(int(parts[1][1:]))]
    return ER_BASELINE_US if parts[2] == "er_engine" else None


if __name__ == "__main__":
    budget = float(sys.argv[3]) if len(sys.argv) > 3 else 0.2
    sys.exit(main(int(sys.argv[1]), sys.argv[2], budget))
