"""Time the outcome classifier of a change against its parent commit.

Usage, from the root of the repository:

    python3 tools/time_classifier.py --parent REV [--rounds 5] [--append BENCH_N.json]

``bench_pair.time_main`` compares this checkout with REV.  Each round runs
this script once on each side (``--measure``), in a fresh process that
prints one JSON object of microseconds, each the best of several timed
calls:

* ``verdict.<state>``: one ``OutcomeClassifier._verdict`` call;
* ``hull_gap.<state>``: one ``certified_hull_gap`` call on the state's two
  components, as the classifier makes it (with ``at_most=epsilon``);
* ``estimate_er100.seed<S>``: the ``large`` benchmark's estimate-er100
  ensemble (2 trials, one worker) run in process, as ``cmd_estimate`` builds it.

The states are fixed, d = 2, epsilon = 0.3: two rows of collapsed clusters,
a quarter apart along each row, so that each row is one component of the
opinion graph and no pair across the rows is within epsilon.  In
``within-n<N>`` the rows are 0.285 apart, so the hulls are within epsilon and
the state is undecided; in ``above-n<N>`` they are 0.34 apart, a dissensus.
"""

from __future__ import annotations

import sys

from bench_pair import ROOT, best_us, estimate_template, time_main

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

EPSILON = 0.3
SEEDS = (5, 7, 11, 2024, 31337)


def rows_state(n: int, gap: float):
    """Two rows of collapsed clusters ``gap`` apart: half the agents spread
    over x = 0, 0.25, ..., 1 at y = 0, the rest over x = 0.125, ..., 0.875 at
    y = gap, each jittered by at most 1e-3."""
    import numpy as np

    rng = np.random.default_rng(0)
    low = np.array([[0.25 * (k % 5), 0.0] for k in range(n // 2)])
    high = np.array([[0.125 + 0.25 * (k % 4), gap] for k in range(n - n // 2)])
    return np.vstack((low, high)) + rng.uniform(-1e-3, 1e-3, size=(n, 2))


def measure() -> dict:
    """The figures of the deffuant on the path (see the module docstring)."""
    import numpy as np

    from deffuant import (Box, ConstantGraph, ConstantMu, ModelParams, OutcomeClassifier,
                          TrialConfig, certified_hull_gap, complete_edges, run_ensemble)
    from deffuant.graphs import _all_pairs_array, connected_components, profile

    figures = {}
    params = ModelParams(epsilon=EPSILON, dimension=2)
    for n in (100, 1000):
        config = TrialConfig(n=n, params=params, space=Box([0.0, 0.0], [1.0, 1.0]),
                             graph_schedule=ConstantGraph(n, complete_edges(n)),
                             mu_schedule=ConstantMu(0.5), horizon=1)
        for name, gap, verdict in (("within", 0.285, None), ("above", 0.34, "dissensus")):
            x = rows_state(n, gap)
            classifier = OutcomeClassifier(config)
            got = classifier._verdict(x)
            if (got and got.value) != verdict:
                raise SystemExit(f"{name}-n{n}: verdict {got}, expected {verdict}")
            comps = connected_components(profile(x, _all_pairs_array(n), params)[0], n)
            a, b = (x[np.asarray(c, dtype=int)] for c in comps)
            figures[f"verdict.{name}-n{n}"] = best_us(lambda: classifier._verdict(x),
                                                      7 if n == 100 else 3)
            figures[f"hull_gap.{name}-n{n}"] = best_us(
                lambda: certified_hull_gap(a, b, params.norm, at_most=EPSILON), 21)

    large = WORKLOADS["large"]
    for seed in SEEDS:
        template = estimate_template(large.estimate, seed)
        figures[f"estimate_er100.seed{seed}"] = best_us(
            lambda: run_ensemble(template, large.trials, workers=1), 3)
    return figures


if __name__ == "__main__":
    sys.exit(time_main(
        __file__, __doc__, key="classifier", unit="us", rounds=5, measure=measure,
        jobs=lambda k: [()],
        method=("each figure is the best of several in-process calls, all of a round's "
                "figures measured in one fresh process")))
