"""Time trial ensembles at one and two workers, a change against its parent.

Usage, from the root of the repository:

    python3 tools/time_pool.py --parent REV [--rounds 10] [--append BENCH_N.json]

``bench_pair.time_main`` compares this checkout with REV.  Every figure is
one ``run_ensemble`` call, timed with ``perf_counter`` in a fresh process
(``--measure FIGURE SEED``), so it includes what a command pays once:
imports made inside the call, starting workers and stopping them.  The
template is built as ``cli.cmd_estimate`` builds it.  The figures are:

* ``<estimate label>.w1`` and ``.w2``: the two benchmark estimate configs of
  ``perfbench/workloads.py`` with their trial counts, at workers 1 and 2;
* ``fixed.w2``: two trials of the ``small`` estimate config cut to a horizon
  of 1, at workers 2.  Its trials cost almost nothing, so it reads the fixed
  cost of a second worker: import, start, result transfer and shutdown.

Round k runs every figure at seed 1000 + k on each side; the values are
in ms.
"""

from __future__ import annotations

import dataclasses
import sys
import time

from bench_pair import ROOT, estimate_template, time_main

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

FIGURES = {f"{w.estimate_label}.w{workers}": (w.name, w.trials, workers, None)
           for w in WORKLOADS.values() for workers in (1, 2)}
FIGURES["fixed.w2"] = ("small", 2, 2, 1)   # workload, trials, workers, horizon


def measure(figure: str, seed: str) -> dict[str, float]:
    """Milliseconds of one ``run_ensemble`` call of ``figure`` at ``seed``."""
    from deffuant import run_ensemble

    name, trials, workers, horizon = FIGURES[figure]
    template = estimate_template(WORKLOADS[name].estimate, int(seed))
    if horizon is not None:
        template = dataclasses.replace(template, horizon=horizon)
    t0 = time.perf_counter()
    run_ensemble(template, trials, workers=workers)
    return {figure: 1e3 * (time.perf_counter() - t0)}


if __name__ == "__main__":
    sys.exit(time_main(
        __file__, __doc__, key="pool", unit="ms", rounds=10, measure=measure,
        jobs=lambda k: [(figure, 1000 + k) for figure in FIGURES],
        method="each value is one run_ensemble call in a fresh process"))
