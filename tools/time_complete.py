"""Time the complete graph's set-up, memory and picks, a change against its parent commit.

Usage, from the root of the repository:

    python3 tools/time_complete.py --parent REV [--rounds 5] [--append BENCH_N.json]

``bench_pair.time_main`` compares this checkout with REV.  Each round runs
this script once a figure on each side (``--measure``), every time in a
fresh process, so that no table of all pairs is cached from an earlier
figure.  The figures, each named with its unit:

* ``load_config_ms.n<N>``: one ``cli.load_config`` of the ``large``
  benchmark's simulate config (complete graph, d = 2) at n = N;
* ``simulate_peak_mb.n<N>``: the tracemalloc peak of that ``load_config``
  and the ``cmd_simulate`` that follows it, at seed 7;
* ``pairs_us.n<N>``: ``Draws.pairs`` on ``complete_edges(N)`` for one
  128-step draw block, the best of 2000 calls, each on the block as fetched
  (its picks not yet made).

N is 1000 and 3000 for the first two, 10 and 1000 for the last: the
``small`` workload picks on a complete graph at n = 10.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench_pair import ROOT, best_us, time_main

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED = 7
LOAD_SIZES = (1000, 3000)
PICK_SIZES = (10, 1000)


def measure(figure: str, n: str) -> dict:
    """One figure of the deffuant on the path (see the module docstring)."""
    n = int(n)
    from deffuant import cli, complete_edges
    from deffuant.model import Draws

    if figure == "pairs":
        edges, draws = complete_edges(n), Draws(SEED)
        draws.at(0)

        def pick():
            draws._pairs.clear()
            draws.pairs(edges)

        return {f"pairs_us.n{n}": best_us(pick, 2000)}
    with tempfile.TemporaryDirectory(prefix="time-complete-") as tmp:
        path = Path(tmp) / "simulate.json"
        path.write_text(json.dumps(dict(WORKLOADS["large"].simulate, n=n)))
        if figure == "load":
            t0 = time.perf_counter()
            cli.load_config(str(path), argparse.Namespace())
            return {f"load_config_ms.n{n}": round((time.perf_counter() - t0) * 1e3, 3)}
        tracemalloc.start()
        config = cli.load_config(str(path), argparse.Namespace())
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_simulate(config, SEED, Path(tmp))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {f"simulate_peak_mb.n{n}": round(peak / 1e6, 3)}


if __name__ == "__main__":
    sys.exit(time_main(
        __file__, __doc__, key="complete", unit="ms, MB or us, as each figure's name says",
        rounds=5, measure=measure,
        jobs=lambda k: ([("load", n) for n in LOAD_SIZES] + [("peak", n) for n in LOAD_SIZES]
                        + [("pairs", n) for n in PICK_SIZES]),
        method=("each figure is measured in its own fresh process: load_config once, the "
                "traced peak of load_config and simulate once, and Draws.pairs as the best "
                "of 2000 calls")))
