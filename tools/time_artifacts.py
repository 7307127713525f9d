"""Time the writing of the simulate artifacts, a change against its parent.

Usage, from the root of the repository:

    python3 tools/time_artifacts.py --parent REV [--rounds 10] [--append BENCH_N.json]

``bench_pair.time_main`` compares this checkout with REV.  Every
measurement runs in a fresh process (``--measure FIGURE SEED``):
``cli.cmd_simulate`` on a fixed recorded trajectory, with
``cli.run_trajectory`` replaced by one that returns it and ``settle_time`` by
one that returns None, so that nothing but the writing costs.  Each call of
``cli._write_csv`` and ``cli._write_json``, formatting included, is timed
with ``perf_counter``: ``states.csv``, ``events.csv`` and ``summary.json``.

The trajectory has 5000 steps, d = 2 and a recording stride of n, so that
``states.csv`` holds 5000 + n rows at every n.  A figure ``n<N>.<kind>``
is its n, 10, 100 or 1000, and its kind:

* ``converged``: the initial state is uniform on the unit square, and every
  later one puts each agent on one of three points; the rate is 0.5;
* ``uniform``: every state is uniform on the unit square, and the rates are
  uniform on [0.1, 0.5], so that no value repeats.

Either way one step in ten has no edge (i = j = -1), and the others pick two
agents at random.  Round k measures every figure at seed 2400 + k on each
side.  The summary has one entry ``<figure>/<file>`` per figure and file, in
ms.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import time_main

STEPS = 5000
FIGURES = [f"n{n}.{kind}" for n in (10, 100, 1000) for kind in ("converged", "uniform")]


def trajectory(n: int, kind: str, seed: int):
    """The recorded trajectory of figure (n, kind) at ``seed``."""
    import numpy as np
    from deffuant.model import EVENT_DTYPE, Trajectory

    rng = np.random.default_rng(seed)
    times = np.arange(0, STEPS + 1, n)
    states = rng.uniform(size=(len(times), n, 2))
    events = np.zeros(STEPS, dtype=EVENT_DTYPE)
    events["i"] = rng.integers(0, n, STEPS)
    events["j"] = (events["i"] + rng.integers(1, max(n, 2), STEPS)) % n
    empty = rng.random(STEPS) < 0.1
    events["i"][empty] = events["j"][empty] = -1
    events["fired"] = ~empty & (rng.random(STEPS) < 0.7)
    if kind == "converged":
        points = rng.uniform(size=(3, 2))
        states[1:] = points[rng.integers(0, 3, (len(times) - 1, n))]
        events["mu"] = 0.5
    else:
        events["mu"] = rng.uniform(0.1, 0.5, STEPS)
    return Trajectory(times=times, states=states, events=events, steps_run=STEPS)


def measure(figure: str, seed: str) -> dict[str, float]:
    """Milliseconds spent writing each artifact of ``figure`` at ``seed``,
    keyed ``<figure>/<file>``."""
    from deffuant import cli

    n, kind = int(figure.split(".")[0][1:]), figure.split(".")[1]
    seed = int(seed)
    recorded = trajectory(n, kind, seed)
    spent = {}

    def timed(write):
        def wrapper(path, *args):
            t0 = time.perf_counter()
            write(path, *args)
            spent[f"{figure}/{Path(path).name}"] = 1e3 * (time.perf_counter() - t0)
        return wrapper

    cli._write_csv, cli._write_json = timed(cli._write_csv), timed(cli._write_json)
    cli.run_trajectory = lambda *args, **kwargs: recorded
    cli.settle_time = lambda *args, **kwargs: None
    with tempfile.TemporaryDirectory(prefix="time-artifacts-") as tmp:
        path = Path(tmp) / "simulate.json"
        path.write_text(json.dumps({
            "n": n, "dimension": 2, "epsilon": 0.5, "graph": {"kind": "path"},
            "space": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            "horizon": STEPS, "record_stride": n}))
        config = cli.load_config(str(path), argparse.Namespace())
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.cmd_simulate(config, seed, Path(tmp))
    if status != cli.EXIT_OK:
        raise SystemExit(f"cmd_simulate exited {status}")
    return spent


if __name__ == "__main__":
    sys.exit(time_main(
        __file__, __doc__, key="artifacts", unit="ms", rounds=10, measure=measure,
        jobs=lambda k: [(figure, 2400 + k) for figure in FIGURES],
        method=("each value is the time of one _write_csv or _write_json call of "
                "cmd_simulate, formatting included, on a fixed recorded trajectory "
                "in a fresh process")))
