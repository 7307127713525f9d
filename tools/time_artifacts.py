"""Time the writing of the simulate artifacts, a change against its parent.

Usage, from the root of the repository:

    python3 tools/time_artifacts.py --parent REV [--rounds 10] [--append BENCH_N.json]

The committed files of REV are exported with ``bench_pair.export``; the
change is this checkout as it stands.  Every measurement runs in a fresh
process (``--measure FIGURE SEED``, with that root's ``src`` first on the
path): ``cli.cmd_simulate`` on a fixed recorded trajectory, with
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
agents at random.  Round k measures every figure at seed 2400 + k in each
root, the parent first in odd rounds and the change first in even ones.  The
summary gives, per figure and file, the median and quartiles of each side in
ms, and change / parent of the medians.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import ROOT, export, spread

STEPS = 5000
FIGURES = [f"n{n}.{kind}" for n in (10, 100, 1000) for kind in ("converged", "uniform")]
FILES = ("states.csv", "events.csv", "summary.json")


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


def measure(figure: str, seed: int) -> dict[str, float]:
    """Seconds spent writing each artifact of ``figure`` at ``seed``."""
    from deffuant import cli

    n, kind = int(figure.split(".")[0][1:]), figure.split(".")[1]
    recorded = trajectory(n, kind, seed)
    spent = {}

    def timed(write):
        def wrapper(path, *args):
            t0 = time.perf_counter()
            write(path, *args)
            spent[Path(path).name] = time.perf_counter() - t0
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


def run_in(root: Path, figure: str, seed: int) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, __file__, "--measure", figure, str(seed)],
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"measuring {figure} in {root} failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--append", help="a BENCH_*.json to add the summary to, "
                                         "under the key 'artifacts'")
    parser.add_argument("--measure", nargs=2, metavar=("FIGURE", "SEED"),
                        help="time one figure with the deffuant on the path; "
                             "print seconds per file")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure[0], int(args.measure[1]))))
        return 0
    if not args.parent:
        parser.error("give --parent REV (or --measure)")
    runs = {side: {(f, name): [] for f in FIGURES for name in FILES}
            for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="artifacts-parent-") as tmp:
        commit = export(args.parent, Path(tmp))
        for k in range(args.rounds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                root = Path(tmp) if side == "parent" else ROOT
                for figure in FIGURES:
                    spent = run_in(root, figure, 2400 + k)
                    for name in FILES:
                        runs[side][figure, name].append(1e3 * spent[name])
                print(f"round {k + 1} {side}: " + ", ".join(
                    f"{f} {sum(runs[side][f, name][-1] for name in FILES):.1f} ms"
                    for f in FIGURES), flush=True)
    figures = {}
    for figure in FIGURES:
        figures[figure] = {}
        for name in FILES:
            parent = spread(runs["parent"][figure, name])
            change = spread(runs["change"][figure, name])
            figures[figure][name] = {
                "parent_ms": parent, "change_ms": change,
                "change_over_parent": round(change["median"] / parent["median"], 4)}
    summary = {
        "command": f"python3 tools/time_artifacts.py --parent {args.parent} "
                   f"--rounds {args.rounds}",
        "parent_commit": commit,
        "method": ("each value is the time of one _write_csv or _write_json call of "
                   "cmd_simulate, formatting included, on a fixed recorded trajectory "
                   "in a fresh process, in ms; parent and change alternated by round; "
                   "median and quartiles over the rounds"),
        "figures": figures,
    }
    print(json.dumps(summary, indent=1))
    if args.append:
        path = Path(args.append)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["artifacts"] = summary
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
