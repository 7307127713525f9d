"""Time trial ensembles at one and two workers, a change against its parent.

Usage, from the root of the repository:

    python3 tools/time_pool.py --parent REV [--rounds 10] [--append BENCH_N.json]

The committed files of REV are exported with ``bench_pair.export``; the
change is this checkout as it stands.  Every figure is one ``run_ensemble``
call, timed with ``perf_counter`` in a fresh process (``--measure FIGURE
SEED``, with that root's ``src`` first on the path), so it includes what a
command pays once: imports made inside the call, starting workers and
stopping them.  The template is built as ``cli.cmd_estimate`` builds it.
The figures are:

* ``<estimate label>.w1`` and ``.w2``: the two benchmark estimate configs of
  ``perfbench/workloads.py`` with their trial counts, at workers 1 and 2;
* ``fixed.w2``: two trials of the ``small`` estimate config cut to a horizon
  of 1, at workers 2.  Its trials cost almost nothing, so it reads the fixed
  cost of a second worker: import, start, result transfer and shutdown.

Round k runs every figure at seed 1000 + k in each root, the parent first in
odd rounds and the change first in even ones.  The summary gives, per
figure, the median and quartiles of each side in ms, and change / parent of
the medians.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import ROOT, export, spread

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

FIGURES = {f"{w.estimate_label}.w{workers}": (w.name, w.trials, workers, None)
           for w in WORKLOADS.values() for workers in (1, 2)}
FIGURES["fixed.w2"] = ("small", 2, 2, 1)   # workload, trials, workers, horizon


def measure(figure: str, seed: int) -> float:
    """Seconds of one ``run_ensemble`` call of ``figure`` at ``seed``."""
    from deffuant import TrialConfig, cli, run_ensemble

    name, trials, workers, horizon = FIGURES[figure]
    with tempfile.TemporaryDirectory(prefix="time-pool-") as tmp:
        path = Path(tmp) / "estimate.json"
        path.write_text(json.dumps(WORKLOADS[name].estimate))
        config = cli.load_config(str(path), argparse.Namespace())
    template = TrialConfig(
        n=config.n, params=config.params, space=config.space, graph_schedule=config.graph,
        mu_schedule=config.mu, horizon=config.horizon, consensus_tol=config.consensus_tol,
        master_seed=seed, track_delta=config.deltas[0] if config.deltas else None,
        check_every=config.check_every)
    if horizon is not None:
        template = dataclasses.replace(template, horizon=horizon)
    t0 = time.perf_counter()
    run_ensemble(template, trials, workers=workers)
    return time.perf_counter() - t0


def run_in(root: Path, figure: str, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, __file__, "--measure", figure, str(seed)],
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"measuring {figure} in {root} failed: {proc.stderr.strip()[-800:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--append", help="a BENCH_*.json to add the summary to, "
                                         "under the key 'pool'")
    parser.add_argument("--measure", nargs=2, metavar=("FIGURE", "SEED"),
                        help="time one figure with the deffuant on the path; print seconds")
    args = parser.parse_args(argv)
    if args.measure:
        print(measure(args.measure[0], int(args.measure[1])))
        return 0
    if not args.parent:
        parser.error("give --parent REV (or --measure)")
    runs = {side: {figure: [] for figure in FIGURES} for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="pool-parent-") as tmp:
        commit = export(args.parent, Path(tmp))
        for k in range(args.rounds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                root = Path(tmp) if side == "parent" else ROOT
                for figure in FIGURES:
                    runs[side][figure].append(1e3 * run_in(root, figure, 1000 + k))
                print(f"round {k + 1} {side}: "
                      + ", ".join(f"{f} {v[-1]:.1f} ms" for f, v in runs[side].items()),
                      flush=True)
    figures = {}
    for figure in FIGURES:
        parent, change = spread(runs["parent"][figure]), spread(runs["change"][figure])
        figures[figure] = {"parent_ms": parent, "change_ms": change,
                           "change_over_parent": round(change["median"] / parent["median"], 4)}
    summary = {
        "command": f"python3 tools/time_pool.py --parent {args.parent} --rounds {args.rounds}",
        "parent_commit": commit,
        "method": ("each value is one run_ensemble call in a fresh process, in ms; parent "
                   "and change alternated by round; median and quartiles over the rounds"),
        "figures": figures,
    }
    print(json.dumps(summary, indent=1))
    if args.append:
        path = Path(args.append)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["pool"] = summary
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
