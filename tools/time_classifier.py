"""Time the outcome classifier of a change against its parent commit.

Usage, from the root of the repository:

    python3 tools/time_classifier.py --parent REV [--rounds 5] [--append BENCH_N.json]

The committed files of REV are exported with ``bench_pair.export``; the
change is this checkout as it stands.  Each round runs this script once in
each root (``--measure``, with that root's ``src`` first on the path), the
parent first in odd rounds and the change first in even ones.  A measuring
run prints one JSON object of microseconds, each the best of several timed
calls:

* ``verdict.<state>``: one ``OutcomeClassifier._verdict`` call;
* ``hull_gap.<state>``: one ``certified_hull_gap`` call on the state's two
  components, as the classifier makes it (with ``at_most=epsilon`` where the
  checkout's ``certified_hull_gap`` takes it);
* ``estimate_er100.seed<S>``: the ``large`` benchmark's estimate-er100
  ensemble (2 trials, one worker) run in process, as ``cmd_estimate`` builds it.

The states are fixed, d = 2, epsilon = 0.3: two rows of collapsed clusters,
a quarter apart along each row, so that each row is one component of the
opinion graph and no pair across the rows is within epsilon.  In
``within-n<N>`` the rows are 0.285 apart, so the hulls are within epsilon and
the state is undecided; in ``above-n<N>`` they are 0.34 apart, a dissensus.
The summary gives, per figure, the median over the rounds of each side and
change / parent.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import ROOT, export

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


def best_us(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e6, 2)


def measure() -> dict:
    """The figures of the deffuant on the path (see the module docstring)."""
    import numpy as np

    from deffuant import (Box, ConstantGraph, ConstantMu, ModelParams, OutcomeClassifier,
                          TrialConfig, certified_hull_gap, cli, complete_edges, run_ensemble)
    from deffuant.graphs import _all_pairs_array, connected_components, profile

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    takes_at_most = "at_most" in inspect.signature(certified_hull_gap).parameters
    bound = {"at_most": EPSILON} if takes_at_most else {}
    figures = {"at_most": takes_at_most}
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
                lambda: certified_hull_gap(a, b, params.norm, **bound), 21)

    large = WORKLOADS["large"]
    with tempfile.TemporaryDirectory(prefix="time-classifier-") as tmp:
        path = Path(tmp) / "estimate.json"
        path.write_text(json.dumps(large.estimate))
        loaded = cli.load_config(str(path), argparse.Namespace())
    for seed in SEEDS:
        template = TrialConfig(
            n=loaded.n, params=loaded.params, space=loaded.space, graph_schedule=loaded.graph,
            mu_schedule=loaded.mu, horizon=loaded.horizon, consensus_tol=loaded.consensus_tol,
            master_seed=seed, track_delta=loaded.deltas[0] if loaded.deltas else None,
            check_every=loaded.check_every)
        figures[f"estimate_er100.seed{seed}"] = best_us(
            lambda: run_ensemble(template, large.trials, workers=1), 3)
    return figures


def run_in(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"measuring in {root} failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--append", help="a BENCH_*.json to add the summary to, "
                                         "under the key 'classifier'")
    parser.add_argument("--measure", action="store_true",
                        help="measure the deffuant on the path and print its figures")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not args.parent:
        parser.error("give --parent REV (or --measure)")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="classifier-parent-") as tmp:
        commit = export(args.parent, Path(tmp))
        for k in range(args.rounds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[side].append(run_in(Path(tmp) if side == "parent" else ROOT))
                print(f"round {k + 1} {side}: {json.dumps(runs[side][-1])}", flush=True)
    figures = {}
    for name in runs["parent"][0]:
        if name == "at_most":
            continue
        parent, change = (statistics.median(r[name] for r in runs[side])
                          for side in ("parent", "change"))
        figures[name] = {"parent_us": parent, "change_us": change,
                         "change_over_parent": round(change / parent, 4)}
    summary = {
        "command": f"python3 tools/time_classifier.py --parent {args.parent} "
                   f"--rounds {args.rounds}",
        "parent_commit": commit,
        "method": ("each figure is the best of several in-process calls; parent and change "
                   "measured in alternated subprocesses; the median over the rounds of "
                   "each side"),
        "figures": figures,
    }
    print(json.dumps(summary, indent=1))
    if args.append:
        path = Path(args.append)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["classifier"] = summary
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
