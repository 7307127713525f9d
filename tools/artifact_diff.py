"""Compare the artifacts of this checkout with those of a parent revision.

Usage, from the root of the repository:

    python3 tools/artifact_diff.py --parent REV

The committed files of REV are exported with ``bench_pair.export`` into a
temporary directory; the change is this checkout as it stands.  Both roots
then run, with their own ``src`` on the path:

* ``simulate`` at seeds 0 and 7 on the sixteen reference configs below and
  on the two benchmark ``simulate`` configs of ``perfbench/workloads.py``;
* ``estimate --trials 12 --per-trial`` at ``--threads`` 1 and 3 (so that
  each side's multi-worker path is compared too) at seeds 0 and 7 on ten of
  the reference configs, which between them reach every branch of the bound's
  geometry: an interval, a one-dimensional box, boxes of d = 2 and 3, a
  euclidean and an l1 ball and a point cloud; two of them leave most
  Erdos-Renyi picks open (``model._open_pair``).  Also on ``ESTIMATE_ONLY``
  (among them an l1 and a linf config that end in several components, and
  three in which the bound applies) and on the two benchmark ``estimate``
  configs; for each,
  ``TRIAL_STOPS`` also prints every trial's ``steps_run`` and ``tau_delta``,
  the step an early stop ends at, which ``trials.csv`` does not hold;
* ``verify --suite all`` at seeds 0 and 7, whose stdout is its artifact;
* the demos ``demos/01_*.py`` to ``demos/05_*.py``, whose stdout is theirs.

One line per artifact reads ``same`` or ``DIFF``; under a JSON artifact that
differs, each differing key is printed with the parent's and the change's
value, and under a printed artifact (a stdout, the trial stops) each differing
line.  The exit
status is 1 if any artifact differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 7)
_BOX2 = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
_PATH6 = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]

# The reference configs: each graph schedule, an empty E(t), a rate sequence,
# four recording strides, d = 1 to 3, two norms, each kind of space, blocks
# that end on their step bound, signed zeros and agent ids of two digits.
CONFIGS = {
    "complete-box2-two-deltas": {
        "n": 12, "dimension": 2, "epsilon": 0.5, "space": _BOX2,
        "mu": {"kind": "uniform", "low": 0.1, "high": 0.5},
        "horizon": 3000, "deltas": [0.05, 0.2]},
    "erdos-renyi-p0.3": {
        "n": 15, "epsilon": 0.4, "graph": {"kind": "erdos_renyi", "p": 0.3},
        "horizon": 3000},
    # about three steps in four miss their six candidates and index E(t)
    # (``model._open_pair``); the delta has the tracker test Erdos-Renyi steps
    "erdos-renyi-sparse-p0.05": {
        "n": 30, "epsilon": 0.4, "graph": {"kind": "erdos_renyi", "p": 0.05},
        "horizon": 3000, "deltas": [0.05]},
    # E(t) is empty at every step: every pick misses and finds no pair
    "erdos-renyi-empty-p0": {
        "n": 8, "epsilon": 0.5, "graph": {"kind": "erdos_renyi", "p": 0.0},
        "horizon": 1000},
    "cyclic-empty-member-sequence-mu": {
        "n": 6, "dimension": 2, "epsilon": 0.6, "space": _BOX2,
        "graph": {"kind": "cyclic", "members": [_PATH6, [], [[0, 5], [1, 4], [2, 3]]]},
        "mu": {"kind": "sequence", "values": [0.5, 0.3, 0.1]}, "horizon": 2000},
    "piecewise-empty-stretch-stride1": {
        "n": 6, "epsilon": 0.7,
        "graph": {"kind": "piecewise", "steps": {"0": _PATH6, "150": [],
                                                 "300": [[0, 2], [2, 4], [1, 3], [3, 5]]}},
        "horizon": 600, "record_stride": 1},
    # E(t) empty from step 100: the blocks end on their step bound
    "path-then-empty-long": {
        "n": 6, "epsilon": 0.7, "graph": {"kind": "piecewise", "steps": {"0": _PATH6, "100": []}},
        "horizon": 120000, "record_stride": 1000},
    "path-stride7": {
        "n": 10, "epsilon": 0.5, "graph": {"kind": "path"}, "horizon": 2000,
        "record_stride": 7},
    "linf-d3-stride13": {
        "n": 10, "dimension": 3, "norm": "linf", "epsilon": 0.7,
        "space": {"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3},
        "horizon": 2000, "record_stride": 13},
    "box1": {
        "n": 8, "epsilon": 0.9, "space": {"kind": "box", "lower": [-0.5], "upper": [1.0]},
        "horizon": 2000},
    "ball2": {
        "n": 8, "dimension": 2, "epsilon": 1.2, "horizon": 2000,
        "space": {"kind": "ball", "center": [0.5, -0.5], "radius": 0.5}},
    "cloud2": {
        "n": 8, "dimension": 2, "epsilon": 1.2, "horizon": 2000,
        "space": {"kind": "cloud",
                  "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.7], [0.2, 0.3]]}},
    # an l1 ball at d >= 2: its draws are exact, not a rejection from its cube
    "ball-l1-d3": {
        "n": 10, "dimension": 3, "norm": "l1", "epsilon": 1.0, "horizon": 2000,
        "space": {"kind": "ball", "center": [0.5, -0.5, 0.0], "radius": 0.8, "norm": "l1"}},
    # -0.0 beside 0.0 and repeated rows: the float fields keep the signs apart
    "initial-signed-zeros-stride1": {
        "n": 6, "dimension": 2, "epsilon": 0.6, "space": _BOX2,
        "initial": [[-0.0, 0.0], [0.0, -0.0], [0.5, 0.5], [0.5, 0.5], [-0.0, -0.0], [0.5, 0.5]],
        "mu": {"kind": "constant", "value": 0.5}, "horizon": 300, "record_stride": 1},
    # agents 10 and 11, and steps 50 to 99 without an edge (empty i and j fields)
    "path-n12-empty-stretch": {
        "n": 12, "epsilon": 0.5, "horizon": 400, "record_stride": 20,
        "graph": {"kind": "piecewise", "steps": {"0": [[a, a + 1] for a in range(11)],
                                                 "50": [], "100": [[a, (a + 5) % 12]
                                                                   for a in range(12)]}}},
    # n >= 64 under linf: the farthest pairs of the first states, all agents on
    # the cube's corners, need the whole scan; later ones a few candidates
    "corners-linf-d3-n300": {
        "n": 300, "dimension": 3, "norm": "linf", "epsilon": 2.5, "horizon": 1000,
        "space": {"kind": "cloud", "points": [[a, b, c] for a in (-1.0, 1.0)
                                              for b in (-1.0, 1.0) for c in (-1.0, 1.0)]}},
}
# Run by ``estimate`` alone: at n > 8 * 64 the stopping-time tracker measures
# its few candidates from their endpoints' rows (``FiredSteps.rows``), and in
# ``estimate`` no diameter check has built the block's states first.
# The two "several-components" configs end most trials in several components of
# the opinion graph, under l1 at d = 2 and linf at d = 3: the classifier's hull
# certificates end both above epsilon and early, within it (``at_most``).
ESTIMATE_ONLY = {
    "path-n600": {"n": 600, "epsilon": 0.9, "graph": {"kind": "path"}, "horizon": 300},
    "several-components-l1-d2": {
        "n": 20, "dimension": 2, "norm": "l1", "epsilon": 0.3, "space": _BOX2,
        "mu": {"kind": "uniform", "low": 0.1, "high": 0.5}, "horizon": 3000},
    "several-components-linf-d3": {
        "n": 20, "dimension": 3, "norm": "linf", "epsilon": 0.35,
        "space": {"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3},
        "mu": {"kind": "uniform", "low": 0.1, "high": 0.5}, "horizon": 3000},
    # epsilon above the enclosing radius, so the bound applies: E d(X, c) in
    # closed form under euclidean and l1, and a Monte Carlo mean on the cube
    "bound-square-euclidean": {
        "n": 8, "dimension": 2, "epsilon": 0.8, "space": _BOX2, "horizon": 2000},
    "bound-square-l1": {
        "n": 8, "dimension": 2, "norm": "l1", "epsilon": 1.2, "space": _BOX2,
        "horizon": 2000},
    "bound-cube-euclidean": {
        "n": 8, "dimension": 3, "epsilon": 1.0,
        "space": {"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3}, "horizon": 2000},
}
# Run in each root with the change's ``tools``, a config path, a seed and a
# trial count: each trial of ``estimate``, from the template that
# ``bench_pair.estimate_template`` builds as ``cli.cmd_estimate`` does, as
# "k steps_run tau_delta".
TRIAL_STOPS = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from bench_pair import estimate_template
from deffuant import run_trial
with open(sys.argv[2]) as fh:
    template = estimate_template(json.load(fh), int(sys.argv[3]))
for k in range(int(sys.argv[4])):
    result = run_trial(dataclasses.replace(template, trial_index=k))
    print(k, result.steps_run, result.tau_delta)
"""
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("0[1-5]_*.py"))
ESTIMATED = ("complete-box2-two-deltas", "erdos-renyi-p0.3", "erdos-renyi-sparse-p0.05",
             "erdos-renyi-empty-p0", "cyclic-empty-member-sequence-mu", "linf-d3-stride13",
             "box1", "ball2", "ball-l1-d3", "cloud2")


def runs(configs: Path) -> list[tuple[str, list[str]]]:
    """(label, deffuant arguments) of every run, the configs written into ``configs``."""
    simulated = dict(CONFIGS)
    estimated = {**{name: CONFIGS[name] for name in ESTIMATED}, **ESTIMATE_ONLY}
    for workload in WORKLOADS.values():
        simulated[f"benchmark-{workload.simulate_label}"] = workload.simulate
        estimated[f"benchmark-{workload.estimate_label}"] = workload.estimate
    out = []
    for name, config in {**simulated, **estimated}.items():
        path = configs / f"{name}.json"
        path.write_text(json.dumps(config))
        for seed in SEEDS:
            if name in simulated:
                out.append((f"simulate {name} seed {seed}",
                            ["simulate", "--config", str(path), "--seed", str(seed)]))
            if name in estimated:
                out += [(f"estimate {name} seed {seed}" + (" threads 3" if threads == 3 else ""),
                         ["estimate", "--config", str(path), "--seed", str(seed),
                          "--trials", "12", "--per-trial", "--threads", str(threads)])
                        for threads in (1, 3)]
    out += [(f"verify all seed {seed}", ["verify", "--suite", "all", "--seed", str(seed)])
            for seed in SEEDS]
    return out


def python(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """Run Python in ``root`` with its own ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, timeout=600)


def run(root: Path, args: list[str], out_dir: Path) -> dict[str, bytes]:
    """Run deffuant from ``root``; its output files, and for ``verify`` its stdout."""
    out_dir.mkdir(parents=True)
    proc = python(root, ["-m", "deffuant.cli", *args, "--out-dir", str(out_dir)])
    artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    artifacts["exit status"] = str(proc.returncode).encode()
    if args[0] == "verify":
        artifacts["stdout"] = proc.stdout
    if args[0] == "estimate":
        stops = python(root, ["-c", TRIAL_STOPS, str(ROOT / "tools"),
                              *(args[args.index(option) + 1] for option in
                                ("--config", "--seed", "--trials"))])
        artifacts["trial stops"] = stops.stdout + stops.stderr
    return artifacts


def flatten(value, key: str = "") -> dict:
    if isinstance(value, dict):
        return {k: v for name, item in value.items()
                for k, v in flatten(item, f"{key}.{name}" if key else name).items()}
    if isinstance(value, list):
        return {k: v for n, item in enumerate(value)
                for k, v in flatten(item, f"{key}[{n}]").items()}
    return {key: value}


def compare(name: str, parent: bytes | None, change: bytes | None) -> bool:
    """Print one artifact's verdict; True when both sides hold the same bytes."""
    same = parent == change
    print(f"  {name}: {'same' if same else 'DIFF'}")
    if same or parent is None or change is None:
        return same
    if name.endswith(".json"):
        old, new = flatten(json.loads(parent)), flatten(json.loads(change))
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                print(f"    {key}: {old.get(key)!r} -> {new.get(key)!r}")
    elif name in ("stdout", "trial stops"):
        for old, new in zip(parent.decode().splitlines(), change.decode().splitlines()):
            if old != new:
                print(f"    {old}\n    -> {new}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    args = parser.parse_args(argv)
    all_same = True
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = Path(tmp)
        parent_root = tmp / "parent"
        parent_root.mkdir()
        commit = export(args.parent, parent_root)
        configs = tmp / "configs"
        configs.mkdir()
        print(f"parent {commit}, change {ROOT}")
        for n, (label, deffuant_args) in enumerate(runs(configs)):
            print(label)
            parent = run(parent_root, deffuant_args, tmp / f"{n}-parent")
            change = run(ROOT, deffuant_args, tmp / f"{n}-change")
            for name in sorted(set(parent) | set(change)):
                all_same &= compare(name, parent.get(name), change.get(name))
        for demo in DEMOS:
            print(f"demo {demo}")
            parent, change = (python(root, [f"demos/{demo}"]) for root in (parent_root, ROOT))
            all_same &= compare("stdout", parent.stdout, change.stdout)
            all_same &= compare("exit status", str(parent.returncode).encode(),
                                str(change.returncode).encode())
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
