"""Benchmark a change against its parent commit in alternated pairs of runs.

Usage, from the root of the repository:

    python3 tools/bench_pair.py --parent REV --number N \
        --workload small --seeds 601-610 [--workload large --seeds 611-615] \
        [--change TEXT]

The committed files of the parent revision are exported with ``git archive``
into a temporary directory; the change is this checkout as it stands.  For
each seed, both run

    python3 perfbench/run.py --workload W --seed S --seconds RUN_SECONDS

from their own root, one after the other, with RUN_SECONDS the ``run_seconds``
of BENCHMARK.json: the parent first on the first, third, ... seed of a
workload, the change first on the others.  The last line of each run's stdout
is its JSON result.  ``BENCH_<N>.json`` is written at the
root of the repository with, for each workload and each end-to-end metric of
BENCHMARK.json, the median and quartiles of each side over its runs, every
run's value, and ``change_wins``: in how many pairs the change read better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def export(rev: str, into: Path) -> str:
    """Write the files committed at ``rev`` into ``into``; returns the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": len(values)}


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "os": f"{platform.system()} {platform.release()}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True, type=seed_range,
                        help="A-B, one range per --workload")
    parser.add_argument("--change", default="", help="what the change does, for the record")
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds range per --workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        commit = export(args.parent, parent_root)
        for workload, seeds in zip(args.workload, args.seeds):
            results = {"parent": [], "change": []}
            for n, seed in enumerate(seeds):
                order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                for side in order:
                    result = bench(parent_root if side == "parent" else ROOT, workload, seed,
                                   seconds)
                    results[side].append(result)
                    value = result["metrics"]["simulate.wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: simulate.wall_s {value:.4g} s, "
                          f"failed {result['failed']}/{result['attempted']}", flush=True)
            metrics = {}
            for name, direction in better.items():
                values = {side: [r["metrics"][name]["value"] for r in runs]
                          for side, runs in results.items()}
                wins = sum((c < p) if direction == "lower" else (c > p)
                           for p, c in zip(values["parent"], values["change"]))
                parent, change = spread(values["parent"]), spread(values["change"])
                metrics[name] = {
                    "unit": results["parent"][0]["metrics"][name]["unit"],
                    "better": direction,
                    "parent": parent,
                    "change": change,
                    "change_over_parent": round(change["median"] / parent["median"], 4),
                    "change_wins": f"{wins}/{len(seeds)}",
                    "values": values,
                }
            workloads[workload] = {
                "seeds": seeds,
                "pairs": len(seeds),
                "attempted": {side: sum(r["attempted"] for r in runs)
                              for side, runs in results.items()},
                "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
                "metrics": metrics,
            }

    record = {
        "change": args.change,
        "parent_commit": commit,
        "machine": machine(),
        "end_to_end": {
            "command": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                        f"{seconds:g} (run from the root of each checkout)"),
            "method": ("tools/bench_pair.py: parent and change alternated, the parent first "
                       "on the first, third, ... seed; each value is the run's reported "
                       "metric (seconds scaled to the reference CPU speed); median and "
                       "quartiles over the runs of each side; change_wins counts pairs where "
                       "the change reads better"),
            "workloads": workloads,
        },
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
