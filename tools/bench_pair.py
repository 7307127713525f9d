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

``time_main`` is the same driver for the timing scripts in this directory:
each round runs the script's ``--measure`` once a side, in a fresh process
with that side's ``src`` first on the path, and every figure is summarised by
``compare``, printed and, with ``--append``, added to a BENCH file.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def export(rev: str, into: Path) -> str:
    """Write the files committed at ``rev`` into ``into``; returns the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    # Leaving either ``with`` closes this process's end of the pipe and waits,
    # so ``git archive`` is reaped on every path: if ``tar`` stops reading, it
    # gets SIGPIPE instead of blocking on a reader that is gone.
    with subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        with subprocess.Popen(["tar", "-x", "-C", str(into)], stdin=archive.stdout) as untar:
            archive.stdout.close()
    if untar.returncode != 0:
        raise SystemExit(f"tar -x -C {into} exited {untar.returncode}")
    if archive.returncode != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def alternate(rounds: int, run) -> dict[str, list]:
    """``run(side, k)`` for each round k on both sides, the parent first in
    even rounds (the first, third, ...); returns each side's results by round."""
    runs = {side: [] for side in SIDES}
    for k in range(rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, k))
    return runs


def last_json(argv: list[str], root: Path, env=None) -> dict:
    """Run ``argv`` in ``root`` and parse the last line of its stdout as JSON."""
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    return last_json([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", str(seed), "--seconds", str(seconds)], root)


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": len(values)}


def compare(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """One figure's summary: each side's spread, change / parent of the medians,
    and in how many pairs (same index on both sides) the change read better."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    parent_spread, change_spread = spread(parent), spread(change)
    return {"parent": parent_spread, "change": change_spread,
            "change_over_parent": round(change_spread["median"] / parent_spread["median"], 4),
            "change_wins": f"{wins}/{len(parent)}"}


def append(path: Path, key: str, summary: dict) -> None:
    """Put ``summary`` under ``key`` in the JSON record at ``path``, keeping its
    other keys; a missing file starts an empty record."""
    record = json.loads(path.read_text()) if path.exists() else {}
    record[key] = summary
    path.write_text(json.dumps(record, indent=1) + "\n")


def best_us(call, repeat: int) -> float:
    """The least of ``repeat`` timed calls of ``call``, in microseconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e6, 2)


def estimate_template(estimate: dict, seed: int):
    """The ``TrialConfig`` of the estimate config ``estimate`` at ``seed``,
    built as ``cli.cmd_estimate`` builds it by the deffuant on the path."""
    from deffuant import TrialConfig, cli

    with tempfile.TemporaryDirectory(prefix="estimate-") as tmp:
        path = Path(tmp) / "estimate.json"
        path.write_text(json.dumps(estimate))
        config = cli.load_config(str(path), argparse.Namespace())
    return TrialConfig(
        n=config.n, params=config.params, space=config.space, graph_schedule=config.graph,
        mu_schedule=config.mu, horizon=config.horizon, consensus_tol=config.consensus_tol,
        master_seed=seed, track_delta=config.deltas[0] if config.deltas else None,
        check_every=config.check_every)


def time_main(script: str, doc: str, *, key: str, unit: str, rounds: int, method: str,
              measure, jobs, argv=None) -> int:
    """The command line of the timing script ``script``: ``--measure ARGS``
    prints ``measure(*ARGS)``, a dict of figures in ``unit``, as JSON; else
    round k runs ``script --measure ARGS`` with each side's ``src`` first on
    the path, for every ``ARGS`` of ``jobs(k)``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument("--rounds", type=int, default=rounds)
    parser.add_argument("--append", help=f"a BENCH_*.json to add the summary to, "
                                         f"under the key '{key}'")
    parser.add_argument("--measure", nargs="*", metavar="ARG",
                        help="measure with the deffuant on the path and print its figures")
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(*args.measure)))
        return 0
    if not args.parent:
        parser.error("give --parent REV (or --measure)")

    with tempfile.TemporaryDirectory(prefix=f"{key}-parent-") as tmp:
        commit = export(args.parent, Path(tmp))

        def run(side: str, k: int) -> dict:
            root = Path(tmp) if side == "parent" else ROOT
            env = dict(os.environ, PYTHONPATH=str(root / "src"))
            figures = {}
            for job in jobs(k):
                figures.update(last_json([sys.executable, script, "--measure",
                                          *map(str, job)], root, env))
            print(f"round {k + 1} {side} ({unit}): {json.dumps(figures)}", flush=True)
            return figures

        runs = alternate(args.rounds, run)
    summary = {
        "command": f"python3 tools/{Path(script).name} --parent {args.parent} "
                   f"--rounds {args.rounds}",
        "parent_commit": commit,
        "method": (f"{method}; parent and change alternated by round, the parent first in "
                   f"the first, third, ... round; median and quartiles over the rounds of "
                   f"each side; change_wins counts the rounds in which the change took less"),
        "unit": unit,
        "figures": {name: compare([r[name] for r in runs["parent"]],
                                  [r[name] for r in runs["change"]])
                    for name in runs["parent"][0]},
    }
    print(json.dumps(summary, indent=1))
    if args.append:
        append(Path(args.append), key, summary)
    return 0


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
            def run(side: str, k: int) -> dict:
                result = bench(parent_root if side == "parent" else ROOT, workload, seeds[k],
                               seconds)
                value = result["metrics"]["simulate.wall_s"]["value"]
                print(f"{workload} seed {seeds[k]} {side}: simulate.wall_s {value:.4g} s, "
                      f"failed {result['failed']}/{result['attempted']}", flush=True)
                return result

            results = alternate(len(seeds), run)
            metrics = {}
            for name, direction in better.items():
                values = {side: [r["metrics"][name]["value"] for r in runs]
                          for side, runs in results.items()}
                metrics[name] = {
                    "unit": results["parent"][0]["metrics"][name]["unit"],
                    "better": direction,
                    **compare(values["parent"], values["change"], direction),
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
