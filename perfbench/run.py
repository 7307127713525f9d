"""Benchmark of the deffuant CLI: audited ``simulate`` and ensemble ``estimate``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {small,large} --seed N --seconds S --trace {0,1}

Every command runs in a fresh process (command.py), one at a time; only
``estimate --threads 2`` adds its own two pool workers.  The workload seed
reaches deffuant only as the ``--seed`` of each command.  Each command's
artifacts are checked; a command that fails a check counts in ``failed`` and
its timings are dropped.

``--trace 0`` runs rounds of commands for about S seconds and reports the
end-to-end metrics, each time scaled to a reference CPU speed measured
inside the command (command.SpeedProbe).  ``--trace 1`` runs each command
of the workload without and with spans (spans.py), in pairs until S seconds
have passed, derives the per-layer metrics and the tracing overhead, and runs
the observer sweep (sweep.py).  The last line of stdout is the JSON result;
the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from sweep import baseline_of  # noqa: E402
from workloads import WORKLOADS, Workload, tiny  # noqa: E402

RUN_LIMIT_S = 165           # every command is stopped by then, so a run ends inside 180 s
SCHEDULE_UNTIL_S = 110      # start no new round after this
MIN_SETUPS = 5              # set-up samples per config; set-up-only commands make up the rest

# name -> unit; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "simulate.wall_s": "s",
    "simulate.us_per_step": "us",
    "estimate.wall_s": "s",
    "estimate.us_per_step": "us",
    "trials_per_s.w1": "1/s",
    "trials_per_s.w2": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.load_config.s": "s",
    "graphs.complete_edges.s": "s",
    "cli.artifacts.s": "s",
    "cli.artifacts.bytes": "B",
    "model.engine.self_us_per_step": "us",
    "model.steps": "count",
    "model.fired_steps": "count",
    "model.empty_steps": "count",
    "model.fired_frac": "ratio",
    "graphs.edges_at.us_per_call": "us",
    "graphs.edges_at.calls": "count",
    "invariants.identity.us_per_step": "us",
    "invariants.contraction.us_per_step": "us",
    "invariants.diameter.us_per_step": "us",
    "invariants.tracker.us_per_step": "us",
    "invariants.tracker.edges_measured": "count",
    "invariants.settle_time.ms_per_state": "ms",
    "montecarlo.run_trial.ms_per_trial": "ms",
    "montecarlo.run_trial.ms_per_trial_p90": "ms",
    "montecarlo.run_trial.steps_per_trial": "count",
    "montecarlo.classifier.checks": "count",
    "montecarlo.classifier.us_per_check": "us",
    "montecarlo.pool.wait_s": "s",
    "montecarlo.decided_frac": "ratio",
    "geometry.bound.s": "s",
    "norms.cross_distances.calls": "count",
    "norms.cross_distances.bytes_computed": "B",
    "trace.overhead.simulate": "ratio",
    "trace.overhead.estimate": "ratio",
    **{f"sweep.n{n}.{row}.us_per_step": "us"
       for n in (10, 100, 1000)
       for row in ("engine", "identity", "contraction", "diameter", "tracker",
                   "change_counter", "audit3")},
    "sweep.n100.er_engine.us_per_step": "us",
    "sweep.n100.er_edges_at.us_per_call": "us",
}


class MeasureError(Exception):
    """The run cannot report a metric (for example, every sample failed)."""


@dataclass
class Outcome:
    """One command: its checks and, when they passed, its timings."""

    label: str
    kind: str
    threads: int
    trials: int
    ok: bool
    reason: str = ""
    setup_s: float = 0.0
    wall_s: float = 0.0
    speed: float = 1.0      # CPU speed the command ran at (command.SpeedProbe)
    steps: int = 0
    peak_rss_mb: float = 0.0
    trace: Optional[dict] = None


# ---------------------------------------------------------------------------
# Running and checking commands
# ---------------------------------------------------------------------------

def _digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def check_simulate(out: Path, config: dict) -> tuple[list[str], int]:
    """Problems with a simulate run's artifacts, and the steps it ran."""
    summary = json.loads((out / "summary.json").read_text())
    checks = summary["checks"]
    horizon = config["horizon"]
    problems = []
    if summary["steps_run"] != horizon:
        problems.append(f"steps_run {summary['steps_run']} != horizon {horizon}")
    if checks["identity_checked_steps"] != checks["fired_steps"]:
        problems.append(f"identity_checked_steps {checks['identity_checked_steps']} "
                        f"!= fired_steps {checks['fired_steps']}")
    events = (out / "events.csv").read_text().splitlines()[1:]
    if len(events) != horizon:
        problems.append(f"events.csv has {len(events)} rows, expected {horizon}")
    fired = sum(line.split(",")[3] == "1" for line in events)
    if fired != checks["fired_steps"]:
        problems.append(f"events.csv has {fired} fired rows, summary says "
                        f"{checks['fired_steps']}")
    if not (out / "states.csv").is_file():
        problems.append("states.csv missing")
    return problems, summary["steps_run"]


def check_estimate(out: Path, trials: int) -> list[str]:
    payload = json.loads((out / "ensemble.json").read_text())
    problems = []
    if payload["n_trials"] != trials or sum(payload["counts"].values()) != trials:
        problems.append(f"verdict counts {payload['counts']} do not sum to {trials}")
    rows = [line.split(",") for line in (out / "trials.csv").read_text().splitlines()[1:]]
    if [int(r[0]) for r in rows] != list(range(trials)):
        problems.append("trials.csv does not list trials 0..N-1 once each")
    for verdict, count in payload["counts"].items():
        if sum(r[1] == verdict for r in rows) != count:
            problems.append(f"trials.csv disagrees with ensemble.json on {verdict}")
    return problems


class Bench:
    """Runs commands one at a time, checks them, and keeps their outcomes."""

    def __init__(self, workdir: Path, fault_first_simulate: bool = False,
                 probe: bool = False):
        self.workdir = workdir
        self.probe = probe
        self.fault_pending = fault_first_simulate
        self.outcomes: list[Outcome] = []
        self._digests: dict[tuple, str] = {}   # (label, seed, trials) -> artifact hash
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, label: str, kind: str, config: dict, seed: int, threads: int = 1,
            trials: int = 0, trace: bool = False) -> Outcome:
        job = self.workdir / f"cmd{len(self.outcomes):03d}"
        out = job / "out"
        job.mkdir(parents=True)
        (job / "config.json").write_text(json.dumps(config))
        argv = [kind, "--config", str(job / "config.json"), "--seed", str(seed),
                "--out-dir", str(out)]
        if kind == "estimate":
            argv += ["--trials", str(trials), "--threads", str(threads), "--per-trial"]
        elif kind == "setup":   # set-up only: parse the arguments and load the config
            argv[0] = "simulate"
        fault = None
        if kind == "simulate" and self.fault_pending:
            fault, self.fault_pending = "overshoot", False
        spec = {"argv": argv, "trace": trace, "fault": fault, "setup_only": kind == "setup",
                "probe": self.probe, "result": str(job / "result.json")}
        (job / "spec.json").write_text(json.dumps(spec))

        outcome = Outcome(label, kind, threads, trials, ok=False)
        try:
            code, stderr = self.run_process([sys.executable, str(HERE / "command.py"),
                                             str(job / "spec.json")])
            if code != 0:
                tail = stderr.strip().splitlines()[-1:] or [""]
                outcome.reason = f"exit code {code} {tail[0]}".strip()
            elif kind != "setup":
                outcome.reason = self._check(out, label, kind, config, seed, trials, outcome)
            if not outcome.reason:
                result = json.loads((job / "result.json").read_text())
                outcome.ok = True
                outcome.setup_s = result["setup_s"]
                outcome.wall_s = result["wall_s"]
                outcome.speed = result["speed"]
                outcome.peak_rss_mb = result["peak_rss_mb"]
                outcome.trace = result["trace"]
                if kind == "estimate":
                    outcome.steps = result["trial_steps"]
        except subprocess.TimeoutExpired:
            outcome.reason = f"still running {RUN_LIMIT_S} s into the run"
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome.reason = f"unreadable output: {exc!r}"
        finally:
            shutil.rmtree(job, ignore_errors=True)
        mode = {"estimate": f"threads={threads} ", "setup": "set-up only "}.get(kind, "")
        status = "ok" if outcome.ok else f"FAILED: {outcome.reason}"
        speed = f"speed={outcome.speed:.3f} " if self.probe else ""
        print(f"  {label} seed={seed} {mode}{'traced ' if trace else ''}"
              f"setup={outcome.setup_s:.3f}s wall={outcome.wall_s:.3f}s {speed}{status}",
              flush=True)
        self.outcomes.append(outcome)
        return outcome

    def _check(self, out, label, kind, config, seed, trials, outcome) -> str:
        if kind == "simulate":
            problems, outcome.steps = check_simulate(out, config)
            names = ("states.csv", "events.csv", "summary.json")
        else:
            problems = check_estimate(out, trials)
            names = ("ensemble.json", "trials.csv")
        digest = _digest(out, names)
        earlier = self._digests.setdefault((label, seed, trials), digest)
        if earlier != digest:
            problems.append("artifacts differ from an earlier run at the same seed")
        return "; ".join(problems)

    def run_process(self, argv: list[str]) -> tuple[int, str]:
        """Run argv in its own process group; kill the group at the deadline."""
        env = dict(os.environ, TMPDIR=str(self.workdir))
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        return proc.returncode, stderr

    def passed(self, label: str, threads: Optional[int] = None,
               kind: Optional[str] = None) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok and o.label == label
                and (threads is None or o.threads == threads)
                and (kind is None or o.kind == kind)]


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def _require(samples: list, what: str) -> list:
    if not samples:
        raise MeasureError(f"no passing sample for {what}")
    return samples


def measure(workload: Workload, seed: int, seconds: float, bench: Bench) -> dict:
    """Rounds of commands for about ``seconds``; returns the end-to-end metrics.

    No round starts that would end, with the closing rerun, after ``seconds``.
    """
    rng = random.Random(seed)
    first_seed = rng.randrange(2**31)
    start = time.perf_counter()
    bench.run(workload.simulate_label, "simulate", workload.simulate, first_seed)
    rerun_s = round_s = time.perf_counter() - start
    budget = min(seconds, SCHEDULE_UNTIL_S)
    rounds = 0
    while rounds == 0 or time.perf_counter() - start + round_s + rerun_s < budget:
        t0 = time.perf_counter()
        for _ in range(workload.simulates_per_round):
            bench.run(workload.simulate_label, "simulate", workload.simulate,
                      rng.randrange(2**31))
        est_seed = rng.randrange(2**31)
        # Two workers spread more than one (the slower core sets the time),
        # so they run twice a round.
        for threads in (1, 2, 2):
            bench.run(workload.estimate_label, "estimate", workload.estimate, est_seed,
                      threads=threads, trials=workload.trials)
        round_s = time.perf_counter() - t0
        rounds += 1
    # A rerun at the first seed must give byte-identical artifacts.
    bench.run(workload.simulate_label, "simulate", workload.simulate, first_seed)
    for label, config in ((workload.simulate_label, workload.simulate),
                          (workload.estimate_label, workload.estimate)):
        for _ in range(MIN_SETUPS - len(bench.passed(label))):
            bench.run(label, "setup", config, first_seed)

    sims = _require(bench.passed(workload.simulate_label, kind="simulate"), "simulate")
    w1 = _require(bench.passed(workload.estimate_label, threads=1, kind="estimate"),
                  "estimate at 1 worker")
    w2 = _require(bench.passed(workload.estimate_label, threads=2, kind="estimate"),
                  "estimate at 2 workers")
    print("  raw medians, before scaling to the reference speed: "
          f"simulate.wall_s {statistics.median(o.wall_s for o in sims):.4g} s, "
          f"estimate.wall_s {statistics.median(o.wall_s for o in w1):.4g} s at 1 worker "
          f"and {statistics.median(o.wall_s for o in w2):.4g} s at 2; CPU speed "
          f"{min(o.speed for o in bench.outcomes if o.ok):.3f} to "
          f"{max(o.speed for o in bench.outcomes if o.ok):.3f}")
    # Every time is scaled to the reference CPU speed: seconds x speed.
    return {
        # A user sets up each of the two commands once.
        "setup_s": sum(statistics.median(o.setup_s * o.speed for o in bench.passed(label))
                       for label in (workload.simulate_label, workload.estimate_label)),
        "simulate.wall_s": statistics.median(o.wall_s * o.speed for o in sims),
        "simulate.us_per_step": statistics.median(o.wall_s * o.speed / o.steps * 1e6
                                                  for o in sims),
        "estimate.wall_s": statistics.median(o.wall_s * o.speed for o in w1),
        "estimate.us_per_step": statistics.median(o.wall_s * o.speed / o.steps * 1e6
                                                  for o in w1),
        "trials_per_s.w1": statistics.median(o.trials / (o.wall_s * o.speed) for o in w1),
        "trials_per_s.w2": statistics.median(o.trials / (o.wall_s * o.speed) for o in w2),
        "peak_rss_mb": max(o.peak_rss_mb for o in bench.outcomes if o.ok),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

class Spans:
    """Span aggregates of one or more traced commands, summed by span name."""

    def __init__(self, *outcomes: Outcome):
        self.by_name: dict[str, list] = {}   # name -> [calls, total, child]
        self.self_by_caller: dict[tuple[str, str], float] = {}
        self.counts: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        for o in outcomes:
            for parent, name, calls, total, child in o.trace["spans"]:
                agg = self.by_name.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += child
                key = (parent, name)
                self.self_by_caller[key] = self.self_by_caller.get(key, 0.0) + total - child
            for key, value in o.trace["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
            for key, values in o.trace["durations"].items():
                self.durations.setdefault(key, []).extend(values)

    def calls(self, prefix: str) -> int:
        return sum(a[0] for n, a in self.by_name.items() if n.startswith(prefix))

    def total(self, prefix: str) -> float:
        return sum(a[1] for n, a in self.by_name.items() if n.startswith(prefix))

    def self_time(self, name: str) -> float:
        agg = self.by_name.get(name, [0, 0.0, 0.0])
        return agg[1] - agg[2]

    def top_self(self, k: int = 8) -> list[tuple[tuple[str, str], float]]:
        """The k largest self times, by (caller, span)."""
        return sorted(self.self_by_caller.items(), key=lambda r: -r[1])[:k]


def layer_metrics(sim: Spans, est: Spans, both: Spans, pool_wall_s: float) -> dict:
    steps = both.counts["model.steps"]
    sim_steps = sim.counts["model.steps"]
    trial_ms = sorted(1e3 * d for d in est.durations["montecarlo.run_trial"])
    trials = est.counts["montecarlo.trials"]
    return {
        "cli.load_config.s": both.total("cli.load_config"),
        "graphs.complete_edges.s": both.total("graphs.complete_edges"),
        "cli.artifacts.s": both.total("cli.artifacts"),
        "cli.artifacts.bytes": both.counts["cli.artifacts.bytes"],
        "model.engine.self_us_per_step": both.self_time("model.run_trajectory") / steps * 1e6,
        "model.steps": steps,
        "model.fired_steps": both.counts.get("model.fired_steps", 0),
        "model.empty_steps": both.counts.get("model.empty_steps", 0),
        "model.fired_frac": both.counts.get("model.fired_steps", 0) / steps,
        "graphs.edges_at.us_per_call": (both.total("graphs.edges_at")
                                        / both.calls("graphs.edges_at") * 1e6),
        "graphs.edges_at.calls": both.calls("graphs.edges_at"),
        "invariants.identity.us_per_step": sim.total("invariants.identity.") / sim_steps * 1e6,
        "invariants.contraction.us_per_step": (sim.total("invariants.contraction.")
                                               / sim_steps * 1e6),
        "invariants.diameter.us_per_step": sim.total("invariants.diameter.") / sim_steps * 1e6,
        "invariants.tracker.us_per_step": both.total("invariants.tracker.") / steps * 1e6,
        "invariants.tracker.edges_measured": both.counts.get(
            "invariants.tracker.edges_measured", 0),
        "invariants.settle_time.ms_per_state": (sim.total("invariants.settle_time")
                                                / sim.counts["invariants.settle_time.states"]
                                                * 1e3),
        "montecarlo.run_trial.ms_per_trial": statistics.median(trial_ms),
        "montecarlo.run_trial.ms_per_trial_p90": (
            statistics.quantiles(trial_ms, n=10, method="inclusive")[-1]
            if len(trial_ms) > 1 else trial_ms[0]),
        "montecarlo.run_trial.steps_per_trial": est.counts["montecarlo.trial_steps"] / trials,
        "montecarlo.classifier.checks": est.calls("montecarlo.classifier.check"),
        "montecarlo.classifier.us_per_check": (est.total("montecarlo.classifier.check")
                                               / est.calls("montecarlo.classifier.check")
                                               * 1e6),
        # Wall of the 2-worker ensemble beyond an even split of the trial work.
        "montecarlo.pool.wait_s": pool_wall_s - est.total("montecarlo.run_trial") / 2,
        "montecarlo.decided_frac": est.counts["montecarlo.decided"] / trials,
        "geometry.bound.s": est.total("geometry.bound"),
        "norms.cross_distances.calls": both.calls("norms.cross_distances"),
        "norms.cross_distances.bytes_computed": both.counts.get(
            "norms.cross_distances.bytes_computed", 0),
    }


def trace_run(workload: Workload, seed: int, seconds: float, bench: Bench,
              sweep_budget_s: float) -> dict:
    """Plain and traced commands in pairs until ``seconds`` pass, then the sweep.

    At least two pairs run.  Per-layer figures come from the first traced
    simulate and estimate that passed; the tracing overhead compares the
    medians of the plain and the traced runs that passed.  A failed command
    counts in ``failed`` and is left out.
    """
    rng = random.Random(seed)
    sim_seed, est_seed, sweep_seed = (rng.randrange(2**31) for _ in range(3))
    sim_args = (workload.simulate_label, "simulate", workload.simulate, sim_seed)
    est_args = (workload.estimate_label, "estimate", workload.estimate, est_seed)
    start = time.perf_counter()
    pairs: dict[str, list[tuple[Outcome, Outcome]]] = {"simulate": [], "estimate": []}
    while (len(pairs["simulate"]) < 2 or
           time.perf_counter() - start < min(seconds, SCHEDULE_UNTIL_S)):
        pairs["simulate"].append((bench.run(*sim_args), bench.run(*sim_args, trace=True)))
        pairs["estimate"].append(
            (bench.run(*est_args, threads=1, trials=workload.trials),
             bench.run(*est_args, threads=1, trials=workload.trials, trace=True)))
    pool = bench.run(*est_args, threads=2, trials=workload.trials, trace=True)

    plain = {kind: _require([p for p, _ in runs if p.ok], f"plain {kind}")
             for kind, runs in pairs.items()}
    traced = {kind: _require([t for _, t in runs if t.ok], f"traced {kind}")
              for kind, runs in pairs.items()}
    if not pool.ok:
        raise MeasureError("no passing sample for traced estimate at 2 workers")
    sim, est = Spans(traced["simulate"][0]), Spans(traced["estimate"][0])
    metrics = layer_metrics(sim, est, Spans(traced["simulate"][0], traced["estimate"][0]),
                            Spans(pool).total("montecarlo.run_ensemble"))
    for kind in pairs:
        metrics[f"trace.overhead.{kind}"] = (
            statistics.median(o.wall_s for o in traced[kind])
            / statistics.median(o.wall_s for o in plain[kind]) - 1)
    cost = traced["simulate"][0].trace["cost"]
    print("  tracer cost per span, taken out of every figure: "
          + ", ".join(f"{key} {1e6 * value:.3f} us" for key, value in cost.items()))
    for label, spans in ((workload.simulate_label, sim), (workload.estimate_label, est)):
        print(f"  leading self times, traced {label}:")
        for (parent, name), self_s in spans.top_self():
            print(f"    {name:<34} {self_s:9.4f} s  called from {parent or '-'}")

    result = bench.workdir / "sweep.json"
    try:
        code, stderr = bench.run_process([sys.executable, str(HERE / "sweep.py"),
                                          str(sweep_seed), str(result), str(sweep_budget_s)])
    except subprocess.TimeoutExpired:
        raise MeasureError(f"observer sweep still running {RUN_LIMIT_S} s into the run")
    if code != 0:
        raise MeasureError(f"observer sweep failed: {stderr.strip()[-300:]}")
    sweep = json.loads(result.read_text())
    print("  observer sweep, us/step (ROADMAP baseline, ratio):")
    for name, value in sweep.items():
        base = baseline_of(name)
        ref = f"({base}, {value / base:.2f}x)" if base else ""
        print(f"    {name:<40} {value:10.2f} {ref}")
    metrics.update(sweep)
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def result_line(bench: Bench, metrics: dict, units: dict) -> dict:
    """The result object printed as the last line; failed commands count in ``failed``."""
    attempted = len(bench.outcomes)
    failed = sum(not o.ok for o in bench.outcomes)
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.3g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", fault: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``size="tiny"`` and ``fault=True`` (the first simulate overshoots) are for
    the self-tests.
    """
    import numpy

    workload = WORKLOADS[workload_name]
    if size == "tiny":
        workload = tiny(workload)
    workdir = ROOT / ".perfbench-out" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(workdir, fault_first_simulate=fault, probe=not trace)
    print(f"workload {workload_name} ({workload.simulate_label} + "
          f"{workload.estimate_label}), seed {seed}, trace {int(trace)}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    try:
        if trace:
            metrics = trace_run(workload, seed, seconds, bench,
                                0.2 if size == "full" else 0.02)
        else:
            metrics = measure(workload, seed, seconds, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return result_line(bench, metrics, PER_LAYER if trace else END_TO_END)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deffuant" / "__init__.py").is_file():
        print(f"error: no deffuant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
