"""Self-tests of the benchmark: smoke runs, fault injection, BENCHMARK.json.

Run from the root of the repository: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = run.run(workload, seed=3, seconds=0, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result, allow_nan=False)


# On small, the first plain simulate overshoots: the traced run counts it in
# failed and still reports every metric from the commands that passed.
@pytest.mark.parametrize("workload,fault", [("small", True), ("large", False)])
def test_tiny_traced_run_reports_every_per_layer_metric(workload, fault):
    result = run.run(workload, seed=3, seconds=0, trace=True, size="tiny", fault=fault)
    assert result["failed"] == int(fault) and result["correct"] is not fault
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # every fired update was counted once; a complete graph never leaves a step empty
    assert 0 < metrics["model.fired_steps"] <= metrics["model.steps"]
    assert metrics["model.empty_steps"] == 0
    assert metrics["model.engine.self_us_per_step"] > 0
    assert metrics["montecarlo.classifier.checks"] >= 2
    assert metrics["invariants.settle_time.ms_per_state"] > 0
    if workload == "small":
        assert metrics["montecarlo.decided_frac"] == 1.0
    else:
        assert metrics["graphs.edges_at.calls"] >= metrics["model.steps"]
    json.dumps(result, allow_nan=False)


def test_tracer_takes_its_own_cost_out_of_the_caller():
    from spans import Tracer

    calls = 20000

    def leaf(a, b):
        return None

    def caller(f):
        for _ in range(calls):
            f(1, 2)

    def bare(f):
        for _ in range(calls):
            pass

    residuals, outside = [], []
    for _ in range(5):
        tracer = Tracer()
        tracer.calibrate()
        tracer.wrap(caller, "caller")(tracer.wrap(leaf, "leaf"))
        _, total, child = tracer.spans[("", "caller")]
        t0 = perf_counter()
        bare(leaf)
        bare_s = perf_counter() - t0
        residuals.append(abs(total - child - bare_s) / calls)
        outside.append(tracer.cost["outside"])
    # Corrected, the caller keeps the time of its bare loop: what is left of
    # the 20000 wrapper calls is well under what each one cost it.
    assert statistics.median(outside) > 0
    assert statistics.median(residuals) < 0.5 * statistics.median(outside)


def test_speed_probe_samples_the_cpu_and_leaves_out_its_own_time():
    from command import SpeedProbe

    with SpeedProbe(True) as probe:
        t0, c0 = perf_counter(), probe.clock()
        while perf_counter() - t0 < 0.55:
            sum(range(1000))
        elapsed, clocked = perf_counter() - t0, probe.clock() - c0
    # a sample at the start and at the end, and one every 0.1 s in between
    assert 6 <= len(probe.speeds) <= 9
    assert all(s > 0 for s in probe.speeds) and probe.speed > 0
    assert 0 < probe.spent < 0.5 * elapsed
    assert clocked < elapsed
    with SpeedProbe(False) as idle:
        pass
    assert idle.speeds == [] and idle.speed == 1.0


def test_injected_overshoot_counts_as_failed_and_is_not_timed(tmp_path):
    workload = tiny(WORKLOADS["small"])
    bench = run.Bench(tmp_path, fault_first_simulate=True, probe=True)
    metrics = run.measure(workload, seed=3, seconds=0, bench=bench)

    failed = [o for o in bench.outcomes if not o.ok]
    assert len(failed) == 1
    assert failed[0].kind == "simulate" and failed[0].reason.startswith("exit code 3")
    passed = bench.passed(workload.simulate_label, kind="simulate")
    assert len(passed) == sum(o.kind == "simulate" for o in bench.outcomes) - 1
    assert metrics["simulate.wall_s"] == statistics.median(o.wall_s * o.speed for o in passed)

    result = run.result_line(bench, metrics, run.END_TO_END)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(bench.outcomes)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
