"""The parent/change driver of tools/: alternation, summary, --append, export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pair  # noqa: E402


def test_the_parent_runs_first_in_the_first_third_and_fifth_rounds():
    calls = []
    runs = bench_pair.alternate(5, lambda side, k: calls.append((k, side)) or f"{side}{k}")
    assert calls == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                     (2, "parent"), (2, "change"), (3, "change"), (3, "parent"),
                     (4, "parent"), (4, "change")]
    assert runs == {side: [f"{side}{k}" for k in range(5)] for side in ("parent", "change")}


def test_a_figure_is_summarised_by_its_spreads_ratio_and_wins():
    parent, change = [10.0, 20.0, 30.0, 40.0, 50.0], [5.0, 25.0, 15.0, 45.0, 10.0]
    assert bench_pair.compare(parent, change) == {
        "parent": {"median": 30.0, "q1": 20.0, "q3": 40.0, "runs": 5},
        "change": {"median": 15.0, "q1": 10.0, "q3": 25.0, "runs": 5},
        "change_over_parent": 0.5,
        "change_wins": "3/5",
    }
    assert bench_pair.compare(parent, change, better="higher")["change_wins"] == "2/5"
    assert bench_pair.compare([2.0], [3.0])["parent"] == {"median": 2.0, "q1": 2.0,
                                                          "q3": 2.0, "runs": 1}


def fake_timing(monkeypatch, tmp_path, argv):
    """``time_main`` of a fake timing script: every process returns one value
    per job, larger on the parent's side; returns (exit status, the measuring
    processes in the order they ran)."""
    processes = []

    def last_json(command, root, env):
        assert env["PYTHONPATH"] == str(root / "src")
        side = "change" if root == ROOT else "parent"
        figure, seed = command[3:]
        processes.append((side, figure, seed))
        return {figure: int(seed) + (10.0 if side == "parent" else 0.0)}

    monkeypatch.setattr(bench_pair, "export", lambda rev, into: "f" * 40)
    monkeypatch.setattr(bench_pair, "last_json", last_json)
    status = bench_pair.time_main(
        str(tmp_path / "time_fake.py"), "Time a fake.\n", key="fake", unit="ms", rounds=10,
        method="each value is fake", measure=lambda *args: {"measured": list(args)},
        jobs=lambda k: [("a", 100 + k), ("b", 200 + k)], argv=argv)
    return status, processes


def test_append_adds_its_key_and_keeps_the_others(monkeypatch, tmp_path):
    bench = tmp_path / "BENCH_9.json"
    before = {"change": "something", "end_to_end": {"workloads": {"small": [1, 2]}}}
    bench.write_text(json.dumps(before))
    status, processes = fake_timing(monkeypatch, tmp_path,
                                    ["--parent", "HEAD", "--rounds", "3", "--append", str(bench)])
    assert status == 0
    assert processes == [("parent", "a", "100"), ("parent", "b", "200"),
                         ("change", "a", "100"), ("change", "b", "200"),
                         ("change", "a", "101"), ("change", "b", "201"),
                         ("parent", "a", "101"), ("parent", "b", "201"),
                         ("parent", "a", "102"), ("parent", "b", "202"),
                         ("change", "a", "102"), ("change", "b", "202")]
    record = json.loads(bench.read_text())
    assert {key: record[key] for key in before} == before
    summary = record["fake"]
    assert summary["command"] == "python3 tools/time_fake.py --parent HEAD --rounds 3"
    assert summary["parent_commit"] == "f" * 40
    assert summary["unit"] == "ms"
    assert list(summary["figures"]) == ["a", "b"]
    assert summary["figures"]["b"] == bench_pair.compare([210.0, 211.0, 212.0],
                                                         [200.0, 201.0, 202.0])
    assert summary["figures"]["b"]["change_wins"] == "3/3"


def test_measure_prints_the_figures_of_its_arguments(monkeypatch, tmp_path, capsys):
    status, processes = fake_timing(monkeypatch, tmp_path, ["--measure", "a", "7"])
    assert status == 0 and processes == []
    assert json.loads(capsys.readouterr().out) == {"measured": ["a", "7"]}


def test_a_failing_export_leaves_no_child_process(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    with pytest.raises(SystemExit):
        bench_pair.export("HEAD", tmp_path / "missing")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
