import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deffuant import (
    ConsensusEstimate,
    EnsembleResult,
    InvariantViolation,
    TrajectoryObserver,
    lattice_points,
)
from deffuant import cli, invariants, model
from deffuant.invariants import contraction_slacks, update_identity_errors

cli_main = cli.main


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "n": 6,
        "epsilon": 0.9,
        "horizon": 500,
        "deltas": [0.1],
        "record_stride": 50,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli_process(argv, stdin=None):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr;
    ``stdin``, if given, is the text its standard input reads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "deffuant.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=env, timeout=120)


def _command_argv(command, path, out):
    argv = [command, "--config", path, "--out-dir", str(out)]
    return argv + (["--trials", "2", "--threads", "1"] if command == "estimate" else [])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_defaults_resolve():
    config = cli.load_config(None, argparse.Namespace())
    assert config.n == 10
    assert config.params.epsilon == 0.9
    assert config.record_stride == 10  # horizon // 1000
    assert config.deltas == [0.01]


def test_flags_beat_config_file(tmp_path):
    path = write_config(tmp_path, epsilon=0.5, n=4)
    ns = argparse.Namespace(epsilon=1.25, mu=0.25, n=None, horizon=None)
    config = cli.load_config(path, ns)
    assert config.params.epsilon == 1.25
    assert config.n == 4  # not overridden
    assert config.mu.value == 0.25


@pytest.mark.parametrize("flag, value", [("epsilon", 1.25), ("mu", 0.25), ("n", 7),
                                         ("horizon", 900)])
def test_each_override_flag_ends_up_in_the_loaded_config(tmp_path, flag, value):
    path = write_config(tmp_path, epsilon=0.5, n=4, horizon=300,
                        mu={"kind": "uniform", "low": 0.1, "high": 0.2})
    config = cli.load_config(path, argparse.Namespace(**{flag: value}))
    read = {"epsilon": config.params.epsilon, "n": config.n, "horizon": config.horizon,
            "mu": config.mu.value if flag == "mu" else (config.mu.low, config.mu.high)}
    assert read == {"epsilon": 0.5, "n": 4, "horizon": 300, "mu": (0.1, 0.2), flag: value}
    assert config.raw[flag] == ({"kind": "constant", "value": value} if flag == "mu" else value)
    assert config.graph.n == config.n


# every key each kind allows, besides "kind"
_SECTION_KEYS = {
    "space": {"interval": ["a", "b"], "box": ["lower", "upper"],
              "ball": ["center", "norm", "radius"], "cloud": ["points"]},
    "graph": {"complete": [], "path": [], "edges": ["pairs"], "erdos_renyi": ["p"],
              "cyclic": ["members"], "piecewise": ["steps"], "from_file": ["path"]},
    "mu": {"constant": ["value"], "uniform": ["high", "low"], "sequence": ["values"]},
}


def _config_error(tmp_path, **config) -> str:
    with pytest.raises(cli.ConfigurationError) as info:
        cli.load_config(write_config(tmp_path, **config), argparse.Namespace())
    return str(info.value)


@pytest.mark.parametrize("section", sorted(_SECTION_KEYS))
def test_each_section_names_an_unknown_kind_and_an_unknown_key(tmp_path, section):
    for data, kind in (({"kind": "bogus"}, "'bogus'"), ({}, "None"),
                       ({"kind": ["complete"]}, "['complete']"), ({"kind": 1}, "1")):
        assert _config_error(tmp_path, **{section: data}) == f"unknown {section} kind {kind}"
    for kind, keys in _SECTION_KEYS[section].items():
        # the unknown key is named before any value, or a missing key, is read
        for extra in ({"zz": 1}, {"zz": 1, **dict.fromkeys(keys)}):
            assert _config_error(tmp_path, **{section: {"kind": kind, **extra}}) == \
                f"unknown {section} keys: ['zz']"
    assert _config_error(tmp_path, graph={"kind": "erdos_renyi"}) == "missing key 'p'"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config file must hold a JSON object"),
    ('{"deltas": [0.1, 0]}', "deltas must be > 0, got [0.1, 0.0]"),
])
def test_a_config_that_is_no_object_or_has_a_delta_of_zero_is_named(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(cli.ConfigurationError) as info:
        cli.load_config(str(path), argparse.Namespace())
    assert str(info.value) == message


def test_estimate_of_no_trial_exits_config(tmp_path, capsys):
    assert cli_main(["estimate", "--trials", "0", "--out-dir", str(tmp_path)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: need trials >= 1, got 0\n"


def test_unknown_config_key_rejected(tmp_path):
    path = write_config(tmp_path, epsilonn=0.5)
    assert cli_main(["simulate", "--config", path,
                     "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["simulate", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_invalid_epsilon_flag_exits_config(tmp_path):
    assert cli_main(["simulate", "--epsilon", "-1",
                     "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("bad", [
    {"epsilon": "abc"},                   # ValueError in float()
    {"n": "x"},                           # ValueError in int()
    {"graph": {"kind": "erdos_renyi"}},   # KeyError: no "p"
    {"graph": {"kind": "edges", "pairs": [[0.9, 2.7], [0, 2]]}},   # float vertices
    {"graph": {"kind": "edges", "pairs": [[0, 1], [True, 2]]}},    # bool vertex
    {"check_every": 0},                   # classification cadence below 1
])
def test_bad_config_value_exits_config_without_traceback(tmp_path, bad):
    path = write_config(tmp_path, **bad)
    proc = run_cli_process(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("space", [
    {"kind": "interval", "a": 0.0, "b": float("inf")},
    {"kind": "interval", "a": -1e308, "b": 1e308},     # the side overflows
    {"kind": "box", "lower": [0.0], "upper": [float("inf")]},
    {"kind": "ball", "center": [0.5], "radius": float("inf")},
])
def test_a_non_finite_space_exits_config_without_traceback(tmp_path, command, space):
    path = write_config(tmp_path, space=space)
    proc = run_cli_process(_command_argv(command, path, tmp_path / "out"))
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error")
    assert "Traceback" not in proc.stderr


_FAR_INTERVAL = {"kind": "interval", "a": 0.0, "b": 1e200}


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("overrides", [
    {"space": _FAR_INTERVAL},
    {"dimension": 2, "space": {"kind": "ball", "center": [0.0, 0.0], "radius": 1e200}},
    {"n": 2, "initial": [0.0, 1e200]},
])
def test_a_region_whose_euclidean_lengths_overflow_exits_config(tmp_path, command, overrides):
    # A coordinate gap of 1e200 squares to Infinity.  The interval made
    # simulate report "final diameter inf" and estimate radius inf, exit 0.
    path = write_config(tmp_path, epsilon=1e300, **overrides)
    proc = run_cli_process(_command_argv(command, path, tmp_path / "out"))
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error") and "overflows" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_the_same_interval_loads_in_l1_where_its_lengths_are_finite(tmp_path, command):
    path = write_config(tmp_path, epsilon=1e300, norm="l1", space=_FAR_INTERVAL)
    assert cli_main(_command_argv(command, path, tmp_path / "out")) == cli.EXIT_OK


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("bad", [
    {"n": 0},                # simulate took min() of no opinions
    {"n": True},             # ran one agent
    {"horizon": 1.5},        # ran one step
    {"horizon": True},
    {"horizon": 0},          # simulate ran no step, estimate exited 2
    {"record_stride": 2.5},
    {"record_stride": 0},    # estimate ignored it
    {"c_samples": False},
    {"c_samples": "10"},
    {"dimension": True},
    {"check_every": 2.5},
])
def test_both_commands_reject_a_count_that_is_not_a_whole_number(tmp_path, capsys,
                                                                  command, bad):
    path = write_config(tmp_path, **bad)
    assert cli_main(_command_argv(command, path, tmp_path / "out")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("bad", [
    {"consensus_tol": 0},                     # simulate ignored it
    {"dimension": 2, "space": {"kind": "ball", "center": [0, 0], "radius": 1,
                               "norm": "l1"}},  # an l1 ball under a euclidean model
    {"n": 3, "initial": [0.1, float("nan"), 0.3]},   # estimate ignored it
    {"graph": {"kind": "piecewise", "steps": []}},   # exited 1 with an AttributeError
    {"epsilon": True},                        # loaded as 1.0
    {"deltas": [True]},                       # loaded as 1.0
    {"epsilon": "0.5"},                       # a string parsed as a number
    {"epsilon": 10**400},                     # exited 1 with an OverflowError
    # sized from BLOCK_BYTES at load time: 800 MB of reference points at d = 1
    # were allocated before, and the process was killed
    {"c_samples": 100_000_000},
])
def test_both_commands_reject_the_same_configs(tmp_path, capsys, command, bad):
    path = write_config(tmp_path, **bad)
    assert cli_main(_command_argv(command, path, tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def test_the_most_reference_points_that_fit_a_block_are_accepted(tmp_path):
    for d in (1, 3):
        most = invariants.ContractionObserver.max_points(d)
        assert 1000 < most and 8 * most * (5 * d + 14) <= model.BLOCK_BYTES
        space = {"kind": "box", "lower": [0.0] * d, "upper": [1.0] * d}
        for count, ok in ((most, True), (most + 1, False)):
            path = write_config(tmp_path, dimension=d, space=space, c_samples=count)
            if ok:
                assert cli.load_config(path, argparse.Namespace()).c_samples == most
            else:
                with pytest.raises(cli.ConfigurationError, match="c_samples"):
                    cli.load_config(path, argparse.Namespace())


def test_a_whole_float_count_is_read_as_an_integer(tmp_path):
    path = write_config(tmp_path, n=4.0, horizon=60.0, record_stride=20.0, c_samples=3.0,
                        check_every=5.0)
    config = cli.load_config(path, argparse.Namespace())
    counts = (config.n, config.horizon, config.record_stride, config.c_samples,
              config.check_every)
    assert counts == (4, 60, 20, 3, 5) and all(type(v) is int for v in counts)


def test_missing_graph_file_exits_config(tmp_path):
    path = write_config(tmp_path, graph={"kind": "from_file",
                                         "path": str(tmp_path / "nope.json")})
    assert cli_main(["simulate", "--config", path,
                     "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("graph_path", [0, True, ["a"]])
def test_a_graph_file_path_that_is_not_a_string_exits_config(tmp_path, graph_path):
    # open() takes an int as a file descriptor: a path of 0 read this graph
    # from stdin and exited 0, and true (fd 1) failed with "Bad file descriptor"
    path = write_config(tmp_path, graph={"kind": "from_file", "path": graph_path})
    proc = run_cli_process(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")],
                           stdin=json.dumps({"0": [[a, a + 1] for a in range(5)]}))
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error") and "path must be a string" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_suite_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["verify", "--suite", "bogus", "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("n, graph", [
    (10**12, {"kind": "complete"}),                # exited 1: MemoryError in complete_edges
    (10**12, {"kind": "path"}),                    # built 10^12 Python tuples, one at a time
    (10**12, {"kind": "erdos_renyi", "p": 0.5}),   # exited 1: MemoryError drawing the opinions
])
def test_a_huge_n_exits_config_without_traceback(tmp_path, capsys, command, n, graph):
    # Each of these asks numpy for one array of terabytes while the config is
    # built, which is refused at once; no smaller array is asked for, since a
    # kernel may grant that lazily.
    path = write_config(tmp_path, n=n, graph=graph)
    assert cli_main(_command_argv(command, path, tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def test_an_estimate_on_the_complete_graph_at_n_10_7_exits_config(tmp_path, capsys):
    # The opinions fit; the table of the 5 * 10^13 pairs that the classifier
    # profiles does not, and estimate asks for it before the run.
    path = write_config(tmp_path, n=10**7, graph={"kind": "complete"})
    assert cli_main(_command_argv("estimate", path, tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def _refuse_all_pairs(monkeypatch):
    """Make ``_all_pairs_array`` raise in every deffuant module that holds it."""
    def refused(n):
        raise AssertionError(f"the table of all pairs was built for n = {n}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "deffuant" and hasattr(module, "_all_pairs_array"):
            monkeypatch.setattr(module, "_all_pairs_array", refused)


def test_load_config_builds_no_table_for_the_complete_graph_at_n_10_7(tmp_path, monkeypatch):
    # A complete E(t) maps rows to pairs through O(n) offsets, so simulate
    # needs no table of all pairs (which took 8 * 10^14 bytes here).
    _refuse_all_pairs(monkeypatch)
    path = write_config(tmp_path, n=10**7, graph={"kind": "complete"})
    config = cli.load_config(path, argparse.Namespace())
    assert len(config.graph.edges_at(0)) == 10**7 * (10**7 - 1) // 2
    assert config.graph.connected_infinitely_often


def test_a_complete_simulate_at_n_1000_builds_no_table_of_all_pairs(tmp_path, monkeypatch):
    # the ``large`` benchmark's simulate-n1000: its picks, tracker and
    # settle_time read the rows they need from the complete E(t)
    _refuse_all_pairs(monkeypatch)
    path = write_config(tmp_path, n=1000, dimension=2, epsilon=0.5, horizon=40,
                        record_stride=40, mu={"kind": "constant", "value": 0.5},
                        space={"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]})
    assert cli_main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0


def test_a_memory_error_during_a_run_is_not_a_config_error(tmp_path, monkeypatch):
    # only a config that numpy refuses while it is built exits 2; running
    # out of memory later is a fault of the run, not of the config
    def exhausted(*args, **kwargs):
        raise MemoryError("exhausted")
    monkeypatch.setattr(cli, "run_trajectory", exhausted)
    path = write_config(tmp_path)
    with pytest.raises(MemoryError):
        cli_main(_command_argv("simulate", path, tmp_path / "out"))


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("bad", [
    # each loaded: bools as 0.0 and 1.0, a string parsed, nested lists flattened
    {"space": {"kind": "box", "lower": [False], "upper": [True]}},
    {"space": {"kind": "box", "lower": [[0.0]], "upper": [[1.0]]}},
    {"space": {"kind": "box", "lower": ["0"], "upper": [1.0]}},
    {"space": {"kind": "ball", "center": [True], "radius": 1.0}},
    {"space": {"kind": "ball", "center": [[0.5]], "radius": 1.0}},
    {"space": {"kind": "cloud", "points": [False, True]}},
    {"dimension": 2, "space": {"kind": "cloud", "points": [[True, 0.0], [1.0, 0.5]]}},
    {"n": 2, "initial": [True, False]},
    {"n": 2, "initial": ["0.1", 0.2]},
    {"n": 2, "dimension": 2, "space": {"kind": "box", "lower": [0, 0], "upper": [1, 1]},
     "initial": [[0.1, False], [0.2, 0.3]]},
])
def test_array_entries_are_checked_element_by_element(tmp_path, capsys, command, bad):
    path = write_config(tmp_path, **bad)
    assert cli_main(_command_argv(command, path, tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def test_array_entries_load_as_arrays_of_their_numbers():
    assert np.array_equal(cli._reals([0, 1.5], "x"), [0.0, 1.5])
    assert cli._reals([[0, 1], [2.5, 3]], "x", rows=True).tolist() == [[0.0, 1.0], [2.5, 3.0]]
    assert cli._reals([0.5, 1], "x", rows=True).tolist() == [0.5, 1.0]
    for bad, rows in (([[0.0]], False), ([[0.0], [1.0, 2.0]], True), ([[0.0], 1.0], True),
                      (0.5, False), ([None], False)):
        with pytest.raises(cli.ConfigurationError):
            cli._reals(bad, "x", rows=rows)


# A fuzzed config starts from _FUZZ_BASE, and each key is kept or drawn from
# its menu, or (one time in eight) from _WRONG: wrong types, bools, nested
# lists, 1e400 (Infinity once parsed) and negatives.  Sizes stay at n <= 30,
# but for the huge n above.
_HUGE = "__1e400__"   # written into the JSON text as the literal 1e400
_WRONG = [None, True, False, "x", [], [[0.5]], {}, -1, -0.5, 0, _HUGE]
_BOX2 = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
_FUZZ_BASE = {"n": 5, "dimension": 2, "space": _BOX2}
_MENU = {
    "n": [1, 2, 7, 30, 3.0, 10**12],
    "dimension": [2, 3],
    "epsilon": [0.3, 0.9, 2.0],
    "norm": ["euclidean", "l1", "linf"],
    "consensus_tol": [1e-6, 0.5],
    "space": [_BOX2, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
              {"kind": "cloud", "points": [[0.0, 0.0], [1.0, 0.5]]},
              {"kind": "interval", "a": 0.0, "b": 1.0},
              {"kind": "box", "lower": [[0.0], [0.0]], "upper": [[1.0], [_HUGE]]},
              {"kind": "ball", "center": [[0.0, 0.0]], "radius": -1.0},
              {"kind": "box", "lower": [False, False], "upper": [True, True]},
              {"kind": "box", "lower": [[0.0, 0.0]], "upper": [[1.0, 1.0]]},
              {"kind": "ball", "center": [True, False], "radius": 1.0},
              {"kind": "cloud", "points": [[True, 0.0], [1.0, 0.5]]}],
    "graph": [{"kind": "complete"}, {"kind": "path"}, {"kind": "erdos_renyi", "p": 0.5},
              {"kind": "edges", "pairs": [[0, 1], [1, 2]]},
              {"kind": "cyclic", "members": [[[0, 1]], []]},
              {"kind": "piecewise", "steps": {"0": [[0, 1]], "5": []}},
              {"kind": "edges", "pairs": [[0, [1]]]},
              {"kind": "cyclic", "members": []},
              {"kind": "piecewise", "steps": {"-5": []}},
              {"kind": "erdos_renyi", "p": _HUGE}],
    "mu": [{"kind": "constant", "value": 0.5}, {"kind": "uniform", "low": 0.1, "high": 0.5},
           {"kind": "sequence", "values": [0.5, 0.1]}, {"kind": "sequence", "values": []},
           {"kind": "constant", "value": _HUGE}, {"kind": "uniform", "low": 0.5, "high": 0.1}],
    "deltas": [[0.01], [0.05, 0.5], [], [_HUGE], [[0.1]]],
    "record_stride": [None, 1, 7],
    "c_samples": [1, 10, 10**9],
    "check_every": [1, 5, 100],
    "initial": [None, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8], [0.9, 1.0]],
                [[[0.1]]], [[True, False]] * 5, [0.1, 0.2, 0.3, 0.4, True]],
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_configs_exit_with_a_contract_code_and_both_commands_agree(data):
    config = dict(_FUZZ_BASE)
    for key, menu in _MENU.items():
        if data.draw(st.booleans(), label=f"{key}?"):
            wrong = data.draw(st.integers(0, 7), label=f"{key} wrong?") == 0
            config[key] = data.draw(st.sampled_from(_WRONG if wrong else menu), label=key)
    text = json.dumps(config).replace(f'"{_HUGE}"', "1e400")
    codes = {}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "config.json"
        path.write_text(text)
        for command in ("simulate", "estimate"):
            # any exception escaping main fails the test with its traceback
            codes[command] = cli_main([*_command_argv(command, str(path), Path(tmp) / command),
                                       "--horizon", "20"])
    assert set(codes.values()) <= {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INVARIANT,
                                   cli.EXIT_BOUND}, (text, codes)
    assert (codes["simulate"] == cli.EXIT_CONFIG) == (codes["estimate"] == cli.EXIT_CONFIG), \
        (text, codes)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path)
    assert cli_main(["simulate", "--config", path, "--seed", "7",
                     "--out-dir", str(out)]) == 0

    states = (out / "states.csv").read_text().splitlines()
    assert states[0] == "step,agent_id,x0"
    # 11 recorded states (stride 50 over 500 steps) x 6 agents
    assert len(states) == 1 + 11 * 6

    events = (out / "events.csv").read_text().splitlines()
    assert events[0] == "step,i,j,fired,mu"
    assert len(events) == 1 + 500

    summary = read_json(out / "summary.json")
    assert summary["seed"] == 7
    assert summary["steps_run"] == 500
    assert summary["checks"]["min_basic_slack"] >= -1e-9
    assert summary["checks"]["min_refined_slack"] >= -1e-9
    assert summary["checks"]["max_sum_error"] <= 1e-12
    assert summary["checks"]["max_diameter_increase"] <= 1e-12
    assert summary["stopping_times"][0]["delta"] == 0.1
    assert summary["stopping_times"][0]["censored"] is True


def test_simulate_deterministic_outputs(tmp_path):
    path = write_config(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", path, "--seed", "3",
                         "--out-dir", str(out)]) == 0
        blobs.append(tuple((out / f).read_bytes()
                           for f in ("states.csv", "events.csv", "summary.json")))
    assert blobs[0] == blobs[1]


def test_simulate_identical_initial_opinions(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, n=2, horizon=10, initial=[[0.3], [0.3]],
                        record_stride=1)
    assert cli_main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["final_diameter"] == 0.0
    assert summary["stopping_times"][0]["tau_delta"] == 0


def test_simulate_epsilon_flag_override(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, epsilon=0.5)
    assert cli_main(["simulate", "--config", path, "--epsilon", "1.875",
                     "--out-dir", str(out)]) == 0
    assert read_json(out / "summary.json")["epsilon"] == 1.875


def test_simulate_out_dir_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out))
    path = write_config(tmp_path, horizon=50)
    assert cli_main(["simulate", "--config", path]) == 0
    assert (out / "summary.json").exists()


def test_simulate_piecewise_graph_from_file(tmp_path):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({
        "0": [[0, 1], [1, 2]],
        "25": [[0, 2]],
    }))
    out = tmp_path / "out"
    path = write_config(tmp_path, n=3, horizon=50,
                        graph={"kind": "from_file", "path": str(graph_file)})
    assert cli_main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    events = (out / "events.csv").read_text().splitlines()[1:]
    pairs_before = {tuple(line.split(",")[1:3]) for line in events[:25]}
    pairs_after = {tuple(line.split(",")[1:3]) for line in events[25:]}
    assert pairs_before <= {("0", "1"), ("1", "2")}
    assert pairs_after == {("0", "2")}


def test_simulate_invariant_violation_exits_3(tmp_path, monkeypatch):
    class Faulty(TrajectoryObserver):
        def after_block(self, steps):
            at = np.flatnonzero(steps.t == 5)
            if at.size:
                return steps.violation(int(at[0]), "injected-fault", -1.0,
                                       "synthetic failure")

    monkeypatch.setattr(cli, "UpdateIdentityObserver", lambda params: Faulty())
    out = tmp_path / "out"
    path = write_config(tmp_path)
    assert cli_main(["simulate", "--config", path, "--seed", "1",
                     "--out-dir", str(out)]) == cli.EXIT_INVARIANT
    record = read_json(out / "violation.json")
    assert record["invariant"] == "injected-fault"
    assert record["step"] == 5
    assert record["slack"] == -1.0
    assert record["seed"] == 1
    assert "config_digest" in record
    assert not (out / "states.csv").exists()


@pytest.mark.parametrize("identity_check, failed_check", [
    (True, "realized-rate"), (False, "potential-drop")])
def test_violation_json_holds_the_failed_step_and_reproduces_its_slack(
        tmp_path, monkeypatch, identity_check, failed_check):
    # rate 0.9 at every update while 0.5 is reported
    update = model._update
    monkeypatch.setattr(model, "_update",
                        lambda x, i, j, mu, *rule: update(x, i, j, 0.9, *rule))
    if not identity_check:
        monkeypatch.setattr(cli, "UpdateIdentityObserver", lambda params: TrajectoryObserver())
    initial = [[0.0, 0.1], [0.9, 0.3], [0.4, 1.0], [0.7, 0.6]]
    path = write_config(tmp_path, n=4, dimension=2, initial=initial, c_samples=5,
                        space={"kind": "box", "lower": [0, 0], "upper": [1, 1]})
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", path, "--seed", "2",
                     "--out-dir", str(out)]) == cli.EXIT_INVARIANT
    record = read_json(out / "violation.json")
    assert record["invariant"] == failed_check
    old, new = np.array([record["before"]]), np.array([record["after"]])
    x0 = np.array(initial)
    assert {record["i"], record["j"]} <= set(range(4)) and record["i"] != record["j"]
    assert record["mu"] == 0.5
    assert np.allclose(new[0, 0] - old[0, 0], 0.9 * (old[0, 1] - old[0, 0]))
    if identity_check:
        resid = update_identity_errors(old, new, np.array([record["mu"]]))[2][0]
        assert record["slack"] == -resid
    else:
        c = lattice_points(x0.min(axis=0), x0.max(axis=0), 5)
        _, refined, _, refined_mid = contraction_slacks(old, new, c)
        at_midpoint = "pair midpoint" in record["detail"]
        assert record["slack"] == (refined_mid[0] if at_midpoint else refined[0].min())


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_full_confidence_range(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, epsilon=1.0, horizon=400)
    assert cli_main(["estimate", "--config", path, "--trials", "30",
                     "--threads", "1", "--per-trial", "--seed", "9",
                     "--out-dir", str(out)]) == 0
    payload = read_json(out / "ensemble.json")
    # interval [0, 1] with epsilon 1.0: every pair always in range
    assert payload["p_hat"] == 1.0
    assert payload["counts"]["consensus"] == 30
    assert payload["radius"] == 0.5
    assert payload["bound"] == pytest.approx(0.5, abs=1e-12)
    assert payload["passed"] is True
    assert payload["bound_applicable"] is True

    rows = (out / "trials.csv").read_text().splitlines()
    assert rows[0] == "trial_index,verdict,decided_at,final_diameter,tau_delta"
    assert len(rows) == 1 + 30
    assert all(line.split(",")[1] == "consensus" for line in rows[1:])


def test_estimate_deterministic_across_threads(tmp_path):
    path = write_config(tmp_path, horizon=300)
    blobs = []
    for name, threads in (("t1", "1"), ("t1b", "1"), ("t2", "2")):
        out = tmp_path / name
        assert cli_main(["estimate", "--config", path, "--trials", "16",
                         "--threads", threads, "--per-trial", "--seed", "5",
                         "--out-dir", str(out)]) == 0
        blobs.append(((out / "ensemble.json").read_bytes(),
                      (out / "trials.csv").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]


def test_threads_default_to_the_cores_this_process_may_run_on(monkeypatch):
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    assert cli.build_parser().parse_args(["estimate"]).threads == cores
    if hasattr(os, "sched_getaffinity"):
        # an affinity mask narrower than the machine sets the default
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli.build_parser().parse_args(["estimate"]).threads == 1


@pytest.mark.parametrize("graph", [{"kind": "erdos_renyi", "p": 0.3}, {"kind": "complete"}])
def test_outputs_do_not_depend_on_the_worker_count_or_the_draw_block(tmp_path, monkeypatch,
                                                                     graph):
    path = write_config(tmp_path, graph=graph, epsilon=0.4, horizon=700, record_stride=7,
                        mu={"kind": "uniform", "low": 0.1, "high": 0.5})
    outputs = []
    for block, threads in ((None, "1"), (None, "2"), (1, "1"), (3, "2"), (1000, "1")):
        if block is not None:
            monkeypatch.setattr(model, "DRAW_BLOCK", block)
        out = tmp_path / f"out-{block}-{threads}"
        assert cli_main(["simulate", "--config", path, "--seed", "3",
                         "--out-dir", str(out)]) == 0
        assert cli_main(["estimate", "--config", path, "--trials", "6", "--threads", threads,
                         "--per-trial", "--seed", "3", "--out-dir", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in (
            "states.csv", "events.csv", "summary.json", "ensemble.json", "trials.csv")])
    assert all(o == outputs[0] for o in outputs)


def test_an_erdos_renyi_simulate_at_n_1000_peaks_under_200_mb(tmp_path):
    # G(1000, 1/2) has 499 500 candidate edges: a block of 256 masks of them
    # took 1 GB; now no step builds E(t) unless its candidates miss
    path = write_config(tmp_path, n=1000, dimension=2, epsilon=0.5, horizon=30,
                        record_stride=10, graph={"kind": "erdos_renyi", "p": 0.5},
                        space={"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]})
    tracemalloc.start()
    try:
        assert cli_main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6


def test_a_complete_simulate_at_n_10_4_peaks_under_64_mb(tmp_path):
    # The table of all pairs alone took 800 MB here.  Every 50th state is
    # recorded: every state (34 MB traced) takes 15 s to write under tracing.
    path = write_config(tmp_path, n=10**4, dimension=2, horizon=100, record_stride=50,
                        space={"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]})
    tracemalloc.start()
    try:
        assert cli_main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_the_simulate_csvs_are_formatted_a_slice_at_a_time(tmp_path, monkeypatch):
    # 200 000 steps at n = 10, d = 1: formatted whole, the rows of events.csv
    # took about 31 MB after the run; a slice at a time, well under 1 MB.
    # Only what is allocated after the run is traced (tracing the run itself
    # would take ten times as long).
    run = cli.run_trajectory

    def traced(*args, **kwargs):
        trajectory = run(*args, **kwargs)
        tracemalloc.start()
        return trajectory

    monkeypatch.setattr(cli, "run_trajectory", traced)
    path = write_config(tmp_path, n=10, horizon=200_000, record_stride=None)
    try:
        assert cli_main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    events = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert [line.split(",", 1)[0] for line in events[1:]] == [str(t) for t in range(200_000)]
    states = (tmp_path / "out" / "states.csv").read_text().splitlines()
    assert len(states) == 1 + 10 * 1001 and states[-1].startswith("200000,9,")


# Bit patterns the float fields must keep apart or get right: both zeros,
# quiet and signalling NaNs of several payloads and both signs, both
# infinities, subnormals, the extremes and a few plain values.
_FLOAT_BITS = [
    0x0000000000000000, 0x8000000000000000,                          # 0.0, -0.0
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,      # NaNs
    0x7FF0000000000001, 0xFFF4000000000abc, 0x7FFFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,                          # +-inf
    0x0000000000000001, 0x800000000000000F, 0x000FFFFFFFFFFFFF,      # subnormals
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,                          # +-1.7976931348623157e+308
    0x3FF0000000000000, 0x3FB999999999999A, 0xBFE0000000000000,      # 1.0, 0.1, -0.5
]


def _as_floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def _reprs(values: np.ndarray) -> list[str]:
    return [float.__repr__(v) for v in values.ravel().tolist()]


# a few special values and any 64-bit patterns, each repeated any number of times
_repeated_bits = st.tuples(
    st.lists(st.sampled_from(_FLOAT_BITS), min_size=1, max_size=8, unique=True),
    st.lists(st.integers(0, 2**64 - 1), max_size=4),
).flatmap(lambda pools: st.lists(st.sampled_from(pools[0] + pools[1]), max_size=60))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bits=_repeated_bits, m=st.integers(1, 4), lo=st.integers(0, 3), k=st.integers(0, 1))
def test_the_float_fields_are_the_repr_of_each_value(bits, m, lo, k):
    values = _as_floats(bits)
    assert cli._floats(values) == _reprs(values)
    # a strided view, as ``cmd_simulate`` passes states[lo:hi, :, k]
    states = np.resize(values, (len(values) + 2 * m) // (2 * m) * 2 * m).reshape(-1, m, 2)
    view = states[lo:, :, k]
    assert not view.flags.c_contiguous or view.size <= 1
    assert cli._floats(view) == _reprs(view)


def test_the_float_fields_keep_every_bit_pattern_apart():
    values = _as_floats(_FLOAT_BITS * 2 + _FLOAT_BITS[::-1])
    texts = cli._floats(values)
    assert texts == _reprs(values)
    assert texts[:2] == ["0.0", "-0.0"]
    assert texts[10:15] == ["5e-324", "-7.4e-323", "2.225073858507201e-308",
                            "1.7976931348623157e+308", "-1.7976931348623157e+308"]
    # each text reads back bit for bit, but the payload and sign of a NaN
    assert [float(t) for t in texts[:2]] == [0.0, -0.0]
    assert np.array_equal(np.array([float(t) for t in texts]).view(np.uint64)[10:15],
                          np.array(_FLOAT_BITS[10:15], dtype=np.uint64))
    for empty in (np.empty(0), np.empty((0, 3)), np.empty((4, 0, 2))[:, :, 1]):
        assert cli._floats(empty) == []


def test_steps_without_an_edge_and_two_digit_agents_are_written_as_such(tmp_path):
    # agents 0 .. 11 on a path that is empty from step 40 to step 79
    path12 = [[a, a + 1] for a in range(11)]
    path = write_config(tmp_path, n=12, epsilon=0.9, horizon=120, record_stride=30,
                        graph={"kind": "piecewise",
                               "steps": {"0": path12, "40": [], "80": path12}},
                        mu={"kind": "uniform", "low": 0.1, "high": 0.5})
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", path, "--seed", "5", "--out-dir", str(out)]) == 0
    events = [line.split(",") for line in (out / "events.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in events] == [str(t) for t in range(120)]
    for t, (_, i, j, fired, mu) in enumerate(events):
        if 40 <= t < 80:
            assert (i, j, fired) == ("", "", "0")
        else:
            assert abs(int(i) - int(j)) == 1 and 0 <= int(i) <= 11
        assert 0.1 <= float(mu) <= 0.5
    assert any("11" in (row[1], row[2]) for row in events)
    states = [line.split(",") for line in (out / "states.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in states] == [[str(t), str(a)] for t in range(0, 121, 30)
                                           for a in range(12)]


def test_a_states_csv_at_n_2000_is_written_a_slice_at_a_time(tmp_path, monkeypatch):
    # 41 states of 2000 agents: 82 000 rows, 328 000 fields.  Formatted whole,
    # their texts alone would take over 20 MB; only the writing of states.csv
    # is traced.  A path graph keeps the set-up from building n^2 / 2 pairs.
    write = cli._write_csv
    peaks = {}

    def traced(path, header, slices):
        if Path(path).name != "states.csv":
            return write(path, header, slices)
        tracemalloc.start()
        try:
            write(path, header, slices)
            peaks["states.csv"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_write_csv", traced)
    path = write_config(tmp_path, n=2000, dimension=2, epsilon=0.5, horizon=40,
                        record_stride=1, graph={"kind": "path"},
                        space={"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]})
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", path, "--out-dir", str(out)]) == 0
    assert peaks["states.csv"] < 8e6
    states = (out / "states.csv").read_text().splitlines()
    assert len(states) == 1 + 41 * 2000 and states[-1].startswith("40,1999,")


def test_estimate_check_every_takes_effect(tmp_path):
    decided = {}
    for check_every in (None, 1):
        extra = {} if check_every is None else {"check_every": check_every}
        path = write_config(tmp_path, epsilon=0.3, horizon=1000, **extra)
        out = tmp_path / f"out{check_every}"
        assert cli_main(["estimate", "--config", path, "--trials", "12", "--threads", "1",
                         "--per-trial", "--seed", "4", "--out-dir", str(out)]) == 0
        rows = (out / "trials.csv").read_text().splitlines()[1:]
        decided[check_every] = [line.split(",")[2] for line in rows]
    # the default checks every 100 steps; checking every step decides some trials earlier
    assert all(d == "" or int(d) % 100 == 0 for d in decided[None])
    assert decided[1] != decided[None]
    assert all(b == "" or int(a) <= int(b) for a, b in zip(decided[1], decided[None]))


def test_estimate_reports_inapplicable_bound(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "expected_center_distance", lambda *a, **kw: calls.append(a))
    for name, space, dimension in (
            ("interval", {"kind": "interval", "a": 0.0, "b": 1.0}, 1),
            ("square", {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}, 2)):
        out = tmp_path / name
        # enclosing radius (0.5, 0.707) >= epsilon 0.4: hypothesis fails,
        # estimation still runs
        path = write_config(tmp_path, epsilon=0.4, horizon=200, space=space,
                            dimension=dimension)
        assert cli_main(["estimate", "--config", path, "--trials", "10",
                         "--threads", "1", "--seed", "2",
                         "--out-dir", str(out)]) == 0
        payload = read_json(out / "ensemble.json")
        for key in ("bound", "tested_bound", "tested_bound_z", "passed", "margin",
                    "expected_center_distance", "expected_center_distance_se"):
            assert payload[key] is None
        assert payload["bound_applicable"] is False
        assert payload["n_trials"] == 10
    assert calls == []   # no E d(X, c) is computed for a bound that does not apply


def test_estimate_tests_a_monte_carlo_bound_at_e_plus_z_se(tmp_path, monkeypatch):
    # the unit cube under euclidean: E d(X, c) is a Monte Carlo mean
    cube = {"kind": "box", "lower": [0.0] * 3, "upper": [1.0] * 3}
    path = write_config(tmp_path, dimension=3, space=cube, epsilon=1.5)
    argv = ["estimate", "--config", path, "--trials", "20", "--threads", "1", "--seed", "4"]
    assert cli_main([*argv, "--out-dir", str(tmp_path / "real")]) == 0
    real = read_json(tmp_path / "real" / "ensemble.json")
    e, se, z = (real[k] for k in ("expected_center_distance", "expected_center_distance_se",
                                  "tested_bound_z"))
    assert se > 0 and z == 3.0
    bound, tested = (1 - x / (1.5 - real["radius"]) for x in (e, e + z * se))
    assert real["bound"] == pytest.approx(bound, rel=1e-14)
    assert real["tested_bound"] == pytest.approx(tested, rel=1e-14) and tested < bound

    def fake(ci_high):
        return EnsembleResult(
            estimate=ConsensusEstimate(p_hat=ci_high - 0.05, ci_low=ci_high - 0.1,
                                       ci_high=ci_high, n_trials=20, n_undecided=0),
            counts={"consensus": 4, "dissensus": 16, "undecided": 0}, rows=[])

    # below the bound but not below the tested bound: no contradiction
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **kw: fake((bound + tested) / 2))
    assert cli_main([*argv, "--out-dir", str(tmp_path / "near")]) == 0
    assert read_json(tmp_path / "near" / "ensemble.json")["passed"] is True
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **kw: fake(tested - 0.01))
    assert cli_main([*argv, "--out-dir", str(tmp_path / "below")]) == cli.EXIT_BOUND
    assert read_json(tmp_path / "below" / "ensemble.json")["passed"] is False


def test_estimate_contradicted_bound_exits_4(tmp_path, monkeypatch):
    fake = EnsembleResult(
        estimate=ConsensusEstimate(p_hat=0.1, ci_low=0.05, ci_high=0.15,
                                   n_trials=20, n_undecided=0),
        counts={"consensus": 2, "dissensus": 18, "undecided": 0},
        rows=[],
    )
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **kw: fake)
    out = tmp_path / "out"
    path = write_config(tmp_path, epsilon=1.0)
    assert cli_main(["estimate", "--config", path, "--trials", "20",
                     "--threads", "1", "--out-dir", str(out)]) == cli.EXIT_BOUND
    payload = read_json(out / "ensemble.json")
    assert payload["passed"] is False
    assert payload["margin"] == pytest.approx(0.05 - 0.5)


def test_an_interval_and_the_same_one_dimensional_box_give_the_same_artifacts(tmp_path):
    spellings = {"interval": {"kind": "interval", "a": -0.5, "b": 1.5},
                 "box": {"kind": "box", "lower": [-0.5], "upper": [1.5]}}
    artifacts = {}
    for name, space in spellings.items():
        path = write_config(tmp_path, f"{name}.json", space=space, epsilon=2.0)
        out = tmp_path / name
        assert cli_main(["simulate", "--config", path, "--seed", "3",
                         "--out-dir", str(out)]) == 0
        assert cli_main(["estimate", "--config", path, "--seed", "3", "--trials", "20",
                         "--threads", "1", "--per-trial", "--out-dir", str(out)]) == 0
        files = {}
        for f in ("states.csv", "events.csv", "trials.csv", "summary.json", "ensemble.json"):
            files[f] = (out / f).read_bytes()
            if f.endswith(".json"):
                payload = json.loads(files[f])
                assert payload.pop("config_digest")
                files[f] = payload
        artifacts[name] = files
    assert artifacts["interval"] == artifacts["box"]
    ensemble = artifacts["box"]["ensemble.json"]
    assert ensemble["radius"] == 1.0
    assert ensemble["expected_center_distance"] == 0.5   # exact: (b - a) / 4
    assert ensemble["expected_center_distance_se"] == 0.0
    assert ensemble["bound"] == 0.5                       # 1 - E d / (epsilon - r)
    assert ensemble["tested_bound"] == 0.5                # exact E: tested at E itself


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_geometry_suite(tmp_path, capsys):
    assert cli_main(["verify", "--suite", "geometry",
                     "--out-dir", str(tmp_path)]) == 0
    assert "suite geometry: PASS" in capsys.readouterr().out


def test_verify_all_suites(tmp_path, capsys):
    assert cli_main(["verify", "--suite", "all", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in ("contraction", "potential-drop", "potential", "triviality",
                 "geometry"):
        assert f"suite {name}: PASS" in out
    assert not (tmp_path / "verify-failure.json").exists()


def test_verify_failure_writes_diagnostics(tmp_path, monkeypatch):
    def broken(seed, runs):
        raise InvariantViolation("synthetic", step=3, slack=-0.5, detail="boom")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "geometry", broken)
    assert cli_main(["verify", "--suite", "geometry",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_INVARIANT
    record = read_json(tmp_path / "verify-failure.json")
    assert record["suite"] == "geometry"
    assert record["invariant"] == "synthetic"


def test_verify_builds_the_audited_runs_once_per_invocation(tmp_path, capsys, monkeypatch):
    calls = []

    def short_audit_run(seed, k, steps, record_stride):
        calls.append((seed, k, steps, record_stride))
        return invariants.audit_run(seed, k, 200, 10)  # fewer steps keep the test quick

    monkeypatch.setattr(cli, "audit_run", short_audit_run)
    scenarios = [(1, k, 2000, 50) for k in range(12)]
    assert cli_main(["verify", "--suite", "all", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
    assert calls == scenarios
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    for name in ("contraction", "potential-drop", "potential", "triviality", "geometry"):
        calls.clear()
        assert cli_main(["verify", "--suite", name, "--seed", "1",
                         "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == lines[f"suite {name}"] + "\n"
        assert calls == ([] if name == "geometry" else scenarios)


@pytest.mark.parametrize("identity_check, failed_check", [
    (True, "realized-rate"),     # the full audit: the identity observer sees it first
    (False, "potential-drop"),   # without it, the refined contraction slack goes negative
])
def test_verify_catches_an_update_that_overshoots_the_midpoint(
        tmp_path, capsys, monkeypatch, identity_check, failed_check):
    update = model._update
    monkeypatch.setattr(model, "_update",
                        lambda x, i, j, mu, *rule: update(x, i, j, 0.9, *rule))
    if not identity_check:
        monkeypatch.setattr(invariants, "UpdateIdentityObserver",
                            lambda params: TrajectoryObserver())
    assert cli_main(["verify", "--suite", "potential-drop",
                     "--out-dir", str(tmp_path)]) == cli.EXIT_INVARIANT
    assert capsys.readouterr().out.startswith("suite potential-drop: FAIL")
    record = read_json(tmp_path / "verify-failure.json")
    assert record["suite"] == "potential-drop"
    assert record["invariant"] == failed_check
    assert record["slack"] < 0
