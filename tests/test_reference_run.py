"""Whole runs against the step-by-step reference of ``oracles.reference_run``."""

import argparse
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deffuant import TrialConfig, cli, model, run_trial
from deffuant.norms import NORMS
from oracles.reference_run import reference_simulate, reference_trial


@st.composite
def _edge_list(draw, n):
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return []
    return draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique_by=tuple))


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["complete", "path", "edges", "erdos_renyi", "cyclic",
                                 "piecewise"]))
    graph = {"kind": kind}
    if kind == "edges":
        graph["pairs"] = draw(_edge_list(n))
    elif kind == "erdos_renyi":
        graph["p"] = draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0]))
    elif kind == "cyclic":
        graph["members"] = draw(st.lists(_edge_list(n), min_size=1, max_size=3))
    elif kind == "piecewise":
        steps = draw(st.lists(st.integers(1, 80), max_size=3, unique=True))
        graph["steps"] = {str(s): draw(_edge_list(n)) for s in [0, *steps]}
    mu_kind = draw(st.sampled_from(["constant", "uniform", "sequence"]))
    rate = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5])
    if mu_kind == "constant":
        mu = {"kind": "constant", "value": draw(rate)}
    elif mu_kind == "uniform":
        low, high = sorted((draw(rate), draw(rate)))
        mu = {"kind": "uniform", "low": low, "high": high}
    else:
        mu = {"kind": "sequence", "values": draw(st.lists(rate, min_size=1, max_size=4))}
    # past several multiples of check_every, where a run with a stop rule
    # ends its blocks
    horizon = draw(st.integers(1, 400))
    return {
        "n": n, "dimension": d, "norm": draw(st.sampled_from(NORMS)),
        "epsilon": draw(st.sampled_from([0.1, 0.3, 0.6, 1.0, 2.0])),
        "space": {"kind": "box", "lower": [0.0] * d, "upper": [1.0] * d},
        "graph": graph, "mu": mu, "horizon": horizon,
        "record_stride": draw(st.one_of(st.none(), st.integers(1, 40))),
        "deltas": draw(st.lists(st.sampled_from([0.01, 0.1, 0.3]), max_size=2)),
        "check_every": draw(st.one_of(st.integers(1, 150), st.sampled_from([25, 50, 100]))),
        "c_samples": 3,
    }


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_configs(), seed=st.integers(0, 2**32), trial=st.integers(0, 5),
       early_stop=st.booleans(), fired_per_block=st.integers(1, 7))
def test_whole_runs_match_the_reference_bit_for_bit(tmp_path_factory, raw, seed, trial,
                                                    early_stop, fired_per_block):
    path = tmp_path_factory.mktemp("run") / "config.json"
    path.write_text(json.dumps(raw))
    config = cli.load_config(str(path), argparse.Namespace())
    # blocks of 1 to 7 fired steps, and of at most 1 to 483 steps: runs
    # cross many block ends, some on the step bound
    block_bytes = fired_per_block * 48 * config.n * config.params.dimension
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "BLOCK_BYTES", block_bytes)
        _check_runs(config, path.parent / "out", seed, trial, early_stop)


def _check_runs(config, out, seed, trial, early_stop):
    """``run_trial`` and ``cmd_simulate`` on ``config`` against the reference."""
    trial_config = TrialConfig(
        n=config.n, params=config.params, space=config.space, graph_schedule=config.graph,
        mu_schedule=config.mu, horizon=config.horizon, consensus_tol=config.consensus_tol,
        master_seed=seed, trial_index=trial,
        track_delta=config.deltas[0] if config.deltas else None,
        check_every=config.check_every)
    got = run_trial(trial_config, early_stop=early_stop)
    want = reference_trial(trial_config, early_stop)
    assert (got.outcome.verdict, got.outcome.decided_at, got.tau_delta, got.steps_run) == (
        want.verdict, want.decided_at, want.tau_delta, want.steps_run)
    assert np.array_equal(got.outcome.final_diameter, want.final_diameter, equal_nan=True)

    out.mkdir()
    assert cli.cmd_simulate(config, seed, out) == cli.EXIT_OK
    want = reference_simulate(config, seed)
    states = np.loadtxt(out / "states.csv", delimiter=",", skiprows=1, ndmin=2)
    assert states[:, 0].reshape(len(want.times), -1)[:, 0].tolist() == want.times
    assert np.array_equal(states[:, 2:].reshape(len(want.times), config.n, -1),
                          np.array(want.states))
    rows = [line.split(",") for line in (out / "events.csv").read_text().splitlines()[1:]]
    assert [(int(i) if i else None, int(j) if j else None, fired == "1", float(mu))
            for _, i, j, fired, mu in rows] == want.events
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps_run"] == config.horizon
    assert [(r["tau_delta"], r["T_delta"]) for r in summary["stopping_times"]] == list(
        zip(want.tau, want.T))
