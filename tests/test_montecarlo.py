import dataclasses
import json
import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deffuant import (
    Ball,
    Box,
    BoundInapplicableError,
    ConfigurationError,
    ConsensusEstimate,
    ConstantGraph,
    ConstantMu,
    Interval,
    InvariantViolation,
    ModelParams,
    OpinionState,
    OutcomeClassifier,
    PiecewiseGraph,
    PointCloud,
    StoppingTimeTracker,
    TrialConfig,
    TrialOutcome,
    Verdict,
    bound_comparison_report,
    certified_hull_gap,
    chebyshev_center,
    complete_edges,
    expected_center_distance,
    run_ensemble,
    run_trajectory,
    run_trial,
    theoretical_lower_bound,
    wilson_interval,
)
from deffuant import cli, graphs, montecarlo
from deffuant.model import side_stream
from deffuant.norms import NORMS, cross_distances
from oracles import wilson_roots

# Wilson 95% reference intervals computed once with
# statsmodels.stats.proportion.proportion_confint(method="wilson");
# statsmodels is not a dependency.
WILSON_REFERENCE = {
    (0, 50): (0.0, 0.07134759913335874),
    (50, 50): (0.9286524008666412, 1.0),
    (375, 1000): (0.345526294232981, 0.40543039538840775),
    (1987, 2000): (0.9889104708274775, 0.9961974035059259),
    (1, 3): (0.06149194472039626, 0.7923403991979523),
}


def _config(epsilon=0.9, n=6, horizon=2000, mu=0.5, space=None, schedule=None,
            **kw):
    return TrialConfig(
        n=n,
        params=ModelParams(epsilon=epsilon),
        space=space if space is not None else Interval(0.0, 1.0),
        graph_schedule=schedule if schedule is not None else ConstantGraph(n, complete_edges(n)),
        mu_schedule=ConstantMu(mu) if isinstance(mu, float) else mu,
        horizon=horizon,
        **kw,
    )


# ---------------------------------------------------------------------------
# Hull separation certificates
# ---------------------------------------------------------------------------

def test_hull_gap_1d_exact():
    a = np.array([[0.0], [0.2]])
    b = np.array([[0.5], [0.9]])
    assert certified_hull_gap(a, b) == pytest.approx(0.3, abs=1e-15)
    assert certified_hull_gap(b, a) == pytest.approx(0.3, abs=1e-15)
    # overlapping hulls
    assert certified_hull_gap(np.array([[0.0], [1.0]]), np.array([[0.5], [2.0]])) == 0.0


def test_hull_gap_singletons_exact():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert certified_hull_gap(a, b) == pytest.approx(5.0, abs=1e-12)


def test_hull_gap_axis_separated_squares():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    far = sq + np.array([2.0, 0.0])
    gap = certified_hull_gap(sq, far)
    assert gap == pytest.approx(1.0, abs=1e-9)
    assert gap <= 1.0 + 1e-12
    # linf certificate is scaled down, never up
    assert certified_hull_gap(sq, far, "linf") == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


def test_hull_gap_never_exceeds_true_distance():
    """Dense hull sampling gives an upper envelope of the true gap; the
    certificate must sit below it (and well above zero here)."""
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2)) + np.array([6.0, 3.0])
        lam = rng.dirichlet(np.ones(3), size=80)
        hull_a = lam @ a
        hull_b = rng.dirichlet(np.ones(3), size=80) @ b
        dense_min = cross_distances(hull_a, hull_b).min()
        cert = certified_hull_gap(a, b)
        assert cert <= dense_min + 1e-12
        assert cert >= 0.8 * dense_min


def _assert_at_most_is_exact(a, b, norm, e):
    """certified_hull_gap(at_most=e) exceeds e exactly when the full
    certificate does, and then with the same bits."""
    full = certified_hull_gap(a, b, norm)
    early = certified_hull_gap(a, b, norm, at_most=e)
    assert (early > e) == (full > e), (norm, e, full, early)
    if full > e:
        assert early.hex() == full.hex()


def _computed_length(a, b):
    """|w| for w the difference of the means, rounded as the certificate's
    loop rounds it: for singletons the computed |a - b|."""
    w = a.mean(axis=0) - b.mean(axis=0)
    return float(np.sqrt(w @ w))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), sizes=st.tuples(
    st.integers(1, 90), st.integers(1, 90)), scale=st.sampled_from([0.0, 1.0, 1e4, 1e8]),
       norm=st.sampled_from(NORMS))
def test_a_hull_gap_with_at_most_exceeds_it_exactly_when_the_full_gap_does(
        seed, d, sizes, scale, norm):
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.01, 1.0)
    base = scale * rng.uniform(-1.0, 1.0, d)
    a = base + spread * rng.uniform(-1.0, 1.0, (sizes[0], d))
    b = (base + rng.uniform(0.0, 3.0) * spread * rng.normal(size=d)
         + spread * rng.uniform(-1.0, 1.0, (sizes[1], d)))
    full = certified_hull_gap(a, b, norm)
    length = _computed_length(a, b)
    for e in (full, length, spread * rng.uniform(0.0, 3.0)):
        for near in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)):
            _assert_at_most_is_exact(a, b, norm, float(near))


def test_singleton_hull_gaps_with_at_most_at_their_computed_length_are_exact():
    # a singleton's certificate is the rounded |a - b|, which exceeds the
    # computed |a - b| in about three pairs of ten: a loop that stopped at
    # |w| <= epsilon, with no margin, would return 0.0 for them
    rng = np.random.default_rng(22)
    for _ in range(700):
        d = int(rng.integers(2, 4))
        base = 10.0 ** rng.uniform(0.0, 8.0) * rng.uniform(-1.0, 1.0, d)
        a = base + rng.uniform(-1.0, 1.0, (1, d))
        b = base + rng.uniform(-1.0, 1.0, (1, d))
        length = _computed_length(a, b)
        for norm in NORMS:
            for e in (np.nextafter(length, -np.inf), length, np.nextafter(length, np.inf)):
                _assert_at_most_is_exact(a, b, norm, float(e))


def test_a_hull_gap_within_at_most_stops_early():
    # two rows of points 0.2 apart: the early exit reports 0.0 under 0.3, not 0.2
    a = np.column_stack((np.linspace(0.0, 1.0, 40), np.zeros(40)))
    b = a + np.array([0.05, 0.2])
    assert certified_hull_gap(a, b, at_most=0.3) == 0.0
    assert certified_hull_gap(a, b) == pytest.approx(0.2, abs=1e-3)
    assert certified_hull_gap(a, b, at_most=0.15) == certified_hull_gap(a, b)


def test_hull_gap_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        certified_hull_gap(np.zeros((2, 1)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Outcome classification
# ---------------------------------------------------------------------------

def test_identical_opinions_classified_consensus_at_zero():
    config = _config(space=PointCloud(np.array([[0.3]])), n=3)
    result = run_trial(config)
    assert result.outcome.verdict is Verdict.CONSENSUS
    assert result.outcome.decided_at == 0
    assert result.outcome.final_diameter == 0.0
    assert result.steps_run == 0  # early stop before the first step


def _classify(config, opinions, horizon):
    """Outcome of a run from the given opinions, as the classifier sees it."""
    classifier = OutcomeClassifier(config)
    run_trajectory(OpinionState(0, np.array(opinions)), config.graph_schedule,
                   config.mu_schedule, config.params, horizon, np.random.default_rng(0),
                   observers=[classifier])
    return classifier.outcome()


def test_split_pair_classified_dissensus_at_zero():
    config = _config(epsilon=0.3, n=2, horizon=5)
    outcome = _classify(config, [0.0, 1.0], 5)
    assert outcome.verdict is Verdict.DISSENSUS
    assert outcome.decided_at == 0
    assert outcome.final_diameter == pytest.approx(1.0)


def test_in_range_population_classified_consensus_when_flags_hold():
    config = _config(epsilon=0.9, n=2, horizon=5)
    assert _classify(config, [0.1, 0.2], 0).verdict is Verdict.CONSENSUS


def test_vanishing_mu_blocks_the_consensus_certificate():
    config = _config(epsilon=0.9, n=2, horizon=5, mu=ConstantMu(0.0))
    outcome = _classify(config, [0.1, 0.2], 0)
    assert outcome.verdict is Verdict.UNDECIDED
    assert outcome.decided_at is None


def test_unknown_future_connectivity_blocks_the_certificate():
    schedule = PiecewiseGraph(2, ((0, complete_edges(2)),))
    config = _config(epsilon=0.9, n=2, horizon=5, schedule=schedule)
    assert _classify(config, [0.1, 0.2], 0).verdict is Verdict.UNDECIDED


def test_classifier_rejects_bad_check_interval():
    with pytest.raises(ConfigurationError):
        _config(check_every=0)


def test_short_run_verdicts_agree_with_long_reruns():
    """A decided verdict must be stable: rerunning the same trial at 10x the
    horizon may decide more trials but can never flip a decision."""
    template = _config(epsilon=0.9, n=8, horizon=1500, master_seed=77)
    flips = 0
    decided = 0
    for k in range(100):
        short = run_trial(dataclasses.replace(template, trial_index=k))
        if short.outcome.verdict is Verdict.UNDECIDED:
            continue
        decided += 1
        long = run_trial(dataclasses.replace(template, trial_index=k, horizon=15_000))
        flips += short.outcome.verdict is not long.outcome.verdict
    assert decided > 50
    assert flips == 0


# ---------------------------------------------------------------------------
# Trials and ensembles
# ---------------------------------------------------------------------------

def test_trial_config_validation():
    with pytest.raises(ConfigurationError):
        _config(horizon=0)
    with pytest.raises(ConfigurationError):
        _config(consensus_tol=0.0)
    with pytest.raises(ConfigurationError):
        _config(track_delta=-0.1)
    with pytest.raises(ConfigurationError):
        _config(n=4, schedule=ConstantGraph(5, complete_edges(5)))
    with pytest.raises(ConfigurationError):
        TrialConfig(n=3, params=ModelParams(epsilon=0.5, dimension=2),
                    space=Interval(0.0, 1.0),
                    graph_schedule=ConstantGraph(3, complete_edges(3)),
                    mu_schedule=ConstantMu(0.5), horizon=10)


def test_run_trial_early_stop_vs_full_horizon():
    config = _config(epsilon=1.0, horizon=500, master_seed=3)
    stopped = run_trial(config)
    assert stopped.outcome.verdict is Verdict.CONSENSUS
    assert stopped.steps_run == 0
    full = run_trial(config, early_stop=False)
    assert full.steps_run == 500
    assert full.outcome.verdict is Verdict.CONSENSUS
    assert full.outcome.decided_at == 0


def test_run_trial_waits_for_stopping_time():
    config = _config(epsilon=1.0, horizon=50_000, master_seed=3, track_delta=0.01)
    result = run_trial(config)
    assert result.outcome.verdict is Verdict.CONSENSUS
    assert result.tau_delta is not None
    assert result.steps_run >= result.tau_delta > 0


def test_an_ensemble_needs_a_trial_and_a_worker():
    template = _config(horizon=50)
    with pytest.raises(ConfigurationError, match=r"^need n_trials >= 1, got 0$"):
        run_ensemble(template, 0)
    with pytest.raises(ConfigurationError, match=r"^need workers >= 1, got 0$"):
        run_ensemble(template, 3, workers=0)


def test_ensemble_is_deterministic_and_worker_independent():
    template = _config(horizon=2000, n=6, master_seed=5)
    a = run_ensemble(template, 40)
    b = run_ensemble(template, 40)
    c = run_ensemble(template, 40, workers=2)
    assert a.rows == b.rows == c.rows
    assert a.estimate == b.estimate == c.estimate
    assert sum(a.counts.values()) == 40
    assert a.counts["consensus"] >= 1
    # more workers than trials, and shares of unequal length
    for n_trials in (1, 2, 7):
        serial = run_ensemble(template, n_trials)
        assert serial.rows == a.rows[:n_trials]
        for workers in (2, 3, 5):
            forked = run_ensemble(template, n_trials, workers=workers)
            assert forked.rows == serial.rows and forked.estimate == serial.estimate


def test_trials_do_not_depend_on_ensemble_size():
    template = _config(horizon=1000, n=5, master_seed=11)
    small = run_ensemble(template, 10)
    large = run_ensemble(template, 25)
    assert small.rows == large.rows[:10]


def test_forked_workers_run_trials_in_order_even_when_run_trial_is_a_closure(monkeypatch):
    # A closure wrapping run_trial (to time or count trials) runs in every
    # worker: each looks run_trial up when it runs a trial.
    real, seen = montecarlo.run_trial, []

    def counting(config, **kwargs):
        seen.append(config.trial_index)
        return real(config, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trial", counting)
    template = _config(horizon=1000, n=5, master_seed=9)
    one = run_ensemble(template, 12)
    assert seen == list(range(12))
    assert one.rows == [real(dataclasses.replace(template, trial_index=k)) for k in range(12)]
    assert run_ensemble(template, 12, workers=2).rows == one.rows
    # this process ran worker 0's share, the even trials, in order
    assert seen[12:] == list(range(0, 12, 2))


def _failing_at(monkeypatch, failures):
    """Make run_trial raise ``failures[k]`` at trial k."""
    real = montecarlo.run_trial

    def failing(config, **kwargs):
        if config.trial_index in failures:
            raise failures[config.trial_index]
        return real(config, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trial", failing)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_an_ensemble_raises_the_failure_of_its_lowest_failing_trial(monkeypatch, workers):
    # trial k runs in worker k % workers: at 4 workers the child with trial 5
    # comes before the one with trial 3
    _failing_at(monkeypatch, {3: ConfigurationError("trial 3"),
                              5: ConfigurationError("trial 5")})
    with pytest.raises(ConfigurationError, match="trial 3"):
        run_ensemble(_config(horizon=500, n=5, master_seed=3), 8, workers=workers)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


def test_a_forked_worker_sends_back_its_failure_as_raised_or_as_its_repr(monkeypatch):
    violation = InvariantViolation("pair-contraction", 17, -0.5, "overshoot",
                                   {"i": 1, "j": 2, "mu": 0.9})
    _failing_at(monkeypatch, {1: violation})
    with pytest.raises(InvariantViolation) as raised:
        run_ensemble(_config(horizon=500, n=5), 4, workers=2)
    assert raised.value is not violation   # it came from the child
    assert (raised.value.invariant, raised.value.step, raised.value.slack,
            raised.value.detail, raised.value.event) == ("pair-contraction", 17, -0.5,
                                                         "overshoot", violation.event)
    assert str(raised.value) == str(violation)
    _failing_at(monkeypatch, {1: _Unpicklable("odd")})
    with pytest.raises(RuntimeError, match=r"trial 1 raised _Unpicklable\('odd'\)"):
        run_ensemble(_config(horizon=500, n=5), 4, workers=2)


def test_a_worker_killed_by_a_signal_raises_and_leaves_no_child(monkeypatch):
    real = montecarlo.run_trial

    def dying(config, **kwargs):
        if config.trial_index == 1:   # in worker 1, a child
            os.kill(os.getpid(), signal.SIGKILL)
        return real(config, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trial", dying)
    with pytest.raises(RuntimeError, match="worker 1 .* killed by signal 9"):
        run_ensemble(_config(horizon=500, n=5), 6, workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_parent_that_fails_stops_every_child(monkeypatch):
    # worker 0 is interrupted while worker 1 still runs: the call stops and
    # reaps it, and raises the interrupt
    real = montecarlo.run_trial

    def interrupted(config, **kwargs):
        if config.trial_index == 0:
            raise KeyboardInterrupt
        if config.trial_index == 1:
            time.sleep(60)   # a child that outlasts the test unless it is stopped
        return real(config, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trial", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_ensemble(_config(horizon=500, n=5), 4, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers, n_trials, forks", [(1, 5, 0), (2, 5, 1), (3, 5, 2),
                                                      (8, 3, 2), (4, 1, 0)])
def test_an_ensemble_forks_one_child_per_worker_besides_this_process(monkeypatch, workers,
                                                                      n_trials, forks):
    real, calls = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    template = _config(horizon=500, n=5, master_seed=2)
    assert run_ensemble(template, n_trials, workers=workers).rows == \
        run_ensemble(template, n_trials).rows
    assert len(calls) == forks


def test_without_fork_an_ensemble_runs_in_process(monkeypatch):
    template = _config(horizon=500, n=5, master_seed=2)
    forked = run_ensemble(template, 5, workers=3)
    monkeypatch.delattr(os, "fork")
    assert run_ensemble(template, 5, workers=3).rows == forked.rows


@pytest.mark.parametrize("kind", ["tracker", "classifier"])
def test_an_observer_reused_for_a_second_run_reports_that_run_alone(kind):
    # the first run starts in consensus, so tau and the verdict come at step 0;
    # the second, with mu = 0, never gets a short profile nor a sound verdict
    config = _config(epsilon=0.2, n=4, horizon=20, mu=0.0)

    def run(observer, x):
        run_trajectory(OpinionState(0, x), config.graph_schedule, config.mu_schedule,
                       config.params, config.horizon, np.random.default_rng(0),
                       observers=[observer])
        return observer.time if kind == "tracker" else observer.outcome()

    def make():
        if kind == "tracker":
            return StoppingTimeTracker(0.01, config.params)
        return OutcomeClassifier(config)

    spread = np.array([0.0, 0.1, 0.2, 0.3])
    reused = make()
    first = run(reused, np.zeros(4))
    assert first == (0 if kind == "tracker" else TrialOutcome(Verdict.CONSENSUS, 0, 0.0))
    fresh = run(make(), spread)
    assert fresh == (None if kind == "tracker" else TrialOutcome(Verdict.UNDECIDED, None, 0.3))
    assert run(reused, spread) == fresh


def test_ensemble_tests_a_constant_schedule_for_connectivity_once(monkeypatch):
    # on a path: a complete graph's connectivity is read from n alone, with
    # no is_connected call (test_graphs.py::test_constant_graph)
    calls = []
    real = graphs.is_connected
    monkeypatch.setattr(graphs, "is_connected", lambda *a: calls.append(a) or real(*a))
    path = ConstantGraph(6, graphs.path_edges(6))
    result = run_ensemble(_config(horizon=500, n=6, master_seed=4, schedule=path), 20)
    assert len(calls) == 1 and len(result.rows) == 20
    # the kept flag survives pickling
    schedule = _config(schedule=ConstantGraph(6, graphs.path_edges(6))).graph_schedule
    assert schedule.connected_infinitely_often and len(calls) == 2
    assert pickle.loads(pickle.dumps(schedule)).connected_infinitely_often and len(calls) == 2


def _at_end_every_undecided(self, t, x, social_edges):
    """``OutcomeClassifier.at_end`` as it was: any undecided state is checked again."""
    if self._fired_at >= self._checked_at or self.verdict is None:
        self._check(x, t)


@pytest.mark.parametrize("horizon, quiet_from, checks", [
    (200, 150, 3),   # checked at 0, 100 and 200, on which the run ends unchanged
    (250, 240, 4),   # and at the end: steps 200 to 239 fire after the last check
])
def test_an_unchanged_undecided_state_is_not_classified_twice(tmp_path, monkeypatch, horizon,
                                                              quiet_from, checks):
    # only agents 0 and 1 meet, until quiet_from: the diameter stays within
    # epsilon but a piecewise schedule certifies no connectivity, so every
    # trial ends undecided
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 6, "epsilon": 0.9, "space": {"kind": "interval", "a": 0.0, "b": 0.8},
        "graph": {"kind": "piecewise", "steps": {"0": [[0, 1]], str(quiet_from): []}},
        "horizon": horizon, "check_every": 100}))
    calls = []
    real = OutcomeClassifier._verdict
    monkeypatch.setattr(OutcomeClassifier, "_verdict", lambda self, x: calls.append(1) or
                        real(self, x))
    counted = {}
    for rule in ("skip", "every undecided"):
        if rule != "skip":
            monkeypatch.setattr(OutcomeClassifier, "at_end", _at_end_every_undecided)
        calls.clear()
        out = tmp_path / rule
        # no trial decides consensus, so the data contradict the bound (exit 4)
        assert cli.main(["estimate", "--config", str(config), "--trials", "5", "--seed", "3",
                         "--threads", "1", "--per-trial", "--out-dir", str(out)]) == cli.EXIT_BOUND
        counted[rule] = (len(calls), (out / "trials.csv").read_bytes())
    rows = counted["skip"][1].decode().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["undecided"] * 5
    assert counted["skip"][0] == 5 * checks
    assert counted["every undecided"][0] == 5 * 4
    assert counted["skip"][1] == counted["every undecided"][1]


def test_frozen_dynamics_yield_no_consensus_claims():
    # mu identically 0 moves nothing and breaks the inf mu > 0 hypothesis,
    # so trials stay undecided (or prove dissensus); p_hat must be 0
    template = _config(mu=ConstantMu(0.0), horizon=50, n=6, master_seed=2)
    result = run_ensemble(template, 30)
    assert result.estimate.p_hat == 0.0
    assert result.counts["consensus"] == 0
    assert result.estimate.n_undecided == result.counts["undecided"]


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------

def test_wilson_matches_statsmodels_reference():
    for (s, n), (lo, hi) in WILSON_REFERENCE.items():
        got_lo, got_hi = wilson_interval(s, n)
        assert got_lo == pytest.approx(lo, abs=1e-12)
        assert got_hi == pytest.approx(hi, abs=1e-12)


def test_wilson_matches_quadratic_roots_oracle():
    for s, n in [(0, 7), (7, 7), (3, 10), (150, 300), (999, 1000), (1, 2)]:
        lo, hi = wilson_interval(s, n)
        ref_lo, ref_hi = wilson_roots(s, n)
        assert lo == pytest.approx(ref_lo, abs=1e-10)
        assert hi == pytest.approx(ref_hi, abs=1e-10)


def test_wilson_edge_cases():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and 0.65 < lo < 1.0
    with pytest.raises(ConfigurationError):
        wilson_interval(5, 3)
    with pytest.raises(ConfigurationError):
        wilson_interval(-1, 3)


def test_wilson_always_brackets_the_point_estimate():
    # the exact endpoints contain p; rounding must not break that (p = 1 at
    # large n is the classic offender)
    for s, n in [(2000, 2000), (0, 2000), (1, 10**6), (10**6 - 1, 10**6),
                 (37, 412)]:
        lo, hi = wilson_interval(s, n)
        assert lo <= s / n <= hi


def test_consensus_estimate_validation_and_se():
    est = ConsensusEstimate(p_hat=0.5, ci_low=0.4, ci_high=0.6, n_trials=100,
                            n_undecided=0)
    assert est.std_error == pytest.approx(0.05)
    with pytest.raises(ConfigurationError):
        ConsensusEstimate(p_hat=0.3, ci_low=0.4, ci_high=0.6, n_trials=100,
                          n_undecided=0)


# ---------------------------------------------------------------------------
# Lower bound and report
# ---------------------------------------------------------------------------

def test_lower_bound_reference_values():
    # unit interval: center 1/2, radius 1/2, mean distance to center 1/4
    assert theoretical_lower_bound(0.9, Ball([0.5], 0.5), 0.25) == pytest.approx(
        0.375, abs=1e-12)
    # 1-d ball of radius r with epsilon = 2r: mean distance r/2 gives 1/2
    assert theoretical_lower_bound(1.0, Ball([0.0], 0.5), 0.25) == pytest.approx(
        0.5, abs=1e-15)
    assert theoretical_lower_bound(0.9, Ball([0.5], 0.5), 0.0) == 1.0
    assert theoretical_lower_bound(0.9, Ball([0.5], 0.5), 5.0) == 0.0


def test_lower_bound_inapplicable_when_radius_reaches_epsilon():
    with pytest.raises(BoundInapplicableError):
        theoretical_lower_bound(0.5, Ball([0.5], 0.5), 0.25)
    with pytest.raises(BoundInapplicableError):
        theoretical_lower_bound(0.4, Ball([0.5], 0.5), 0.25)
    with pytest.raises(ConfigurationError):
        theoretical_lower_bound(0.9, Ball([0.5], 0.5), -0.1)


def test_bound_report_pass_fail_and_inapplicable():
    ok = ConsensusEstimate(p_hat=0.8, ci_low=0.75, ci_high=0.85, n_trials=400,
                           n_undecided=3)
    rep = bound_comparison_report(ok, 0.375)
    assert rep.passed is True
    assert rep.margin == pytest.approx(0.375)
    assert rep.bound == 0.375 and rep.tested_bound == 0.375
    # passed tests ci_high against the tested bound, margin stays at the bound
    rep = bound_comparison_report(ok, 0.9, 0.85)
    assert rep.passed is True and rep.margin == pytest.approx(-0.15)
    assert not bound_comparison_report(ok, 0.9, 0.86).passed

    bad = ConsensusEstimate(p_hat=0.2, ci_low=0.15, ci_high=0.25, n_trials=400,
                            n_undecided=0)
    rep = bound_comparison_report(bad, 0.375)
    assert rep.passed is False
    assert rep.margin == pytest.approx(-0.225)

    rep = bound_comparison_report(ok, None)
    assert rep.passed is None and rep.bound is None and rep.margin is None
    assert rep.tested_bound is None


def test_a_bound_near_ci_high_passes_on_every_draw_of_its_expected_distance():
    # The unit cube under euclidean: E d(X, c) is a Monte Carlo mean of the
    # bound's side stream, one per seed.  ci_high sits at the bound of the
    # median draw, so the bound at each E is within about one se of it.
    cube = Box([0.0] * 3, [1.0] * 3)
    ball, epsilon = chebyshev_center(cube), 1.5
    draws = [expected_center_distance(cube, ball.center, rng=side_stream(seed, "bound"))
             for seed in range(16)]
    ci_high = theoretical_lower_bound(epsilon, ball, float(np.median([e for e, _ in draws])))
    estimate = ConsensusEstimate(p_hat=ci_high - 0.05, ci_low=ci_high - 0.1, ci_high=ci_high,
                                 n_trials=400, n_undecided=0)
    near, at_point, tested = 0, set(), set()
    for e, se in draws:
        bound = theoretical_lower_bound(epsilon, ball, e)
        near += abs(bound - ci_high) <= se / (epsilon - ball.radius)
        at_point.add(bound_comparison_report(estimate, bound).passed)
        report = bound_comparison_report(
            estimate, bound,
            theoretical_lower_bound(epsilon, ball, e + montecarlo.BOUND_SE_Z * se))
        assert report.bound == bound and report.tested_bound < bound
        tested.add(report.passed)
    assert near >= 8
    assert at_point == {True, False}   # the point bound flips with the draws
    assert tested == {True}
