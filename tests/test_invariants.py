import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deffuant import (
    ConfigurationError,
    ConstantGraph,
    ConstantMu,
    ContractionObserver,
    CyclicGraph,
    DiameterMonotoneObserver,
    EdgeSet,
    ErdosRenyiGraph,
    InvariantViolation,
    ModelParams,
    OpinionGraphChangeCounter,
    OpinionState,
    PiecewiseGraph,
    StoppingTimeRecord,
    SequenceMu,
    StoppingTimeTracker,
    TrajectoryObserver,
    UniformMu,
    UpdateIdentityObserver,
    check_potential_monotone,
    complete_edges,
    diameter,
    is_connected,
    lattice_points,
    pair_contraction_slacks,
    path_edges,
    potential_drop_slack,
    profile,
    run_trajectory,
    settle_time,
)
from deffuant import invariants, model
from deffuant.graphs import pair_lengths
from deffuant.invariants import IDENTITY_TOL, audit_run
from deffuant.model import seed_streams
from deffuant.norms import NORMS, cross_distances

P1 = ModelParams(epsilon=1.0)


# ---------------------------------------------------------------------------
# Pure slack functions
# ---------------------------------------------------------------------------

def test_contraction_slacks_tight_at_midpoint_merge():
    """mu = 1/2 merges the pair at its midpoint; with c at that midpoint the
    refined inequality is tight (slack exactly 0) and the basic slack equals
    the pre-step pair distance."""
    pre = OpinionState(0, np.array([0.0, 0.4]))
    post = OpinionState(1, np.array([0.2, 0.2]))
    rep = pair_contraction_slacks(pre, post, (0, 1), np.array([0.2]))
    assert rep.basic_slack == pytest.approx(0.4, abs=1e-15)
    assert rep.refined_slack == pytest.approx(0.0, abs=1e-14)
    assert potential_drop_slack(pre, post, (0, 1), np.array([0.2])) == pytest.approx(
        0.0, abs=1e-14)


def test_contraction_slacks_nonnegative_for_real_updates():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        norm = NORMS[int(rng.integers(0, 3))]
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(n, d))
        i, j = rng.choice(n, size=2, replace=False)
        mu = float(rng.uniform(0.0, 0.5))
        new = x.copy()
        upd = mu * (x[j] - x[i])
        new[i] += upd
        new[j] -= upd
        pre, post = OpinionState(0, x), OpinionState(1, new)
        c = rng.normal(size=d)
        rep = pair_contraction_slacks(pre, post, (int(i), int(j)), c, norm)
        assert rep.basic_slack >= -1e-12
        assert rep.refined_slack >= -1e-12
        assert potential_drop_slack(pre, post, (int(i), int(j)), c, norm) >= -1e-12


def test_contraction_slacks_flag_agents_moving_apart():
    pre = OpinionState(0, np.array([0.0, 0.4]))
    bad = OpinionState(1, np.array([-0.2, 0.6]))
    rep = pair_contraction_slacks(pre, bad, (0, 1), np.array([0.2]))
    assert rep.basic_slack == pytest.approx(-0.4)
    assert rep.refined_slack < 0
    assert potential_drop_slack(pre, bad, (0, 1), np.array([0.2])) == pytest.approx(-0.8)


def test_refined_slack_flags_overshoot_that_basic_misses():
    # effective rate 0.9: the pair crosses. Distances to c = 0 sum to 1
    # either way, so the basic inequality is blind to it; the refined one
    # charges the displacement and goes negative.
    pre = OpinionState(0, np.array([0.0, 1.0]))
    bad = OpinionState(1, np.array([0.9, 0.1]))
    rep = pair_contraction_slacks(pre, bad, (0, 1), np.array([0.0]))
    assert rep.basic_slack == pytest.approx(0.0, abs=1e-15)
    assert rep.refined_slack == pytest.approx(-0.8)


def test_pair_validation():
    pre = OpinionState(0, np.zeros(3))
    with pytest.raises(ConfigurationError):
        pair_contraction_slacks(pre, pre, (0, 0), np.zeros(1))
    with pytest.raises(ConfigurationError):
        pair_contraction_slacks(pre, pre, (0, 5), np.zeros(1))


# ---------------------------------------------------------------------------
# Potential monotonicity over recorded states
# ---------------------------------------------------------------------------

def test_potential_monotone_on_real_run():
    initial = OpinionState(0, np.linspace(0.0, 1.0, 8))
    traj = run_trajectory(initial, ConstantGraph(8, complete_edges(8)),
                          ConstantMu(0.4), ModelParams(epsilon=0.9), 1500,
                          np.random.default_rng(1), record_stride=10)
    cs = lattice_points(np.array([-0.5]), np.array([1.5]), 9)
    assert check_potential_monotone(traj.times, traj.states, cs).ok


def test_potential_monotone_detects_increase():
    states = np.array([[[0.0], [1.0]], [[0.0], [1.5]]])
    res = check_potential_monotone([0, 1], states, np.array([[0.0]]))
    assert not res.ok
    assert res.step == 1 and res.c_index == 0
    assert res.drift == pytest.approx(0.5)


def test_lattice_points():
    pts = lattice_points(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 10)
    assert pts.shape == (10, 2)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    line = lattice_points(np.array([2.0]), np.array([3.0]), 5)
    assert np.allclose(line.ravel(), np.linspace(2.0, 3.0, 5))
    flat = lattice_points(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 4)
    assert np.all(flat[:, 1] == 1.0)
    with pytest.raises(ConfigurationError):
        lattice_points(np.array([1.0]), np.array([0.0]), 3)
    with pytest.raises(ConfigurationError):
        lattice_points(np.array([0.0]), np.array([1.0]), 0)


# ---------------------------------------------------------------------------
# Observers: clean runs and injected faults
# ---------------------------------------------------------------------------

def _fake_after_step(obs, x_new, pre=(0.0, 1.0), mu=0.5):
    """Feed the observer one fabricated fired step on a two-agent state."""
    pre_arr = np.asarray(pre, dtype=float)[:, None]
    obs.at_start(OpinionState(0, pre_arr.copy()))
    obs.after_step(0, 0, 1, True, mu,
                   pre_arr[0].copy(), pre_arr[1].copy(),
                   np.asarray(x_new, dtype=float)[:, None], EdgeSet())


def test_identity_observer_passes_clean_run():
    initial = OpinionState(0, np.linspace(0.0, 1.0, 6))
    obs = UpdateIdentityObserver(ModelParams(epsilon=0.9))
    run_trajectory(initial, ConstantGraph(6, complete_edges(6)), ConstantMu(0.3),
                   ModelParams(epsilon=0.9), 1000, np.random.default_rng(2),
                   observers=[obs], record_stride=None)
    assert obs.checked > 0
    assert obs.max_sum_error <= 1e-12
    assert obs.max_displacement_gap <= 1e-12
    assert obs.max_rate_residual <= 1e-12


def test_identity_observer_flags_broken_sum():
    obs = UpdateIdentityObserver(P1)
    with pytest.raises(InvariantViolation, match="pair-sum-conservation"):
        _fake_after_step(obs, [0.5, 0.9])


def test_identity_observer_flags_wrong_rate():
    # sum conserved and displacements equal, but the realized rate is 0.3
    # while 0.5 was reported
    obs = UpdateIdentityObserver(P1)
    with pytest.raises(InvariantViolation, match="realized-rate"):
        _fake_after_step(obs, [0.3, 0.7], mu=0.5)


def test_identity_observer_flags_rate_out_of_range():
    obs = UpdateIdentityObserver(P1)
    with pytest.raises(InvariantViolation, match="rate-range"):
        _fake_after_step(obs, [0.7, 0.3], mu=0.7)


def test_contraction_observer_flags_separation():
    obs = ContractionObserver(np.array([[0.0]]), P1)
    with pytest.raises(InvariantViolation, match="pair-contraction"):
        _fake_after_step(obs, [-0.2, 1.2])


def test_contraction_observer_flags_overshoot():
    obs = ContractionObserver(np.array([[0.0]]), P1)
    with pytest.raises(InvariantViolation, match="potential-drop"):
        _fake_after_step(obs, [0.9, 0.1])


def test_contraction_observer_clean_run_stats():
    initial = OpinionState(0, np.linspace(0.0, 1.0, 6))
    obs = ContractionObserver(lattice_points(np.array([0.0]), np.array([1.0]), 7),
                              ModelParams(epsilon=0.9))
    run_trajectory(initial, ConstantGraph(6, complete_edges(6)), ConstantMu(0.5),
                   ModelParams(epsilon=0.9), 1000, np.random.default_rng(3),
                   observers=[obs], record_stride=None)
    assert obs.fired_steps > 0
    assert obs.min_basic_slack >= -1e-9
    assert obs.min_refined_slack >= -1e-9
    assert obs.max_potential_drift <= 1e-9


def test_contraction_observer_dimension_check():
    with pytest.raises(ConfigurationError):
        ContractionObserver(np.zeros((3, 2)), P1)


def test_diameter_observer_flags_expansion():
    obs = DiameterMonotoneObserver(P1)
    with pytest.raises(InvariantViolation, match="diameter-monotone"):
        _fake_after_step(obs, [-0.5, 1.0])


def test_diameter_observer_tracks_current_diameter():
    initial = OpinionState(0, np.linspace(0.0, 1.0, 6))
    obs = DiameterMonotoneObserver(ModelParams(epsilon=2.0))
    traj = run_trajectory(initial, ConstantGraph(6, complete_edges(6)),
                          ConstantMu(0.5), ModelParams(epsilon=2.0), 400,
                          np.random.default_rng(4), observers=[obs],
                          record_stride=None)
    x = traj.final.opinions
    assert obs.diameter == pytest.approx(float(np.ptp(x)), abs=1e-12)
    assert obs.max_increase <= 1e-12


class _DiameterProbe(TrajectoryObserver):
    """Listed after a DiameterMonotoneObserver: after every step, compares its
    diameter with the maximum of the full distance matrix, and counts the
    fired steps whose pair touched the farthest pair it kept."""

    def __init__(self, obs, norm):
        self.obs, self.norm = obs, norm
        self.diameters, self.pair_hits = [], 0

    def before_step(self, t, x, social_edges):
        self.kept = set(self.obs._pair)

    def after_step(self, t, i, j, fired, mu, xi_old, xj_old, x, social_edges):
        assert self.obs.diameter == float(cross_distances(x, x, self.norm).max())
        self.diameters.append(self.obs.diameter)
        self.pair_hits += fired and bool({i, j} & self.kept)


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("n, d", [(2, 1), (7, 3), (40, 2)])
def test_diameter_observer_matches_the_full_matrix_at_every_step(norm, n, d):
    params = ModelParams(epsilon=10.0, dimension=d, norm=norm)
    obs = DiameterMonotoneObserver(params)
    probe = _DiameterProbe(obs, norm)
    traj = run_trajectory(OpinionState(0, np.random.default_rng(n).random((n, d))),
                          ConstantGraph(n, complete_edges(n)), UniformMu(0.1, 0.5), params,
                          600, np.random.default_rng(d), observers=[obs, probe],
                          record_stride=1)
    assert probe.pair_hits > 0   # the full re-measurement ran
    assert probe.diameters == [diameter(x, norm) for x in traj.states[1:]]
    full = [float(cross_distances(x, x, norm).max()) for x in traj.states]
    assert obs.max_increase == max(np.diff(full)[traj.events["fired"]])


@pytest.mark.parametrize("rate, step", [
    (0.9, None),   # both agents stay on the segment between them: no rise
    (1.5, 17),     # the first agent is thrown past the second
])
def test_overshooting_update_fails_the_diameter_check_where_the_matrix_rises(
        monkeypatch, rate, step):
    update = model._update
    monkeypatch.setattr(model, "_update",
                        lambda x, i, j, mu, params: update(x, i, j, rate, params))
    n, d, norm = 30, 3, "l1"
    params = ModelParams(epsilon=0.9, dimension=d, norm=norm)

    def run(observers):
        return run_trajectory(OpinionState(0, np.random.default_rng(n).random((n, d))),
                              ConstantGraph(n, complete_edges(n)), ConstantMu(0.5), params,
                              300, np.random.default_rng(1), observers=observers,
                              record_stride=1)

    full = np.array([cross_distances(x, x, norm).max() for x in run([]).states])
    rises = np.flatnonzero(np.diff(full) > IDENTITY_TOL)
    obs = DiameterMonotoneObserver(params)
    if step is None:
        assert rises.size == 0
        run([obs])
        assert obs.diameter == full[-1]
    else:
        assert rises[0] == step
        with pytest.raises(InvariantViolation, match="diameter-monotone") as exc:
            run([obs])
        assert exc.value.step == step
        assert exc.value.slack == -(full[step + 1] - full[step])


def test_diameter_observer_memory_stays_far_below_the_distance_matrix():
    # an n x n float matrix at n = 2000 is 32 MB
    n, d = 2000, 2
    params = ModelParams(epsilon=10.0, dimension=d)
    x = np.random.default_rng(0).random((n, d))
    rng = np.random.default_rng(1)
    obs = DiameterMonotoneObserver(params)
    tracemalloc.start()
    try:
        obs.at_start(OpinionState(0, x))
        for t in range(20):
            # every fourth step moves an agent of the farthest pair
            i = obs._pair[0] if t % 4 == 0 else int(rng.integers(n))
            j = (i + 1 + int(rng.integers(n - 1))) % n
            xi_old, xj_old = x[i].copy(), x[j].copy()
            assert model._update(x, i, j, 0.5, params)
            obs.after_step(t, i, j, True, 0.5, xi_old, xj_old, x, EdgeSet())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.diameter == diameter(x)
    assert peak < 8e6


# ---------------------------------------------------------------------------
# Stopping times
# ---------------------------------------------------------------------------

def test_tracker_vacuous_without_social_edges():
    params = ModelParams(epsilon=0.9)
    tracker = StoppingTimeTracker(0.01, params)
    initial = OpinionState(0, np.array([0.0, 1.0]))
    run_trajectory(initial, ConstantGraph(2, EdgeSet()), ConstantMu(0.5),
                   params, 3, np.random.default_rng(0), observers=[tracker])
    assert tracker.time == 0


def test_tracker_ignores_pairs_beyond_confidence():
    # the only social edge joins agents 1.0 apart with epsilon 0.5: it can
    # never fire, and pairs out of confidence range do not block tau
    params = ModelParams(epsilon=0.5)
    tracker = StoppingTimeTracker(0.01, params)
    initial = OpinionState(0, np.array([0.0, 1.0]))
    run_trajectory(initial, ConstantGraph(2, complete_edges(2)), ConstantMu(0.5),
                   params, 3, np.random.default_rng(0), observers=[tracker])
    assert tracker.time == 0


def test_tracker_detects_first_short_step():
    # one merging update: distance 0.4 at t=0, 0 from t=1 on
    params = ModelParams(epsilon=0.9)
    tracker = StoppingTimeTracker(0.01, params)
    initial = OpinionState(0, np.array([0.0, 0.4]))
    run_trajectory(initial, ConstantGraph(2, complete_edges(2)), ConstantMu(0.5),
                   params, 10, np.random.default_rng(0), observers=[tracker])
    assert tracker.time == 1


def test_tracker_checks_final_state():
    params = ModelParams(epsilon=0.9)
    tracker = StoppingTimeTracker(0.01, params)
    initial = OpinionState(0, np.array([0.0, 0.4]))
    run_trajectory(initial, ConstantGraph(2, complete_edges(2)), ConstantMu(0.5),
                   params, 1, np.random.default_rng(0), observers=[tracker])
    assert tracker.time == 1  # found by the at_end check at the horizon


def test_tracker_none_when_never_short():
    params = ModelParams(epsilon=0.9)
    tracker = StoppingTimeTracker(1e-9, params)
    initial = OpinionState(0, np.array([0.0, 0.4]))
    run_trajectory(initial, ConstantGraph(2, complete_edges(2)), ConstantMu(0.1),
                   params, 5, np.random.default_rng(0), observers=[tracker])
    assert tracker.time is None
    with pytest.raises(ConfigurationError):
        StoppingTimeTracker(0.0, params)


def test_settle_time_at_least_tau():
    params = ModelParams(epsilon=0.9)
    schedule = ConstantGraph(6, complete_edges(6))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        initial = OpinionState(0, rng.random(6))
        tracker = StoppingTimeTracker(0.05, params)
        traj = run_trajectory(initial, schedule, ConstantMu(0.5), params, 4000,
                              rng, observers=[tracker], record_stride=1)
        T = settle_time(traj.times, traj.states, schedule, 0.05, params)
        assert tracker.time is not None and T is not None
        assert tracker.time <= T <= traj.steps_run


def test_settle_time_requires_connected_profile():
    # two clusters beyond confidence range of each other: every profile edge
    # gets short (tau exists) but the profile never connects (no T)
    params = ModelParams(epsilon=0.5)
    schedule = ConstantGraph(4, complete_edges(4))
    initial = OpinionState(0, np.array([0.0, 0.01, 1.0, 1.01]))
    tracker = StoppingTimeTracker(0.005, params)
    traj = run_trajectory(initial, schedule, ConstantMu(0.5), params, 300,
                          np.random.default_rng(8), observers=[tracker],
                          record_stride=1)
    assert tracker.time is not None
    assert settle_time(traj.times, traj.states, schedule, 0.005, params) is None


class _RescanTracker(TrajectoryObserver):
    """StoppingTimeTracker that measures the whole profile at every check."""

    def __init__(self, delta, params):
        self.delta, self.params, self.time = delta, params, None

    def _short(self, x, social_edges):
        return bool(np.all(profile(x, social_edges.array, self.params)[1] <= self.delta))

    def before_step(self, t, x, social_edges):
        if self.time is None and self._short(x, social_edges):
            self.time = t

    def at_end(self, t, state, social_edges):
        if self.time is None and self._short(state.opinions, social_edges):
            self.time = t


_SCHEDULES = ("complete", "path", "cyclic", "piecewise", "erdos-renyi")


def _schedule(kind, n, seed):
    full, path = complete_edges(n), path_edges(n)
    if kind == "complete":
        return ConstantGraph(n, full)
    if kind == "path":
        return ConstantGraph(n, path)
    if kind == "cyclic":
        return CyclicGraph(n, (full, EdgeSet(), path))
    if kind == "piecewise":
        return PiecewiseGraph(n, ((0, path), (7, EdgeSet()), (12, full)))
    return ErdosRenyiGraph(n, 0.5, seed=seed)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(_SCHEDULES), norm=st.sampled_from(NORMS),
       d=st.integers(1, 3), n=st.integers(2, 9), seed=st.integers(0, 2**16),
       data=st.data())
def test_tracker_matches_a_full_rescan(kind, norm, d, n, seed, data):
    # Opinions on multiples of 1/8 and rates 1/2 and 1/4 keep every update
    # exact; epsilon and delta are drawn from the initial pair lengths, so
    # lengths sit exactly on both thresholds.
    x0 = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 16), min_size=d, max_size=d), min_size=n, max_size=n))) / 8
    lengths = sorted(set(pair_lengths(x0, complete_edges(n).array, norm).tolist()) - {0.0})
    epsilon = data.draw(st.sampled_from(lengths or [1.0]))
    delta = data.draw(st.sampled_from([v for v in lengths if v <= epsilon] + [1 / 64]))
    mu = data.draw(st.sampled_from([ConstantMu(0.5), SequenceMu((0.25, 0.5, 0.25))]))
    params = ModelParams(epsilon=epsilon, dimension=d, norm=norm)
    tracker, reference = StoppingTimeTracker(delta, params), _RescanTracker(delta, params)
    run_trajectory(OpinionState(0, x0), _schedule(kind, n, seed), mu, params, 60,
                   np.random.default_rng(seed), observers=[tracker, reference],
                   record_stride=None, record_events=False)
    assert tracker.time == reference.time


def test_tracker_measures_only_the_edges_at_moved_agents(monkeypatch):
    measured = []
    real = invariants.pair_lengths
    monkeypatch.setattr(invariants, "pair_lengths",
                        lambda x, pairs, norm: measured.append(len(pairs)) or real(x, pairs, norm))
    n = 30
    params = ModelParams(epsilon=0.5, dimension=2)
    tracker = StoppingTimeTracker(1e-9, params)
    traj = run_trajectory(OpinionState(0, np.random.default_rng(0).random((n, 2))),
                          ConstantGraph(n, complete_edges(n)), ConstantMu(0.5), params, 200,
                          np.random.default_rng(1), observers=[tracker])
    assert tracker.time is None
    # E(0) in full, then one re-measurement after each fired step: the n - 1
    # rows at each of its two agents (the pair's own row twice)
    assert measured == [n * (n - 1) // 2] + [2 * (n - 1)] * int(traj.events["fired"].sum())


def test_tracker_records_nothing_once_time_is_set(monkeypatch):
    measured = []
    real = invariants.pair_lengths
    monkeypatch.setattr(invariants, "pair_lengths",
                        lambda x, pairs, norm: measured.append(len(pairs)) or real(x, pairs, norm))
    n = 20
    params = ModelParams(epsilon=0.5, dimension=2)
    tracker = StoppingTimeTracker(0.3, params)   # holds once the first cluster forms
    seen = []

    class Watch(TrajectoryObserver):
        def after_step(self, t, *args):
            seen.append((tracker.time, len(tracker._moved)))

    run_trajectory(OpinionState(0, np.random.default_rng(2).random((n, 2))),
                   ConstantGraph(n, complete_edges(n)), ConstantMu(0.5), params, 400,
                   np.random.default_rng(3), observers=[tracker, Watch()])
    assert 0 < tracker.time < 400
    assert all(moved <= 2 for _, moved in seen)
    assert all(moved == 0 for time, moved in seen if time is not None)
    assert len(measured) <= 1 + tracker.time


def _settle_time_full_scan(times, states, schedule, delta, params):
    """settle_time over every recorded state (connected, and short from then
    on), and how many connectivity tests the short suffix needs to find it."""
    connected, short = [], []
    for t, x in zip(times, states):
        pairs, lengths = profile(x, schedule.edges_at(int(t)).array, params)
        connected.append(is_connected(pairs, len(x)))
        short.append(bool(np.all(lengths <= delta)))
    suffix = min(k for k in range(len(times) + 1) if all(short[k:]))
    for k in range(len(times)):
        if connected[k] and all(short[k:]):
            return int(times[k]), k - suffix + 1
    return None, len(times) - suffix


@pytest.mark.parametrize("kind", _SCHEDULES)
@pytest.mark.parametrize("clusters", [1, 2])
@pytest.mark.parametrize("delta", [0.3, 0.02, 1e-12])
def test_settle_time_tests_connectivity_only_inside_the_short_suffix(
        monkeypatch, kind, clusters, delta):
    n = 8
    params = ModelParams(epsilon=0.6, dimension=2)
    x0 = np.random.default_rng(4).random((n, 2)) * 0.5
    x0[: n // 2] += 3.0 * (clusters - 1)   # two groups out of range of each other
    schedule = _schedule(kind, n, seed=9)
    traj = run_trajectory(OpinionState(0, x0), schedule, ConstantMu(0.5), params, 400,
                          np.random.default_rng(5), record_stride=4)
    expected, tests = _settle_time_full_scan(traj.times, traj.states, schedule, delta, params)
    calls = []
    real = invariants.is_connected
    monkeypatch.setattr(invariants, "is_connected",
                        lambda pairs, n: calls.append(n) or real(pairs, n))
    assert settle_time(traj.times, traj.states, schedule, delta, params) == expected
    assert len(calls) == tests


def test_stopping_record_validation():
    StoppingTimeRecord(delta=0.01, tau_delta=3, T_delta=10, horizon=100)
    StoppingTimeRecord(delta=0.01, tau_delta=None, T_delta=None, horizon=100)
    with pytest.raises(ConfigurationError):
        StoppingTimeRecord(delta=0.01, tau_delta=10, T_delta=3, horizon=100)
    with pytest.raises(ConfigurationError):
        StoppingTimeRecord(delta=0.01, tau_delta=3, T_delta=200, horizon=100)


# ---------------------------------------------------------------------------
# Opinion graph churn
# ---------------------------------------------------------------------------

def test_change_counter_sees_edge_appear():
    params = ModelParams(epsilon=0.8)
    obs = OpinionGraphChangeCounter(params)
    state = OpinionState(0, np.array([0.0, 0.5, 1.0]))
    obs.at_start(state)
    new = state.opinions.copy()
    new[1], new[2] = 0.75, 0.75  # (1, 2) fire with mu = 1/2
    obs.after_step(0, 1, 2, True, 0.5, state.opinions[1].copy(),
                   state.opinions[2].copy(), new, EdgeSet())
    assert obs.gained_steps == 1  # agent 2 came within range of agent 0
    assert obs.lost_steps == 0


def test_change_counter_sees_edge_disappear():
    params = ModelParams(epsilon=0.8)
    obs = OpinionGraphChangeCounter(params)
    state = OpinionState(0, np.array([0.0, 0.5, 1.3]))
    obs.at_start(state)
    new = state.opinions.copy()
    new[0], new[1] = 0.25, 0.25  # (0, 1) merge; agent 1 leaves agent 2's range
    obs.after_step(0, 0, 1, True, 0.5, state.opinions[0].copy(),
                   state.opinions[1].copy(), new, EdgeSet())
    assert obs.lost_steps == 1
    assert obs.gained_steps == 0


# ---------------------------------------------------------------------------
# Random audited scenarios
# ---------------------------------------------------------------------------

_COMPLETE = ConstantGraph(10, complete_edges(10))
_PATH = ConstantGraph(10, path_edges(10))
_CYCLIC = CyclicGraph(10, (complete_edges(10), path_edges(10)))
_HALF = ConstantMu(0.5)
_UNIFORM = UniformMu(0.1, 0.5)
_SEQUENCE = SequenceMu((0.5, 0.4, 0.3, 0.2, 0.1))
_ER = "erdos-renyi p=0.5 on the run's graph seed"

# scenario k: (d, epsilon, graph, rate); the acceptance ensemble runs k = 0..99
AUDIT_SCENARIOS = [
    (1, 0.4, _COMPLETE, _HALF), (2, 0.4, _ER, _HALF),
    (3, 0.4, _CYCLIC, _UNIFORM), (1, 0.4, _PATH, _UNIFORM),
    (2, 0.8, _COMPLETE, _SEQUENCE), (3, 0.8, _ER, _SEQUENCE),
    (1, 0.8, _CYCLIC, _HALF), (2, 0.8, _PATH, _HALF),
    (3, 1.2, _COMPLETE, _UNIFORM), (1, 1.2, _ER, _UNIFORM),
    (2, 1.2, _CYCLIC, _SEQUENCE), (3, 1.2, _PATH, _SEQUENCE),
]


def test_audit_run_scenario_table(monkeypatch):
    seen = []
    real = invariants.run_trajectory

    def spy(initial, schedule, mu, params, horizon, rng, **kwargs):
        seen.append((schedule, mu))
        return real(initial, schedule, mu, params, horizon, rng, **kwargs)

    monkeypatch.setattr(invariants, "run_trajectory", spy)
    seed = 5
    for k, (d, epsilon, graph, mu) in enumerate(AUDIT_SCENARIOS):
        run = audit_run(seed, k, 20, 10)
        init_rng, _, graph_seed = seed_streams(seed, k)
        if graph is _ER:
            graph = ErdosRenyiGraph(10, 0.5, seed=graph_seed)
        assert run.params == ModelParams(epsilon=epsilon, dimension=d)
        assert seen[-1] == (graph, mu)
        assert np.array_equal(run.states[0], init_rng.random((10, d)))
        assert run.times.tolist() == [0, 10, 20]
        assert np.array_equal(
            run.c_points, lattice_points(run.states[0].min(0), run.states[0].max(0), 10))
    assert len(seen) == len(AUDIT_SCENARIOS)
