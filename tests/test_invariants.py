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
    FiredSteps,
    Interval,
    InvariantViolation,
    ModelParams,
    OpinionGraphChangeCounter,
    OpinionState,
    PiecewiseGraph,
    StoppingTimeRecord,
    SequenceMu,
    StoppingTimeTracker,
    TrajectoryObserver,
    TrialConfig,
    UniformMu,
    UpdateIdentityObserver,
    check_potential_monotone,
    complete_edges,
    diameter,
    is_connected,
    lattice_points,
    lengths,
    path_edges,
    profile,
    run_ensemble,
    run_trajectory,
    settle_time,
)
from deffuant import invariants, model
from deffuant.graphs import pair_lengths
from deffuant.invariants import (IDENTITY_TOL, audit_run, contraction_slacks,
                                  update_identity_errors)
from deffuant.model import block_size, seed_streams
from deffuant.norms import NORMS, cross_distances

P1 = ModelParams(epsilon=1.0)


# ---------------------------------------------------------------------------
# Pure slack functions
# ---------------------------------------------------------------------------

def _pair_slacks(old, new, c, norm="euclidean"):
    """The basic and refined slack of one step of the pair, rows 0 and 1 of
    ``old`` and ``new``, against the reference point c."""
    basic, refined, _, _ = contraction_slacks(
        np.reshape(old, (1, 2, -1)), np.reshape(new, (1, 2, -1)), np.reshape(c, (1, -1)), norm)
    return basic[0, 0], refined[0, 0]


def test_contraction_slacks_tight_at_midpoint_merge():
    """mu = 1/2 merges the pair at its midpoint; with c at that midpoint the
    refined inequality is tight (slack exactly 0) and the basic slack equals
    the pre-step pair distance."""
    basic, refined = _pair_slacks([0.0, 0.4], [0.2, 0.2], [0.2])
    assert basic == pytest.approx(0.4, abs=1e-15)
    assert refined == pytest.approx(0.0, abs=1e-14)


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
        c = rng.normal(size=d)
        basic, refined = _pair_slacks(x[[i, j]], new[[i, j]], c, norm)
        assert basic >= -1e-12
        assert refined >= -1e-12


def test_contraction_slacks_flag_agents_moving_apart():
    basic, refined = _pair_slacks([0.0, 0.4], [-0.2, 0.6], [0.2])
    assert basic == pytest.approx(-0.4)
    assert refined == pytest.approx(-0.8)


def test_refined_slack_flags_overshoot_that_basic_misses():
    # effective rate 0.9: the pair crosses. Distances to c = 0 sum to 1
    # either way, so the basic inequality is blind to it; the refined one
    # charges the displacement and goes negative.
    basic, refined = _pair_slacks([0.0, 1.0], [0.9, 0.1], [0.0])
    assert basic == pytest.approx(0.0, abs=1e-15)
    assert refined == pytest.approx(-0.8)


# ---------------------------------------------------------------------------
# Potential monotonicity over recorded states
# ---------------------------------------------------------------------------

def test_potential_monotone_on_real_run():
    initial = OpinionState(0, np.linspace(0.0, 1.0, 8))
    traj = run_trajectory(initial, ConstantGraph(8, complete_edges(8)),
                          ConstantMu(0.4), ModelParams(epsilon=0.9), 1500,
                          np.random.default_rng(1), record_stride=10)
    cs = lattice_points(np.array([-0.5]), np.array([1.5]), 9)
    assert check_potential_monotone(traj.times, traj.states, cs) is None


def test_potential_monotone_detects_increase():
    states = np.array([[[0.0], [1.0]], [[0.0], [1.5]]])
    violation = check_potential_monotone([0, 1], states, np.array([[0.0]]))
    assert (violation.invariant, violation.step) == ("potential-monotone", 1)
    assert violation.slack == pytest.approx(-0.5)
    assert violation.detail == "summed distance rose by 5.000e-01 (reference 0)"


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

def _fake_fired_step(obs, x_new, pre=(0.0, 1.0), mu=0.5):
    """Feed the observer one fabricated fired step on a two-agent state, as a
    block of one step, and raise the violation it returns."""
    old = np.asarray(pre, dtype=float)[:, None]
    new = np.asarray(x_new, dtype=float)[:, None]
    obs.at_start(old.copy())
    found = obs.after_block(FiredSteps(0, 1, old, np.array([0]), np.array([0]), np.array([1]),
                                       np.array([mu]), new[None]))
    if found is not None:
        raise found


def _fired_blocks(traj, size):
    """The fired steps of a run recorded at stride 1, in blocks of ``size``."""
    t = np.flatnonzero(traj.events["fired"])
    i, j, mu = traj.events["i"][t], traj.events["j"][t], traj.events["mu"][t]
    new = np.stack((traj.states[t + 1, i], traj.states[t + 1, j]), axis=1)
    for s in range(0, len(t), size):
        part = slice(s, s + size)
        start, stop = int(t[part][0]), int(t[part][-1]) + 1
        yield FiredSteps(start, stop, traj.states[start], t[part], i[part], j[part], mu[part],
                         new[part])


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
        _fake_fired_step(obs, [0.5, 0.9])


def test_identity_observer_flags_wrong_rate():
    # sum conserved and displacements equal, but the realized rate is 0.3
    # while 0.5 was reported
    obs = UpdateIdentityObserver(P1)
    with pytest.raises(InvariantViolation, match="realized-rate"):
        _fake_fired_step(obs, [0.3, 0.7], mu=0.5)


def test_identity_observer_flags_rate_out_of_range():
    obs = UpdateIdentityObserver(P1)
    with pytest.raises(InvariantViolation, match="rate-range"):
        _fake_fired_step(obs, [0.7, 0.3], mu=0.7)


def test_contraction_observer_flags_separation():
    obs = ContractionObserver(np.array([[0.0]]), P1)
    with pytest.raises(InvariantViolation, match="pair-contraction"):
        _fake_fired_step(obs, [-0.2, 1.2])


def test_contraction_observer_flags_overshoot():
    obs = ContractionObserver(np.array([[0.0]]), P1)
    with pytest.raises(InvariantViolation, match="potential-drop"):
        _fake_fired_step(obs, [0.9, 0.1])


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
        _fake_fired_step(obs, [-0.5, 1.0])


def test_diameter_observer_tracks_current_diameter():
    initial = OpinionState(0, np.linspace(0.0, 1.0, 6))
    obs = DiameterMonotoneObserver(ModelParams(epsilon=2.0))
    traj = run_trajectory(initial, ConstantGraph(6, complete_edges(6)),
                          ConstantMu(0.5), ModelParams(epsilon=2.0), 400,
                          np.random.default_rng(4), observers=[obs],
                          record_stride=None)
    x = traj.states[-1]
    assert obs.diameter == pytest.approx(float(np.ptp(x)), abs=1e-12)
    assert obs.max_increase <= 1e-12


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("n, d", [(2, 1), (7, 3), (40, 2)])
def test_diameter_observer_matches_the_full_matrix_at_every_step(monkeypatch, norm, n, d):
    params = ModelParams(epsilon=10.0, dimension=d, norm=norm)
    traj = run_trajectory(OpinionState(0, np.random.default_rng(n).random((n, d))),
                          ConstantGraph(n, complete_edges(n)), UniformMu(0.1, 0.5), params,
                          600, np.random.default_rng(d), record_stride=1)
    full = [float(cross_distances(x, x, norm).max()) for x in traj.states]
    largest_rise = max(np.diff(full)[traj.events["fired"]])
    remeasured = []
    farthest = invariants.farthest_pairs
    monkeypatch.setattr(invariants, "farthest_pairs",
                        lambda x, norm: remeasured.append(x.shape) or farthest(x, norm))
    window = max(1, DiameterMonotoneObserver._WINDOW_FLOATS // (n * n * d))
    # blocks of one step, of 7 and of the engine's size: a block's states and
    # its rows before each step match the recorded states, and the diameter
    # after each block matches the full matrix
    for size in (1, 7, block_size(n, d)):
        obs = DiameterMonotoneObserver(params)
        obs.at_start(traj.states[0])
        remeasured.clear()
        for steps in _fired_blocks(traj, size):
            for k, t in enumerate(steps.t):
                assert np.array_equal(steps.states[k + 1], traj.states[t + 1])
                assert np.array_equal(steps.old[k], traj.states[t][[steps.i[k], steps.j[k]]])
            assert obs.after_block(steps) is None
            end = steps.t[-1] + 1
            assert obs.diameter == full[end] == diameter(traj.states[end], norm)
        # steps touched the kept pair: the batched re-measurement ran, on a
        # window of the states after them, at most ``window`` states a call
        assert remeasured
        assert all(len(shape) == 3 and 1 <= shape[0] <= window for shape in remeasured)
        assert obs.max_increase == largest_rise
    # the engine's blocks reach the same diameter and the same largest increase
    audited = DiameterMonotoneObserver(params)
    run_trajectory(OpinionState(0, traj.states[0]), ConstantGraph(n, complete_edges(n)),
                   UniformMu(0.1, 0.5), params, 600, np.random.default_rng(d),
                   observers=[audited])
    assert (audited.diameter, audited.max_increase) == (obs.diameter, obs.max_increase)


@pytest.mark.parametrize("rate, step", [
    (0.9, None),   # both agents stay on the segment between them: no rise
    (1.5, 9),      # the first agent is thrown past the second
])
def test_overshooting_update_fails_the_diameter_check_where_the_matrix_rises(
        monkeypatch, rate, step):
    update = model._update
    monkeypatch.setattr(model, "_update",
                        lambda x, i, j, mu, *rule: update(x, i, j, rate, *rule))
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
        obs.at_start(x)
        for t in range(20):
            # every fourth step moves an agent of the farthest pair
            i = obs._pair[0] if t % 4 == 0 else int(rng.integers(n))
            j = (i + 1 + int(rng.integers(n - 1))) % n
            before = x.copy()
            assert model._update(x.reshape(-1), i, j, 0.5, params.epsilon, params.norm, d)
            assert obs.after_block(FiredSteps(t, t + 1, before, np.array([t]), np.array([i]),
                                              np.array([j]), np.array([0.5]),
                                              x[[i, j]][None])) is None
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
    """StoppingTimeTracker that measures the whole profile of every step, on
    the block's state at that step, against the schedule's own E(t)."""

    def __init__(self, delta, params, schedule):
        self.delta, self.params, self.schedule, self.time = delta, params, schedule, None

    def _short(self, x, social_edges):
        return bool(np.all(profile(x, social_edges.array, self.params)[1] <= self.delta))

    def after_block(self, steps):
        for t in range(steps.start, steps.stop):
            if self.time is None and self._short(steps.state_at(t), self.schedule.edges_at(t)):
                self.time = t

    def at_end(self, t, x, social_edges):
        if self.time is None and self._short(x, social_edges):
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
       d=st.integers(1, 3), n=st.sampled_from([*range(2, 10), 12, 20, 40]),
       seed=st.integers(0, 2**16),
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
    schedule = _schedule(kind, n, seed)
    tracker, reference = StoppingTimeTracker(delta, params), _RescanTracker(delta, params,
                                                                            schedule)
    # blocks of 7 fired steps: tau falls inside a block, at its first step or
    # at the end of the run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "BLOCK_BYTES", 7 * 48 * n * d)
        run_trajectory(OpinionState(0, x0), schedule, mu, params, 60,
                       np.random.default_rng(seed), observers=[tracker, reference],
                       record_stride=None, record_events=False)
    assert tracker.time == reference.time


@pytest.mark.parametrize("kind", ["complete", "path", "cyclic", "piecewise", "erdos-renyi"])
def test_tracker_matches_a_full_rescan_on_edge_sets_beyond_its_candidates(kind, monkeypatch):
    # n = 80 in two clusters 2 apart, each 0.2 wide: E(t) has more rows than
    # the tracker's 64 candidates (78 on the path), so it searches for long
    # rows, keeps up to 64 of them, and searches again each time they all
    # drop out; on the cyclic schedule the candidates change with E(t).  A
    # block is measured a few steps at a time.
    n, d = 80, 2
    full, path = complete_edges(n), path_edges(n)
    schedule = {"complete": ConstantGraph(n, full), "path": ConstantGraph(n, path),
                "cyclic": CyclicGraph(n, (full, path)),
                "piecewise": PiecewiseGraph(n, ((0, path), (200, full))),
                "erdos-renyi": ErdosRenyiGraph(n, 0.5, seed=5)}[kind]
    x0 = np.random.default_rng(3).random((n, d)) * 0.2 + 2 * (np.arange(n) >= n // 2)[:, None]
    searches = []
    real = invariants._long_rows
    monkeypatch.setattr(invariants, "_long_rows", lambda *args: searches.append(1) or real(*args))
    monkeypatch.setattr(model, "BLOCK_BYTES", 7 * 48 * n * d)   # 7 fired steps a block
    # the steps measured in one call: 3 for 64 candidates
    monkeypatch.setattr(invariants, "BLOCK_BYTES", 32 * 64 * 3)
    for norm in NORMS:
        params = ModelParams(epsilon=0.5, dimension=d, norm=norm)
        tracker, reference = (StoppingTimeTracker(0.05, params),
                              _RescanTracker(0.05, params, schedule))
        searches.clear()
        run_trajectory(OpinionState(0, x0), schedule, ConstantMu(0.5), params, 1500,
                       np.random.default_rng(4), observers=[tracker, reference],
                       record_stride=None, record_events=False)
        assert tracker.time == reference.time is not None and tracker.time > 0
        assert len(searches) >= 2   # a set of candidates dropped out


def test_tracker_on_a_sparse_erdos_renyi_run_holds_no_state_per_step():
    # Fires are rare here (about one step in 800), so the first block of 10
    # fired steps covers all 6000 steps, each tested on its own E(t): the
    # tracker measures its candidates once per state and holds flags, not an
    # (n, d) state, for each step (that would be 96 MB).
    n, d = 1000, 2
    params = ModelParams(epsilon=0.02, dimension=d)
    tracker = StoppingTimeTracker(1e-9, params)
    blocks = []
    spy = type("Spy", (TrajectoryObserver,), {"after_block": lambda self, s: blocks.append(s.stop)})
    x0 = np.random.default_rng(0).random((n, d))
    tracemalloc.start()
    try:
        run_trajectory(OpinionState(0, x0), ErdosRenyiGraph(n, 0.5, seed=3), ConstantMu(0.5),
                       params, 6000, np.random.default_rng(1), observers=[tracker, spy()],
                       record_stride=None, record_events=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [6000] and tracker.time is None
    assert peak < 40e6


def test_a_full_search_at_n_3000_stays_within_its_chunk_budget():
    # Every agent within delta/2 of every other: the tracker measures all
    # 4 498 500 complete pairs of the state to find tau = 0.  Chunks that
    # grew 4x without a cap ended on 3 100 420 rows, about 140 MB at d = 2.
    n, d, delta = 3000, 2, 0.01
    params = ModelParams(epsilon=0.5, dimension=d)
    x = 0.3 + np.random.default_rng(8).random((n, d)) * (delta / 4)
    tracker = StoppingTimeTracker(delta, params)
    tracker.at_start(x)
    tracemalloc.start()
    try:
        tracker.at_end(0, x, complete_edges(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tracker.time == 0
    assert peak < 16e6


def _count_measured(monkeypatch) -> list[int]:
    """The number of rows of each ``pair_lengths`` call the stopping times make."""
    measured = []
    real = invariants.pair_lengths
    monkeypatch.setattr(invariants, "pair_lengths",
                        lambda x, pairs, norm: measured.append(len(pairs)) or real(x, pairs, norm))
    return measured


def test_the_reference_ensemble_measures_at_most_half_as_often_as_before(monkeypatch):
    # The ensemble of the benchmark's estimate-n10 (n = 10 on [0, 1], epsilon
    # 0.9, rate 1/2, delta 0.01), 250 trials at master seed 7: the tracker
    # measured 2471 times when it dropped every witness a fired step moved,
    # one state at a time.  On blocks it measures every edge over all the
    # states of a block in one call: 254 calls for 254 blocks.
    calls = _count_measured(monkeypatch)
    n = 10
    template = TrialConfig(n=n, params=ModelParams(epsilon=0.9), space=Interval(0.0, 1.0),
                           graph_schedule=ConstantGraph(n, complete_edges(n)),
                           mu_schedule=ConstantMu(0.5), horizon=10000, master_seed=7,
                           track_delta=0.01)
    ensemble = run_ensemble(template, 250)
    assert ensemble.counts["consensus"] == 250
    assert len(calls) <= 2471 // 2


@pytest.mark.parametrize("row", [0, 63, 64, 319, 320, 998, None])
def test_a_new_edge_set_is_searched_in_partitioning_chunks(monkeypatch, row):
    # only path edge ``row`` is long: chunks of 64, 256 and the last 679 of
    # the 999 rows are measured up to the one that holds it
    measured = _count_measured(monkeypatch)
    n = 1000
    params = ModelParams(epsilon=0.5)
    x = np.zeros((n, 1))
    if row is not None:
        x[row + 1:] = 0.1
    schedule = ConstantGraph(n, path_edges(n))
    chunks = [64, 256, 679]
    expected = chunks if row is None else chunks[:1 + (row >= 64) + (row >= 320)]
    tracker = StoppingTimeTracker(0.05, params)
    run_trajectory(OpinionState(0, x), schedule, ConstantMu(0.5), params, 0,
                   np.random.default_rng(0), observers=[tracker])   # only at_end tests
    assert measured == expected
    assert tracker.time == (0 if row is None else None)
    del measured[:]
    assert settle_time([0], [x], schedule, 0.05, params) == (None if row is not None else 0)
    assert measured == expected


def test_tracker_records_nothing_once_time_is_set(monkeypatch):
    measured = _count_measured(monkeypatch)
    n = 20
    params = ModelParams(epsilon=0.5, dimension=2)
    tracker = StoppingTimeTracker(0.3, params)   # holds once the first cluster forms
    seen = []

    class Watch(TrajectoryObserver):
        def after_block(self, steps):
            seen.append((tracker.time, len(measured)))

    # blocks of 10 fired steps
    monkeypatch.setattr(model, "BLOCK_BYTES", 10 * 48 * n * 2)
    run_trajectory(OpinionState(0, np.random.default_rng(2).random((n, 2))),
                   ConstantGraph(n, complete_edges(n)), ConstantMu(0.5), params, 400,
                   np.random.default_rng(3), observers=[tracker, Watch()])
    assert 0 < tracker.time < 400
    after = [count for time, count in seen if time is not None]
    assert len(after) > 1 and set(after) == {len(measured)}


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


# A state that is short and connected over either E(t) (n = 4, d = 1), one
# with long path edges, one whose only long edge (0, 3) is not a path edge,
# and one that is short over either E(t) but split into two components.
_SHORT, _LONG = [0.0, 0.01, 0.02, 0.03], [0.0, 0.2, 0.4, 0.6]
_LONG_OFF_PATH, _SPLIT = [0.0, 0.05, 0.1, 0.15], [0.0, 0.01, 5.0, 5.01]


@pytest.mark.parametrize("per_call, blocks", [
    (1, [1] * 6 + [2] * 3),   # a path state takes half the bytes of a complete one
    (3, [3, 3, 6]),           # the states of steps 9-11 and 6-8 (complete), 0-5 (path)
    (100, [6, 6]),
])
@pytest.mark.parametrize("rows, expected", [
    ([_LONG] * 9 + [_SHORT] * 3, 9),                 # on a boundary of per_call states
    ([_LONG] * 6 + [_SHORT] * 6, 6),                 # where E(t) changes
    ([_LONG] * 7 + [_SHORT] * 5, 7),                 # inside a block
    ([_SHORT] * 12, 0),
    ([_SHORT] * 11 + [_LONG], None),
    ([_LONG] * 3 + [_LONG_OFF_PATH] * 3 + [_SHORT] * 6, 3),   # short over the path
    ([_LONG_OFF_PATH] * 7 + [_SHORT] * 5, 7),        # long over the complete graph
    ([_LONG] * 9 + [_SPLIT] * 2 + [_SHORT], 11),     # short from 9, connected from 11
])
def test_settle_time_searches_blocks_of_states_that_share_their_edges(
        monkeypatch, per_call, blocks, rows, expected):
    # E(t) is the path before step 6 and the complete graph from then on; the
    # states of steps 0-11 are searched back from the end in blocks of at
    # most ``per_call`` states that share one E(t) object
    n, d, delta = 4, 1, 0.1
    params = ModelParams(epsilon=1.0, dimension=d)
    schedule = PiecewiseGraph(n, ((0, path_edges(n)), (6, complete_edges(n))))
    times, states = np.arange(12), np.array(rows)[:, :, None]
    assert _settle_time_full_scan(times, states, schedule, delta, params)[0] == expected
    # the bytes per state settle_time sizes its blocks by, for the 6 complete edges
    monkeypatch.setattr(invariants, "BLOCK_BYTES", per_call * 8 * 6 * (3 * d + 3))
    # each search here is one call of _long_edges: a state's at most 6 rows
    # are one chunk of _long_rows
    searched = []
    search = invariants._long_edges
    monkeypatch.setattr(invariants, "_long_edges", lambda x, *args: searched.append(
        len(x) if x.ndim == 3 else 1) or search(x, *args))
    assert settle_time(times, states, schedule, delta, params) == expected
    first = 12 if expected is None else int(expected)
    assert sum(searched) <= 12 and searched == blocks[:len(searched)]
    assert sum(searched) >= 12 - first


def test_a_block_of_states_is_measured_over_every_edge():
    # 12 agents, 66 complete edges, delta 1/8, epsilon 1/4, the three states
    # measured in one block: the first 64 rows show the long edge (0, 1) of
    # the first state, but the second state's only long edges, (9, 11) and
    # (10, 11), are rows 64 and 65
    n, params = 12, ModelParams(epsilon=0.25)
    first, second, short = np.zeros(n), np.zeros(n), np.zeros(n)
    first[1] = 0.1875
    second[9:] = 0.0625, 0.0625, 0.3125   # connected: 11 is in range of 9 and 10 only
    states = np.stack((first, second, short))[:, :, None]
    schedule = ConstantGraph(n, complete_edges(n))
    assert settle_time([0, 1, 2], states, schedule, 0.125, params) == 2


def test_settle_time_holds_one_erdos_renyi_edge_set_at_a_time():
    # 300 recorded states, all short: the backward scan measures every one,
    # each over its own E(t), whose rows (about 10 000 at n = 200, 160 kB)
    # are hashed when first asked for; holding them all would take 48 MB
    n, d, delta = 200, 1, 0.1
    params = ModelParams(epsilon=1.0, dimension=d)
    schedule = ErdosRenyiGraph(n, 0.5, seed=5)
    times = np.arange(300)
    states = np.broadcast_to(np.linspace(0.0, 0.05, n)[:, None], (len(times), n, d))
    one = schedule.edges_at(0).array.nbytes
    tracemalloc.start()
    try:
        settled = settle_time(times, states, schedule, delta, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert settled == 0
    assert peak < 20 * one


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

def _counted(x0, pair):
    """The change counter after a run of one rate-1/2 step on ``pair``."""
    params = ModelParams(epsilon=0.8)
    obs = OpinionGraphChangeCounter(params)
    traj = run_trajectory(OpinionState(0, np.array(x0)), ConstantGraph(len(x0), EdgeSet([pair])),
                          ConstantMu(0.5), params, 1, np.random.default_rng(0), observers=[obs])
    assert traj.events["fired"].all()
    return obs


def test_change_counter_sees_edge_appear():
    obs = _counted([0.0, 0.5, 1.0], (1, 2))   # (1, 2) meet at 0.75
    assert obs.gained_steps == 1  # agent 2 came within range of agent 0
    assert obs.lost_steps == 0


def test_change_counter_sees_edge_disappear():
    obs = _counted([0.0, 0.5, 1.3], (0, 1))   # (0, 1) merge; agent 1 leaves agent 2's range
    assert obs.lost_steps == 1
    assert obs.gained_steps == 0


def test_change_counter_counts_a_block_as_its_steps_one_by_one():
    params = ModelParams(epsilon=0.5, dimension=2)   # edges appear 10 times, vanish 15
    x0 = np.random.default_rng(7).random((12, 2))
    traj = run_trajectory(OpinionState(0, x0), ConstantGraph(12, complete_edges(12)),
                          UniformMu(0.1, 0.5), params, 800, np.random.default_rng(8))
    adjacency = [cross_distances(x, x) <= params.epsilon for x in traj.states]
    changed = [(after & ~before, before & ~after)
               for before, after in zip(adjacency, adjacency[1:])]
    obs = OpinionGraphChangeCounter(params)
    run_trajectory(OpinionState(0, x0), ConstantGraph(12, complete_edges(12)),
                   UniformMu(0.1, 0.5), params, 800, np.random.default_rng(8), observers=[obs])
    assert obs.gained_steps == sum(bool(gained.any()) for gained, _ in changed) > 0
    assert obs.lost_steps == sum(bool(lost.any()) for _, lost in changed) > 0


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


# ---------------------------------------------------------------------------
# Blocks of fired steps: where a failure is reported, at any scale
# ---------------------------------------------------------------------------

N_BLOCK, D_BLOCK = 10, 2
B = block_size(N_BLOCK, D_BLOCK)
HORIZON = 2 * B + 37   # not a multiple of B


def _faulty_update(monkeypatch, faults):
    """Make the update at each step in ``faults`` misbehave.  Every step of
    the runs below fires, so the update's call count is the step.  "push"
    moves both agents 10 apart in every coordinate (the pair sum is kept):
    the pair separates and the diameter rises.  "overshoot" uses rate 0.9."""
    update, calls = model._update, []

    def faulty(x, i, j, mu, epsilon, norm, d):
        t = len(calls)
        calls.append(t)
        if faults.get(t) == "push":
            # item by item: the engine hands the update a flat memoryview of x
            for k in range(d):
                x[i * d + k] -= 10.0
                x[j * d + k] += 10.0
            return True
        return update(x, i, j, 0.9 if faults.get(t) == "overshoot" else mu, epsilon, norm, d)

    monkeypatch.setattr(model, "_update", faulty)


def _block_run(observers, offset=0.0, seed=0, horizon=HORIZON):
    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    x0 = np.random.default_rng(seed).random((N_BLOCK, D_BLOCK)) + offset
    return run_trajectory(OpinionState(0, x0), ConstantGraph(N_BLOCK, complete_edges(N_BLOCK)),
                          UniformMu(0.1, 0.5), params, horizon, np.random.default_rng(seed + 1),
                          observers=observers, record_stride=1)


def _audit(kind, params, c):
    return {"identity": lambda: UpdateIdentityObserver(params),
            "contraction": lambda: ContractionObserver(c, params),
            "diameter": lambda: DiameterMonotoneObserver(params)}[kind]()


def _expected_push_failure(kind, traj, s, c):
    """The invariant and slack a check of ``kind`` on step s alone gives for
    the push there, from the states of a run recorded without any audit."""
    i, j, mu = traj.events["i"][s], traj.events["j"][s], traj.events["mu"][s]
    (oi, oj), (ni, nj) = traj.states[s, [i, j]], traj.states[s + 1, [i, j]]
    if kind == "identity":
        return "realized-rate", -float(np.max(np.abs((ni - oi) - mu * (oj - oi))))
    if kind == "contraction":
        dist = cross_distances(np.stack((oi, oj, ni, nj)), c)
        return "pair-contraction", float(((dist[0] + dist[1]) - (dist[2] + dist[3])).min())
    before, after = (float(cross_distances(x, x).max()) for x in traj.states[s:s + 2])
    return "diameter-monotone", -(after - before)


@pytest.mark.parametrize("kind", ["identity", "contraction", "diameter"])
@pytest.mark.parametrize("step", [B - 1, B, B + 1, HORIZON - 1])
def test_a_fault_is_reported_at_its_step_whatever_its_place_in_the_block(
        monkeypatch, kind, step):
    _faulty_update(monkeypatch, {step: "push"})
    traj = _block_run([])
    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    c = lattice_points(np.zeros(2), np.ones(2), 10)
    _faulty_update(monkeypatch, {step: "push"})
    with pytest.raises(InvariantViolation) as exc:
        _block_run([_audit(kind, params, c)])
    invariant, slack = _expected_push_failure(kind, traj, step, c)
    assert (exc.value.invariant, exc.value.step, exc.value.slack) == (invariant, step, slack)


@pytest.mark.parametrize("order", [("identity", "contraction", "diameter"),
                                   ("diameter", "contraction", "identity"),
                                   ("contraction", "diameter", "identity")])
def test_at_one_step_the_observer_listed_first_wins(monkeypatch, order):
    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    c = lattice_points(np.zeros(2), np.ones(2), 10)
    _faulty_update(monkeypatch, {B + 5: "push"})
    with pytest.raises(InvariantViolation) as exc:
        _block_run([_audit(kind, params, c) for kind in order])
    first = {"identity": "realized-rate", "contraction": "pair-contraction",
             "diameter": "diameter-monotone"}[order[0]]
    assert (exc.value.invariant, exc.value.step) == (first, B + 5)


def test_in_one_block_the_earlier_step_wins(monkeypatch):
    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    # The overshoot at step 3 is invisible to the diameter check, which is
    # listed first and fails on the push at step 9.  (The first block: later
    # on the opinions have merged, and an overshoot moves nothing.)
    _faulty_update(monkeypatch, {3: "overshoot", 9: "push"})
    with pytest.raises(InvariantViolation) as exc:
        _block_run([DiameterMonotoneObserver(params), UpdateIdentityObserver(params)])
    assert (exc.value.invariant, exc.value.step) == ("realized-rate", 3)
    _faulty_update(monkeypatch, {B + 3: "push", B + 9: "push"})
    with pytest.raises(InvariantViolation) as exc:
        _block_run([DiameterMonotoneObserver(params)])
    assert (exc.value.invariant, exc.value.step) == ("diameter-monotone", B + 3)


def test_the_hooks_get_arrays_and_a_per_step_exception_propagates_as_raised(monkeypatch):
    class Record(TrajectoryObserver):
        def __init__(self):
            self.start, self.blocks, self.end = None, [], None

        def at_start(self, x):
            self.start = x.copy()

        def after_block(self, steps):
            self.blocks.append(steps)

        def at_end(self, t, x, social_edges):
            self.end = (t, x.copy(), social_edges)

    n, first, empty, last = 6, complete_edges(6), EdgeSet(), path_edges(6)
    x0 = np.random.default_rng(0).random((n, 2))
    # steps 3..5 have no social edge
    schedule = PiecewiseGraph(n, ((0, first), (3, empty), (6, last)))
    record = Record()
    traj = run_trajectory(OpinionState(0, x0), schedule, UniformMu(0.1, 0.5),
                          ModelParams(epsilon=0.6, dimension=2), 10,
                          np.random.default_rng(1), observers=[record], record_stride=1)
    assert np.array_equal(record.start, x0)
    [steps] = record.blocks
    assert (steps.start, steps.stop) == (0, 10)
    assert [(s, e) for s, e in steps.edges] == [(0, first), (3, empty), (6, last)]
    assert all(e is edges for (_, e), edges in zip(steps.edges, (first, empty, last)))
    events = traj.events[steps.t]
    assert np.flatnonzero(traj.events["fired"]).tolist() == steps.t.tolist() != []
    assert (events["i"].tolist(), events["j"].tolist(), events["mu"].tolist()) == (
        steps.i.tolist(), steps.j.tolist(), steps.mu.tolist())
    assert all(np.array_equal(steps.state_at(t), traj.states[t]) for t in range(11))
    t, x, edges = record.end
    assert t == 10 and np.array_equal(x, traj.states[-1]) and edges is last

    # What a block hook raises, rather than returns, leaves the run as it
    # is, even with an earlier failure waiting in the block.
    class FailsAt(TrajectoryObserver):
        def __init__(self, step):
            self.step, self.raised = step, None

        def after_block(self, steps):
            if steps.start <= self.step < steps.stop:
                self.raised = InvariantViolation("raised", step=self.step, slack=-1.0)
                raise self.raised

    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    for failing_first in (True, False):
        fails = FailsAt(B + 7)
        observers = [fails, UpdateIdentityObserver(params)]
        _faulty_update(monkeypatch, {B + 3: "push"})
        with pytest.raises(InvariantViolation) as exc:
            _block_run(observers if failing_first else observers[::-1])
        assert exc.value is fails.raised


def test_the_block_hook_gets_every_fired_step_once_in_order():
    class Blocks(TrajectoryObserver):
        def __init__(self):
            self.sizes, self.t, self.at_end_after = [], [], None

        def after_block(self, steps):
            self.sizes.append(len(steps))
            self.t.extend(steps.t.tolist())

        def at_end(self, t, x, social_edges):
            self.at_end_after = list(self.sizes)

    watch = Blocks()
    traj = _block_run([watch])
    assert watch.t == np.flatnonzero(traj.events["fired"]).tolist() == list(range(HORIZON))
    assert watch.sizes == [B, B, 37] == watch.at_end_after


def test_the_contraction_check_splits_a_block_by_its_reference_points():
    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    many = lattice_points(np.zeros(2), np.ones(2), 2000)
    obs = ContractionObserver(many, params)
    assert obs._chunk < B   # the block is checked in several parts
    traj = _block_run([obs], horizon=B)
    steps = next(_fired_blocks(traj, B))
    basic, refined, basic_mid, refined_mid = contraction_slacks(steps.old, steps.new, many)
    assert obs.fired_steps == B
    assert obs.min_basic_slack == min(basic.min(), basic_mid.min())
    assert obs.min_refined_slack == min(refined.min(), refined_mid.min())


@pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
def test_correct_runs_far_from_the_origin_raise_nothing(offset):
    # With the fixed tolerances of unit scale, every one of these runs raised
    # pair-sum-conservation, equal-displacement or realized-rate.
    params = ModelParams(epsilon=1.5e4, dimension=2)
    for seed in range(20):
        x0 = np.random.default_rng(seed).random((10, 2)) * 1e4 + offset
        observers = [UpdateIdentityObserver(params),
                     ContractionObserver(lattice_points(x0.min(0), x0.max(0), 10), params),
                     DiameterMonotoneObserver(params)]
        run_trajectory(OpinionState(0, x0), ConstantGraph(10, complete_edges(10)),
                       (UniformMu(0.1, 0.5), ConstantMu(0.5))[seed % 2], params, 1000,
                       np.random.default_rng(seed), observers=observers,
                       record_stride=None, record_events=False)
        assert observers[0].checked == observers[1].fired_steps > 500


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("identity, failed", [(True, "realized-rate"),
                                              (False, "potential-drop")])
def test_an_overshoot_far_from_the_origin_still_fails(monkeypatch, offset, identity, failed):
    _faulty_update(monkeypatch, {5: "overshoot"})
    params = ModelParams(epsilon=1e3, dimension=D_BLOCK)
    x0 = np.random.default_rng(0).random((N_BLOCK, D_BLOCK)) + offset
    observers = [ContractionObserver(lattice_points(x0.min(0), x0.max(0), 10), params),
                 DiameterMonotoneObserver(params)]
    if identity:
        observers.insert(0, UpdateIdentityObserver(params))
    with pytest.raises(InvariantViolation) as exc:
        _block_run(observers, offset=offset, horizon=50)
    assert (exc.value.invariant, exc.value.step) == (failed, 5)


@pytest.mark.parametrize("k", [-20, 26])
def test_scaling_opinions_and_epsilon_by_a_power_of_two_scales_the_run_exactly(k):
    def run(scale):
        params = ModelParams(epsilon=0.7 * scale, dimension=3)
        x0 = np.random.default_rng(3).random((10, 3)) * scale
        obs = [UpdateIdentityObserver(params),
               ContractionObserver(lattice_points(np.zeros(3), np.ones(3), 10) * scale, params),
               DiameterMonotoneObserver(params)]
        traj = run_trajectory(OpinionState(0, x0), ConstantGraph(10, complete_edges(10)),
                              UniformMu(0.1, 0.5), params, 3000, np.random.default_rng(4),
                              observers=obs, record_stride=1)
        identity, contraction, diam = obs
        return traj, [identity.max_sum_error, identity.max_displacement_gap,
                      identity.max_rate_residual, contraction.min_basic_slack,
                      contraction.min_refined_slack, diam.diameter, diam.max_increase]

    base, base_stats = run(1.0)
    scaled, stats = run(2.0 ** k)
    assert base.events["fired"].any() and not base.events["fired"].all()
    assert np.array_equal(scaled.events, base.events)
    assert np.array_equal(scaled.states, base.states * 2.0 ** k)
    assert stats == [v * 2.0 ** k for v in base_stats]


def test_block_functions_match_the_one_step_forms():
    # a step of a block gets the bits it gets alone; the first is a real update
    rng = np.random.default_rng(6)
    for norm in NORMS:
        x = rng.normal(size=(5, 3))
        traj = run_trajectory(OpinionState(0, x), ConstantGraph(5, EdgeSet([(1, 3)])),
                              ConstantMu(0.25), ModelParams(10.0, 3, norm), 1, rng)
        assert traj.events["fired"][0]
        post = traj.states[-1]
        old = np.concatenate((x[[1, 3]][None], rng.normal(size=(3, 2, 3))))
        new = np.concatenate((post[[1, 3]][None], rng.normal(size=(3, 2, 3))))
        mu = np.array([0.25, 0.1, 0.3, 0.5])
        c = rng.normal(size=(4, 3))
        block = contraction_slacks(old, new, c, norm) + update_identity_errors(old, new, mu, norm)
        for k in range(len(old)):
            alone = (contraction_slacks(old[k:k + 1], new[k:k + 1], c, norm)
                     + update_identity_errors(old[k:k + 1], new[k:k + 1], mu[k:k + 1], norm))
            assert all(np.array_equal(b[k], a[0]) for b, a in zip(block, alone))
        sum_err, moved, resid = (e[0] for e in block[4:])
        assert sum_err <= 1e-15 and resid <= 1e-15
        assert moved.tolist() == [lengths(post[1] - x[1], norm), lengths(post[3] - x[3], norm)]
