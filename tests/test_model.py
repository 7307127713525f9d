import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from deffuant import (
    NORMS,
    ConfigurationError,
    ConstantGraph,
    ConstantMu,
    ContractionObserver,
    CyclicGraph,
    DiameterMonotoneObserver,
    EdgeSet,
    ErdosRenyiGraph,
    FiredSteps,
    InvariantViolation,
    ModelParams,
    MuSchedule,
    OpinionState,
    PiecewiseGraph,
    SequenceMu,
    TrajectoryObserver,
    UniformMu,
    UpdateIdentityObserver,
    complete_edges,
    lattice_points,
    path_edges,
    profile,
    run_trajectory,
)
from deffuant import cli, model
from deffuant.graphs import pair_lengths
from deffuant.model import Draws, run_key, seed_streams, side_stream
from oracles import loop_length
from oracles import reference_run
from oracles.reference_run import apply_update

# 99.9% chi-square quantile, 44 degrees of freedom (scipy.stats.chi2.ppf,
# computed once offline; scipy is not a dependency).
CHI2_999_44 = 78.74952422804303


# ---------------------------------------------------------------------------
# Parameters and schedules
# ---------------------------------------------------------------------------

def test_params_validation():
    ModelParams(epsilon=0.5, dimension=2, norm="l1")
    with pytest.raises(ConfigurationError):
        ModelParams(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        ModelParams(epsilon=-1.0)
    with pytest.raises(ConfigurationError):
        ModelParams(epsilon=0.5, dimension=0)
    with pytest.raises(ConfigurationError):
        ModelParams(epsilon=0.5, norm="l2")


def test_mu_range_enforced():
    for bad in (-0.1, 0.500001, 1.0):
        with pytest.raises(ConfigurationError):
            ConstantMu(bad)
        with pytest.raises(ConfigurationError):
            SequenceMu((0.2, bad))
    with pytest.raises(ConfigurationError):
        UniformMu(0.4, 0.2)
    with pytest.raises(ConfigurationError):
        SequenceMu(())


def test_sequence_mu_last_value_persists():
    sched = SequenceMu((0.5, 0.25, 0.1))
    assert sched.mu_at(0, 0.7) == 0.5
    assert sched.mu_at(2, 0.7) == 0.1
    assert sched.mu_at(5000, 0.7) == 0.1


def test_uniform_mu_stays_in_range():
    sched = UniformMu(0.1, 0.3)
    uniforms = np.random.default_rng(1).random(500).tolist() + [0.0, 1.0 - 2.0**-53]
    draws = [sched.mu_at(t, u) for t, u in enumerate(uniforms)]
    assert all(0.1 <= m <= 0.3 for m in draws)
    assert len(set(draws)) > 1
    # the formula of Generator.uniform
    rng = np.random.default_rng(2)
    assert sched.mu_at(0, np.random.default_rng(2).random()) == rng.uniform(0.1, 0.3)


def test_inf_positive_flags():
    assert ConstantMu(0.3).inf_positive
    assert not ConstantMu(0.0).inf_positive
    assert SequenceMu((0.2, 0.1)).inf_positive
    assert not SequenceMu((0.2, 0.0)).inf_positive
    assert UniformMu(0.1, 0.5).inf_positive
    assert not UniformMu(0.0, 0.5).inf_positive


@pytest.mark.parametrize("sched", [
    ConstantMu(0.3), UniformMu(0.1, 0.5),
    SequenceMu(tuple(k / 1000 for k in range(200))),   # ends inside the second draw block,
    SequenceMu(tuple(k / 1000 for k in range(256))),   # at its end
    SequenceMu(tuple(k / 1000 for k in range(100))),   # and before it
], ids=["constant", "uniform", "sequence-200", "sequence-256", "sequence-100"])
def test_a_draw_blocks_rates_are_mu_at_step_by_step(sched):
    draws = Draws(12345)
    for t in (0, model.DRAW_BLOCK, 2 * model.DRAW_BLOCK + 5):
        draws.at(t)
        expected = [sched.mu_at(s, u) for s, u in enumerate(draws.uniforms, draws.start)]
        assert sched.rates(draws.start, draws.uniforms) == expected


def test_a_rate_schedule_that_defines_only_mu_at_drives_the_loop():
    # a caller's schedule may define mu_at alone, and the base class's rates
    # then asks it step by step
    class Stepped(MuSchedule):
        inf_positive = True

        def mu_at(self, t, u):
            return 0.5 * u if t % 3 else 0.25

    n, seed, horizon = 6, 3, 2 * model.DRAW_BLOCK + 40

    def run(sched):
        return run_trajectory(OpinionState(0, np.linspace(0.0, 1.0, n)),
                              ConstantGraph(n, complete_edges(n)), sched,
                              ModelParams(epsilon=2.0), horizon, np.random.default_rng(seed))

    traj, draws = run(Stepped()), Draws(run_key(np.random.default_rng(seed)))
    rates = [Stepped().mu_at(t, draws.at(t)) for t in range(horizon)]
    assert traj.events["fired"].all() and traj.events["mu"].tolist() == rates
    assert np.array_equal(traj.states, run(SequenceMu(tuple(rates))).states)


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

def test_state_coerces_1d_to_column():
    s = OpinionState(0, np.array([0.1, 0.2, 0.3]))
    assert s.opinions.shape == (3, 1)
    assert s.n == 3 and s.dimension == 1


def test_state_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        OpinionState(0, np.array([0.1, np.nan]))
    with pytest.raises(ConfigurationError):
        OpinionState(0, np.array([[np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# Single step: a one-step run on the graph whose only edge is the pair
# ---------------------------------------------------------------------------

def _one_step(x, pair, mu, params):
    """The opinions after one update of ``pair`` at rate mu, and whether it fired."""
    x = np.asarray(x, dtype=float)
    traj = run_trajectory(OpinionState(0, x), ConstantGraph(len(x), EdgeSet([pair])),
                          ConstantMu(mu), params, 1, np.random.default_rng(0))
    return traj.states[-1], bool(traj.events["fired"][0])


def test_step_moves_both_agents_by_mu():
    params = ModelParams(epsilon=1.0)
    x = np.array([0.0, 1.0])
    new, fired = _one_step(x, (0, 1), mu=0.25, params=params)
    assert fired
    assert np.allclose(new.ravel(), [0.25, 0.75])
    # input opinions untouched
    assert np.allclose(x, [0.0, 1.0])


def test_step_fires_exactly_at_threshold():
    params = ModelParams(epsilon=0.5)
    new, fired = _one_step([0.0, 0.5], (0, 1), mu=0.5, params=params)
    assert fired
    assert np.allclose(new.ravel(), [0.25, 0.25])

    above = np.array([[0.0], [0.5 + 1e-12]])
    new, fired = _one_step(above, (0, 1), mu=0.5, params=params)
    assert not fired
    assert np.array_equal(new, above)


@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d), min_size=2, max_size=5),
    st.sampled_from(NORMS))))
def test_the_engine_fires_on_exactly_the_profiles_pairs(case):
    # epsilon on each pair's length and one ulp either side of it
    rows, norm = case
    x = np.array(rows)
    n, d = x.shape
    pairs = complete_edges(n).array
    for i, j in pairs.tolist():
        length = loop_length([a - b for a, b in zip(rows[i], rows[j])], norm)
        for eps in (np.nextafter(length, 0.0), length, np.nextafter(length, np.inf)):
            if not eps > 0:
                continue
            params = ModelParams(epsilon=float(eps), dimension=d, norm=norm)
            fired = _one_step(x, (i, j), 0.5, params)[1]
            kept = [i, j] in profile(x, pairs, params)[0].tolist()
            assert fired == kept == (length <= eps), (i, j, eps)


# Gaps whose squares underflow (about 1e-170) or overflow (about 1e160): the
# euclidean length is then 0 or inf, while the largest |g| is neither.
_EXTREME_GAPS = {
    1: [(1e-170,), (-3.7e-170,), (1e160,), (-7.3e160,)],
    2: [(1e-170, 2e-170), (-3.7e-170, 0.0), (1e-170, 1e-150), (1e160, 1e160),
        (-7.3e160, 0.0), (1e160, 1.0)],
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("norm", NORMS)
def test_the_engine_fires_on_the_profiles_pairs_where_squares_underflow_or_overflow(d, norm):
    # epsilon one ulp either side of the length and of the largest |g|: a
    # firing test that took |g| for the length would fire on the wrong side
    pairs = np.array([[0, 1]])
    for gap in _EXTREME_GAPS[d]:
        x = np.array([[0.0] * d, gap])
        with np.errstate(over="ignore"):   # inf is the length the profile holds
            length = pair_lengths(x, pairs, norm)[0]
        for ref in (length, np.abs(gap).max()):
            for eps in (np.nextafter(ref, 0.0), ref, np.nextafter(ref, np.inf)):
                if not eps > 0:
                    continue
                params = ModelParams(epsilon=float(eps), dimension=d, norm=norm)
                fired = _one_step(x, (0, 1), 0.5, params)[1]
                assert fired == (length <= eps), (gap, eps)


def test_step_multidimensional():
    params = ModelParams(epsilon=2.0, dimension=2)
    x = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0]])
    new, fired = _one_step(x, (0, 1), mu=0.5, params=params)
    assert fired
    assert np.allclose(new[0], [0.5, 0.5])
    assert np.allclose(new[1], [0.5, 0.5])
    assert np.allclose(new[2], [4.0, 4.0])


def test_step_validation():
    # a self-loop (EdgeSet), a pair out of range (ConstantGraph), a rate
    # above 1/2 (ConstantMu) and opinions of the wrong dimension (run_trajectory)
    params = ModelParams(epsilon=1.0)
    for x, pair, mu in ((np.zeros(3), (1, 1), 0.2), (np.zeros(3), (0, 3), 0.2),
                        (np.zeros(3), (0, 1), 0.7), (np.zeros((3, 2)), (0, 1), 0.2)):
        with pytest.raises(ConfigurationError):
            _one_step(x, pair, mu, params)


# ---------------------------------------------------------------------------
# Pair selection
# ---------------------------------------------------------------------------

def test_an_empty_edge_set_gives_no_pair():
    # neither the draw block nor a step it leaves open finds a pair in an
    # empty E(t), and a run on it records none
    draws = Draws(12345)
    draws.at(0)
    assert draws.pairs(EdgeSet()) == [[model._NO_EDGE] * 2] * model.DRAW_BLOCK
    for why in (model._REDRAWN, model._MISSED):
        assert model._open_pair(draws, 3, EdgeSet(), why) == [model._NO_EDGE] * 2
    traj = run_trajectory(OpinionState(0, np.zeros(4)), ConstantGraph(4, EdgeSet()),
                          ConstantMu(0.3), ModelParams(epsilon=1.0), 300,
                          np.random.default_rng(0))
    assert len(traj.events) == 300 and not traj.events["fired"].any()
    assert (traj.events["i"] == -1).all() and (traj.events["j"] == -1).all()


def test_the_engine_pair_is_uniform_over_edges():
    """Chi-square goodness of fit over the 45 edges of K_10 of the pairs a run
    draws in 45 000 steps.

    A fixed seed, so the test is deterministic; the quantile was chosen at the
    99.9% level for a draw that would flake 0.1% of the time under reseeding.
    """
    edges, steps = complete_edges(10), 45_000
    # no two agents within epsilon: every step records its pair, none fires
    traj = run_trajectory(OpinionState(0, np.arange(10.0)), ConstantGraph(10, edges),
                          ConstantMu(0.3), ModelParams(epsilon=0.5), steps,
                          np.random.default_rng(12345), record_stride=None)
    counts = Counter(zip(traj.events["i"].tolist(), traj.events["j"].tolist()))
    assert set(counts) == set(edges)
    expected = steps / 45
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_999_44


# ---------------------------------------------------------------------------
# Trajectory engine
# ---------------------------------------------------------------------------

def _run(seed, horizon=200, record_stride=1, record_events=True, mu=ConstantMu(0.3), **kw):
    params = ModelParams(epsilon=0.9)
    initial = OpinionState(0, np.linspace(0.0, 1.0, 6))
    schedule = ConstantGraph(6, complete_edges(6))
    return run_trajectory(initial, schedule, mu, params, horizon,
                          np.random.default_rng(seed), record_stride=record_stride,
                          record_events=record_events, **kw)


def test_trajectory_recording_stride():
    traj = _run(0, horizon=10, record_stride=3)
    assert traj.times.tolist() == [0, 3, 6, 9, 10]
    assert traj.states.shape == (5, 6, 1)
    assert traj.steps_run == 10
    assert len(traj.events) == 10


def test_trajectory_endpoints_only_recording():
    traj = _run(0, horizon=7, record_stride=None)
    assert traj.times.tolist() == [0, 7]
    assert traj.states.shape == (2, 6, 1)


def test_trajectory_zero_horizon():
    traj = _run(0, horizon=0)
    assert traj.steps_run == 0
    assert np.array_equal(traj.states[0], traj.states[-1])


def test_trajectory_deterministic_replay():
    a = _run(42)
    b = _run(42)
    c = _run(43)
    assert np.array_equal(a.states[-1], b.states[-1])
    assert np.array_equal(a.events, b.events)
    assert not np.array_equal(a.states[-1], c.states[-1])


def test_recording_does_not_consume_randomness():
    a = _run(7, record_stride=1, record_events=True)
    b = _run(7, record_stride=None, record_events=False)
    assert np.array_equal(a.states[-1], b.states[-1])


def test_mu_drawn_even_without_edges():
    params = ModelParams(epsilon=0.9)
    initial = OpinionState(0, np.array([0.0, 1.0]))
    schedule = ConstantGraph(2, EdgeSet())
    traj = run_trajectory(initial, schedule, UniformMu(0.1, 0.5), params, 50,
                          np.random.default_rng(0))
    assert (traj.events["i"] == -1).all() and (traj.events["j"] == -1).all()
    assert not traj.events["fired"].any()
    assert len(set(traj.events["mu"])) > 1
    assert np.array_equal(traj.states[-1], initial.opinions)


class _Blocks(TrajectoryObserver):
    """Notes the range of each block; fails step ``fail_at`` when it is given."""

    def __init__(self, fail_at=None):
        self.ranges, self.fail_at = [], fail_at

    def after_block(self, steps):
        self.ranges.append((steps.start, steps.stop))
        at = np.flatnonzero(steps.t == self.fail_at)
        return steps.violation(int(at[0]), "injected", -1.0, "") if at.size else None


def test_stop_condition_halts_early():
    # The rule is asked at step 0 and at the end of each block, and a block
    # ends at the step the rule last named (here each multiple of 50) until
    # it names a step up to that end: the run ends there with the opinions,
    # events and recorded states of that step.
    rates = UniformMu(0.1, 0.5)   # a rate of its own at each step
    full = _run(0, horizon=300, mu=rates)
    for stop in (0, 5, 49, 50, 51, 137):
        blocks, asked = _Blocks(), []
        rule = lambda t: asked.append(t) or (stop if t >= stop else (t // 50 + 1) * 50)
        traj = _run(0, horizon=300, mu=rates, observers=[blocks], stop_condition=rule)
        assert traj.steps_run == stop
        ends = list(range(50, -(-stop // 50) * 50 + 1, 50))
        assert asked == [0] + ends and [b for _, b in blocks.ranges] == ends
        assert traj.times.tolist() == list(range(stop + 1))
        assert np.array_equal(traj.states, full.states[:stop + 1])
        assert np.array_equal(traj.events, full.events[:stop])
    # a stop at the horizon ends the run there
    traj = _run(0, horizon=120, observers=[_Blocks()],
                stop_condition=lambda t: 120 if t == 120 else t + 50)
    assert traj.steps_run == 120


def test_a_violation_at_or_after_the_stop_step_is_not_raised():
    # every step fires (rate 0.3, all six agents within epsilon)
    for stop, raised in ((7, False), (8, True)):
        blocks = _Blocks(fail_at=7)
        rule = lambda t: stop if t >= 10 else 10
        run = lambda: _run(0, horizon=100, observers=[blocks], stop_condition=rule)
        if raised:
            with pytest.raises(InvariantViolation, match="injected"):
                run()
        else:
            assert run().steps_run == stop


def test_the_step_record_of_a_block_stays_bounded_when_few_steps_fire():
    # E(t) is empty from step 50, so 50 steps at most fire and a block ends
    # on its step bound, BLOCK_BYTES // 25 steps: without it the one block's
    # record would be 25 bytes a step, 10 MB, before its numpy copies.
    n, horizon = 10, 400_000
    params = ModelParams(epsilon=1.0)
    schedule = PiecewiseGraph(n, ((0, path_edges(n)), (50, EdgeSet())))
    identity = UpdateIdentityObserver(params)
    tracemalloc.start()
    try:
        traj = run_trajectory(OpinionState(0, np.linspace(0.0, 1.0, n)), schedule,
                              ConstantMu(0.5), params, horizon, np.random.default_rng(0),
                              observers=[identity], record_stride=None, record_events=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps_run == horizon and 0 < identity.checked <= 50
    assert peak < 25 * horizon / 2


@st.composite
def _blocks(draw):
    """(n, d, pairs, gaps, start, seed) of a block: its fired steps' distinct
    agents i and j, and the steps from ``start`` to each fired step and on to
    the block's end (one more gap than pairs)."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    m = draw(st.integers(0, 40 if n > 1 else 0))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, max(0, n - 2))),
                          min_size=m, max_size=m))
    gaps = draw(st.lists(st.integers(1, 3), min_size=m + 1, max_size=m + 1))
    return n, d, pairs, gaps, draw(st.integers(0, 50)), draw(st.integers(0, 2**32 - 1))


@given(_blocks())
@example((5, 2, [], [3], 7, 0))   # a block with no fired step
def test_a_blocks_states_and_rows_replay_its_writes(block):
    n, d, pairs, gaps, start, seed = block
    rng = np.random.default_rng(seed)
    i = np.array([a for a, _ in pairs], dtype=np.intp)
    j = np.array([b + (b >= a) for a, b in pairs], dtype=np.intp)   # j != i
    m, ends = len(pairs), start + np.cumsum(gaps)
    t = ends[:-1] - 1   # fired steps, ascending; the block ends at ends[-1]
    x0, new = rng.random((n, d)), rng.random((m, 2, d))
    steps = FiredSteps(start, int(ends[-1]), x0, t, i, j, np.zeros(m), new)
    # the naive replay: state k is x0 with the rows of the first k steps written
    replay = [x0]
    for k in range(m):
        x = replay[-1].copy()
        x[i[k]], x[j[k]] = new[k]
        replay.append(x)
    replay = np.array(replay)
    assert np.array_equal(steps.states, replay)
    assert np.array_equal(steps.old, replay[np.arange(m)[:, None], np.stack((i, j), axis=1)])
    agents = rng.integers(0, n, size=7)
    ks = np.arange(m + 1)
    assert np.array_equal(steps.rows(agents, ks[:, None]), replay[:, agents])
    both = np.stack((i, j), axis=1)
    assert np.array_equal(steps.rows(both, ks[1:, None]), replay[ks[1:, None], both])
    # the state at the top of step s is after the fired steps before s
    at = np.arange(start, steps.stop + 1)
    expected = replay[[int((t < s).sum()) for s in at]]
    assert np.array_equal(steps.state_at(at), expected)
    mid = int(rng.integers(start, steps.stop + 1))
    assert np.array_equal(steps.state_at(mid), expected[mid - start])


def test_an_observer_with_a_per_step_hook_is_refused():
    # an audit written for per-step hooks would check nothing
    for hook in ("before_step", "after_step"):
        stale = type("Stale", (TrajectoryObserver,), {hook: lambda self, *args: None})
        with pytest.raises(ConfigurationError, match=f"Stale defines {hook}"):
            _run(0, observers=[stale()])


def test_a_run_starts_at_step_zero():
    with pytest.raises(ConfigurationError, match="starts at step 0"):
        run_trajectory(OpinionState(5, np.zeros(3)), ConstantGraph(3, complete_edges(3)),
                       ConstantMu(0.3), ModelParams(epsilon=0.9), 3, np.random.default_rng(0))


def test_trajectory_validation():
    params = ModelParams(epsilon=0.9)
    initial = OpinionState(0, np.zeros(3))
    schedule = ConstantGraph(3, complete_edges(3))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        run_trajectory(initial, schedule, ConstantMu(0.3), params, -1, rng)
    with pytest.raises(ConfigurationError):
        run_trajectory(initial, schedule, ConstantMu(0.3), params, 10, rng, record_stride=0)
    with pytest.raises(ConfigurationError):
        run_trajectory(OpinionState(0, np.zeros((3, 2))), schedule,
                       ConstantMu(0.3), params, 10, rng)
    with pytest.raises(ConfigurationError):
        run_trajectory(initial, ConstantGraph(4, complete_edges(4)),
                       ConstantMu(0.3), params, 10, rng)


class _PairNeverCrosses(TrajectoryObserver):
    """Checks that with mu <= 1/2 a fired update never swaps the pair's
    one-dimensional order: both agents move toward each other by the same
    amount, ending at most at their midpoint.  The pre-step rows come from its
    own copy of the opinions, which replays each fired step's rows."""

    def __init__(self):
        self.fired = 0
        self._x = None

    def at_start(self, x):
        self._x = x.copy()

    def after_block(self, steps):
        for i, j, new in zip(steps.i.tolist(), steps.j.tolist(), steps.new):
            self.fired += 1
            gap_old = float(self._x[j, 0] - self._x[i, 0])
            gap_new = float(new[1, 0] - new[0, 0])
            assert gap_old * gap_new >= 0.0
            assert abs(gap_new) <= abs(gap_old) + 1e-15
            self._x[[i, j]] = new


def test_interacting_pair_never_crosses_in_one_dimension():
    watcher = _PairNeverCrosses()
    _run(11, horizon=2000, observers=(watcher,))
    assert watcher.fired > 100


def test_global_order_is_not_invariant():
    """Order preservation only binds the interacting pair: averaging with a
    distant agent can carry an opinion past an uninvolved bystander."""
    params = ModelParams(epsilon=1.0)
    x, fired = _one_step([0.0, 0.2, 1.0], (0, 2), mu=0.5, params=params)
    assert fired
    assert x[0, 0] == pytest.approx(0.5)  # overtook the bystander at 0.2
    assert x[0, 0] > x[1, 0]
    assert x[2, 0] >= x[0, 0]  # yet the pair itself did not cross


# ---------------------------------------------------------------------------
# One update rule: the engine's recorded events replay through the oracle's
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("norm", NORMS)
def test_step_replays_every_recorded_event(norm):
    n = 6
    params = ModelParams(epsilon=0.6, dimension=2, norm=norm)
    # steps 40..69 have no social edge at all
    schedule = PiecewiseGraph(n, ((0, complete_edges(n)), (40, EdgeSet()),
                                  (70, path_edges(n))))
    rng = np.random.default_rng(31)
    traj = run_trajectory(OpinionState(0, rng.random((n, 2))), schedule,
                          UniformMu(0.1, 0.5), params, 150, rng, record_stride=1)
    assert traj.times.tolist() == list(range(151))
    assert (traj.events["i"][40:70] == -1).all()
    assert traj.events["fired"].any() and not traj.events["fired"].all()
    x = traj.states[0]
    for t, (i, j, fired, mu) in enumerate(traj.events.tolist()):
        if i < 0:
            assert j < 0 and not fired
        else:
            x, replay_fired = apply_update(x, (i, j), mu, params)
            assert replay_fired == fired
        assert np.array_equal(x, traj.states[t + 1])


def test_events_csv_row_of_a_step_without_edges(tmp_path):
    # No edge and a constant rate: the rows use no randomness at all.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "horizon": 3,
                                  "graph": {"kind": "edges", "pairs": []},
                                  "mu": {"kind": "constant", "value": 0.25}}))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
    assert (out / "events.csv").read_text() == (
        "step,i,j,fired,mu\n0,,,0,0.25\n1,,,0,0.25\n2,,,0,0.25\n")


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [None, 1, 3, 1000])
def test_a_step_reads_its_words_by_address_then_its_spill_stream(monkeypatch, block):
    # step t owns words 8t .. 8t + 7 of Philox(key): the first is its uniform,
    # the other seven its pick words; then Philox keyed by (key, t + 1)
    key, width = 2**64 - 3, model.WORDS_PER_STEP
    stream = np.random.Philox(key=key).random_raw(width * 300).tolist()
    if block is not None:
        monkeypatch.setattr(model, "DRAW_BLOCK", block)
    draws = Draws(key)
    for t in (299, 0, 1, 2, 128, 127, 5, 6, 298):
        row = stream[t * width:(t + 1) * width]
        assert draws.at(t) == (row[0] >> 11) * 2.0**-53
        spill = np.random.Philox(key=key + ((t + 1) << 64)).random_raw(5).tolist()
        assert list(itertools.islice(draws.words(t, 1), width - 1 + 5)) == row[1:] + spill
        assert list(itertools.islice(draws.words(t, width - 1), 3)) == row[-1:] + spill[:2]


def _redraw(key: int, schedule, t: int):
    """Step t's pair (None when E(t) is empty) and rate, read from its address
    alone by the whole-run oracle."""
    u, words = reference_run._words(key, t)
    mu = UniformMu(0.1, 0.5).mu_at(t, u)
    return reference_run._pick(schedule, t, reference_run._edges(schedule, t), words), mu


@pytest.mark.parametrize("graph", [{"kind": "erdos_renyi", "p": 0.3}, {"kind": "path"}])
def test_the_pair_and_rate_of_any_step_are_redrawn_from_its_address(tmp_path, graph):
    # (seed, run k, step t) names a step's draws: no earlier step is replayed
    n, seed, horizon = 12, 5, 3000
    config = {"n": n, "epsilon": 0.3, "graph": graph, "horizon": horizon,
              "mu": {"kind": "uniform", "low": 0.1, "high": 0.5}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--seed", str(seed),
                     "--out-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "events.csv").read_text().splitlines()[1:]]
    steps = np.random.default_rng(seed).choice(horizon, size=40, replace=False).tolist()
    _, dyn_rng, graph_seed = seed_streams(seed)
    schedule = cli._build_graph(graph, n).reseeded(graph_seed)
    key = run_key(dyn_rng)
    for t in steps:
        pair, mu = _redraw(key, schedule, t)
        assert rows[t][1:3] == (["", ""] if pair is None else [str(v) for v in pair])
        assert rows[t][4] == repr(mu)
    # run k of the same seed, as a trial draws it
    k = 4
    _, dyn_rng, graph_seed = seed_streams(seed, k)
    schedule = schedule.reseeded(graph_seed)
    traj = run_trajectory(OpinionState(0, np.zeros((n, 1))), schedule, UniformMu(0.1, 0.5),
                          ModelParams(epsilon=0.3), horizon, seed_streams(seed, k)[1])
    key = run_key(dyn_rng)
    for t in steps:
        pair, mu = _redraw(key, schedule, t)
        i, j, _, recorded_mu = traj.events[t].tolist()
        assert (i, j) == (pair or (-1, -1)) and recorded_mu == mu


# ---------------------------------------------------------------------------
# The scalar step loop against the whole-run oracle
# ---------------------------------------------------------------------------

def _matches_the_oracle(x0, schedule, mu, params, seed, horizon, observers=(),
                        stop_condition=None):
    """Run the engine and the oracle's step interpreter from x0 and compare
    every step's pair, firing and rate, and every state, bit for bit, up to
    the step the run ended at."""
    traj = run_trajectory(OpinionState(0, x0), schedule, mu, params, horizon,
                          np.random.default_rng(seed), observers=observers, record_stride=1,
                          stop_condition=stop_condition)
    key = run_key(np.random.default_rng(seed))
    steps = list(reference_run._run(np.array(x0, dtype=float), schedule, mu, params, key,
                                    traj.steps_run))
    assert traj.events.tolist() == [(*(s.pair or (-1, -1)), s.fired, s.mu) for s in steps]
    expected = np.stack([steps[0].before] + [s.after for s in steps])
    assert traj.states.tobytes() == np.ascontiguousarray(expected).tobytes()
    return traj


def _audit(params, x0):
    return [UpdateIdentityObserver(params),
            ContractionObserver(lattice_points(x0.min(axis=0), x0.max(axis=0), 5), params),
            DiameterMonotoneObserver(params)]


@pytest.mark.parametrize("d", [2, 3])
def test_a_fortran_ordered_initial_array_runs_as_its_c_ordered_copy(d):
    n = 7
    params = ModelParams(epsilon=0.8, dimension=d, norm="l1")
    x0 = np.random.default_rng(d).random((n, d))
    schedule = ConstantGraph(n, complete_edges(n))
    fortran = np.asfortranarray(x0)
    assert not fortran.flags.c_contiguous
    c_run = _matches_the_oracle(x0, schedule, UniformMu(0.1, 0.5), params, 3, 400,
                                _audit(params, x0))
    # the audit reads the fired rows from the run's own buffer: it would see
    # nothing move if that buffer were a copy
    f_run = _matches_the_oracle(fortran, schedule, UniformMu(0.1, 0.5), params, 3, 400,
                                _audit(params, x0))
    assert f_run.events.tobytes() == c_run.events.tobytes()
    assert f_run.states.tobytes() == c_run.states.tobytes()
    assert np.array_equal(fortran, x0)   # the run worked on its own copy


@pytest.mark.parametrize("zeros", [1, 7])
@pytest.mark.parametrize("edges", [complete_edges(3), path_edges(4)])
def test_a_redrawn_first_pick_word_goes_on_with_the_next_words(monkeypatch, zeros, edges):
    # Lemire's method redraws the word 0 on m = 3 rows, as 2^64 mod 3 = 1:
    # with the first pick word of every step 0, the pair comes from the
    # second; with all seven 0, from the step's spill stream
    assert len(edges) == 3 and (1 << 64) % 3 == 1

    class Zeroed(Draws):
        def _fetch(self, t):
            super()._fetch(t)
            self._raw[:, 1:1 + zeros] = 0

    real_words = reference_run._words

    def zeroed_words(key, t):
        u, words = real_words(key, t)
        for _ in range(zeros):
            next(words)
        return u, itertools.chain([0] * zeros, words)

    monkeypatch.setattr(model, "Draws", Zeroed)
    monkeypatch.setattr(reference_run, "_words", zeroed_words)
    n = int(edges.array.max()) + 1
    params = ModelParams(epsilon=0.6)
    x0 = np.random.default_rng(zeros).random((n, 1))
    traj = _matches_the_oracle(x0, ConstantGraph(n, edges), UniformMu(0.1, 0.5), params, 4,
                               300, _audit(params, x0))
    assert set(map(tuple, traj.events[["i", "j"]].tolist())) == set(edges)


def test_empty_edge_sets_and_a_schedule_that_changes_inside_a_draw_block():
    # E(t) cycles through the complete graph, no edge and the path at every
    # step, so one block of DRAW_BLOCK steps reads three edge sets in turn
    n = 6
    params = ModelParams(epsilon=0.5, dimension=2, norm="linf")
    x0 = np.random.default_rng(9).random((n, 2))
    schedule = CyclicGraph(n, (complete_edges(n), EdgeSet(), path_edges(n)))
    horizon = 2 * model.DRAW_BLOCK + 17
    traj = _matches_the_oracle(x0, schedule, SequenceMu((0.5, 0.3, 0.1)), params, 6, horizon,
                               _audit(params, x0))
    empty = traj.events[1::3]
    assert (empty["i"] == -1).all() and (empty["j"] == -1).all() and not empty["fired"].any()
    assert traj.events["fired"][0::3].any() and traj.events["fired"][2::3].any()


@pytest.mark.parametrize("stop", [None, 173])
@pytest.mark.parametrize("kind", ["cyclic", "piecewise"])
def test_an_edge_set_that_changes_inside_a_draw_block_gets_its_own_picks(kind, stop):
    # a period-3 cycle with an empty member reads three edge sets in every
    # draw block, and the piecewise schedule switches at step 130, inside the
    # second; the stop rule ends the run at step 173, in the same block
    n = 7
    params = ModelParams(epsilon=0.6, dimension=2)
    x0 = np.random.default_rng(13).random((n, 2))
    if kind == "cyclic":
        schedule = CyclicGraph(n, (path_edges(n), EdgeSet(), complete_edges(n)))
    else:
        schedule = PiecewiseGraph(n, ((0, path_edges(n)), (130, complete_edges(n))))
    traj = _matches_the_oracle(x0, schedule, UniformMu(0.1, 0.5), params, 21, 400,
                               _audit(params, x0),
                               stop_condition=None if stop is None else lambda t: stop)
    assert traj.steps_run == (400 if stop is None else stop)
    pairs = set(map(tuple, traj.events[["i", "j"]].tolist()))
    assert pairs - set(path_edges(n)) and pairs & set(path_edges(n))


def _lemire_words():
    return st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
                     st.integers(0, 2**64 - 1))


@given(st.lists(_lemire_words(), min_size=1, max_size=40),
       st.one_of(st.integers(1, 2**32 - 1), st.integers(2**32, 2**63),
                 st.sampled_from([1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**63])))
@example([0, 2**64 - 1], 1)
@example([0, 1, 2**64 - 1], 3)
@example([0, 2**64 - 1, 2**63], 2**63)
@example([0, 2**64 - 1, 2**33 + 5], 2**32 + 1)
def test_the_block_lemire_step_matches_lemire_on_python_ints(words, m):
    rows, kept = model._lemire_block(np.array(words, dtype=np.uint64), m)
    assert rows.tolist() == [w * m >> 64 for w in words]
    assert kept.tolist() == [reference_run._lemire(m, w) is not None for w in words]
    # a (steps, candidates) array gives the same, element by element
    rows2, kept2 = model._lemire_block(np.array(words, dtype=np.uint64).reshape(1, -1), m)
    assert rows2.tolist() == [rows.tolist()] and kept2.tolist() == [kept.tolist()]


@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=8))
def test_members_on_a_broadcast_of_steps_and_rows_is_the_hash_on_python_ints(
        n, p, seed, steps, rows):
    graph = ErdosRenyiGraph(n, p, seed)
    rows = [e % graph.m for e in rows]
    flags = graph.members(np.array(steps)[:, None], np.array(rows)[None, :])
    assert flags.tolist() == [[reference_run._er_member(graph, t, e) for e in rows]
                              for t in steps]


def _count_open_pairs(monkeypatch) -> list:
    """The steps whose pick the draw block leaves to ``_open_pair``."""
    calls = []
    real = model._open_pair
    monkeypatch.setattr(model, "_open_pair",
                        lambda draws, t, edges, why: calls.append(t) or real(draws, t, edges, why))
    return calls


def test_the_draw_block_settles_every_pick_its_words_settle(monkeypatch):
    calls = _count_open_pairs(monkeypatch)
    n, horizon = 10, 5000
    params = ModelParams(epsilon=0.5, dimension=2)
    x0 = np.random.default_rng(4).random((n, 2))
    run_trajectory(OpinionState(0, x0), ConstantGraph(n, complete_edges(n)), ConstantMu(0.3),
                   params, horizon, np.random.default_rng(5))
    assert calls == []

    # on G(100, p) the steps left open are exactly those whose six candidates
    # all miss: one in 64 at p = 1/2, about three in four at p = 0.05
    n, horizon, seed = 100, 4000, 6
    x0 = np.random.default_rng(7).random((n, 2))
    words = np.random.Philox(key=run_key(np.random.default_rng(seed))).random_raw(
        model.WORDS_PER_STEP * horizon).reshape(horizon, -1)[:, 1:1 + model._CANDIDATES]
    m = n * (n - 1) // 2
    candidates = [([w * m >> 64 for w in row], [w * m & (2**64 - 1) >= 2**64 % m for w in row])
                  for row in words.tolist()]
    for p, low, high in ((0.5, 0, 1 / 20), (0.05, 0.6, 0.85)):
        del calls[:]
        graph = ErdosRenyiGraph(n, p)
        traj = run_trajectory(OpinionState(0, x0), graph, ConstantMu(0.3), params, horizon,
                              np.random.default_rng(seed), record_stride=None)
        missed = [t for t, (rows, kept) in enumerate(candidates)
                  if not (graph.members(t, np.array(rows)) & kept).any()]
        assert low * horizon < len(missed) < high * horizon and calls == missed
        assert (traj.events["i"] >= 0).all()


def _pcg_state(rng: np.random.Generator) -> int:
    return rng.bit_generator.state["state"]["state"]


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**200])
@pytest.mark.parametrize("key", [(), (0,), (249,), (0, 4)])
def test_seed_streams_are_the_three_children_that_spawn_builds(seed, key):
    children = np.random.SeedSequence(seed, spawn_key=key).spawn(3)
    init_rng, dyn_rng, graph_seed = seed_streams(seed, *key)
    for rng, child in zip((init_rng, dyn_rng), children):
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(8),
                              child.generate_state(8))
        assert _pcg_state(rng) == _pcg_state(np.random.default_rng(child))
    assert graph_seed == int(children[2].generate_state(1, dtype=np.uint64)[0])


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**40 + 3])
def test_side_streams_share_no_state_with_any_run(seed):
    run_states = set()
    for key in [()] + [(k,) for k in range(256)]:   # simulate, then trials 0-255
        init_rng, dyn_rng, _ = seed_streams(seed, *key)
        run_states |= {_pcg_state(init_rng), _pcg_state(dyn_rng)}
    assert len(run_states) == 2 * 257
    side = {_pcg_state(side_stream(seed, purpose)) for purpose in ("bound", "geometry")}
    assert len(side) == 2 and not side & run_states
