"""Acceptance gate: one test per release criterion, one printed line each.

Criteria 1-5 share a session-scoped ensemble of 100 fully-observed
trajectories (n=10, dimensions 1-3, mixed graph/rate schedules, 10^4 steps
each).  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
[PASS]/[FAIL] lines as they are produced.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from deffuant import (
    BallSpace,
    Box,
    ConstantGraph,
    ConstantMu,
    ErdosRenyiGraph,
    Interval,
    ModelParams,
    OpinionState,
    TrajectoryObserver,
    TrialConfig,
    UniformMu,
    Verdict,
    chebyshev_center,
    check_potential_monotone,
    complete_edges,
    diameter,
    lattice_points,
    minimum_enclosing_ball,
    run_ensemble,
    run_trajectory,
    run_trial,
    theoretical_lower_bound,
)
from deffuant.cli import main as cli_main
from deffuant.invariants import audit_run
from deffuant.norms import cross_distances, lengths
from oracles import bruteforce_enclosing_ball

SEED = 20260815
ENSEMBLE_RUNS = 100
ENSEMBLE_STEPS = 10_000
WORKERS = min(4, os.cpu_count() or 1)


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


# ---------------------------------------------------------------------------
# Shared ensemble for criteria 1-5
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def ensemble():
    t0 = time.perf_counter()
    audits = [audit_run(SEED, k, ENSEMBLE_STEPS, 100) for k in range(ENSEMBLE_RUNS)]
    elapsed = time.perf_counter() - t0
    fired = sum(a.contraction.fired_steps for a in audits)
    us_per_step = 1e6 * elapsed / (ENSEMBLE_RUNS * ENSEMBLE_STEPS)
    print(f"\n[ensemble] {ENSEMBLE_RUNS} runs x {ENSEMBLE_STEPS} steps, "
          f"{fired} fired, built in {elapsed:.1f}s ({us_per_step:.0f} us/step)")
    assert elapsed < 120, f"ensemble build took {elapsed:.1f}s, budget is 120s"
    assert fired > 100_000  # the checks must actually have had work to do
    return audits


def test_criterion_01_pair_contraction(ensemble):
    worst_basic = min(a.contraction.min_basic_slack for a in ensemble)
    worst_refined = min(a.contraction.min_refined_slack for a in ensemble)
    ok = worst_basic >= -1e-9 and worst_refined >= -1e-9
    _criterion(1, "pair contraction slacks >= -1e-9 on every fired step", ok,
               f"min basic {worst_basic:.3e}, min refined {worst_refined:.3e}")


class _FullPotentialAudit(TrajectoryObserver):
    """Recomputes the whole-population potential around every fired step and
    measures the decrement-inequality slack directly (no pair shortcut).
    The pre-step rows come from its own copy of the opinions, which replays
    each fired step's rows."""

    def __init__(self, c_points: np.ndarray, params: ModelParams):
        self.c_points = c_points
        self.params = params
        self.min_slack = np.inf
        self.checked = 0
        self._z = None
        self._x = None

    def at_start(self, x):
        self._x = x.copy()
        self._z = cross_distances(x, self.c_points, self.params.norm).sum(axis=0)

    def after_block(self, steps):
        x, norm = self._x, self.params.norm
        for i, j, new in zip(steps.i.tolist(), steps.j.tolist(), steps.new):
            xi_old, xj_old = x[i].copy(), x[j].copy()
            x[[i, j]] = new
            z_now = cross_distances(x, self.c_points, norm).sum(axis=0)
            disp = lengths(x[i] - xi_old, norm)
            mid = (xi_old + xj_old) / 2.0
            d_mid = cross_distances(mid[None, :], self.c_points, norm)[0]
            slack = (self._z - z_now) - 2.0 * disp + 2.0 * d_mid
            self.min_slack = min(self.min_slack, float(slack.min()))
            self._z = z_now
            self.checked += 1


def test_criterion_02_potential_decrement(ensemble):
    worst_refined = min(a.contraction.min_refined_slack for a in ensemble)
    # direct full-potential audit on a fresh subsample (the ensemble checker
    # exploits that only the pair's terms change; this one does not)
    worst_direct = np.inf
    checked = 0
    for k in (0, 1, 2, 3, 4):
        run_ss = np.random.SeedSequence(SEED, spawn_key=(1000 + k,))
        init_ss, dyn_ss, _ = run_ss.spawn(3)
        d = 1 + k % 3
        params = ModelParams(epsilon=0.8, dimension=d)
        x0 = np.random.default_rng(init_ss).random((10, d))
        audit = _FullPotentialAudit(
            lattice_points(x0.min(axis=0), x0.max(axis=0), 10), params)
        run_trajectory(OpinionState(0, x0), ConstantGraph(10, complete_edges(10)),
                       UniformMu(0.1, 0.5), params, 2000,
                       np.random.default_rng(dyn_ss), observers=[audit],
                       record_stride=None, record_events=False)
        worst_direct = min(worst_direct, audit.min_slack)
        checked += audit.checked
    ok = worst_refined >= -1e-9 and worst_direct >= -1e-9 and checked > 1000
    _criterion(2, "potential decrement slack >= -1e-9 on every fired step", ok,
               f"min over ensemble {worst_refined:.3e}, "
               f"direct recompute {worst_direct:.3e}")


def test_criterion_03_potential_monotone(ensemble):
    worst_drift = max(a.contraction.max_potential_drift for a in ensemble)
    recorded_ok = all(
        check_potential_monotone(a.times, a.states, a.c_points, a.params.norm) is None
        for a in ensemble)
    ok = worst_drift <= 1e-9 and recorded_ok
    _criterion(3, "summed distance to each reference never rises > 1e-9", ok,
               f"max per-step drift {worst_drift:.3e}, recorded states ok")


def test_criterion_04_update_identities(ensemble):
    sum_err = max(a.identity.max_sum_error for a in ensemble)
    disp_gap = max(a.identity.max_displacement_gap for a in ensemble)
    rate_resid = max(a.identity.max_rate_residual for a in ensemble)
    checked = sum(a.identity.checked for a in ensemble)
    ok = sum_err <= 1e-12 and disp_gap <= 1e-12 and rate_resid <= 1e-12
    _criterion(4, "pair-sum and displacement identities hold within 1e-12", ok,
               f"sum {sum_err:.3e}, gap {disp_gap:.3e}, rate {rate_resid:.3e}, "
               f"{checked} fired steps")


def test_criterion_05_diameter_monotone(ensemble):
    worst = max(a.diam.max_increase for a in ensemble)
    ok = worst <= 1e-12
    _criterion(5, "opinion diameter never grows more than 1e-12 per step", ok,
               f"max increase {worst:.3e}")


# ---------------------------------------------------------------------------
# Criteria 6-8: consensus probability and stopping times
# ---------------------------------------------------------------------------

def _reference_template(epsilon: float) -> TrialConfig:
    n = 10
    return TrialConfig(
        n=n,
        params=ModelParams(epsilon=epsilon),
        space=Interval(0.0, 1.0),
        graph_schedule=ConstantGraph(n, complete_edges(n)),
        mu_schedule=ConstantMu(0.5),
        horizon=1_000_000,
        master_seed=SEED,
    )


def test_criterion_06_consensus_bound():
    template = _reference_template(0.9)
    ball = chebyshev_center(template.space)
    bound = theoretical_lower_bound(0.9, ball, 0.25)
    result = run_ensemble(template, 2000, workers=WORKERS)
    est = result.estimate
    ok = (abs(bound - 0.375) <= 1e-12
          and est.ci_high >= bound
          and est.p_hat >= bound - 3.0 * est.std_error)
    _criterion(6, "consensus fraction respects the 0.375 lower bound", ok,
               f"bound {bound:.12f}, p_hat {est.p_hat:.4f} "
               f"[{est.ci_low:.4f}, {est.ci_high:.4f}], "
               f"{est.n_undecided} undecided of {est.n_trials}")


def test_criterion_07_full_range_consensus():
    template = _reference_template(1.0)
    result = run_ensemble(template, 500, workers=WORKERS)
    ok = result.counts["consensus"] == 500
    _criterion(7, "epsilon = space diameter gives consensus in all 500 trials",
               ok, f"counts {result.counts}")


def test_criterion_08_stopping_time_finite():
    template = TrialConfig(
        n=10,
        params=ModelParams(epsilon=1.0),
        space=Interval(0.0, 1.0),
        graph_schedule=ErdosRenyiGraph(10, 0.5),
        mu_schedule=UniformMu(0.1, 0.5),
        horizon=1_000_000,
        master_seed=SEED,
        track_delta=0.01,
    )
    taus = []
    for k in range(200):
        result = run_trial(dataclasses.replace(template, trial_index=k))
        taus.append(result.tau_delta)
    finite = [t for t in taus if t is not None]
    ok = len(finite) == 200
    _criterion(8, "tau(0.01) finite in all 200 resampled-graph trials", ok,
               f"max tau {max(finite) if finite else None}, "
               f"median {int(np.median(finite)) if finite else None}")


# ---------------------------------------------------------------------------
# Criterion 9: geometry
# ---------------------------------------------------------------------------

def test_criterion_09_enclosing_ball_geometry():
    ball = chebyshev_center(Interval(0.0, 1.0))
    exact = ball.center[0] == 0.5 and ball.radius == 0.5

    rng = np.random.default_rng(SEED)
    max_err = 0.0
    bounds_ok = True
    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(3, 40)), 2)) * rng.uniform(0.5, 2.0)
        got = minimum_enclosing_ball(pts)
        _, ref_radius = bruteforce_enclosing_ball(pts)
        max_err = max(max_err,
                      abs(got.radius - ref_radius),
                      float(lengths(pts - got.center).max())
                      - ref_radius)
        diam = diameter(pts)
        bounds_ok = bounds_ok and diam / 2.0 - 1e-9 <= got.radius <= (
            np.sqrt(3.0) / 2.0) * diam + 1e-9

    spaces = [Interval(-1.0, 2.0), Box([0.0, 0.0], [2.0, 1.0]),
              BallSpace([0.5, 0.5], 0.7)]
    for space in spaces:
        b = chebyshev_center(space)
        d = space.diameter("euclidean")
        bounds_ok = bounds_ok and d / 2.0 - 1e-12 <= b.radius <= (
            np.sqrt(3.0) / 2.0) * d + 1e-12

    ok = exact and max_err <= 1e-6 and bounds_ok
    _criterion(9, "interval center exact; enclosing balls match brute-force oracle",
               ok, f"max oracle error {max_err:.2e}")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical outputs
# ---------------------------------------------------------------------------

def test_criterion_10_deterministic_outputs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 10, "epsilon": 0.9, "horizon": 5000,
                                  "record_stride": 50, "deltas": [0.05]}))

    sim_blobs = []
    for name in ("sim-a", "sim-b"):
        out = tmp_path / name
        code = cli_main(["simulate", "--config", str(config), "--seed", "11",
                         "--out-dir", str(out)])
        assert code == 0
        sim_blobs.append(tuple((out / f).read_bytes()
                               for f in ("states.csv", "events.csv", "summary.json")))

    est_blobs = []
    for name, threads in (("est-a", "1"), ("est-b", "1"), ("est-c", "2")):
        out = tmp_path / name
        code = cli_main(["estimate", "--config", str(config), "--seed", "13",
                         "--trials", "40", "--threads", threads, "--per-trial",
                         "--out-dir", str(out)])
        assert code == 0
        est_blobs.append(((out / "ensemble.json").read_bytes(),
                          (out / "trials.csv").read_bytes()))

    ok = sim_blobs[0] == sim_blobs[1] and est_blobs[0] == est_blobs[1] == est_blobs[2]
    _criterion(10, "simulate and estimate outputs byte-identical across "
                   "reruns and thread counts", ok)


# ---------------------------------------------------------------------------
# Criterion 11: dissensus verdicts are absorbing
# ---------------------------------------------------------------------------

def test_criterion_11_dissensus_absorbing():
    template = dataclasses.replace(_reference_template(0.2), horizon=3000)
    dissensus_indices = []
    k = 0
    while len(dissensus_indices) < 100 and k < 250:
        result = run_trial(dataclasses.replace(template, trial_index=k))
        if result.outcome.verdict is Verdict.DISSENSUS:
            dissensus_indices.append(k)
        k += 1
    assert len(dissensus_indices) == 100, f"only {len(dissensus_indices)} found"

    exceptions = 0
    for idx in dissensus_indices:
        long = run_trial(
            dataclasses.replace(template, trial_index=idx, horizon=30_000),
            early_stop=False)
        if long.outcome.verdict is Verdict.CONSENSUS or (
                long.outcome.final_diameter <= template.params.epsilon):
            exceptions += 1
    ok = exceptions == 0
    _criterion(11, "100 dissensus trials stay non-consensus at 10x horizon",
               ok, f"{exceptions} exceptions")
