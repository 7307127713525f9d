"""Command line front end: configure, run, and verify experiments.

Three subcommands: ``simulate`` runs one fully-observed trajectory and
writes CSV/JSON artifacts, ``estimate`` runs a trial ensemble and compares
the consensus fraction against the theoretical lower bound, ``verify``
runs randomized invariant suites.  Exit codes are a stable contract:
0 ok, 2 bad configuration, 3 invariant violation, 4 bound contradiction.

Human-readable text goes to stdout; machine-readable results only to files,
so pipelines never parse prose.  All file outputs are deterministic
functions of (config, seed), independent of --threads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .errors import BoundInapplicableError, ConfigurationError, InvariantViolation
from .geometry import (
    BallSpace,
    Box,
    Interval,
    OpinionSpace,
    PointCloud,
    chebyshev_center,
    diameter,
    expected_center_distance,
    minimum_enclosing_ball,
)
from .graphs import (
    ConstantGraph,
    CyclicGraph,
    EdgeSet,
    ErdosRenyiGraph,
    GraphSchedule,
    PiecewiseGraph,
    complete_edges,
    path_edges,
)
from .invariants import (
    AuditRun,
    ContractionObserver,
    DiameterMonotoneObserver,
    StoppingTimeRecord,
    StoppingTimeTracker,
    UpdateIdentityObserver,
    audit_run,
    check_potential_monotone,
    lattice_points,
    settle_time,
)
from .model import (
    ConstantMu,
    ModelParams,
    MuSchedule,
    OpinionState,
    SequenceMu,
    UniformMu,
    run_trajectory,
    seed_streams,
    side_stream,
)
from .montecarlo import (
    TrialConfig,
    bound_comparison_report,
    run_ensemble,
    theoretical_lower_bound,
)
from .norms import lengths

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BOUND = 4

OUT_DIR_ENV = "DEFFUANT_OUT_DIR"

VERIFY_SUITES = ("contraction", "potential-drop", "potential", "triviality",
                 "geometry", "all")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULT_CONFIG: dict[str, Any] = {
    "n": 10,
    "dimension": 1,
    "epsilon": 0.9,
    "norm": "euclidean",
    "horizon": 10_000,
    "consensus_tol": 1e-6,
    "space": {"kind": "interval", "a": 0.0, "b": 1.0},
    "graph": {"kind": "complete"},
    "mu": {"kind": "constant", "value": 0.5},
    "deltas": [0.01],
    "record_stride": None,
    "c_samples": 10,
    "check_every": 100,
    "initial": None,
}


def _reject_unknown(data: dict, allowed: set[str], where: str):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    """One experiment, fully resolved: model, space, schedules, run options."""

    n: int
    params: ModelParams
    space: OpinionSpace
    graph: GraphSchedule
    mu: MuSchedule
    horizon: int
    consensus_tol: float
    deltas: list[float]
    record_stride: Optional[int]
    c_samples: int
    check_every: int
    initial: Optional[np.ndarray]
    raw: dict[str, Any] = field(default_factory=dict)

    def digest(self, seed: int, trials: Optional[int] = None) -> str:
        payload = dict(self.raw)
        payload["seed"] = seed
        if trials is not None:
            payload["trials"] = trials
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build_space(data: dict, dimension: int) -> OpinionSpace:
    kind = data.get("kind")
    if kind == "interval":
        _reject_unknown(data, {"kind", "a", "b"}, "space")
        space = Interval(float(data.get("a", 0.0)), float(data.get("b", 1.0)))
    elif kind == "box":
        _reject_unknown(data, {"kind", "lower", "upper"}, "space")
        space = Box(data["lower"], data["upper"])
    elif kind == "ball":
        _reject_unknown(data, {"kind", "center", "radius", "norm"}, "space")
        space = BallSpace(data["center"], float(data["radius"]),
                          data.get("norm", "euclidean"))
    elif kind == "cloud":
        _reject_unknown(data, {"kind", "points"}, "space")
        space = PointCloud(np.asarray(data["points"], dtype=float))
    else:
        raise ConfigurationError(f"unknown space kind {kind!r}")
    if space.dimension != dimension:
        raise ConfigurationError(
            f"space dimension {space.dimension} != configured dimension {dimension}")
    return space


def _edges_from_json(pairs: Any) -> EdgeSet:
    if not isinstance(pairs, list):
        raise ConfigurationError("edge list must be a JSON array of [i, j] pairs")
    for pair in pairs:
        # bool is an int subclass, so test the exact type
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)):
            raise ConfigurationError(f"edge {pair!r} is not a pair of integer vertices")
    return EdgeSet(tuple(pair) for pair in pairs)


def _piecewise_from_mapping(mapping: dict, n: int) -> PiecewiseGraph:
    entries = sorted((int(step), pairs) for step, pairs in mapping.items())
    return PiecewiseGraph(n, tuple((step, _edges_from_json(pairs))
                                   for step, pairs in entries))


def _build_graph(data: dict, n: int) -> GraphSchedule:
    kind = data.get("kind")
    if kind == "complete":
        _reject_unknown(data, {"kind"}, "graph")
        return ConstantGraph(n, complete_edges(n))
    if kind == "path":
        _reject_unknown(data, {"kind"}, "graph")
        return ConstantGraph(n, path_edges(n))
    if kind == "edges":
        _reject_unknown(data, {"kind", "pairs"}, "graph")
        return ConstantGraph(n, _edges_from_json(data["pairs"]))
    if kind == "erdos_renyi":
        _reject_unknown(data, {"kind", "p"}, "graph")
        return ErdosRenyiGraph(n, float(data["p"]))
    if kind == "cyclic":
        _reject_unknown(data, {"kind", "members"}, "graph")
        members = tuple(_edges_from_json(pairs) for pairs in data["members"])
        return CyclicGraph(n, members)
    if kind == "piecewise":
        _reject_unknown(data, {"kind", "steps"}, "graph")
        return _piecewise_from_mapping(data["steps"], n)
    if kind == "from_file":
        _reject_unknown(data, {"kind", "path"}, "graph")
        with open(data["path"]) as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ConfigurationError("graph file must map steps to edge lists")
        return _piecewise_from_mapping(mapping, n)
    raise ConfigurationError(f"unknown graph kind {kind!r}")


def _build_mu(data: dict) -> MuSchedule:
    kind = data.get("kind")
    if kind == "constant":
        _reject_unknown(data, {"kind", "value"}, "mu")
        return ConstantMu(float(data["value"]))
    if kind == "uniform":
        _reject_unknown(data, {"kind", "low", "high"}, "mu")
        return UniformMu(float(data["low"]), float(data["high"]))
    if kind == "sequence":
        _reject_unknown(data, {"kind", "values"}, "mu")
        return SequenceMu(tuple(float(v) for v in data["values"]))
    raise ConfigurationError(f"unknown mu kind {kind!r}")


def load_config(path: Optional[str], overrides: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, the JSON file, and CLI flags (flags win).

    A missing key, a wrong type or a bad value anywhere in the merged config
    raises ConfigurationError.
    """
    raw = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in _DEFAULT_CONFIG.items()}
    if path is not None:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"bad JSON in {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        _reject_unknown(loaded, set(_DEFAULT_CONFIG), "config")
        raw.update(loaded)

    if getattr(overrides, "epsilon", None) is not None:
        raw["epsilon"] = overrides.epsilon
    if getattr(overrides, "mu", None) is not None:
        raw["mu"] = {"kind": "constant", "value": overrides.mu}
    if getattr(overrides, "n", None) is not None:
        raw["n"] = overrides.n
    if getattr(overrides, "horizon", None) is not None:
        raw["horizon"] = overrides.horizon
    try:
        return _build_config(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)) from None


def _count(raw: dict[str, Any], key: str) -> int:
    """``raw[key]`` as an integer of at least 1; a bool, a string or a
    fractional number is rejected rather than rounded."""
    value = raw[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{key} must be >= 1, got {value}")
    return value


def _build_config(raw: dict[str, Any]) -> ExperimentConfig:
    n = _count(raw, "n")
    dimension = _count(raw, "dimension")
    params = ModelParams(epsilon=float(raw["epsilon"]), dimension=dimension,
                         norm=str(raw["norm"]))
    for key in ("space", "graph", "mu"):
        if not isinstance(raw[key], dict):
            raise ConfigurationError(f"{key} must be a JSON object")
    space = _build_space(raw["space"], dimension)
    if isinstance(space, BallSpace) and space.norm != params.norm:
        raise ConfigurationError(
            f"space is a ball in norm {space.norm!r}, the model measures in {params.norm!r}")
    graph = _build_graph(raw["graph"], n)
    mu = _build_mu(raw["mu"])
    deltas = [float(d) for d in (raw["deltas"] or [])]
    if any(d <= 0 for d in deltas):
        raise ConfigurationError(f"deltas must be > 0, got {deltas}")
    horizon = _count(raw, "horizon")
    stride = (max(1, horizon // 1000) if raw["record_stride"] is None
              else _count(raw, "record_stride"))
    check_every = _count(raw, "check_every")
    consensus_tol = float(raw["consensus_tol"])
    if not (consensus_tol > 0):
        raise ConfigurationError(f"consensus_tol must be > 0, got {consensus_tol}")
    initial = None
    if raw["initial"] is not None:
        initial = np.asarray(raw["initial"], dtype=float)
        if initial.ndim == 1:
            initial = initial[:, None]
        if initial.shape != (n, dimension):
            raise ConfigurationError(
                f"initial opinions must be ({n}, {dimension}), got {initial.shape}")
        if not np.isfinite(initial).all():
            raise ConfigurationError("initial opinions must be finite")
    # Opinions whose distance overflows never interact and make every bound
    # infinite: the bounding boxes of space and ``initial`` need a finite diagonal.
    corners = {"space": ((space.lower, space.upper) if isinstance(space, Box) else
                         (space.center - space.radius, space.center + space.radius)
                         if isinstance(space, BallSpace) else
                         (space.points.min(axis=0), space.points.max(axis=0)))}
    if initial is not None:
        corners["initial opinions"] = (initial.min(axis=0), initial.max(axis=0))
    for name, (lo, hi) in corners.items():
        with np.errstate(over="ignore"):
            if not np.isfinite(lengths(hi - lo, params.norm)):
                raise ConfigurationError(f"the bounding box of the {name} has a diagonal "
                                         f"that overflows in the {params.norm} norm")
    return ExperimentConfig(
        n=n, params=params, space=space, graph=graph, mu=mu,
        horizon=horizon, consensus_tol=consensus_tol,
        deltas=deltas, record_stride=stride, c_samples=_count(raw, "c_samples"),
        check_every=check_every, initial=initial, raw=raw,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _resolve_out_dir(arg: Optional[str]) -> Path:
    out = arg or os.environ.get(OUT_DIR_ENV) or "deffuant-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# CSV text of a value by its exact type: floats by repr, bools as 0 or 1,
# None as an empty field; other types (numpy scalars) go through ``_fmt``.
_CSV_TEXT = {float: float.__repr__, int: int.__repr__, str: str,
             bool: lambda v: "1" if v else "0", type(None): lambda v: ""}


def _fmt(value: Any) -> str:
    text = _CSV_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, np.bool_):
        return str(int(value))
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite_or_none(value: float) -> Optional[float]:
    return float(value) if np.isfinite(value) else None


def _write_violation(out_dir: Path, exc: InvariantViolation, seed: int,
                     digest: str) -> Path:
    record = exc.as_record()
    record["seed"] = seed
    record["config_digest"] = digest
    path = out_dir / "violation.json"
    _write_json(path, record)
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(config: ExperimentConfig, seed: int, out_dir: Path) -> int:
    """One trajectory with every checker active; CSV states/events + JSON summary."""
    digest = config.digest(seed)
    init_rng, dyn_rng, graph_seed = seed_streams(seed)
    schedule = config.graph.reseeded(graph_seed)
    if config.initial is not None:
        initial = OpinionState(0, config.initial)
    else:
        initial = OpinionState(0, config.space.sample(init_rng, config.n))

    lo = initial.opinions.min(axis=0)
    hi = initial.opinions.max(axis=0)
    identity = UpdateIdentityObserver(config.params)
    contraction = ContractionObserver(lattice_points(lo, hi, config.c_samples),
                                      config.params)
    diam_obs = DiameterMonotoneObserver(config.params)
    trackers = [StoppingTimeTracker(d, config.params) for d in config.deltas]
    observers = [identity, contraction, diam_obs, *trackers]

    t0 = time.perf_counter()
    try:
        trajectory = run_trajectory(
            initial, schedule, config.mu, config.params, config.horizon,
            dyn_rng, observers=observers, record_stride=config.record_stride,
        )
    except InvariantViolation as exc:
        path = _write_violation(out_dir, exc, seed, digest)
        print(f"invariant violation at step {exc.step}: {exc} "
              f"(diagnostics: {path})", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed = time.perf_counter() - t0

    d = config.params.dimension
    _write_csv(
        out_dir / "states.csv",
        ["step", "agent_id"] + [f"x{k}" for k in range(d)],
        ((t, agent, *row)
         for t, x in zip(trajectory.times.tolist(), trajectory.states)
         for agent, row in enumerate(x.tolist())),
    )
    _write_csv(
        out_dir / "events.csv",
        ["step", "i", "j", "fired", "mu"],
        ((t, None if i < 0 else i, None if j < 0 else j, fired, mu)
         for t, (i, j, fired, mu) in enumerate(trajectory.events.tolist())),
    )

    stopping = []
    for delta, tracker in zip(config.deltas, trackers):
        t_delta = settle_time(trajectory.times, trajectory.states, schedule, delta,
                              config.params)
        record = StoppingTimeRecord(delta=delta, tau_delta=tracker.time,
                                    T_delta=t_delta, horizon=trajectory.steps_run)
        stopping.append({
            "delta": record.delta,
            "tau_delta": record.tau_delta,
            "T_delta": record.T_delta,
            "censored": record.censored,
        })

    summary = {
        "config_digest": digest,
        "seed": seed,
        "n": config.n,
        "dimension": d,
        "epsilon": config.params.epsilon,
        "norm": config.params.norm,
        "horizon": config.horizon,
        "steps_run": trajectory.steps_run,
        "final_diameter": diam_obs.diameter,
        "stopping_times": stopping,
        "checks": {
            "fired_steps": contraction.fired_steps,
            "identity_checked_steps": identity.checked,
            "min_basic_slack": _finite_or_none(contraction.min_basic_slack),
            "min_refined_slack": _finite_or_none(contraction.min_refined_slack),
            "max_potential_drift": _finite_or_none(contraction.max_potential_drift),
            "max_sum_error": identity.max_sum_error,
            "max_displacement_gap": identity.max_displacement_gap,
            "max_rate_residual": identity.max_rate_residual,
            "max_diameter_increase": _finite_or_none(diam_obs.max_increase),
        },
    }
    _write_json(out_dir / "summary.json", summary)

    print(f"simulate: {trajectory.steps_run} steps, {contraction.fired_steps} fired, "
          f"final diameter {diam_obs.diameter:.6g}")
    for entry in stopping:
        print(f"  delta={entry['delta']}: tau={entry['tau_delta']}, "
              f"T={entry['T_delta']} (censored at horizon)")
    print(f"  outputs in {out_dir} (runtime {elapsed:.2f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(config: ExperimentConfig, trials: int, seed: int,
                 out_dir: Path, threads: int, per_trial: bool) -> int:
    """Trial ensemble, consensus estimate, and the lower-bound comparison."""
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    digest = config.digest(seed, trials)
    template = TrialConfig(
        n=config.n, params=config.params, space=config.space,
        graph_schedule=config.graph, mu_schedule=config.mu,
        horizon=config.horizon, consensus_tol=config.consensus_tol,
        master_seed=seed, trial_index=0,
        track_delta=config.deltas[0] if config.deltas else None,
        check_every=config.check_every,
    )

    t0 = time.perf_counter()
    ensemble = run_ensemble(template, trials, workers=threads)
    elapsed = time.perf_counter() - t0
    estimate = ensemble.estimate

    ball = chebyshev_center(config.space, config.params.norm)
    expected_dist, expected_se = expected_center_distance(
        config.space, ball.center, norm=config.params.norm, rng=side_stream(seed, "bound"))
    try:
        bound = theoretical_lower_bound(config.params.epsilon, ball, expected_dist)
        bound_note = None
    except BoundInapplicableError as exc:
        bound = None
        bound_note = str(exc)
    report = bound_comparison_report(estimate, bound)

    payload = {
        "config_digest": digest,
        "master_seed": seed,
        "n_trials": trials,
        "p_hat": report.p_hat,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "counts": ensemble.counts,
        "center": [float(v) for v in ball.center],
        "radius": ball.radius,
        "expected_center_distance": expected_dist,
        "expected_center_distance_se": expected_se,
        "bound": report.bound,
        "bound_applicable": bound is not None,
        "margin": report.margin,
        "passed": report.passed,
    }
    _write_json(out_dir / "ensemble.json", payload)
    if per_trial:
        _write_csv(
            out_dir / "trials.csv",
            ["trial_index", "verdict", "decided_at", "final_diameter", "tau_delta"],
            ((r.trial_index, r.verdict.value, r.decided_at, r.final_diameter,
              r.tau_delta) for r in ensemble.rows),
        )

    print(f"estimate: p_hat={estimate.p_hat:.4f} "
          f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}] over {trials} trials "
          f"({estimate.n_undecided} undecided)")
    if bound is not None:
        state = "consistent" if report.passed else "CONTRADICTED"
        print(f"  lower bound {bound:.6g}: {state} "
              f"(margin ci_low - bound = {report.margin:+.4f})")
    else:
        print(f"  lower bound inapplicable: {bound_note}")
    print(f"  outputs in {out_dir} (runtime {elapsed:.2f}s)")
    if report.passed is False:
        return EXIT_BOUND
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

AuditRuns = Callable[[], list[AuditRun]]


def _suite_contraction(seed: int, runs: AuditRuns) -> dict:
    checks = [r.contraction for r in runs()]
    return {"fired_steps": sum(c.fired_steps for c in checks),
            "min_basic_slack": _finite_or_none(min(c.min_basic_slack for c in checks))}


def _suite_potential_drop(seed: int, runs: AuditRuns) -> dict:
    checks = [r.contraction for r in runs()]
    return {"fired_steps": sum(c.fired_steps for c in checks),
            "min_refined_slack": _finite_or_none(min(c.min_refined_slack for c in checks))}


def _suite_potential(seed: int, runs: AuditRuns) -> dict:
    for run in runs():
        result = check_potential_monotone(run.times, run.states, run.c_points,
                                          run.params.norm)
        if not result.ok:
            raise InvariantViolation(
                "potential-monotone", step=result.step, slack=-result.drift,
                detail=f"summed distance rose by {result.drift:.3e} "
                       f"(reference {result.c_index})")
    return {"states_checked": sum(len(run.states) for run in runs())}


def _suite_triviality(seed: int, runs: AuditRuns) -> dict:
    for run in runs():
        # Once the diameter is within delta, every later state stays trivial.
        delta = max(run.diam.diameter * 2.0, 1e-9)
        times = run.times.tolist()
        trivial = [diameter(x, run.params.norm) <= delta for x in run.states]
        if True in trivial:
            first = trivial.index(True)
            if False in trivial[first:]:
                late = times[first + trivial[first:].index(False)]
                raise InvariantViolation(
                    "triviality-preservation", step=late, slack=0.0,
                    detail=f"trivial at {times[first]} but not at {late}")
    return {"trajectories": len(runs())}


def _suite_geometry(seed: int, runs: AuditRuns) -> dict:
    rng = side_stream(seed, "geometry")
    ball = chebyshev_center(Interval(0.0, 1.0))
    if not (ball.center[0] == 0.5 and ball.radius == 0.5):
        raise InvariantViolation("interval-center", step=0, slack=0.0,
                                 detail=f"got ({ball.center[0]}, {ball.radius})")
    clouds = 0
    for d in (1, 2, 3):
        for _ in range(8):
            pts = rng.random((rng.integers(2, 24), d)) * rng.uniform(0.5, 3.0)
            meb = minimum_enclosing_ball(pts)
            if not meb.contains(pts):
                raise InvariantViolation("enclosing-coverage", step=0, slack=0.0,
                                         detail=f"point escapes ball in d={d}")
            diam = diameter(pts)
            if meb.radius < diam / 2.0 - 1e-9:
                raise InvariantViolation(
                    "radius-lower-bound", step=0, slack=meb.radius - diam / 2.0,
                    detail=f"radius {meb.radius} below diameter/2 {diam / 2.0}")
            if meb.radius > (np.sqrt(3.0) / 2.0) * diam + 1e-9:
                raise InvariantViolation(
                    "radius-upper-bound", step=0,
                    slack=(np.sqrt(3.0) / 2.0) * diam - meb.radius,
                    detail=f"radius {meb.radius} above sqrt(3)/2 * diameter")
            # No alternative center may enclose with a smaller radius.
            for _ in range(20):
                alt = meb.center + rng.normal(scale=0.1 * (meb.radius + 1e-6), size=d)
                alt_radius = float(lengths(pts - alt).max())
                if alt_radius < meb.radius - 1e-9:
                    raise InvariantViolation(
                        "enclosing-minimality", step=0,
                        slack=alt_radius - meb.radius,
                        detail=f"center shift shrinks radius in d={d}")
            clouds += 1
    return {"clouds": clouds}


_SUITE_RUNNERS = {
    "contraction": _suite_contraction,
    "potential-drop": _suite_potential_drop,
    "potential": _suite_potential,
    "triviality": _suite_triviality,
    "geometry": _suite_geometry,
}


def cmd_verify(suite: str, seed: int, out_dir: Path) -> int:
    """Run one named randomized suite (or all); exit 3 with diagnostics on failure.

    All suites but ``geometry`` read ``audit_run`` scenarios 0-11 (2000 steps),
    built once on first request; a violation there counts against that suite.
    """
    names = list(_SUITE_RUNNERS) if suite == "all" else [suite]
    runs = functools.cache(lambda: [audit_run(seed, k, 2000, 50) for k in range(12)])
    for name in names:
        try:
            stats = _SUITE_RUNNERS[name](seed, runs)
        except InvariantViolation as exc:
            record = exc.as_record()
            record["suite"] = name
            record["seed"] = seed
            path = out_dir / "verify-failure.json"
            _write_json(path, record)
            print(f"suite {name}: FAIL ({exc}; diagnostics: {path})")
            return EXIT_INVARIANT
        detail = ", ".join(f"{k}={v}" for k, v in stats.items())
        print(f"suite {name}: PASS ({detail})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deffuant",
        description="Bounded-confidence opinion dynamics: simulate, estimate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} "
                                         "or ./deffuant-out)")
        p.add_argument("--epsilon", type=float, help="override confidence range")
        p.add_argument("--mu", type=float, help="override with a constant rate")
        p.add_argument("--n", type=int, help="override agent count")
        p.add_argument("--horizon", type=int, help="override step budget")

    p_sim = sub.add_parser("simulate", help="run one fully-checked trajectory")
    common(p_sim)

    p_est = sub.add_parser("estimate", help="estimate consensus probability")
    common(p_est)
    p_est.add_argument("--trials", type=int, default=200,
                       help="number of trials (default 200)")
    p_est.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker processes (default: available cores)")
    p_est.add_argument("--per-trial", action="store_true",
                       help="also write per-trial rows to trials.csv")

    p_ver = sub.add_parser("verify", help="run randomized invariant suites")
    p_ver.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out-dir")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out_dir = _resolve_out_dir(args.out_dir)
        if args.command == "simulate":
            config = load_config(args.config, args)
            return cmd_simulate(config, args.seed, out_dir)
        if args.command == "estimate":
            config = load_config(args.config, args)
            return cmd_estimate(config, args.trials, args.seed, out_dir,
                                threads=args.threads, per_trial=args.per_trial)
        return cmd_verify(args.suite, args.seed, out_dir)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
