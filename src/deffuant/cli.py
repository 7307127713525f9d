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
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .geometry import (
    BallSpace,
    Box,
    Interval,
    OpinionSpace,
    PointCloud,
    chebyshev_center,
    diameter,
    expected_center_distance,
    farthest_pairs,
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
    BLOCK_BYTES,
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
    BOUND_SE_Z,
    TrialConfig,
    bound_comparison_report,
    run_ensemble,
    theoretical_lower_bound,
)
from .norms import lengths
from .values import Record

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


class ExperimentConfig(Record):
    """One experiment, fully resolved: model, space, schedules, run options."""

    _fields = ("n", "params", "space", "graph", "mu", "horizon", "consensus_tol", "deltas",
               "record_stride", "c_samples", "check_every", "initial", "raw")

    def __init__(self, n: int, params: ModelParams, space: OpinionSpace, graph: GraphSchedule,
                 mu: MuSchedule, horizon: int, consensus_tol: float, deltas: list[float],
                 record_stride: Optional[int], c_samples: int, check_every: int,
                 initial: Optional[np.ndarray], raw: Optional[dict[str, Any]] = None):
        self.n, self.params, self.space, self.graph, self.mu = n, params, space, graph, mu
        self.horizon, self.consensus_tol, self.deltas = horizon, consensus_tol, deltas
        self.record_stride, self.c_samples = record_stride, c_samples
        self.check_every, self.initial = check_every, initial
        self.raw = {} if raw is None else raw

    def digest(self, seed: int, trials: Optional[int] = None) -> str:
        payload = dict(self.raw)
        payload["seed"] = seed
        if trials is not None:
            payload["trials"] = trials
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _edges_from_json(pairs: Any) -> EdgeSet:
    if not isinstance(pairs, list):
        raise ConfigurationError("edge list must be a JSON array of [i, j] pairs")
    for pair in pairs:
        # bool is an int subclass, so test the exact type
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)):
            raise ConfigurationError(f"edge {pair!r} is not a pair of integer vertices")
    return EdgeSet(tuple(pair) for pair in pairs)


def _piecewise_from_mapping(mapping: Any, n: int) -> PiecewiseGraph:
    if not isinstance(mapping, dict):
        raise ConfigurationError("a piecewise graph must map steps to edge lists")
    entries = sorted((int(step), pairs) for step, pairs in mapping.items())
    return PiecewiseGraph(n, tuple((step, _edges_from_json(pairs))
                                   for step, pairs in entries))


def _graph_from_file(data: dict, n: int) -> PiecewiseGraph:
    # open() takes an int as a file descriptor: 0 would read stdin
    if not isinstance(data["path"], str):
        raise ConfigurationError(f"graph path must be a string, got {data['path']!r}")
    with open(data["path"]) as fh:
        return _piecewise_from_mapping(json.load(fh), n)


def _build_kind(section: str, kinds: dict[str, tuple[tuple[str, ...], Callable]],
                data: dict, *args):
    """The ``section`` object of ``data["kind"]``: ``kinds`` maps each kind to
    its keys besides ``kind`` and its builder, called with ``data, *args``."""
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"unknown {section} kind {kind!r}")
    keys, build = kinds[kind]
    _reject_unknown(data, {"kind", *keys}, section)
    return build(data, *args)


_SPACE_KINDS = {
    "interval": (("a", "b"), lambda d: Interval(_real(d.get("a", 0.0), "a"),
                                                _real(d.get("b", 1.0), "b"))),
    "box": (("lower", "upper"), lambda d: Box(_reals(d["lower"], "lower"),
                                              _reals(d["upper"], "upper"))),
    "ball": (("center", "radius", "norm"), lambda d: BallSpace(
        _reals(d["center"], "center"), _real(d["radius"], "radius"), d.get("norm", "euclidean"))),
    "cloud": (("points",), lambda d: PointCloud(_reals(d["points"], "points", rows=True))),
}
_GRAPH_KINDS = {
    "complete": ((), lambda d, n: ConstantGraph(n, complete_edges(n))),
    "path": ((), lambda d, n: ConstantGraph(n, path_edges(n))),
    "edges": (("pairs",), lambda d, n: ConstantGraph(n, _edges_from_json(d["pairs"]))),
    "erdos_renyi": (("p",), lambda d, n: ErdosRenyiGraph(n, _real(d["p"], "p"))),
    "cyclic": (("members",), lambda d, n: CyclicGraph(
        n, tuple(_edges_from_json(pairs) for pairs in d["members"]))),
    "piecewise": (("steps",), lambda d, n: _piecewise_from_mapping(d["steps"], n)),
    "from_file": (("path",), _graph_from_file),
}
_MU_KINDS = {
    "constant": (("value",), lambda d: ConstantMu(_real(d["value"], "mu value"))),
    "uniform": (("low", "high"), lambda d: UniformMu(_real(d["low"], "low"),
                                                     _real(d["high"], "high"))),
    "sequence": (("values",), lambda d: SequenceMu(tuple(_real(v, "mu value")
                                                         for v in d["values"]))),
}
_build_graph = functools.partial(_build_kind, "graph", _GRAPH_KINDS)


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

    for key in ("epsilon", "n", "horizon"):
        if getattr(overrides, key, None) is not None:
            raw[key] = getattr(overrides, key)
    if getattr(overrides, "mu", None) is not None:
        raw["mu"] = {"kind": "constant", "value": overrides.mu}
    try:
        return _build_config(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)) from None
    except MemoryError as exc:
        raise _too_big(exc) from None


def _too_big(exc: MemoryError) -> ConfigurationError:
    # numpy refuses at once an array far beyond the machine: a huge n's opinions or pairs
    return ConfigurationError(f"the config asks for more memory than there is: {exc}")


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


def _real(value: Any, what: str) -> float:
    """A JSON number as a float; a bool or a string is rejected rather than
    read as 1.0 or parsed."""
    if type(value) not in (int, float):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _reals(value: Any, what: str, rows: bool = False) -> np.ndarray:
    """A JSON array of numbers as a float array, each element checked as
    ``_real`` checks a scalar; with ``rows``, an array of such arrays of one
    length (one a point) is read as an (n, d) array too.  Nothing is
    flattened."""
    if not isinstance(value, list):
        raise ConfigurationError(f"{what} must be a JSON array of numbers, got {value!r}")
    if rows and value and all(isinstance(row, list) for row in value):
        points = [_reals(row, what) for row in value]
        if len({len(p) for p in points}) != 1:
            raise ConfigurationError(f"the rows of {what} must have one length")
        return np.array(points)
    return np.array([_real(v, what) for v in value], dtype=float)


def _build_config(raw: dict[str, Any]) -> ExperimentConfig:
    n = _count(raw, "n")
    dimension = _count(raw, "dimension")
    np.empty((n, dimension))   # every command holds the n opinions; too many raise MemoryError
    params = ModelParams(epsilon=_real(raw["epsilon"], "epsilon"), dimension=dimension,
                         norm=str(raw["norm"]))
    for key in ("space", "graph", "mu"):
        if not isinstance(raw[key], dict):
            raise ConfigurationError(f"{key} must be a JSON object")
    space = _build_kind("space", _SPACE_KINDS, raw["space"])
    if space.dimension != dimension:
        raise ConfigurationError(
            f"space dimension {space.dimension} != configured dimension {dimension}")
    if isinstance(space, BallSpace) and space.norm != params.norm:
        raise ConfigurationError(
            f"space is a ball in norm {space.norm!r}, the model measures in {params.norm!r}")
    graph = _build_graph(raw["graph"], n)
    mu = _build_kind("mu", _MU_KINDS, raw["mu"])
    deltas = [_real(d, "delta") for d in (raw["deltas"] or [])]
    if any(d <= 0 for d in deltas):
        raise ConfigurationError(f"deltas must be > 0, got {deltas}")
    horizon = _count(raw, "horizon")
    stride = (max(1, horizon // 1000) if raw["record_stride"] is None
              else _count(raw, "record_stride"))
    check_every = _count(raw, "check_every")
    consensus_tol = _real(raw["consensus_tol"], "consensus_tol")
    c_samples, most = _count(raw, "c_samples"), ContractionObserver.max_points(dimension)
    if c_samples > most:
        raise ConfigurationError(
            f"c_samples must be at most {most} in dimension {dimension}, got {c_samples}")
    if not (consensus_tol > 0):
        raise ConfigurationError(f"consensus_tol must be > 0, got {consensus_tol}")
    initial = None
    if raw["initial"] is not None:
        initial = _reals(raw["initial"], "initial", rows=True)
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
        deltas=deltas, record_stride=stride, c_samples=c_samples,
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


def _write_csv(path: Path, header: list[str], slices) -> None:
    """Write ``header`` and the already formatted ``slices`` of rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(slices)


def _sliced(count: int, fields: int, lines: Callable[[int, int], Any]):
    """The rows ``lines(lo, hi)`` of units lo .. hi - 1 (rows, or states of
    rows) of ``count`` units of ``fields`` fields, each slice as one string:
    a field's text, its row's and the slice's string take at most about 64
    bytes of Python objects, so a slice holds about BLOCK_BYTES."""
    size = max(1, BLOCK_BYTES // (64 * fields))
    for lo in range(0, count, size):
        yield "\n".join(lines(lo, min(lo + size, count))) + "\n"


def _floats(values: np.ndarray) -> list[str]:
    """The repr of each float of ``values``, in order, each distinct bit pattern
    (so -0.0 apart from 0.0) formatted once: converging agents repeat values."""
    bits, index = np.unique(values.view(np.uint64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, index.ravel().tolist()))


def _ints(values) -> list[str]:
    """CSV fields of integers, an empty field for each None."""
    return ["" if v is None else str(v) for v in values]


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite_or_none(value: float) -> Optional[float]:
    return float(value) if np.isfinite(value) else None


def _write_violation(path: Path, exc: InvariantViolation, **extra) -> Path:
    """The record of ``exc`` with the keys of ``extra`` added, written to ``path``."""
    _write_json(path, {**exc.as_record(), **extra})
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
        path = _write_violation(out_dir / "violation.json", exc, seed=seed,
                                config_digest=digest)
        print(f"invariant violation at step {exc.step}: {exc} "
              f"(diagnostics: {path})", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed = time.perf_counter() - t0

    d = config.params.dimension
    # column by column, each by its known type: floats by repr; agents index
    # ``agents``, whose last text, the empty field, is that of agent -1 (no edge)
    times, states, events = trajectory.times, trajectory.states, trajectory.events
    n = states.shape[1]
    agents = [str(agent) for agent in range(n)] + [""]

    def state_lines(lo: int, hi: int):
        return map(",".join, zip(
            [step for step in map(str, times[lo:hi].tolist()) for _ in range(n)],
            agents[:n] * (hi - lo), *(_floats(states[lo:hi, :, k]) for k in range(d))))

    def event_lines(lo: int, hi: int):
        rows = events[lo:hi]
        return map(",".join, zip(map(str, range(lo, hi)),
                                 map(agents.__getitem__, rows["i"].tolist()),
                                 map(agents.__getitem__, rows["j"].tolist()),
                                 map(("0", "1").__getitem__, rows["fired"].tolist()),
                                 _floats(rows["mu"])))

    _write_csv(out_dir / "states.csv", ["step", "agent_id"] + [f"x{k}" for k in range(d)],
               _sliced(len(times), n * (2 + d), state_lines))
    _write_csv(out_dir / "events.csv", ["step", "i", "j", "fired", "mu"],
               _sliced(len(events), 5, event_lines))

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
    try:   # the classifier profiles all pairs, whatever the graph
        complete_edges(config.n).array
    except MemoryError as exc:
        raise _too_big(exc) from None
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
    epsilon = config.params.epsilon
    expected_dist = expected_se = bound = tested = None
    if epsilon > ball.radius:   # else the bound is inapplicable and needs no E
        expected_dist, expected_se = expected_center_distance(
            config.space, ball.center, norm=config.params.norm, rng=side_stream(seed, "bound"))
        bound = theoretical_lower_bound(epsilon, ball, expected_dist)
        tested = theoretical_lower_bound(epsilon, ball,
                                         expected_dist + BOUND_SE_Z * expected_se)
    report = bound_comparison_report(estimate, bound, tested)

    payload = {
        "config_digest": digest,
        "master_seed": seed,
        "n_trials": trials,
        "p_hat": estimate.p_hat,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "counts": ensemble.counts,
        "center": [float(v) for v in ball.center],
        "radius": ball.radius,
        "expected_center_distance": expected_dist,
        "expected_center_distance_se": expected_se,
        "bound": report.bound,
        "tested_bound": report.tested_bound,
        "tested_bound_z": None if bound is None else BOUND_SE_Z,
        "bound_applicable": bound is not None,
        "margin": report.margin,
        "passed": report.passed,
    }
    _write_json(out_dir / "ensemble.json", payload)
    if per_trial:
        rows = ensemble.rows
        _write_csv(
            out_dir / "trials.csv",
            ["trial_index", "verdict", "decided_at", "final_diameter", "tau_delta"],
            _sliced(len(rows), 5, lambda lo, hi: map(",".join, zip(
                map(str, range(lo, hi)),
                (r.outcome.verdict.value for r in rows[lo:hi]),
                _ints(r.outcome.decided_at for r in rows[lo:hi]),
                _floats(np.array([r.outcome.final_diameter for r in rows[lo:hi]])),
                _ints(r.tau_delta for r in rows[lo:hi])))),
        )

    print(f"estimate: p_hat={estimate.p_hat:.4f} "
          f"[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}] over {trials} trials "
          f"({estimate.n_undecided} undecided)")
    if bound is not None:
        state = "consistent" if report.passed else "CONTRADICTED"
        at_se = (f", tested at E + {BOUND_SE_Z:g} se: {report.tested_bound:.6g}"
                 if expected_se else "")
        print(f"  lower bound {bound:.6g}: {state} "
              f"(margin ci_low - bound = {report.margin:+.4f}{at_se})")
    else:
        print(f"  lower bound inapplicable: it needs epsilon > enclosing radius, got "
              f"epsilon={epsilon}, radius={ball.radius}")
    print(f"  outputs in {out_dir} (runtime {elapsed:.2f}s)")
    if report.passed is False:
        return EXIT_BOUND
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

AuditRuns = Callable[[], list[AuditRun]]


def _suite_min_slack(slack: str, seed: int, runs: AuditRuns) -> dict:
    """The fired steps of the live contraction checks and their least ``slack``
    (``min_basic_slack`` or ``min_refined_slack``)."""
    checks = [r.contraction for r in runs()]
    return {"fired_steps": sum(c.fired_steps for c in checks),
            slack: _finite_or_none(min(getattr(c, slack) for c in checks))}


def _suite_potential(seed: int, runs: AuditRuns) -> dict:
    for run in runs():
        violation = check_potential_monotone(run.times, run.states, run.c_points,
                                             run.params.norm)
        if violation is not None:
            raise violation
    return {"states_checked": sum(len(run.states) for run in runs())}


def _suite_triviality(seed: int, runs: AuditRuns) -> dict:
    for run in runs():
        # Once the diameter is within delta, every later state stays trivial.
        delta = max(run.diam.diameter * 2.0, 1e-9)
        times = run.times.tolist()
        trivial = [diam <= delta for diam, _, _ in farthest_pairs(run.states, run.params.norm)]
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
    "contraction": functools.partial(_suite_min_slack, "min_basic_slack"),
    "potential-drop": functools.partial(_suite_min_slack, "min_refined_slack"),
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
            path = _write_violation(out_dir / "verify-failure.json", exc, suite=name,
                                    seed=seed)
            print(f"suite {name}: FAIL ({exc}; diagnostics: {path})")
            return EXIT_INVARIANT
        detail = ", ".join(f"{k}={v}" for k, v in stats.items())
        print(f"suite {name}: PASS ({detail})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _available_cores() -> int:
    """The cores this process may run on: its affinity mask where the platform
    has one (``os.cpu_count`` counts cores the mask may exclude)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    p_est.add_argument("--threads", type=int, default=_available_cores(),
                       help="workers; this process runs one share of the trials and "
                            "forks one child per other worker (default: the cores this "
                            "process may run on)")
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
