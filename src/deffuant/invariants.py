"""Trajectory invariants: pairwise contraction, potential decay, stopping times.

Every averaging update with rate in [0, 1/2] pulls the interacting pair
toward each other without moving their sum, so for any reference point c the
pair's total distance to c cannot grow, and the summed distance of the whole
population to c is nonincreasing.  The checkers here measure the slack of
those inequalities on live trajectories and raise InvariantViolation when a
slack dips below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .geometry import distance_potential, farthest_pair
from .graphs import (ConstantGraph, CyclicGraph, EdgeSet, ErdosRenyiGraph, GraphSchedule,
                     complete_edges, is_connected, pair_lengths, path_edges, profile)
from .model import (ConstantMu, ModelParams, OpinionState, SequenceMu, TrajectoryObserver,
                    UniformMu, run_trajectory, seed_streams)
from .norms import cross_distances, distances_to_point, rowwise_norm, vector_norm

SLACK_TOL = 1e-9
IDENTITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Pure single-step checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    """Slacks of the pair contraction inequalities at one step.

    basic_slack:   (pair distance-sum to c before) - (after); >= 0.
    refined_slack: same but against the tighter budget that charges the
                   displacement and refunds twice the midpoint's distance
                   to c; >= 0.
    """

    step: int
    basic_slack: float
    refined_slack: float
    c: np.ndarray


def _pair_rows(state: OpinionState, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    i, j = pair
    n = state.n
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ConfigurationError(f"invalid pair {pair} for n={n}")
    return state.opinions[i], state.opinions[j]


def pair_contraction_slacks(
    pre: OpinionState,
    post: OpinionState,
    pair: tuple[int, int],
    c: np.ndarray,
    norm: str = "euclidean",
) -> ContractionReport:
    """Slacks of the two pair inequalities for one interaction step."""
    c = np.asarray(c, dtype=float).ravel()
    xi0, xj0 = _pair_rows(pre, pair)
    xi1, xj1 = _pair_rows(post, pair)
    lhs = vector_norm(xi1 - c, norm) + vector_norm(xj1 - c, norm)
    rhs = vector_norm(xi0 - c, norm) + vector_norm(xj0 - c, norm)
    disp = vector_norm(xi0 - xi1, norm)
    mid = (xi0 + xj0) / 2.0
    refined_rhs = rhs - 2.0 * disp + 2.0 * vector_norm(mid - c, norm)
    return ContractionReport(
        step=pre.time,
        basic_slack=float(rhs - lhs),
        refined_slack=float(refined_rhs - lhs),
        c=c,
    )


def potential_drop_slack(
    pre: OpinionState,
    post: OpinionState,
    pair: tuple[int, int],
    c: np.ndarray,
    norm: str = "euclidean",
) -> float:
    """Slack of the per-step potential decrement bound.

    The drop of the summed distance to c must cover twice the displacement
    of one updated agent minus twice the pair midpoint's distance to c.
    """
    c = np.asarray(c, dtype=float).ravel()
    z_pre = distance_potential(pre.opinions, c, norm)
    z_post = distance_potential(post.opinions, c, norm)
    xi0, xj0 = _pair_rows(pre, pair)
    xi1, _ = _pair_rows(post, pair)
    disp = vector_norm(xi0 - xi1, norm)
    mid = (xi0 + xj0) / 2.0
    return float((z_pre - z_post) - 2.0 * (disp - vector_norm(mid - c, norm)))


@dataclass(frozen=True)
class MonotoneResult:
    ok: bool
    step: Optional[int] = None
    c_index: Optional[int] = None
    drift: Optional[float] = None


def check_potential_monotone(
    times: Sequence[int],
    states: Sequence[np.ndarray],
    c_samples: np.ndarray,
    norm: str = "euclidean",
) -> MonotoneResult:
    """Check the summed distance to each sampled c never rises between states.

    ``states`` holds (n, d) opinion arrays recorded at the steps ``times``.
    """
    cs = np.atleast_2d(np.asarray(c_samples, dtype=float))
    if len(states) < 2:
        return MonotoneResult(ok=True)
    prev = cross_distances(states[0], cs, norm).sum(axis=0)
    for t, x in zip(times[1:], states[1:]):
        cur = cross_distances(x, cs, norm).sum(axis=0)
        drift = cur - prev
        worst = int(np.argmax(drift))
        if drift[worst] > SLACK_TOL:
            return MonotoneResult(ok=False, step=int(t), c_index=worst,
                                  drift=float(drift[worst]))
        prev = cur
    return MonotoneResult(ok=True)


def lattice_points(lower: np.ndarray, upper: np.ndarray, count: int) -> np.ndarray:
    """(count, d) mesh of reference points covering the box [lower, upper]."""
    lo = np.asarray(lower, dtype=float).ravel()
    hi = np.asarray(upper, dtype=float).ravel()
    if lo.shape != hi.shape or not np.all(lo <= hi):
        raise ConfigurationError("lattice needs lower <= upper of equal length")
    if count < 1:
        raise ConfigurationError(f"lattice count must be >= 1, got {count}")
    d = lo.shape[0]
    per_axis = int(np.ceil(count ** (1.0 / d)))
    axes = [np.linspace(lo[k], hi[k], per_axis) if hi[k] > lo[k] else np.array([lo[k]])
            for k in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[:count] if mesh.shape[0] >= count else mesh


# ---------------------------------------------------------------------------
# Observers
# ---------------------------------------------------------------------------

class UpdateIdentityObserver(TrajectoryObserver):
    """Checks the algebraic identities of every fired update.

    The pair sum is conserved, both agents move by the same distance, and
    the realized displacement equals the reported rate times the pre-step
    gap (the rate itself is validated to [0, 1/2] at the schedule).
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.checked = 0
        self.max_sum_error = 0.0
        self.max_displacement_gap = 0.0
        self.max_rate_residual = 0.0

    def after_step(self, t, i, j, fired, mu, xi_old, xj_old, x, social_edges):
        if not fired:
            return
        norm = self.params.norm
        xi1, xj1 = x[i], x[j]
        sum_err = float(np.max(np.abs((xi_old + xj_old) - (xi1 + xj1))))
        self.max_sum_error = max(self.max_sum_error, sum_err)
        if sum_err > IDENTITY_TOL:
            raise InvariantViolation("pair-sum-conservation", step=t, slack=-sum_err,
                                     detail=f"pair ({i},{j}) sum moved by {sum_err:.3e}")
        di = vector_norm(xi1 - xi_old, norm)
        dj = vector_norm(xj1 - xj_old, norm)
        gap_err = abs(di - dj)
        self.max_displacement_gap = max(self.max_displacement_gap, gap_err)
        if gap_err > IDENTITY_TOL:
            raise InvariantViolation("equal-displacement", step=t, slack=-gap_err,
                                     detail=f"pair ({i},{j}) moved {di:.6e} vs {dj:.6e}")
        if not (0.0 <= mu <= 0.5):
            raise InvariantViolation("rate-range", step=t, slack=min(mu, 0.5 - mu),
                                     detail=f"reported rate {mu!r}")
        resid = float(np.max(np.abs((xi1 - xi_old) - mu * (xj_old - xi_old))))
        self.max_rate_residual = max(self.max_rate_residual, resid)
        if resid > IDENTITY_TOL:
            raise InvariantViolation("realized-rate", step=t, slack=-resid,
                                     detail=f"pair ({i},{j}) displacement off "
                                            f"rate*gap by {resid:.3e}")
        self.checked += 1


class ContractionObserver(TrajectoryObserver):
    """Checks contraction slacks and potential decay against fixed reference points.

    Distances from every agent to each reference point are cached; a fired
    step only recomputes the two touched rows, so the per-step checks stay
    O(k d).  The midpoint of the interacting pair is also used as an extra
    per-step reference.  The summed distance only changes through the pair,
    so its per-step drift equals minus the basic slack.
    """

    def __init__(self, c_points: np.ndarray, params: ModelParams):
        cs = np.atleast_2d(np.asarray(c_points, dtype=float))
        if cs.shape[1] != params.dimension:
            raise ConfigurationError(
                f"reference points have d={cs.shape[1]}, model d={params.dimension}")
        self.c_points = cs
        self.params = params
        self.fired_steps = 0
        self.min_basic_slack = np.inf
        self.min_refined_slack = np.inf
        self.max_potential_drift = -np.inf
        self._dist: Optional[np.ndarray] = None  # (n, k) agent-to-reference distances

    def at_start(self, state: OpinionState):
        self._dist = cross_distances(state.opinions, self.c_points, self.params.norm)

    def _register(self, t, basic: float, refined: float, where: str):
        self.min_basic_slack = min(self.min_basic_slack, basic)
        self.min_refined_slack = min(self.min_refined_slack, refined)
        self.max_potential_drift = max(self.max_potential_drift, -basic)
        if basic < -SLACK_TOL:
            raise InvariantViolation("pair-contraction", step=t, slack=basic,
                                     detail=f"basic slack at {where}")
        if refined < -SLACK_TOL:
            raise InvariantViolation("potential-drop", step=t, slack=refined,
                                     detail=f"refined slack at {where}")

    def after_step(self, t, i, j, fired, mu, xi_old, xj_old, x, social_edges):
        if not fired:
            return
        assert self._dist is not None
        norm = self.params.norm
        pre_rows = self._dist[i] + self._dist[j]  # (k,)
        mid = (xi_old + xj_old) / 2.0
        rows = cross_distances(np.stack((x[i], x[j], mid)), self.c_points, norm)
        new_i, new_j, d_mid = rows[0], rows[1], rows[2]
        post_rows = new_i + new_j
        disp = vector_norm(x[i] - xi_old, norm)

        basic = pre_rows - post_rows
        refined = basic - 2.0 * disp + 2.0 * d_mid
        worst_b = int(np.argmin(basic))
        worst_r = int(np.argmin(refined))
        self._register(t, float(basic[worst_b]), float(refined[worst_r]),
                       f"reference {worst_b}/{worst_r}, pair ({i},{j})")

        # Using the pair midpoint as reference: its distance to itself is 0.
        r = rowwise_norm(np.stack((xi_old - mid, xj_old - mid, x[i] - mid, x[j] - mid)), norm)
        b_mid = (r[0] + r[1]) - (r[2] + r[3])
        self._register(t, float(b_mid), float(b_mid - 2.0 * disp),
                       f"pair midpoint, pair ({i},{j})")

        self._dist[i] = new_i
        self._dist[j] = new_j
        self.fired_steps += 1


class DiameterMonotoneObserver(TrajectoryObserver):
    """Checks the opinion diameter never grows.

    Keeps the exact diameter and one pair of agents at that distance.  A fired
    step moves only agents i and j, so every other distance is unchanged: the
    new diameter is the larger of the old one and the farthest distance from
    i or j, an O(n d) measurement.  Only when i or j belongs to the kept pair
    is the diameter measured again over all pairs.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.max_increase = -np.inf
        self.diameter: float = 0.0
        self._pair: tuple[int, int] = (0, 0)

    def at_start(self, state: OpinionState):
        diam, a, b = farthest_pair(state.opinions, self.params.norm)
        self.diameter, self._pair = diam, (a, b)

    def after_step(self, t, i, j, fired, mu, xi_old, xj_old, x, social_edges):
        if not fired:
            return
        if i in self._pair or j in self._pair:
            new_diam, a, b = farthest_pair(x, self.params.norm)
        else:
            rows = cross_distances(x[np.array((i, j))], x, self.params.norm)
            k = int(rows.argmax())
            new_diam, (a, b) = self.diameter, self._pair
            if rows.flat[k] > new_diam:
                new_diam, a, b = float(rows.flat[k]), (i, j)[k // len(x)], k % len(x)
        inc = new_diam - self.diameter
        self.max_increase = max(self.max_increase, inc)
        if inc > IDENTITY_TOL:
            raise InvariantViolation("diameter-monotone", step=t, slack=-inc,
                                     detail=f"diameter rose {self.diameter!r} -> {new_diam!r}")
        self.diameter, self._pair = new_diam, (a, b)


def _long_edges(x: np.ndarray, pairs: np.ndarray, delta: float,
                params: ModelParams) -> np.ndarray:
    """Flags of the rows of ``pairs`` within the confidence range (the
    profile's exact <= epsilon) but longer than delta.  A state is delta-short
    over E(t) when no row of E(t) is flagged: the one test behind both
    tau_delta and T_delta."""
    lengths = pair_lengths(x, pairs, params.norm)
    return (lengths <= params.epsilon) & (lengths > delta)


def _incidence(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex -> edge index of an (m, 2) edge array: the rows at vertex v are
    ``rows[starts[v]:starts[v + 1]]``."""
    ends = pairs.ravel()
    rows = np.argsort(ends, kind="stable") // 2
    starts = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
    return rows, starts


class StoppingTimeTracker(TrajectoryObserver):
    """First time every social edge within the confidence range is short.

    The condition is evaluated on the pre-step state against that step's
    social edges, and once more on the final state; ``time`` stays None if
    the run ends before the condition holds.

    The tracker keeps one flag per edge of the last E(t) it measured (in
    range but longer than delta); the condition holds when none is set.  A
    fired step moves only its two agents, so while E(t) stays the same object
    the next check measures again only the edges at the agents that moved.
    Any other E(t) is measured in full.  Once ``time`` is set it does nothing.
    """

    def __init__(self, delta: float, params: ModelParams):
        if not (delta > 0):
            raise ConfigurationError(f"delta must be > 0, got {delta}")
        self.delta = float(delta)
        self.params = params
        self.time: Optional[int] = None
        self._edges: Optional[EdgeSet] = None   # the E(t) the flags describe
        self._long = np.zeros(0, dtype=bool)
        self._incident: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._moved: set[int] = set()           # agents moved since the last check

    def at_start(self, state: OpinionState):
        self._edges = None
        self._moved.clear()

    def _holds(self, x: np.ndarray, social_edges: EdgeSet) -> bool:
        pairs = social_edges.array
        if social_edges is not self._edges:
            self._edges, self._incident = social_edges, None
            self._long = _long_edges(x, pairs, self.delta, self.params)
        elif self._moved:
            if self._incident is None:
                self._incident = _incidence(pairs, len(x))
            rows, starts = self._incident
            moved = np.concatenate([rows[starts[v]:starts[v + 1]] for v in self._moved])
            self._long[moved] = _long_edges(x, pairs.take(moved, axis=0), self.delta,
                                            self.params)
        self._moved.clear()
        return not self._long.any()

    def before_step(self, t, x, social_edges):
        if self.time is None and self._holds(x, social_edges):
            self.time = t

    def after_step(self, t, i, j, fired, mu, xi_old, xj_old, x, social_edges):
        if fired and self.time is None:
            self._moved.update((i, j))

    def at_end(self, t, state, social_edges):
        if self.time is None and self._holds(state.opinions, social_edges):
            self.time = t


class OpinionGraphChangeCounter(TrajectoryObserver):
    """Counts steps where confidence-range edges appear or disappear.

    Purely observational: edge appearance is possible (an update can pull a
    third agent into range), so no monotonicity is asserted here.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gained_steps = 0
        self.lost_steps = 0
        self._adj: Optional[np.ndarray] = None

    def at_start(self, state: OpinionState):
        d = cross_distances(state.opinions, state.opinions, self.params.norm)
        self._adj = d <= self.params.epsilon

    def after_step(self, t, i, j, fired, mu, xi_old, xj_old, x, social_edges):
        if not fired:
            return
        assert self._adj is not None
        norm, eps = self.params.norm, self.params.epsilon
        gained = lost = False
        for a in (i, j):
            row = distances_to_point(x, x[a], norm) <= eps
            old = self._adj[a]
            gained = gained or bool(np.any(row & ~old))
            lost = lost or bool(np.any(old & ~row))
            self._adj[a, :] = row
            self._adj[:, a] = row
        self.gained_steps += int(gained)
        self.lost_steps += int(lost)


# ---------------------------------------------------------------------------
# Stopping times over recorded trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoppingTimeRecord:
    """Stopping times for one threshold delta over a finite run.

    tau_delta is the first step whose pre-step profile had all edges short;
    T_delta is the first recorded step from which the profile is connected
    and stays short through the horizon.  Both are None when not reached;
    T_delta is certified only up to the horizon, so it is always flagged
    censored.
    """

    delta: float
    tau_delta: Optional[int]
    T_delta: Optional[int]
    horizon: int
    censored: bool = True

    def __post_init__(self):
        if self.tau_delta is not None and self.T_delta is not None:
            if not (self.tau_delta <= self.T_delta <= self.horizon):
                raise ConfigurationError(
                    f"stopping times out of order: tau={self.tau_delta}, "
                    f"T={self.T_delta}, horizon={self.horizon}")


def settle_time(
    times: Sequence[int],
    states: Sequence[np.ndarray],
    schedule: GraphSchedule,
    delta: float,
    params: ModelParams,
) -> Optional[int]:
    """First recorded time with a connected profile that stays short afterward.

    Each recorded (n, d) state is paired with the social edges active at its
    own step in ``times``.  Only the delta-short suffix of the states can
    hold T_delta, so it is found first, scanning back from the last state to
    the first state that is not short; connectivity is then tested forward
    through that suffix alone.  Certification is only as strong as the
    horizon and the recording stride.
    """
    if not (delta > 0):
        raise ConfigurationError(f"delta must be > 0, got {delta}")
    times = [int(t) for t in times]
    start = len(times)
    while start > 0:
        t, x = times[start - 1], states[start - 1]
        if _long_edges(x, schedule.edges_at(t).array, delta, params).any():
            break
        start -= 1
    for t, x in zip(times[start:], states[start:]):
        if is_connected(profile(x, schedule.edges_at(t).array, params)[0], len(x)):
            return t
    return None


# ---------------------------------------------------------------------------
# Random audited scenarios
# ---------------------------------------------------------------------------

@dataclass
class AuditRun:
    """One random scenario run under the full audit, as built by ``audit_run``."""

    params: ModelParams
    c_points: np.ndarray
    identity: UpdateIdentityObserver
    contraction: ContractionObserver
    diam: DiameterMonotoneObserver
    times: np.ndarray
    states: np.ndarray


def audit_run(seed: int, k: int, steps: int, record_stride: int) -> AuditRun:
    """Run random scenario k of ``seed`` under all three audits (which raise
    InvariantViolation on the first failed check).

    n = 10 uniform opinions in [0, 1)^d, d = 1 + k % 3; epsilon 0.4, 0.8, 1.2 by
    (k // 4) % 3; graph complete, G(10, 1/2), cycling complete/path, or path by
    k % 4; rate 1/2, uniform on [0.1, 1/2], or the sequence 0.5..0.1 by (k // 2) % 3.
    """
    init_rng, dyn_rng, graph_seed = seed_streams(seed, k)
    n, d = 10, 1 + k % 3
    params = ModelParams(epsilon=(0.4, 0.8, 1.2)[(k // 4) % 3], dimension=d)
    x0 = init_rng.random((n, d))
    schedule = (
        ConstantGraph(n, complete_edges(n)),
        ErdosRenyiGraph(n, 0.5, seed=graph_seed),
        CyclicGraph(n, (complete_edges(n), path_edges(n))),
        ConstantGraph(n, path_edges(n)),
    )[k % 4]
    mu = (ConstantMu(0.5), UniformMu(0.1, 0.5),
          SequenceMu((0.5, 0.4, 0.3, 0.2, 0.1)))[(k // 2) % 3]
    c_points = lattice_points(x0.min(axis=0), x0.max(axis=0), 10)
    identity = UpdateIdentityObserver(params)
    contraction = ContractionObserver(c_points, params)
    diam = DiameterMonotoneObserver(params)
    trajectory = run_trajectory(
        OpinionState(0, x0), schedule, mu, params, steps, dyn_rng,
        observers=[identity, contraction, diam], record_stride=record_stride,
        record_events=False)
    return AuditRun(params=params, c_points=c_points, identity=identity,
                    contraction=contraction, diam=diam, times=trajectory.times,
                    states=trajectory.states)
