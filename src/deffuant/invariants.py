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

from .errors import ConfigurationError
from .geometry import farthest_pair
from .graphs import (ConstantGraph, CyclicGraph, EdgeSet, ErdosRenyiGraph, GraphSchedule,
                     complete_edges, is_connected, pair_lengths, path_edges, profile)
from .model import (BLOCK_BYTES, ConstantMu, FiredSteps, ModelParams, OpinionState,
                    SequenceMu, TrajectoryObserver, UniformMu, run_trajectory, seed_streams)
from .norms import cross_distances, lengths

# Tolerances at unit scale; ``scaled_tolerance`` grows them with the numbers checked.
SLACK_TOL = 1e-9
IDENTITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Checks of fired update steps, a block of steps at a time
# ---------------------------------------------------------------------------

def scaled_tolerance(tol: float, *operands: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Per-step bound: ``tol`` times the largest of ``floor`` and each step's
    largest |coordinate| among its ``operands`` (arrays with the steps along
    the first axis).

    A float operation rounds relative to its result, fl(a op b) = (a op b)(1 + e)
    with |e| <= 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2.2), so a bound fixed in absolute terms fails
    correct runs far from the origin.  With every operand in [-1, 1] the
    bound is ``tol`` itself.
    """
    scale = np.full(len(operands[0]), float(floor))
    for op in operands:
        np.maximum(scale, np.abs(op).reshape(len(op), -1).max(axis=1), out=scale)
    return tol * scale


def update_identity_errors(old: np.ndarray, new: np.ndarray, mu: np.ndarray,
                           norm: str = "euclidean"):
    """Errors of the update identities of m fired steps.

    ``old`` and ``new`` (m, 2, d) are rows i and j before and after each step,
    ``mu`` (m,) its reported rate.  Returns, per step, the largest coordinate
    by which the pair sum moved, the distances moved by i and by j (m, 2),
    and the largest coordinate by which i's move misses mu times the gap.
    """
    sum_error = np.abs((old[:, 0] + old[:, 1]) - (new[:, 0] + new[:, 1])).max(axis=1)
    moved = new - old
    gap = old[:, 1] - old[:, 0]
    rate_residual = np.abs(moved[:, 0] - mu[:, None] * gap).max(axis=1)
    return sum_error, lengths(moved, norm), rate_residual


def contraction_slacks(old: np.ndarray, new: np.ndarray, c: np.ndarray,
                       norm: str = "euclidean"):
    """Slacks of the pair contraction inequalities for m fired steps.

    ``old`` and ``new`` (m, 2, d) are rows i and j before and after each step,
    ``c`` (k, d) the reference points.  Returns four arrays, each >= 0 for an
    update with rate in [0, 1/2]:

    basic (m, k):   the pair's summed distance to c before minus after;
    refined (m, k): basic - 2 * (distance moved by i) + 2 * dist(midpoint, c),
                    the bound on the drop of the summed distance of the whole
                    population, of which only the pair moved;
    and basic and refined with the pair's own midpoint as c, (m,) each.
    """
    mid = (old[:, 0] + old[:, 1]) / 2.0
    rows = np.concatenate((old, new, mid[:, None]), axis=1)       # (m, 5, d)
    dist = cross_distances(rows, c, norm)                         # (m, 5, k)
    basic = (dist[:, 0] + dist[:, 1]) - (dist[:, 2] + dist[:, 3])
    disp = lengths(new[:, 0] - old[:, 0], norm)
    refined = basic - 2.0 * disp[:, None] + 2.0 * dist[:, 4]
    # the midpoint as reference: its distance to itself is 0
    r = lengths(rows[:, :4] - mid[:, None], norm)                 # (m, 4)
    basic_mid = (r[:, 0] + r[:, 1]) - (r[:, 2] + r[:, 3])
    return basic, refined, basic_mid, basic_mid - 2.0 * disp


def _first(*failed: np.ndarray) -> int:
    """Index of the first step failing any check, or the number of steps."""
    bad = np.logical_or.reduce(failed)
    return int(bad.argmax()) if bad.any() else len(bad)


@dataclass(frozen=True)
class ContractionReport:
    """Slacks of the pair contraction inequalities at one step.

    basic_slack:   (pair distance-sum to c before) - (after); >= 0.
    refined_slack: same but against the tighter budget that charges the
                   displacement and refunds twice the midpoint's distance
                   to c; >= 0.  Only the pair moves in one step, so this is
                   also the slack of the population's potential-drop bound.
    """

    step: int
    basic_slack: float
    refined_slack: float
    c: np.ndarray


def _pair_rows(state: OpinionState, pair: tuple[int, int]) -> np.ndarray:
    i, j = pair
    n = state.n
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ConfigurationError(f"invalid pair {pair} for n={n}")
    return state.opinions[[i, j]]


def pair_contraction_slacks(
    pre: OpinionState,
    post: OpinionState,
    pair: tuple[int, int],
    c: np.ndarray,
    norm: str = "euclidean",
) -> ContractionReport:
    """Slacks of the two pair inequalities for one interaction step:
    ``contraction_slacks`` of that one step."""
    c = np.asarray(c, dtype=float).ravel()
    basic, refined, _, _ = contraction_slacks(
        _pair_rows(pre, pair)[None], _pair_rows(post, pair)[None], c[None], norm)
    return ContractionReport(step=pre.time, basic_slack=float(basic[0, 0]),
                             refined_slack=float(refined[0, 0]), c=c)


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

    The pair sum is conserved, both agents move by the same distance, the
    reported rate lies in [0, 1/2], and the realized displacement equals the
    reported rate times the pre-step gap.  A step is checked in that order.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.checked = 0
        self.max_sum_error = 0.0
        self.max_displacement_gap = 0.0
        self.max_rate_residual = 0.0

    def after_block(self, steps: FiredSteps):
        mu = steps.mu
        sum_err, moved, resid = update_identity_errors(steps.old, steps.new, mu,
                                                       self.params.norm)
        gap = np.abs(moved[:, 0] - moved[:, 1])
        tol = scaled_tolerance(IDENTITY_TOL, steps.old, steps.new)
        checks = (sum_err > tol, gap > tol, ~((0.0 <= mu) & (mu <= 0.5)), resid > tol)
        k = _first(*checks)
        seen = slice(0, k + 1)   # the extrema include the failing step
        self.max_sum_error = max(self.max_sum_error, float(sum_err[seen].max()))
        self.max_displacement_gap = max(self.max_displacement_gap, float(gap[seen].max()))
        self.max_rate_residual = max(self.max_rate_residual, float(resid[seen].max()))
        self.checked += k
        if k == len(steps):
            return None
        pair = f"pair ({steps.i[k]},{steps.j[k]})"
        if checks[0][k]:
            return steps.violation(k, "pair-sum-conservation", -sum_err[k],
                                   f"{pair} sum moved by {sum_err[k]:.3e}")
        if checks[1][k]:
            return steps.violation(k, "equal-displacement", -gap[k],
                                   f"{pair} moved {moved[k, 0]:.6e} vs {moved[k, 1]:.6e}")
        rate = float(mu[k])
        if checks[2][k]:
            return steps.violation(k, "rate-range", min(rate, 0.5 - rate),
                                   f"reported rate {rate!r}")
        return steps.violation(k, "realized-rate", -resid[k],
                               f"{pair} displacement off rate*gap by {resid[k]:.3e}")


class ContractionObserver(TrajectoryObserver):
    """Checks contraction slacks and potential decay against fixed reference points.

    Every fired step is checked against each reference point and against the
    pair's own midpoint (``contraction_slacks``), O(k d) a step.  The summed
    distance only changes through the pair, so its per-step drift equals
    minus the basic slack.  A block is measured in parts small enough that the
    temporaries stay within BLOCK_BYTES for any number of reference points.
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
        # bytes a step: the (5, k, d) differences and about 14 k floats of
        # distances and slacks
        k, d = cs.shape
        self._chunk = max(1, BLOCK_BYTES // (8 * k * (5 * d + 14)))
        self._c_scale = max(1.0, float(np.abs(cs).max()))

    def _worst(self, old: np.ndarray, new: np.ndarray):
        """Per step: the smallest slack of each kind and, for the reference
        points, which point gave it."""
        basic, refined, basic_mid, refined_mid = contraction_slacks(
            old, new, self.c_points, self.params.norm)
        at_b, at_r = basic.argmin(axis=1), refined.argmin(axis=1)
        steps = np.arange(len(old))
        return at_b, basic[steps, at_b], at_r, refined[steps, at_r], basic_mid, refined_mid

    def after_block(self, steps: FiredSteps):
        old, new = steps.old, steps.new
        parts = [self._worst(old[s:s + self._chunk], new[s:s + self._chunk])
                 for s in range(0, len(steps), self._chunk)]
        at_b, basic, at_r, refined, basic_mid, refined_mid = (
            np.concatenate(p) for p in zip(*parts))
        tol = -scaled_tolerance(SLACK_TOL, old, new, floor=self._c_scale)
        checks = (basic < tol, refined < tol, basic_mid < tol, refined_mid < tol)
        k = _first(*checks)
        seen = slice(0, k + 1)   # the extrema include the failing step
        worst_basic = float(min(basic[seen].min(), basic_mid[seen].min()))
        self.min_basic_slack = min(self.min_basic_slack, worst_basic)
        self.min_refined_slack = min(self.min_refined_slack, float(refined[seen].min()),
                                     float(refined_mid[seen].min()))
        self.max_potential_drift = max(self.max_potential_drift, -worst_basic)
        self.fired_steps += k
        if k == len(steps):
            return None
        pair = f"pair ({steps.i[k]},{steps.j[k]})"
        where = f"reference {at_b[k]}/{at_r[k]}, {pair}"
        if checks[0][k]:
            return steps.violation(k, "pair-contraction", basic[k], f"basic slack at {where}")
        if checks[1][k]:
            return steps.violation(k, "potential-drop", refined[k],
                                   f"refined slack at {where}")
        if checks[2][k]:
            return steps.violation(k, "pair-contraction", basic_mid[k],
                                   f"basic slack at pair midpoint, {pair}")
        return steps.violation(k, "potential-drop", refined_mid[k],
                               f"refined slack at pair midpoint, {pair}")


def _positions(x0: np.ndarray, steps: FiredSteps) -> np.ndarray:
    """(m, n, d) opinions of every agent after each of the m steps, from the
    opinions ``x0`` before the first: each agent keeps the row written by the
    last step that moved it."""
    m, (n, d) = len(steps), x0.shape
    rows = np.tile(np.arange(n), (m, 1))       # row v of x0 until agent v moves
    k = np.arange(m)
    rows[k, steps.i] = n + 2 * k               # then row 2k or 2k + 1 of ``new``
    rows[k, steps.j] = n + 2 * k + 1
    np.maximum.accumulate(rows, axis=0, out=rows)
    return np.concatenate((x0, steps.new.reshape(2 * m, d))).take(rows, axis=0)


class DiameterMonotoneObserver(TrajectoryObserver):
    """Checks the opinion diameter never grows.

    Keeps the exact diameter and one pair of agents at that distance.  A fired
    step moves only agents i and j, so every other distance is unchanged: the
    new diameter is the larger of the old one and the farthest distance from
    i or j.  Only when i or j belongs to the kept pair is the diameter
    measured again over all pairs (``farthest_pair``).  For a block, the
    opinions after each step are filled forward from the block's start,
    O(m n d); rows i and j are measured against them in one call, and the
    steps are then walked in order.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.max_increase = -np.inf
        self.diameter: float = 0.0
        self._pair: tuple[int, int] = (0, 0)
        self._x: Optional[np.ndarray] = None   # opinions before the next block

    def at_start(self, x):
        self._x = x.copy()
        diam, a, b = farthest_pair(self._x, self.params.norm)
        self.diameter, self._pair = diam, (a, b)

    def after_block(self, steps: FiredSteps):
        assert self._x is not None
        norm, n = self.params.norm, len(self._x)
        x = _positions(self._x, steps)
        dist = cross_distances(steps.new, x, norm).reshape(len(steps), 2 * n)
        far = dist.argmax(axis=1)
        tol = scaled_tolerance(IDENTITY_TOL, x, steps.old).tolist()
        diam, (a, b) = self.diameter, self._pair
        for k, (i, j, f, length) in enumerate(zip(
                steps.i.tolist(), steps.j.tolist(), far.tolist(),
                dist[np.arange(len(steps)), far].tolist())):
            if i == a or i == b or j == a or j == b:
                new_diam, a, b = farthest_pair(x[k], norm)
            elif length > diam:
                new_diam, a, b = length, (i, j)[f // n], f % n
            else:
                new_diam = diam
            inc = new_diam - diam
            self.max_increase = max(self.max_increase, inc)
            if inc > tol[k]:
                return steps.violation(k, "diameter-monotone", -inc,
                                       f"diameter rose {diam!r} -> {new_diam!r}")
            diam = new_diam
        self.diameter, self._pair = diam, (a, b)
        self._x = x[-1].copy()
        return None


def _long_edges(x: np.ndarray, pairs: np.ndarray, delta: float,
                params: ModelParams) -> np.ndarray:
    """Flags of the rows of ``pairs`` within the confidence range (the
    profile's exact <= epsilon) but longer than delta.  A state is delta-short
    over E(t) when no row of E(t) is flagged: the one test behind both
    tau_delta and T_delta."""
    dist = pair_lengths(x, pairs, params.norm)
    return (dist <= params.epsilon) & (dist > delta)


def _first_long_edge(x: np.ndarray, pairs: np.ndarray, delta: float,
                     params: ModelParams) -> Optional[int]:
    """Index of the first row of ``pairs`` that ``_long_edges`` flags, or None
    when the state is delta-short over them.

    The rows are measured in chunks that partition them, 64 rows and then
    four times the chunk before, and the search stops at the chunk holding
    the first flagged row: a state that is not short usually shows it in the
    first chunk, and a short one costs one pass over all the rows.
    """
    start, size = 0, 64
    while start < len(pairs):
        long = _long_edges(x, pairs[start:start + size], delta, params)
        if long.any():
            return start + int(long.argmax())
        start, size = start + size, 4 * size
    return None


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

    Until it holds, one edge of E(t) in range but longer than delta, the
    witness, proves that it fails.  The witness stands while neither of its
    agents has moved since it was measured and E(t) holds it (the same
    EdgeSet, or a binary search of another); such a check measures nothing.
    When the witness falls:

    - on an unchanged E(t), the tracker keeps one flag per edge (in range
      but longer than delta), measured in full at the first such loss and
      then only at the edges of the agents moved since the last measurement;
      any flagged edge is the next witness, and the condition holds when
      none is set;
    - on any other E(t), its rows are searched in chunks up to the first
      long edge (``_first_long_edge``), which becomes the witness.

    Once ``time`` is set it does nothing.
    """

    def __init__(self, delta: float, params: ModelParams):
        if not (delta > 0):
            raise ConfigurationError(f"delta must be > 0, got {delta}")
        self.delta = float(delta)
        self.params = params
        self.time: Optional[int] = None
        self._edges: Optional[EdgeSet] = None   # the E(t) of the last check
        self._witness: Optional[tuple[int, int]] = None
        self._long: Optional[np.ndarray] = None  # flags of the rows of _edges
        self._incident: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._moved: set[int] = set()           # agents moved since the flags were measured

    def at_start(self, x):
        self._edges, self._witness, self._long = None, None, None
        self._moved.clear()

    def _holds(self, x: np.ndarray, social_edges: EdgeSet) -> bool:
        pairs = social_edges.array
        if social_edges is not self._edges:
            self._edges, self._long, self._incident = social_edges, None, None
            self._moved.clear()
            if self._witness is not None and self._witness in social_edges:
                return False
            k = _first_long_edge(x, pairs, self.delta, self.params)
        elif self._witness is not None:
            return False
        else:
            if self._long is None:
                self._long = _long_edges(x, pairs, self.delta, self.params)
            elif self._moved:
                if self._incident is None:
                    self._incident = _incidence(pairs, len(x))
                rows, starts = self._incident
                moved = np.concatenate([rows[starts[v]:starts[v + 1]] for v in self._moved])
                # each row once; the stable argsort is the one _incidence runs
                moved = moved.take(np.argsort(moved, kind="stable"))
                moved = moved[np.concatenate(([True], moved[1:] != moved[:-1]))]
                self._long[moved] = _long_edges(x, pairs.take(moved, axis=0), self.delta,
                                                self.params)
            self._moved.clear()
            k = int(self._long.argmax()) if self._long.any() else None
        self._witness = None if k is None else tuple(pairs[k].tolist())
        return k is None

    def before_step(self, t, x, social_edges):
        if self.time is None and self._holds(x, social_edges):
            self.time = t

    def after_step(self, t, i, j, fired, x):
        if fired and self.time is None:
            if self._long is not None:
                self._moved.update((i, j))
            if self._witness is not None and (i in self._witness or j in self._witness):
                self._witness = None

    def at_end(self, t, x, social_edges):
        if self.time is None and self._holds(x, social_edges):
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

    def at_start(self, x):
        self._adj = cross_distances(x, x, self.params.norm) <= self.params.epsilon

    def after_step(self, t, i, j, fired, x):
        if not fired:
            return
        assert self._adj is not None
        rows = cross_distances(x[[i, j]], x, self.params.norm) <= self.params.epsilon
        old = self._adj[[i, j]]
        self.gained_steps += int((rows & ~old).any())
        self.lost_steps += int((old & ~rows).any())
        self._adj[[i, j]] = rows
        self._adj[:, [i, j]] = rows.T


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
    the first state that is not short (each searched up to its first long
    edge, ``_first_long_edge``); connectivity is then tested forward through
    that suffix alone.  Certification is only as strong as the
    horizon and the recording stride.
    """
    if not (delta > 0):
        raise ConfigurationError(f"delta must be > 0, got {delta}")
    times = [int(t) for t in times]
    start = len(times)
    while start > 0:
        t, x = times[start - 1], states[start - 1]
        if _first_long_edge(x, schedule.edges_at(t).array, delta, params) is not None:
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
