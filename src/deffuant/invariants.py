"""Trajectory invariants: pairwise contraction, potential decay, stopping times.

Every averaging update with rate in [0, 1/2] pulls the interacting pair
toward each other without moving their sum, so for any reference point c the
pair's total distance to c cannot grow, and the summed distance of the whole
population to c is nonincreasing.  The checkers here measure the slack of
those inequalities on live trajectories and raise InvariantViolation when a
slack dips below tolerance.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .geometry import farthest_pair, farthest_pairs
from .graphs import (ConstantGraph, CyclicGraph, EdgeSet, ErdosRenyiEdges, ErdosRenyiGraph,
                     GraphSchedule, complete_edges, is_connected, pair_lengths,
                     path_edges, profile)
from .model import (BLOCK_BYTES, ConstantMu, FiredSteps, ModelParams, OpinionState,
                    SequenceMu, TrajectoryObserver, UniformMu, run_trajectory, seed_streams)
from .norms import cross_distances, lengths
from .values import Frozen, Record

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


def check_potential_monotone(
    times: Sequence[int],
    states: Sequence[np.ndarray],
    c_samples: np.ndarray,
    norm: str = "euclidean",
) -> Optional[InvariantViolation]:
    """The first recorded state whose summed distance to a sampled c rose
    above the state before, as a violation, or None.

    ``states`` holds (n, d) opinion arrays recorded at the steps ``times``.
    """
    cs = np.atleast_2d(np.asarray(c_samples, dtype=float))
    if len(states) < 2:
        return None
    prev = cross_distances(states[0], cs, norm).sum(axis=0)
    for t, x in zip(times[1:], states[1:]):
        cur = cross_distances(x, cs, norm).sum(axis=0)
        worst = int(np.argmax(cur - prev))
        rise = float(cur[worst] - prev[worst])
        if rise > SLACK_TOL:
            return InvariantViolation(
                "potential-monotone", step=int(t), slack=-rise,
                detail=f"summed distance rose by {rise:.3e} (reference {worst})")
        prev = cur
    return None


def lattice_points(lower: np.ndarray, upper: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` points, in row-major order, of a mesh spanning the
    box [lower, upper] with ceil(count ** (1/d)) points an axis.  At d >= 2
    they need not cover the box: at count 10 axis 0 stops at 2/3 of it at
    d = 2 and at 1/2 at d = 3."""
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
        if not len(steps):
            return None
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
        k, d = cs.shape
        self._chunk = max(1, self.max_points(d) // k)
        self._c_scale = max(1.0, float(np.abs(cs).max()))

    @staticmethod
    def max_points(d: int) -> int:
        """The most reference points whose temporaries for one step, the
        (5, k, d) differences and about 14 k floats of distances and slacks,
        fit in BLOCK_BYTES."""
        return BLOCK_BYTES // (8 * (5 * d + 14))

    def _worst(self, old: np.ndarray, new: np.ndarray):
        """Per step: the smallest slack of each kind and, for the reference
        points, which point gave it."""
        basic, refined, basic_mid, refined_mid = contraction_slacks(
            old, new, self.c_points, self.params.norm)
        at_b, at_r = basic.argmin(axis=1), refined.argmin(axis=1)
        steps = np.arange(len(old))
        return at_b, basic[steps, at_b], at_r, refined[steps, at_r], basic_mid, refined_mid

    def after_block(self, steps: FiredSteps):
        if not len(steps):
            return None
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


class DiameterMonotoneObserver(TrajectoryObserver):
    """Checks the opinion diameter never grows.

    Keeps the exact diameter and one pair of agents at that distance.  A fired
    step moves only agents i and j, so every other distance is unchanged: the
    new diameter is the larger of the old one and the farthest distance from
    i or j.  Only when i or j belongs to the kept pair is the diameter
    measured again over all pairs.  For a block, rows i and j are measured
    against the opinions after each step (``FiredSteps.states``, O(m n d),
    gathered through the index that also gives ``old``) in one call, and the
    steps are then walked in order.  A re-measurement at step k measures the
    states after steps k .. k + w - 1 in one call (``farthest_pairs``), w as
    many as fit in _WINDOW_FLOATS (w = 1 once n^2 d exceeds it), and a later
    one inside that window reads its result.
    """

    _WINDOW_FLOATS = 1 << 13

    def __init__(self, params: ModelParams):
        self.params = params
        self.max_increase = -np.inf
        self.diameter: float = 0.0
        self._pair: tuple[int, int] = (0, 0)

    def at_start(self, x):
        diam, a, b = farthest_pair(x, self.params.norm)
        self.diameter, self._pair = diam, (a, b)

    def after_block(self, steps: FiredSteps):
        if not len(steps):
            return None
        norm, n = self.params.norm, len(steps.x0)
        x = steps.states[1:]
        dist = cross_distances(steps.new, x, norm).reshape(len(steps), 2 * n)
        far = dist.argmax(axis=1)
        tol = scaled_tolerance(IDENTITY_TOL, x, steps.old).tolist()
        diam, (a, b) = self.diameter, self._pair
        window = max(1, self._WINDOW_FLOATS // (n * x[0].size))
        first, measured = 0, ()   # farthest pairs of the states after steps first, ...
        for k, (i, j, f, length) in enumerate(zip(
                steps.i.tolist(), steps.j.tolist(), far.tolist(),
                dist[np.arange(len(steps)), far].tolist())):
            if i == a or i == b or j == a or j == b:
                if not k - first < len(measured):
                    first = k
                    measured = farthest_pairs(x[k:k + window], norm)
                new_diam, a, b = measured[k - first]
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
        return None


def _long_edges(x: np.ndarray, pairs: np.ndarray, delta: float,
                params: ModelParams) -> np.ndarray:
    """Flags of the rows of ``pairs`` within the confidence range (the
    profile's exact <= epsilon) but longer than delta, in a state x (n, d) or
    in each state of a stack (k, n, d).  A state is delta-short over E(t) when
    no row of E(t) is flagged: the one test behind both tau_delta and T_delta."""
    dist = pair_lengths(x, pairs, params.norm)
    return (dist <= params.epsilon) & (dist > delta)


def _long_rows(x: np.ndarray, edges: EdgeSet, delta: float, params: ModelParams,
               member: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """The rows of ``edges`` that ``_long_edges`` flags in a state x, from the
    first chunk holding one that ``member`` keeps (flags of rows; any, when
    None); empty when the state is delta-short over the rows it keeps.

    The chunks partition the rows, 64 rows and then four times the chunk
    before, up to BLOCK_BYTES of temporaries (6 + 3 d words a row): a state
    that is not short usually shows it in the first chunk, and a short one
    costs one pass over all the rows (``edges.take``).
    """
    start, size, most = 0, 64, BLOCK_BYTES // (8 * (3 * x.shape[-1] + 6))
    while start < len(edges):
        chunk = np.arange(start, min(start + size, len(edges)))
        rows = start + np.flatnonzero(_long_edges(x, edges.take(chunk), delta, params))
        if len(rows) and (member is None or member(rows).any()):
            return rows
        start, size = start + len(chunk), max(64, min(4 * size, most))
    return np.empty(0, dtype=np.intp)


class StoppingTimeTracker(TrajectoryObserver):
    """tau(delta): the first step whose opinions have every social edge within
    the confidence range short.

    Step t is tested on the opinions at its top against E(t), and the final
    opinions once more at ``at_end``; ``time`` stays None if the run ends
    before the condition holds.  Once it is set nothing more is tested.

    A block's steps are grouped by E(t) object; no complete or Erdos-Renyi
    E(t) is built (rows by ``take``, membership by ``members``).  An EdgeSet
    is tested once per state of the block, an Erdos-Renyi E(t) at every step.
    It keeps up to _CANDIDATES candidate rows, all of an E(t) that has no
    more, else the long rows the last search found (``_long_rows``), and
    measures them once per state (few among many agents from their
    endpoints' rows alone, ``FiredSteps.rows``) over 128 steps, then four
    times as many, up to BLOCK_BYTES // (32 r) steps of r candidates.  A
    step where no candidate is long and in E(t) is tau if they are all of
    E(t), else it is searched: it is tau, or its long rows replace them.
    """

    _CANDIDATES = 64

    def __init__(self, delta: float, params: ModelParams):
        if not (delta > 0):
            raise ConfigurationError(f"delta must be > 0, got {delta}")
        self.delta = float(delta)
        self.params = params
        self.time: Optional[int] = None
        self._pairs: Optional[EdgeSet] = None   # the edge set the candidates index
        self._rows = np.empty(0, dtype=np.intp)    # the candidates, rows of _pairs
        self._held = np.empty((0, 2), dtype=np.intp)   # their (i, j) pairs

    def at_start(self, x):
        self.time, self._pairs = None, None

    def _first_short(self, edges: EdgeSet, ts: np.ndarray, steps: FiredSteps) -> Optional[int]:
        """The first of the steps ``ts`` (ascending, in the block ``steps``)
        whose E(t) is ``edges`` (any E(t) of the schedule, for Erdos-Renyi)
        and whose opinions have no long row in E(t); None if each has one."""
        graph = edges.graph if isinstance(edges, ErdosRenyiEdges) else None
        pairs = edges if graph is None else complete_edges(graph.n)
        states = np.searchsorted(steps.t, ts)   # the state at the top of each step
        k, size = 0, 128
        while k < len(ts):
            if self._pairs is not pairs:   # new candidates
                if len(pairs) <= self._CANDIDATES:
                    rows = np.arange(len(pairs))
                else:   # step k is tau or shows long rows
                    member = None if graph is None else partial(graph.members, int(ts[k]))
                    rows = _long_rows(steps.state_at(int(ts[k])), pairs, self.delta,
                                      self.params, member)
                    if not len(rows):
                        return int(ts[k])
                    k += 1
                self._pairs, self._rows = pairs, rows[:self._CANDIDATES]
                self._held = pairs.take(self._rows)
                continue
            end = k + min(size, max(1, BLOCK_BYTES // (32 * max(1, len(self._rows)))))
            size *= 4
            seen, at = states[k:end], slice(None)   # an EdgeSet's states are distinct
            if graph is not None:
                seen, at = np.unique(seen, return_inverse=True)
            held = self._held
            if 8 * len(held) >= len(steps.x0):
                x = steps.states.take(seen, axis=0)
            else:   # few candidates of many agents: only their endpoints' rows
                x = steps.rows(held.reshape(-1), seen[:, None])   # (k, 2r, d): i, j, ...
                held = np.arange(2 * len(held)).reshape(-1, 2)
            found = _long_edges(x, held, self.delta, self.params)[at]
            if graph is not None:
                found &= graph.members(ts[k:end, None], self._rows)
            found = found.any(axis=1)
            first = int(found.argmin())
            if found[first]:
                k += len(found)
                continue
            k += first
            if len(self._rows) == len(pairs):   # every row was measured
                return int(ts[k])
            self._pairs = None
        return None

    def after_block(self, steps: FiredSteps):
        if self.time is not None:
            return None
        fired = steps.t
        # the steps to test for each E(t): an EdgeSet's once per state, at
        # the block's start and after each fired step; Erdos-Renyi's each
        groups: dict[int, tuple[EdgeSet, list[np.ndarray]]] = {}
        for (a, edges), b in zip(steps.edges, [s for s, _ in steps.edges[1:]] + [steps.stop]):
            ts = (np.arange(a, b) if isinstance(edges, ErdosRenyiEdges) else
                  np.append(a, fired[np.searchsorted(fired, a):np.searchsorted(fired, b - 1)] + 1))
            groups.setdefault(id(edges), (edges, []))[1].append(ts)
        found = [self._first_short(edges, np.concatenate(ts), steps)
                 for edges, ts in groups.values()]
        self.time = min((t for t in found if t is not None), default=None)
        return None

    def at_end(self, t, x, social_edges):
        if self.time is None:
            none = np.empty(0, dtype=np.intp)
            self.after_block(FiredSteps(t, t + 1, x, none, none, none, np.empty(0),
                                        np.empty((0, 2, x.shape[1])), ((t, social_edges),)))


class OpinionGraphChangeCounter(TrajectoryObserver):
    """Counts fired steps where confidence-range edges appear or disappear.

    Purely observational: edge appearance is possible (an update can pull a
    third agent into range), so no monotonicity is asserted here.  A fired
    step changes only the edges at i and j, so it is read from their
    distances to every agent just before and just after it.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gained_steps = 0
        self.lost_steps = 0

    def after_block(self, steps: FiredSteps):
        if not len(steps):
            return None
        norm, eps = self.params.norm, self.params.epsilon
        before = cross_distances(steps.old, steps.states[:-1], norm) <= eps
        after = cross_distances(steps.new, steps.states[1:], norm) <= eps
        self.gained_steps += int((after & ~before).any(axis=(1, 2)).sum())
        self.lost_steps += int((before & ~after).any(axis=(1, 2)).sum())
        return None


# ---------------------------------------------------------------------------
# Stopping times over recorded trajectories
# ---------------------------------------------------------------------------

class StoppingTimeRecord(Frozen):
    """Stopping times for one threshold delta over a finite run.

    tau_delta is the first step whose pre-step profile had all edges short;
    T_delta is the first recorded step from which the profile is connected
    and stays short through the horizon.  Both are None when not reached;
    T_delta is certified only up to the horizon, so it is always flagged
    censored.
    """

    __slots__ = _fields = ("delta", "tau_delta", "T_delta", "horizon", "censored")

    def __init__(self, delta: float, tau_delta: Optional[int], T_delta: Optional[int],
                 horizon: int, censored: bool = True):
        if tau_delta is not None and T_delta is not None:
            if not (tau_delta <= T_delta <= horizon):
                raise ConfigurationError(f"stopping times out of order: tau={tau_delta}, "
                                         f"T={T_delta}, horizon={horizon}")
        self._set(delta=delta, tau_delta=tau_delta, T_delta=T_delta, horizon=horizon,
                  censored=censored)


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
    the first state that is not short.  Consecutive states that share one
    E(t) object are measured together (``_long_edges`` on a stack), as many
    at once as keep the temporaries within BLOCK_BYTES; a state alone (at
    large n, or on an Erdos-Renyi schedule, whose E(t) is new at every step)
    is searched up to its first long edge (``_long_rows``).
    Connectivity is then tested forward through that suffix alone, over all
    rows of E(t) (a complete graph's table); only the E(t) of the states
    measured is held.  Certification is only as strong as the horizon and
    the recording stride.
    """
    if not (delta > 0):
        raise ConfigurationError(f"delta must be > 0, got {delta}")
    times = [int(t) for t in times]
    start = len(times)
    while start > 0:
        shared = schedule.edges_at(times[start - 1])
        # a state's bytes: per row, the two gathered rows and their difference
        # (3 d floats) and about three floats of lengths and flags
        per_call = max(1, BLOCK_BYTES // (8 * max(1, len(shared)) * (3 * params.dimension + 3)))
        lo = start - 1
        while lo > 0 and start - lo < per_call and schedule.edges_at(times[lo - 1]) is shared:
            lo -= 1
        if lo == start - 1:
            long = [len(_long_rows(states[lo], shared, delta, params)) > 0]
        else:
            long = _long_edges(np.asarray(states[lo:start]), shared.array, delta,
                               params).any(axis=1).tolist()
        if any(long):
            start = lo + 1 + max(k for k, flag in enumerate(long) if flag)
            break
        start = lo
    for t, x in zip(times[start:], states[start:]):
        if is_connected(profile(x, schedule.edges_at(t).array, params)[0], len(x)):
            return t
    return None


# ---------------------------------------------------------------------------
# Random audited scenarios
# ---------------------------------------------------------------------------

class AuditRun(Record):
    """One random scenario run under the full audit, as built by ``audit_run``."""

    _fields = ("params", "c_points", "identity", "contraction", "diam", "times", "states")

    def __init__(self, params: ModelParams, c_points: np.ndarray,
                 identity: UpdateIdentityObserver, contraction: ContractionObserver,
                 diam: DiameterMonotoneObserver, times: np.ndarray, states: np.ndarray):
        self.params, self.c_points = params, c_points
        self.identity, self.contraction, self.diam = identity, contraction, diam
        self.times, self.states = times, states


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
