"""Trial ensembles: outcome classification, consensus probability, bound checks.

A trial draws initial opinions, runs the pairwise-averaging process, and
classifies the outcome with finite-horizon sound criteria:

(a) the opinion diameter is within consensus_tol: consensus reached;
(b) the diameter is within the confidence range AND the schedule is
    connected infinitely often AND inf mu > 0: with every pair in range the
    profile equals the social graph forever, and persistent connected
    averaging contracts to a point, so consensus is certain;
(c) the opinion graph splits into components whose convex hulls are
    certified more than epsilon apart: updates keep each component inside
    its own hull, so the components can never re-enter the confidence
    range and consensus is impossible.

Anything else stays Undecided: the consensus event lives at infinite
horizon and a finite run can only under-approximate it.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, NoReturn, Optional

import numpy as np

from .errors import BoundInapplicableError, ConfigurationError
from .geometry import Ball, OpinionSpace, diameter
from .graphs import GraphSchedule, _all_pairs_array, connected_components, profile
from .invariants import StoppingTimeTracker
from .model import (
    ModelParams,
    MuSchedule,
    OpinionState,
    TrajectoryObserver,
    run_trajectory,
    seed_streams,
)
from .values import Frozen, Record

WILSON_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# A trial that stops early has the engine's blocks end at least STOP_EVERY steps
# apart: a block costs about 20 steps, a stop inside one the steps past it.
STOP_EVERY = 100


class Verdict(str, Enum):
    CONSENSUS = "consensus"
    DISSENSUS = "dissensus"
    UNDECIDED = "undecided"


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """Everything one trial needs; master_seed + trial_index fix its randomness."""

    n: int
    params: ModelParams
    space: OpinionSpace
    graph_schedule: GraphSchedule
    mu_schedule: MuSchedule
    horizon: int
    consensus_tol: float = 1e-6
    master_seed: int = 0
    trial_index: int = 0
    track_delta: Optional[float] = None
    check_every: int = 100

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if not (self.consensus_tol > 0):
            raise ConfigurationError(f"consensus_tol must be > 0, got {self.consensus_tol}")
        if self.n < 1:
            raise ConfigurationError(f"need n >= 1, got {self.n}")
        if self.graph_schedule.n != self.n:
            raise ConfigurationError(
                f"schedule is over {self.graph_schedule.n} vertices, config n={self.n}")
        if self.space.dimension != self.params.dimension:
            raise ConfigurationError(
                f"space dimension {self.space.dimension} != model dimension "
                f"{self.params.dimension}")
        if self.track_delta is not None and not (self.track_delta > 0):
            raise ConfigurationError(f"track_delta must be > 0, got {self.track_delta}")
        if self.check_every < 1:
            raise ConfigurationError(f"check_every must be >= 1, got {self.check_every}")


class TrialOutcome(NamedTuple):
    verdict: Verdict
    decided_at: Optional[int]
    final_diameter: float


class TrialResult(NamedTuple):
    outcome: TrialOutcome
    tau_delta: Optional[int]
    steps_run: int


# ---------------------------------------------------------------------------
# Hull separation certificates
# ---------------------------------------------------------------------------

def _euclidean_gap_lower_bound(a: np.ndarray, b: np.ndarray, at_most: Optional[float]) -> float:
    """Certified lower bound on the euclidean distance between two convex hulls.

    Frank-Wolfe minimizes ||p - q|| over the two hulls tracking only w = p - q;
    the returned value min_a <a, u> - max_b <b, u> for the unit direction
    u = w/||w|| never exceeds the true hull distance, so a positive return
    is a certificate of separation regardless of convergence.  For at_most
    see ``certified_hull_gap``.
    """
    stop = -1.0   # the squared ||w|| that ends the loop: none without at_most
    if at_most is not None and len(a) + len(b) < 2**19 and a.shape[1] <= 16:
        limit = at_most - 2.0**-30 * (at_most + float(abs(a).max()) + float(abs(b).max()))
        stop = limit * limit if limit > 0 else stop   # none for a NaN or inf
    w = a.mean(axis=0) - b.mean(axis=0)
    for k in range(256):   # the margin of at_most allows for 256 updates
        if not k & (k - 1) and w @ w <= stop:   # after k = 0, 1, 2, 4, ... updates
            return 0.0
        va = a[(a @ w).argmin()]
        vb = b[(b @ w).argmax()]
        dw = (va - vb) - w
        denom = float(dw @ dw)
        if denom <= 1e-30:
            break
        gamma = -float(w @ dw) / denom
        if gamma <= 0.0:
            break
        w = w + min(1.0, gamma) * dw
    length = float(np.sqrt(w @ w))
    if length <= 1e-15:
        return 0.0
    u = w / length
    return float((a @ u).min() - (b @ u).max())


def certified_hull_gap(a: np.ndarray, b: np.ndarray, norm: str = "euclidean",
                       at_most: Optional[float] = None) -> float:
    """Lower bound on the distance between the convex hulls of two point sets.

    Exact in 1D; in higher dimension a euclidean certificate is scaled by
    the worst-case norm ratio, so the result under-approximates but never
    overstates the true gap in the requested norm.

    at_most = e asks only whether the result exceeds e: it does exactly when
    the result without at_most does, with the same bits.  Otherwise it may be
    0.0, from the first Frank-Wolfe iterate w (tested after 0, 1, 2, 4, ...
    updates) with computed ||w|| <= e - 2^-30 (e + M), M = max|a| + max|b|.
    The full run's result is then <= e too (Higham, Accuracy and Stability of
    Numerical Algorithms, 2.2, 3.1): w is within 2^-31 M of hull(a) - hull(b),
    the means rounding by n 2^-53 sqrt(d) M (n < 2^19 points, d <= 16; larger
    sets run in full) and each of 256 updates by 8 2^-53 sqrt(d) M; and a
    certificate overshoots by at most (d + 3) 2^-53 (e + 2 sqrt(d) M).
    Under linf the test is conservative: g2 / sqrt(d) <= g2.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ConfigurationError("hull gap needs point sets of equal dimension")
    d = a.shape[1]
    if d == 1:
        gap = max(b.min() - a.max(), a.min() - b.max())
        return float(max(gap, 0.0))
    g2 = _euclidean_gap_lower_bound(a, b, at_most)
    if g2 <= 0.0:
        return 0.0
    if norm == "linf":
        return g2 / float(np.sqrt(d))
    return g2  # euclidean; also valid for l1, which dominates it


# ---------------------------------------------------------------------------
# Outcome classification
# ---------------------------------------------------------------------------

class OutcomeClassifier(TrajectoryObserver):
    """Watches a run and records the first sound verdict.

    Classification runs at the start, at each multiple of config.check_every
    (on a block's state at that step), and at the end; any check, the last
    too, is skipped when no update fired since the one before (same state,
    verdict and diameter).  Both consensus criteria are monotone in the
    nonincreasing diameter and the dissensus criterion is absorbing, so
    periodic checking never flips a verdict, it only delays decided_at.
    """

    def __init__(self, config: TrialConfig):
        self.config = config
        self._conn_io = config.graph_schedule.connected_infinitely_often
        self._mu_inf = config.mu_schedule.inf_positive
        self.verdict: Optional[Verdict] = None
        self.decided_at: Optional[int] = None
        self.final_diameter: float = float("nan")
        self._checked_at = 0   # the step of the last check
        self._fired_at = -1    # the last fired step seen

    def _verdict(self, x: np.ndarray) -> Optional[Verdict]:
        """The sound verdict for opinions x, from all pairs, or None; records their diameter."""
        params = self.config.params
        diam = self.final_diameter = diameter(x, params.norm)
        if diam <= self.config.consensus_tol:
            return Verdict.CONSENSUS
        if diam <= params.epsilon:
            return Verdict.CONSENSUS if self._conn_io and self._mu_inf else None
        n = self.config.n
        comps = connected_components(profile(x, _all_pairs_array(n), params)[0], n)
        if len(comps) == 1:
            return None
        clusters = [x[np.asarray(c, dtype=int)] for c in comps]
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                gap = certified_hull_gap(clusters[ai], clusters[bi], params.norm,
                                         at_most=params.epsilon)
                if gap <= params.epsilon:
                    return None
        return Verdict.DISSENSUS

    def _check(self, x: np.ndarray, t: int):
        verdict = self._verdict(x)
        self._checked_at = t
        if verdict is not None and self.verdict is None:
            self.verdict = verdict
            self.decided_at = t

    def at_start(self, x):
        self.verdict, self.decided_at, self._fired_at = None, None, -1   # _check sets the rest
        self._check(x, 0)

    def after_block(self, steps):
        every, fired = self.config.check_every, steps.t
        c = (steps.start // every + 1) * every   # the first multiple in the block
        while self.verdict is None and c <= steps.stop:
            k = int(np.searchsorted(fired, c))   # the fired steps before c
            if (fired[k - 1] if k else self._fired_at) >= self._checked_at:
                self._check(steps.state_at(c), c)
                c += every
            elif k < len(fired):   # on to the first multiple after the next fired step
                c = (int(fired[k]) // every + 1) * every
            else:
                break
        if len(fired):
            self._fired_at = int(fired[-1])
        return None

    def at_end(self, t, x, social_edges):
        if self._fired_at >= self._checked_at:
            self._check(x, t)

    def outcome(self) -> TrialOutcome:
        return TrialOutcome(
            verdict=self.verdict if self.verdict is not None else Verdict.UNDECIDED,
            decided_at=self.decided_at,
            final_diameter=self.final_diameter,
        )


# ---------------------------------------------------------------------------
# Trials and ensembles
# ---------------------------------------------------------------------------

def run_trial(config: TrialConfig, *, early_stop: bool = True) -> TrialResult:
    """Run one trial: fresh initial opinions, classification, and optionally tau.

    With early_stop a trial halts once the verdict is in (and, when a delta
    is tracked, the stopping time is found): at decided_at, or at tau + 1
    when that is later, as if the rule were asked at the top of every step.
    Until then the rule is asked at least STOP_EVERY steps apart, and before
    the verdict at multiples of check_every, where it can come.  Otherwise
    the full horizon runs.
    """
    # keyed by trial index, so the trial count never shifts a trial's streams
    init_rng, dyn_rng, graph_seed = seed_streams(config.master_seed, config.trial_index)
    schedule = config.graph_schedule.reseeded(graph_seed)
    initial = OpinionState(0, config.space.sample(init_rng, config.n))
    classifier = OutcomeClassifier(config)
    observers: list[TrajectoryObserver] = [classifier]
    tracker: Optional[StoppingTimeTracker] = None
    if config.track_delta is not None:
        tracker = StoppingTimeTracker(config.track_delta, config.params)
        observers.append(tracker)

    stop_at = None
    if early_stop:
        def stop_at(t: int) -> int:
            every = config.check_every
            if classifier.verdict is None:
                return -(-(t + STOP_EVERY) // every) * every
            if tracker is None:
                return classifier.decided_at
            return t + STOP_EVERY if tracker.time is None else max(classifier.decided_at,
                                                                   tracker.time + 1)

    trajectory = run_trajectory(
        initial, schedule, config.mu_schedule, config.params, config.horizon,
        dyn_rng, observers=observers, record_stride=None, record_events=False,
        stop_condition=stop_at,
    )
    return TrialResult(
        outcome=classifier.outcome(),
        tau_delta=tracker.time if tracker is not None else None,
        steps_run=trajectory.steps_run,
    )


def _run_share(configs: list[TrialConfig]) -> tuple[list[TrialResult], Optional[tuple]]:
    """Run ``configs`` in order until one fails: their rows, and the failing
    trial's (index, exception) or None.  ``run_trial`` is looked up when it
    runs, so a wrapper put in its place runs in every worker."""
    rows = []
    for config in configs:
        try:
            rows.append(run_trial(config))
        except Exception as exc:
            return rows, (config.trial_index, exc)
    return rows, None


def _worker(configs: list[TrialConfig], write: int) -> NoReturn:
    """A forked worker: run its share, write it to ``write`` as one pickle,
    and end with ``os._exit``, so that no atexit handler runs and no
    inherited stdio buffer is flushed.  A failure that does not survive
    pickling is sent as a RuntimeError with its repr."""
    status = 1
    try:
        rows, failure = _run_share(configs)
        try:
            payload = pickle.dumps((rows, failure))
            if failure is not None:
                pickle.loads(payload)   # an exception need not rebuild from its args
        except Exception:
            k, exc = failure
            payload = pickle.dumps((rows, (k, RuntimeError(f"trial {k} raised {exc!r}"))))
        with open(write, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (good coverage near 0/1)."""
    if trials < 0 or not (0 <= successes <= max(trials, 0)):
        raise ConfigurationError(f"bad counts: {successes}/{trials}")
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = max(0.0, float(center - half))
    hi = min(1.0, float(center + half))
    # the exact endpoints always bracket p; keep that under rounding
    return min(lo, p), max(hi, p)


class ConsensusEstimate(Frozen):
    """Consensus fraction with its Wilson 95% interval.

    Undecided trials count in the denominator but not the numerator, which
    can only understate the consensus probability; safe when the point is
    to challenge a lower bound.
    """

    __slots__ = _fields = ("p_hat", "ci_low", "ci_high", "n_trials", "n_undecided")

    def __init__(self, p_hat: float, ci_low: float, ci_high: float, n_trials: int,
                 n_undecided: int):
        if not (0.0 <= ci_low <= p_hat <= ci_high <= 1.0):
            raise ConfigurationError(f"estimate out of order: {ci_low}, {p_hat}, {ci_high}")
        self._set(p_hat=p_hat, ci_low=ci_low, ci_high=ci_high, n_trials=n_trials,
                  n_undecided=n_undecided)

    @property
    def std_error(self) -> float:
        if self.n_trials == 0:
            return float("inf")
        return float(np.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_trials))


class EnsembleResult(Record):
    _fields = ("estimate", "counts", "rows")

    def __init__(self, estimate: ConsensusEstimate, counts: dict[str, int],
                 rows: list[TrialResult]):   # trial k at index k
        self.estimate, self.counts, self.rows = estimate, counts, rows


def run_ensemble(
    template: TrialConfig,
    n_trials: int,
    workers: int = 1,
) -> EnsembleResult:
    """Run independent trials indexed 0..n_trials-1 under the template's
    master_seed and aggregate verdicts.

    With w = min(workers, n_trials) workers, trial k runs in worker k % w.
    Worker 0 is this process; workers 1 to w - 1 are ``os.fork`` children,
    each of which runs its share in trial order and sends back its rows and
    its first failure as one pickle on a pipe.  Where ``os.fork`` does not
    exist every trial runs in this process.  Each trial's streams are keyed
    by its index and ``rows`` keeps trial order, so the worker count changes
    wall time but never the output.  A failure raises what the serial run
    raises, the exception of the lowest failing trial; a worker that ends
    without sending its share raises RuntimeError.  No child outlives the
    call.
    """
    if n_trials < 1:
        raise ConfigurationError(f"need n_trials >= 1, got {n_trials}")
    if workers < 1:
        raise ConfigurationError(f"need workers >= 1, got {workers}")
    configs = [dataclasses.replace(template, trial_index=k) for k in range(n_trials)]
    w = min(workers, n_trials) if hasattr(os, "fork") else 1
    reads: dict[int, int] = {}   # worker -> the read end of its pipe
    pids: dict[int, int] = {}    # worker -> its pid, until reaped
    try:
        for worker in range(1, w):
            reads[worker], write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(configs[worker::w], write)   # never returns
                pids[worker] = pid
            finally:
                os.close(write)
        shares = {0: _run_share(configs[0::w])}
        for worker, pid in list(pids.items()):
            with open(reads[worker], "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[worker]
            if code != 0 or not payload:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
                raise RuntimeError(f"trial worker {worker} (pid {pid}) {how} "
                                   "without sending its trials")
            shares[worker] = pickle.loads(payload)
    finally:
        for read in reads.values():
            os.close(read)
        if pids:
            import signal   # only a call that ends early has children left to stop

            for pid in pids.values():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
    failures = [failure for _, failure in shares.values() if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows: list = [None] * n_trials
    for worker, (share, _) in shares.items():
        rows[worker::w] = share

    counts = {v.value: 0 for v in Verdict}
    for row in rows:
        counts[row.outcome.verdict.value] += 1
    n_consensus = counts[Verdict.CONSENSUS.value]
    ci_low, ci_high = wilson_interval(n_consensus, n_trials)
    estimate = ConsensusEstimate(
        p_hat=n_consensus / n_trials,
        ci_low=ci_low,
        ci_high=ci_high,
        n_trials=n_trials,
        n_undecided=counts[Verdict.UNDECIDED.value],
    )
    return EnsembleResult(estimate=estimate, counts=counts, rows=rows)


# ---------------------------------------------------------------------------
# The lower bound and its comparison report
# ---------------------------------------------------------------------------

def theoretical_lower_bound(epsilon: float, ball: Ball, expected_dist: float) -> float:
    """Consensus-probability lower bound max(0, 1 - E d(X, center)/(eps - radius)).

    Only meaningful when the confidence range exceeds the enclosing radius;
    otherwise the hypothesis fails and the bound is inapplicable rather
    than zero.
    """
    if not (epsilon > ball.radius):
        raise BoundInapplicableError(
            f"bound needs epsilon > enclosing radius, got epsilon={epsilon}, "
            f"radius={ball.radius}")
    if expected_dist < 0:
        raise ConfigurationError(f"expected distance must be >= 0, got {expected_dist}")
    return float(max(0.0, 1.0 - expected_dist / (epsilon - ball.radius)))


# ``estimate`` tests ci_high against the bound at E + BOUND_SE_Z se, where E
# is a Monte Carlo mean with standard error se (a euclidean box of d >= 3, a
# ball measured off its centre; an exact E has se = 0).  A mean of 200 000
# draws is close to normal, so the bound's own sampling error puts the tested
# bound above the bound at the true E with probability about Phi(-3) = 0.13 %:
# a contradiction (exit 4) then rests on the ensemble, whose Wilson interval
# spends 5 %, and not on the draws of E.  It lowers the tested bound by at
# most 3 se / (epsilon - r), and se is about 3.1e-4 on the unit cube.
BOUND_SE_Z = 3.0


class BoundReport(Frozen):
    """A ``ConsensusEstimate`` vs a theoretical lower bound; passed means no
    contradiction of ``tested_bound``."""

    __slots__ = _fields = ("bound", "margin", "passed", "tested_bound")

    def __init__(self, bound: Optional[float], margin: Optional[float],
                 passed: Optional[bool], tested_bound: Optional[float] = None):
        self._set(bound=bound, margin=margin, passed=passed, tested_bound=tested_bound)


def bound_comparison_report(estimate: ConsensusEstimate, bound: Optional[float],
                            tested_bound: Optional[float] = None) -> BoundReport:
    """Compare the Monte Carlo estimate with a lower bound (None = inapplicable).

    The data contradict the bound only when the entire confidence interval
    sits below ``tested_bound``: the bound itself by default, or a bound
    lowered for the error of its own inputs (``BOUND_SE_Z``).  margin is how
    far ci_low clears the bound.
    """
    if bound is None:
        return BoundReport(bound=None, margin=None, passed=None)
    b = float(bound)
    tested = b if tested_bound is None else float(tested_bound)
    return BoundReport(bound=b, margin=estimate.ci_low - b,
                       passed=bool(estimate.ci_high >= tested), tested_bound=tested)
