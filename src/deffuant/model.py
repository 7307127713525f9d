"""Core state and single-step update of the pairwise bounded-confidence model.

Agents hold opinions in R^d. At each time step one edge of the current social
graph is selected uniformly at random; if the endpoints' opinions are within
the confidence threshold ``epsilon`` they move toward each other:

    x_i' = x_i + mu(t) * (x_j - x_i)
    x_j' = x_j + mu(t) * (x_i - x_j)

with mu(t) in [0, 1/2]. Both the social graph and mu may change every step;
they are supplied as schedules so that runs replay deterministically from a
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .norms import scalar_length, validate_norm

if TYPE_CHECKING:
    from .graphs import EdgeSet, GraphSchedule


# ---------------------------------------------------------------------------
# Parameters and schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Run-wide model parameters.

    epsilon: confidence threshold (> 0), in opinion units.
    dimension: opinion space dimension d >= 1.
    norm: which norm measures opinion distance.
    """

    epsilon: float
    dimension: int = 1
    norm: str = "euclidean"

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ConfigurationError(f"dimension must be a positive integer, got {self.dimension}")
        validate_norm(self.norm)


class MuSchedule:
    """Per-step convergence parameter mu(t) in [0, 1/2]."""

    def mu_at(self, t: int, rng: np.random.Generator) -> float:
        raise NotImplementedError

    @property
    def inf_positive(self) -> bool:
        """True when inf_t mu(t) > 0 is guaranteed by construction."""
        raise NotImplementedError


def _check_mu(value: float) -> float:
    if not (0.0 <= value <= 0.5):
        raise ConfigurationError(f"mu must lie in [0, 1/2], got {value}")
    return float(value)


@dataclass(frozen=True)
class ConstantMu(MuSchedule):
    value: float

    def __post_init__(self):
        _check_mu(self.value)

    def mu_at(self, t, rng):
        return self.value

    @property
    def inf_positive(self):
        return self.value > 0


@dataclass(frozen=True)
class SequenceMu(MuSchedule):
    """Explicit per-step values; the last value persists beyond the list."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ConfigurationError("SequenceMu needs at least one value")
        for v in self.values:
            _check_mu(v)

    def mu_at(self, t, rng):
        return self.values[t] if t < len(self.values) else self.values[-1]

    @property
    def inf_positive(self):
        return min(self.values) > 0


@dataclass(frozen=True)
class UniformMu(MuSchedule):
    """mu(t) drawn i.i.d. uniform from [low, high] each step."""

    low: float
    high: float

    def __post_init__(self):
        _check_mu(self.low)
        _check_mu(self.high)
        if self.low > self.high:
            raise ConfigurationError(f"need low <= high, got [{self.low}, {self.high}]")

    def mu_at(self, t, rng):
        return float(rng.uniform(self.low, self.high))

    @property
    def inf_positive(self):
        return self.low > 0


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------

@dataclass
class OpinionState:
    """Opinions of all agents at one time step: array of shape (n, d)."""

    time: int
    opinions: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.opinions, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ConfigurationError(f"opinions must be an (n, d) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("opinions must be finite")
        self.opinions = arr

    @property
    def n(self) -> int:
        return self.opinions.shape[0]

    @property
    def dimension(self) -> int:
        return self.opinions.shape[1]


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def select_pair(edges: "EdgeSet", rng: np.random.Generator) -> Optional[tuple[int, int]]:
    """Pick one edge uniformly at random; None when the edge set is empty."""
    arr = edges.array
    m = arr.shape[0]
    if m == 0:
        return None
    i, j = arr[rng.integers(0, m)].tolist()
    return i, j


def seed_streams(seed: int, *spawn_key: int):
    """Initial-opinion rng, dynamics rng and graph seed of one run.

    ``spawn_key`` names the run under ``seed`` (a trial index, say); runs
    with different keys get independent streams.
    """
    root = np.random.SeedSequence(seed, spawn_key=spawn_key)
    init_ss, dyn_ss, graph_ss = root.spawn(3)
    graph_seed = int(graph_ss.generate_state(1, dtype=np.uint64)[0])
    return np.random.default_rng(init_ss), np.random.default_rng(dyn_ss), graph_seed


# Run k (a trial or an audit scenario) draws from the spawn keys (k, 0) to
# (k, 2) and ``simulate`` from (0,) to (2,), so these keys belong to no run.
_SIDE_STREAMS = {"bound": (0, 3), "geometry": (0, 4)}


def side_stream(seed: int, purpose: str) -> np.random.Generator:
    """The rng of a draw outside every run: ``"bound"`` feeds the Monte Carlo
    E d of the consensus bound, ``"geometry"`` the ``verify`` geometry suite."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_SIDE_STREAMS[purpose]))


def _update(x: np.ndarray, i: int, j: int, mu: float, params: ModelParams) -> bool:
    """Apply the update rule to rows i and j of x in place; True iff it fired.

    mu is used as given: the audit observers, not this rule, catch a rate
    outside [0, 1/2].
    """
    # on Python floats, with the bits of the numpy forms: each operation
    # rounds once either way
    xi, xj = x[i].tolist(), x[j].tolist()
    diff = [b - a for a, b in zip(xi, xj)]
    if not scalar_length(diff, params.norm) <= params.epsilon:
        return False
    for k, gap in enumerate(diff):
        upd = mu * gap
        x[i, k] = xi[k] + upd
        x[j, k] = xj[k] - upd
    return True


def step(
    state: OpinionState,
    edge: tuple[int, int],
    mu: float,
    params: ModelParams,
) -> tuple[OpinionState, bool]:
    """One update on the given pair; returns the new state and whether it fired.

    The update fires iff the pair's pre-step distance is <= epsilon (exact
    comparison, no slack). Non-interacting agents are untouched.
    """
    i, j = edge
    if i == j:
        raise ConfigurationError(f"self-loop edge ({i}, {j})")
    _check_mu(mu)
    x = state.opinions
    n = x.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise ConfigurationError(f"edge ({i}, {j}) out of range for n={n}")
    if state.dimension != params.dimension:
        raise ConfigurationError(
            f"state dimension {state.dimension} != params dimension {params.dimension}"
        )
    new = x.copy()
    fired = _update(new, i, j, mu, params)
    return OpinionState(state.time + 1, new), fired


# ---------------------------------------------------------------------------
# Trajectory engine
# ---------------------------------------------------------------------------

# The block hooks get as many fired steps at once as keep a block's positions
# and the temporaries of its checks, about 48 n d bytes a step for n agents in
# d dimensions, within BLOCK_BYTES; numpy's fixed cost per call is then spread
# over many steps.
BLOCK_BYTES = 1 << 20


def block_size(n: int, d: int) -> int:
    """How many fired steps ``run_trajectory`` gathers before each block hook call."""
    return max(1, BLOCK_BYTES // (48 * n * d))


@dataclass(frozen=True)
class FiredSteps:
    """A block of fired update steps, in the order they ran.

    ``t``, ``i``, ``j`` and ``mu`` (m,) name each step; ``old`` and ``new``
    (m, 2, d) hold rows i and j just before and just after it.
    """

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    mu: np.ndarray
    old: np.ndarray
    new: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def violation(self, k: int, invariant: str, slack: float,
                  detail: str) -> InvariantViolation:
        """The failure of check ``invariant`` at the k-th step, with its inputs."""
        event = {"i": int(self.i[k]), "j": int(self.j[k]), "mu": float(self.mu[k]),
                 "before": self.old[k].tolist(), "after": self.new[k].tolist()}
        return InvariantViolation(invariant, step=int(self.t[k]), slack=float(slack),
                                  detail=detail, event=event)


class TrajectoryObserver:
    """Hook interface called by ``run_trajectory``.

    ``at_start`` sees the initial opinions x (n, d); ``before_step`` the
    opinions and social edges *at* time t, before the update; ``after_step``
    the pair drawn at step t (i = j = -1 when E(t) is empty), whether it
    fired, and the opinions after it; ``at_end`` the final time, opinions and
    social edges.  Arrays passed in are live views: copy before retaining.
    The per-step hooks observe: an exception raised in one propagates as it is.

    ``after_block`` is the audit's hook, and the one that reports a violation.
    The engine records every fired step (``FiredSteps``) and hands them over
    ``block_size(n, d)`` at a time, and the rest before any ``at_end``.  The
    hook checks every step of the block and returns, without raising, the
    violation of its first failing step, or None.  The engine then raises the
    earliest failure over all observers, a tie going to the observer listed
    first; by then the live state may have moved up to a block past that
    step.  The engine calls each hook only on observers that define it.
    """

    def at_start(self, x: np.ndarray) -> None:
        pass

    def before_step(self, t: int, x: np.ndarray, social_edges: "EdgeSet") -> None:
        pass

    def after_step(self, t: int, i: int, j: int, fired: bool, x: np.ndarray) -> None:
        pass

    def after_block(self, steps: FiredSteps) -> Optional[InvariantViolation]:
        return None

    def at_end(self, t: int, x: np.ndarray, social_edges: "EdgeSet") -> None:
        pass


def _hooks(observers: Sequence[TrajectoryObserver], name: str) -> list:
    """The bound hook ``name`` of each observer that defines it, in order."""
    base = getattr(TrajectoryObserver, name)
    return [getattr(obs, name) for obs in observers
            if getattr(type(obs), name, base) is not base]


class _BlockRecorder:
    """Records fired steps and hands them to the block hooks a block at a time."""

    def __init__(self, hooks: list, size: int, d: int):
        self.hooks = hooks
        self.old = np.empty((size, 2, d))
        self.new = np.empty((size, 2, d))
        self.t: list[int] = []
        self.i: list[int] = []
        self.j: list[int] = []
        self.mu: list[float] = []

    def hold(self, x: np.ndarray, i: int, j: int) -> None:
        """Copy rows i and j into the next slot, before the update."""
        old = self.old[len(self.t)]
        old[0] = x[i]
        old[1] = x[j]

    def record(self, t: int, i: int, j: int, mu: float, x: np.ndarray) -> bool:
        """Keep the held step, which fired; True when the block is full."""
        new = self.new[len(self.t)]
        new[0] = x[i]
        new[1] = x[j]
        self.t.append(t)
        self.i.append(i)
        self.j.append(j)
        self.mu.append(mu)
        return len(self.t) == len(self.old)

    def flush(self) -> None:
        """Check the recorded steps and empty the block; raises the earliest
        failure, a tie going to the hook listed first."""
        m = len(self.t)
        if m == 0:
            return
        steps = FiredSteps(np.array(self.t), np.array(self.i), np.array(self.j),
                           np.array(self.mu, dtype=float), self.old[:m], self.new[:m])
        self.t, self.i, self.j, self.mu = [], [], [], []
        found = [v for v in [hook(steps) for hook in self.hooks] if v is not None]
        if found:
            raise min(found, key=lambda v: v.step)


EVENT_DTYPE = np.dtype([("i", np.intp), ("j", np.intp), ("fired", bool), ("mu", float)])


@dataclass
class Trajectory:
    """Recorded run: states at the recording stride plus every step event.

    ``times`` (k,) and ``states`` (k, n, d) hold the recorded states, from
    the initial ``states[0]`` to the final ``states[-1]``.  ``events`` has one
    row per step with columns i, j, fired, mu (empty unless events were
    recorded); i = j = -1 where the step had no edge.
    """

    times: np.ndarray
    states: np.ndarray
    events: np.ndarray
    steps_run: int = 0
    stopped_early: bool = False


def run_trajectory(
    initial: OpinionState,
    graph_schedule: "GraphSchedule",
    mu_schedule: MuSchedule,
    params: ModelParams,
    horizon: int,
    rng: np.random.Generator,
    observers: Sequence[TrajectoryObserver] = (),
    record_stride: Optional[int] = 1,
    record_events: bool = True,
    stop_condition: Optional[Callable[[], bool]] = None,
) -> Trajectory:
    """Run the process for ``horizon`` steps (or until ``stop_condition``).

    Per step: evaluate E(t), select one edge uniformly from it, draw mu(t),
    apply the update if the pair is within epsilon, then notify observers.
    ``record_stride=None`` keeps only the initial and final states.
    """
    if horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
    if record_stride is not None and record_stride < 1:
        raise ConfigurationError(f"record_stride must be >= 1, got {record_stride}")
    if initial.dimension != params.dimension:
        raise ConfigurationError(
            f"initial dimension {initial.dimension} != params dimension {params.dimension}"
        )
    if graph_schedule.n != initial.n:
        raise ConfigurationError(
            f"schedule is over {graph_schedule.n} vertices but state has {initial.n} agents"
        )

    x = initial.opinions.astype(float, copy=True)
    observers = tuple(observers)
    before_hooks = _hooks(observers, "before_step")
    after_hooks = _hooks(observers, "after_step")
    block_hooks = _hooks(observers, "after_block")
    recorder = (_BlockRecorder(block_hooks, block_size(*x.shape), x.shape[1])
                if block_hooks else None)

    times = [0]
    states = [x.copy()]
    events: list[tuple[int, int, bool, float]] = []

    for obs in observers:
        obs.at_start(x)

    t = 0
    stopped = False
    while t < horizon:
        if stop_condition is not None and stop_condition():
            stopped = True
            break
        edges = graph_schedule.edges_at(t)
        for hook in before_hooks:
            hook(t, x, edges)
        pair = select_pair(edges, rng)
        mu = mu_schedule.mu_at(t, rng)
        fired = full = False
        i = j = -1
        if pair is not None:
            i, j = pair
            if recorder is not None:
                recorder.hold(x, i, j)
            fired = _update(x, i, j, mu, params)
            if fired and recorder is not None:
                full = recorder.record(t, i, j, mu, x)
        if record_events:
            events.append((i, j, fired, mu))
        for hook in after_hooks:
            hook(t, i, j, fired, x)
        if full:
            recorder.flush()
        t += 1
        if record_stride is not None and t % record_stride == 0:
            times.append(t)
            states.append(x.copy())
    if recorder is not None:
        recorder.flush()

    if times[-1] != t:
        times.append(t)
        states.append(x.copy())
    final_edges = graph_schedule.edges_at(t)
    for obs in observers:
        obs.at_end(t, x, final_edges)

    return Trajectory(
        times=np.array(times),
        states=np.stack(states),
        events=np.array(events, dtype=EVENT_DTYPE),
        steps_run=t,
        stopped_early=stopped,
    )
