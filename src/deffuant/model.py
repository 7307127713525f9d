"""State, update rule and trajectory engine of the pairwise bounded-confidence model.

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

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvariantViolation
from .graphs import (EdgeSet, ErdosRenyiEdges, ErdosRenyiGraph, GraphSchedule,
                     complete_edges)
from .norms import scalar_length, validate_norm


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

    def mu_at(self, t: int, u: float) -> float:
        """mu at step t, given the step's uniform u in [0, 1) (``Draws.at``)."""
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

    def mu_at(self, t, u):
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

    def mu_at(self, t, u):
        return self.values[t] if t < len(self.values) else self.values[-1]

    @property
    def inf_positive(self):
        return min(self.values) > 0


@dataclass(frozen=True)
class UniformMu(MuSchedule):
    """mu(t) drawn i.i.d. uniform from [low, high] each step: low + (high - low) u,
    the formula of ``numpy.random.Generator.uniform``."""

    low: float
    high: float

    def __post_init__(self):
        _check_mu(self.low)
        _check_mu(self.high)
        if self.low > self.high:
            raise ConfigurationError(f"need low <= high, got [{self.low}, {self.high}]")

    def mu_at(self, t, u):
        return self.low + (self.high - self.low) * u

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

def seed_streams(seed: int, *spawn_key: int):
    """Initial-opinion rng, dynamics rng and graph seed of one run.

    ``spawn_key`` names the run under ``seed`` (a trial index, say); runs
    with different keys get independent streams.
    """
    # the children ``SeedSequence(seed, spawn_key=spawn_key).spawn(3)`` builds,
    # without hashing the root's own pool
    init_ss, dyn_ss, graph_ss = (np.random.SeedSequence(seed, spawn_key=(*spawn_key, c))
                                 for c in range(3))
    graph_seed = int(graph_ss.generate_state(1, dtype=np.uint64)[0])
    return np.random.default_rng(init_ss), np.random.default_rng(dyn_ss), graph_seed


# Run k (a trial or an audit scenario) draws from the spawn keys (k, 0) to
# (k, 2) and ``simulate`` from (0,) to (2,), so these keys belong to no run.
_SIDE_STREAMS = {"bound": (0, 3), "geometry": (0, 4)}


# Every random number of a run has an address.  Step t owns the raw 64-bit
# words t W .. t W + W - 1, W = WORDS_PER_STEP, of the counter-based stream
# Philox(key = the run's key) (Salmon et al., "Parallel random numbers: as
# easy as 1, 2, 3", SC 2011): word 0 gives its rate and the others its pair
# (``_block_pairs``, then ``_open_pair``).  The words are fetched DRAW_BLOCK
# steps at a time; any block length reads the same words.
WORDS_PER_STEP = 8
DRAW_BLOCK = 128

# A step's words: one for its rate, then the candidates, then one for the
# index that follows their misses.
_CANDIDATES = WORDS_PER_STEP - 2

# What ``Draws.pairs`` holds for a step in place of a pair: no edge, a first
# pick word that Lemire's method redraws, and six Erdos-Renyi candidates that
# all miss.
_NO_EDGE, _REDRAWN, _MISSED = -1, -2, -3


def run_key(rng: np.random.Generator) -> int:
    """The 64-bit key of a run's draws: the one number it takes from its rng."""
    return int(rng.integers(2**64, dtype=np.uint64))


class Draws:
    """The words of one run's steps, read by address (see WORDS_PER_STEP).

    They are held a draw block at a time: ``at(t)`` fetches the block of
    step t, steps ``start`` to ``stop`` - 1, and returns step t's uniform in
    [0, 1), word 0 shifted to 53 bits as ``Generator.random`` makes it.
    ``uniforms`` lists the held steps' uniforms.

    ``pairs(source)`` gives the pair of every held step on one E(t),
    derived for the block in one numpy pass (``_block_pairs``).
    ``words(t, k)`` yields step t's words k to W - 1 and then its spill
    stream, Philox keyed by (run key, t + 1), which no other step and no
    run's main stream shares.
    """

    def __init__(self, key: int):
        self.key = key
        self._bits: Optional[np.random.Philox] = None
        self.start = self.stop = 0     # the steps whose words are held
        self._raw = np.empty((0, WORDS_PER_STEP), dtype=np.uint64)
        self.uniforms: list[float] = []
        self._pairs: dict[int, tuple] = {}   # id of an edge set or graph -> (it, pairs)

    def _fetch(self, t: int) -> None:
        start = t - t % DRAW_BLOCK
        if self._bits is None or start != self.stop:
            # 4 words a Philox counter; W is a multiple of 4
            self._bits = np.random.Philox(key=self.key, counter=start * WORDS_PER_STEP // 4)
        self.start, self.stop = start, start + DRAW_BLOCK
        raw = self._bits.random_raw(DRAW_BLOCK * WORDS_PER_STEP).reshape(DRAW_BLOCK, -1)
        self._raw, self._pairs = raw, {}
        self.uniforms = ((raw[:, 0] >> np.uint64(11)) * 2.0**-53).tolist()

    def at(self, t: int) -> float:
        if not self.start <= t < self.stop:
            self._fetch(t)
        return self.uniforms[t - self.start]

    def words(self, t: int, k: int) -> Iterator[int]:
        self.at(t)
        yield from self._raw[t - self.start, k:].tolist()
        spill = np.random.Philox(key=self.key | (t + 1) << 64)
        while True:
            yield spill.random_raw()

    def pairs(self, source) -> list[list[int]]:
        """[i, j] of each held step's pair on E(t), made once a block for each
        ``source``: the edge set E(t), or the ``ErdosRenyiGraph`` of an
        Erdos-Renyi E(t).  Where the step's words do not settle it here, the
        row holds what is open instead: [_REDRAWN] * 2 or [_MISSED] * 2
        (``_block_pairs``)."""
        made = self._pairs.get(id(source))
        if made is None:
            pairs = _block_pairs(self._raw, self.start, source).tolist()
            made = self._pairs[id(source)] = (source, pairs)
        return made[1]


def _block_pairs(raw: np.ndarray, start: int, source) -> np.ndarray:
    """The pairs of steps start, start + 1, ... on ``source`` (``Draws.pairs``)
    from their words ``raw``, in one numpy pass: (steps, 2) intp.

    On m rows a step's pair is row floor(w m / 2^64) of its first pick word w
    where Lemire's method keeps w (``_lemire_block``), else _REDRAWN.  On an
    Erdos-Renyi graph each of the step's six candidates, words 1 to 6, names
    a row of ``complete_edges(n)``, a word Lemire's method would redraw being
    a miss, and the first candidate in E(t) is the pair (one ``members`` call
    for all steps), else _MISSED.  Given E(t) it is uniform on E(t), since
    membership is a hash that does not depend on the words.  No edge gives
    _NO_EDGE.  ``_open_pair`` settles the steps left _REDRAWN or _MISSED.
    """
    er = isinstance(source, ErdosRenyiGraph)
    m = source.m if er else len(source)
    if m == 0:
        return np.full((len(raw), 2), _NO_EDGE, dtype=np.intp)
    if not er:
        rows, kept = _lemire_block(raw[:, 1], m)
        pairs = source.take(rows.view(np.intp))
        pairs[~kept] = _REDRAWN
        return pairs
    rows, kept = _lemire_block(raw[:, 1:1 + _CANDIDATES], m)
    steps = np.arange(len(raw))
    kept &= source.members(start + steps[:, None], rows)
    first = kept.argmax(axis=1)
    pairs = complete_edges(source.n).take(rows[steps, first].view(np.intp))
    pairs[~kept[steps, first]] = _MISSED
    return pairs


def _open_pair(draws: Draws, t: int, edges: EdgeSet, why: int) -> list[int]:
    """[i, j] of step t's pair on ``edges`` where ``Draws.pairs`` gave ``why``
    (_REDRAWN or _MISSED) instead, [_NO_EDGE] * 2 for none.

    The pair is the row of E(t) (``edges.take``; after six Erdos-Renyi misses
    its m pairs are hashed in one pass) that the first word ``_lemire_block``
    keeps indexes, read from word 1 on m rows and from word W - 1 after the
    misses, then from the step's spill stream (``Draws.words``)."""
    m = len(edges)
    if m == 0:
        return [_NO_EDGE] * 2
    for word in draws.words(t, 1 if why == _REDRAWN else WORDS_PER_STEP - 1):
        row, kept = _lemire_block(np.array([word], dtype=np.uint64), m)
        if kept[0]:
            return edges.take(row.view(np.intp))[0].tolist()


_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _lemire_block(words: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's method on each of a uint64 array of words r, 1 <= m < 2^64: the
    rows floor(r m / 2^64), each kept (else redrawn, with probability below
    m / 2^64) if the low 64 bits of r m (uint64 products wrap) are at least
    2^64 mod m, and then exactly uniform on [0, m) (Lemire, ACM TOMACS 2019).

    The high half is built from 32-bit halves, r = a 2^32 + b and m = c 2^32
    + e: q = a e + floor(b e / 2^32) = floor(r e / 2^32) < 2^64, and
    floor(r m / 2^64) = floor(q / 2^32) when c = 0, else a c + floor((q + b c)
    / 2^32), that sum taken in halves so that it does not wrap."""
    a, b = words >> _HALF, words & _LOW32
    c, e = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    q = a * e + ((b * e) >> _HALF)
    if not c:
        rows = q >> _HALF
    else:
        bc = b * c
        rows = (a * c + (q >> _HALF) + (bc >> _HALF)
                + (((q & _LOW32) + (bc & _LOW32)) >> _HALF))
    return rows, words * np.uint64(m) >= np.uint64((1 << 64) % m)


def side_stream(seed: int, purpose: str) -> np.random.Generator:
    """The rng of a draw outside every run: ``"bound"`` feeds the Monte Carlo
    E d of the consensus bound, ``"geometry"`` the ``verify`` geometry suite."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_SIDE_STREAMS[purpose]))


def _update(x, i: int, j: int, mu: float, params: ModelParams) -> bool:
    """Apply the update rule to rows i and j of x in place; True iff it fired.

    x is an (n, d) float64 array or the engine's view of one's buffer
    (``memoryview``); both are read and written an item ``x[i, k]`` at a
    time.  mu is used as given: the audit observers, not this rule, catch a
    rate outside [0, 1/2].
    """
    # on Python floats, with the bits of the numpy forms: each operation
    # rounds once either way
    if params.dimension == 1:   # the same steps without building lists
        a, b = x[i, 0], x[j, 0]
        gap = b - a
        if not scalar_length((gap,), params.norm) <= params.epsilon:
            return False
        upd = mu * gap
        x[i, 0] = a + upd
        x[j, 0] = b - upd
        return True
    dims = range(params.dimension)
    diff = []
    for k in dims:
        diff.append(x[j, k] - x[i, k])
    if not scalar_length(diff, params.norm) <= params.epsilon:
        return False
    for k in dims:
        upd = mu * diff[k]
        x[i, k] += upd
        x[j, k] -= upd
    return True


# ---------------------------------------------------------------------------
# Trajectory engine
# ---------------------------------------------------------------------------

# A block holds as many fired steps as keep its states and the temporaries of
# its checks, about 48 n d bytes a step for n agents in d dimensions, within
# BLOCK_BYTES; numpy's fixed cost per call is then spread over many steps.
# Its record of every step, 25 bytes (i, j, mu and fired), stays within
# BLOCK_BYTES too, however few of its steps fire.
BLOCK_BYTES = 1 << 20


def block_size(n: int, d: int) -> int:
    """The most fired steps ``run_trajectory`` gathers in one block."""
    return max(1, BLOCK_BYTES // (48 * n * d))


@dataclass(frozen=True)
class FiredSteps:
    """Steps ``start`` .. ``stop - 1`` of a run, a block as the hooks see it.

    ``x0`` (n, d) holds the opinions at step ``start``.  ``t``, ``i``, ``j``
    and ``mu`` (m,) name each step of the block that fired, in order (the
    engine picks them out of its record of every step), and ``new``
    (m, 2, d) holds its rows i and j just after it.  ``edges`` lists
    (s, E(s)) at ``start`` and where E(t) changes, but an Erdos-Renyi E(t),
    new at every step, only at ``start``, for its graph.  Every other state of
    the block is gathered from these through one index (``states``, ``rows``,
    ``old``, ``state_at``).
    """

    start: int
    stop: int
    x0: np.ndarray
    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    mu: np.ndarray
    new: np.ndarray
    edges: tuple = ()

    def __len__(self) -> int:
        return len(self.t)

    @cached_property
    def _index(self) -> np.ndarray:
        """(m + 1, n): the row of ``_stacked`` holding each agent after k fired
        steps, row v of x0 until a step moves agent v, then the row it wrote."""
        m, n = len(self), len(self.x0)
        index = np.zeros((m + 1, n), dtype=np.intp)
        index[0] = np.arange(n)
        after, written = np.arange(1, m + 1), np.arange(n, n + 2 * m)
        index[after, self.i], index[after, self.j] = written[0::2], written[1::2]
        np.maximum.accumulate(index, axis=0, out=index)
        return index

    @cached_property
    def _stacked(self) -> np.ndarray:
        """x0, then the rows i and j written by each fired step: (n + 2m, d)."""
        return np.concatenate((self.x0, self.new.reshape(-1, self.x0.shape[1])))

    @cached_property
    def states(self) -> np.ndarray:
        """(m + 1, n, d): the opinions at step ``start`` and after each fired step."""
        return self._stacked.take(self._index, axis=0)

    def rows(self, agents: np.ndarray, k) -> np.ndarray:
        """The opinions of ``agents`` after the first k fired steps, for integer
        arrays agents and k that broadcast: (..., d), gathered through the
        block's index without building ``states``."""
        return self._stacked.take(self._index[k, agents], axis=0)

    @cached_property
    def old(self) -> np.ndarray:
        """(m, 2, d): rows i and j just before each fired step."""
        return self.rows(np.stack((self.i, self.j), axis=1), np.arange(len(self))[:, None])

    def state_at(self, t) -> np.ndarray:
        """The opinions at the top of step t, for start <= t <= stop; for an
        array of such steps, a copy of each state, stacked."""
        return self.states[np.searchsorted(self.t, t)]

    def violation(self, k: int, invariant: str, slack: float,
                  detail: str) -> InvariantViolation:
        """The failure of check ``invariant`` at the k-th fired step, with its inputs."""
        event = {"i": int(self.i[k]), "j": int(self.j[k]), "mu": float(self.mu[k]),
                 "before": self.old[k].tolist(), "after": self.new[k].tolist()}
        return InvariantViolation(invariant, step=int(self.t[k]), slack=float(slack),
                                  detail=detail, event=event)


class TrajectoryObserver:
    """Hook interface called by ``run_trajectory``.

    ``at_start`` sees the initial opinions x (n, d), ``at_end`` the final
    time, opinions and social edges; arrays passed in are live views: copy
    before retaining.  In between, ``after_block`` sees every step of the
    run, in order, a block (``FiredSteps``) at a time (``run_trajectory``
    says where blocks end).  It checks every step of the block and returns,
    without raising, the violation of its first failing step, or None.  The
    engine then raises the earliest failure over all observers, a tie going
    to the observer listed first; by then the live state may have moved up
    to a block past that step.  The engine calls ``after_block`` only on
    observers that define it, and refuses one that defines a per-step hook,
    which it would never call.
    """

    def at_start(self, x: np.ndarray) -> None:
        pass

    def after_block(self, steps: FiredSteps) -> Optional[InvariantViolation]:
        return None

    def at_end(self, t: int, x: np.ndarray, social_edges: "EdgeSet") -> None:
        pass


EVENT_DTYPE = np.dtype([("i", np.intp), ("j", np.intp), ("fired", bool), ("mu", float)])


@dataclass
class Trajectory:
    """Recorded run: states at the recording stride plus every step event.

    ``times`` (k,) and ``states`` (k, n, d) hold the recorded states, from
    the initial ``states[0]`` to the final ``states[-1]``.  ``events`` has one
    row per step with columns i, j, fired, mu (empty unless events were
    recorded); i = j = -1 where the step had no edge.  The run ended early
    exactly when ``steps_run`` is below its horizon.
    """

    times: np.ndarray
    states: np.ndarray
    events: np.ndarray
    steps_run: int = 0


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
    stop_condition: Optional[Callable[[int], int]] = None,
) -> Trajectory:
    """Run the process for ``horizon`` steps (or until ``stop_condition``).

    Per step: evaluate E(t), select one edge uniformly from it, draw mu(t),
    and apply the update if the pair is within epsilon.  Both draws read
    step t's words by address, from the key the run takes from ``rng``
    (``run_key``, ``Draws``).  ``record_stride=None`` keeps only the initial
    and final states.

    While anything reads the run (a block hook, a stop rule, the events or a
    stride), each step is recorded once, into the open block: its pair, rate
    and whether it fired, and for a fired step its rows i and j just after
    it.  A block ends at ``block_size(n, d)`` fired steps, after BLOCK_BYTES
    // 25 steps, at the step the stop rule names, and at the end of the run.
    The observers see it as ``FiredSteps`` (``TrajectoryObserver``), and the
    event rows and the states at the multiples of the stride are taken from it.

    ``stop_condition(t)``, when given, is asked at step 0, after
    ``at_start``, and after the block that ends at each later step t.  It
    returns a step s.  While s > t the run goes on, and the next block ends
    at step s at the latest, where the rule is asked again.  Once s <= t (s
    in the last block) the block's events and states are cut at step s, the
    opinions are put back to their state there (``FiredSteps.state_at``),
    and the run ends: ``steps_run`` is s and ``at_end`` sees step s.  The
    block hooks have by then seen the steps of that block past s; a
    violation at step s or later is not raised.

    The loop works on Python scalars.  The opinions x are one C-contiguous
    (n, d) float64 array, the array ``at_start`` and ``at_end`` see, and the
    update reads and writes its rows i and j through a ``memoryview`` of its
    buffer.  The pairs come by the draw block: once per block of DRAW_BLOCK
    steps and per E(t) seen in it (an Erdos-Renyi E(t) once per graph),
    ``Draws.pairs`` derives every step's pair in one numpy pass, and the
    step reads its own from a list.  A step the block leaves open, an
    Erdos-Renyi step whose six candidates all miss (one in 64 at p = 1/2)
    or one whose first pick word Lemire's method redraws (probability below
    m / 2^64), indexes the rows of its E(t) with its next words
    (``_open_pair``).
    """
    if horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
    if record_stride is not None and record_stride < 1:
        raise ConfigurationError(f"record_stride must be >= 1, got {record_stride}")
    if initial.time != 0:
        raise ConfigurationError(f"a run starts at step 0, got an initial state at {initial.time}")
    if initial.dimension != params.dimension:
        raise ConfigurationError(
            f"initial dimension {initial.dimension} != params dimension {params.dimension}"
        )
    if graph_schedule.n != initial.n:
        raise ConfigurationError(
            f"schedule is over {graph_schedule.n} vertices but state has {initial.n} agents"
        )
    observers = tuple(observers)
    for obs in observers:
        for hook in ("before_step", "after_step"):
            if hasattr(obs, hook):
                raise ConfigurationError(f"{type(obs).__name__} defines {hook}, a per-step hook "
                                         "that is never called: observe the steps in after_block")

    # a copy in C order whatever the order of the initial array
    x = np.array(initial.opinions, dtype=float, order="C")
    view, raw = x.data, x.data.cast("B")   # items x[i, k], and x's bytes
    draws = Draws(run_key(rng))
    base = TrajectoryObserver.after_block
    hooks = [obs.after_block for obs in observers
             if getattr(type(obs), "after_block", base) is not base]
    record = (bool(hooks) or stop_condition is not None or record_events
              or record_stride is not None)
    d = x.shape[1]
    width = 8 * d   # the bytes of a row
    # a block's end: its fired rows fill ``fired_new`` or its steps number ``most``
    full, most = block_size(*x.shape) * 2 * d, max(1, BLOCK_BYTES // 25)

    # the recorded times, states and event rows, a block at a time
    times, states, events = [np.zeros(1, dtype=int)], [x[None].copy()], []

    for obs in observers:
        obs.at_start(x)

    # The open block: its first step and a copy of the opinions there, the
    # pair, rate and fired flag of each step, the bytes of rows i and j just
    # after each fired step, and (s, E(s)) where E(t) changes, in arrays that
    # become numpy arrays with one copy.
    start, x0 = 0, x.copy()
    step_ij, step_mu, step_fired, fired_new = array("q"), array("d"), array("b"), array("d")
    changes: list[tuple[int, "EdgeSet"]] = []

    def end_block(t: int) -> Optional[int]:
        """Hand over the block that ends at step t and open the next; the stop
        step, or None.  Raises the earliest violation before that step."""
        nonlocal start, x0, last
        ij = np.array(step_ij, dtype=np.intp).reshape(-1, 2)
        mu, fired = np.array(step_mu), np.array(step_fired, dtype=bool)
        k = np.flatnonzero(fired)
        steps = FiredSteps(start, t, x0, start + k, ij[k, 0], ij[k, 1], mu.take(k),
                           np.array(fired_new).reshape(len(k), 2, d), tuple(changes))
        for kept in (step_ij, step_mu, step_fired, fired_new, changes):
            del kept[:]
        start, x0 = t, x.copy()
        found = [v for v in [hook(steps) for hook in hooks] if v is not None]
        stop = stop_condition(t) if stop_condition is not None else None
        found = [v for v in found if stop is None or v.step < stop]
        if found:
            raise min(found, key=lambda v: v.step)
        end = t if stop is None or stop > t else stop   # where this block's record is cut
        if record_events:
            rows = np.empty(end - steps.start, dtype=EVENT_DTYPE)
            rows["i"], rows["j"] = ij[:len(rows)].T
            rows["fired"], rows["mu"] = fired[:len(rows)], mu[:len(rows)]
            events.append(rows)
        if record_stride is not None:
            at = np.arange(steps.start + record_stride - steps.start % record_stride, end + 1,
                           record_stride)
            if len(at):
                times.append(at)
                states.append(steps.state_at(at))
        if stop is None or stop > t:
            last = t + most if stop is None else min(t + most, stop)
            return None
        if stop < t:
            x[...] = steps.state_at(stop)
        return stop

    # the edge set last listed in the block's changes; the held draw block's
    # steps and their uniforms; the edge set, or Erdos-Renyi graph, of E(t)
    # and the steps' pairs on it (None until asked for, ``Draws.pairs``)
    held, first, end, us, source, pairs = None, 0, 0, [], None, None
    t, until = 0, stop_condition(0) if stop_condition is not None else None
    stop = 0 if until is not None and until <= 0 else None
    # the step at which the open block ends at the latest
    last = (most if until is None else min(most, until)) if record else -1
    while t < horizon and stop is None:
        edges = graph_schedule.edges_at(t)
        if edges is not held:
            if record and not isinstance(held, ErdosRenyiEdges):
                changes.append((t, edges))
            held = edges
            key = edges.graph if isinstance(edges, ErdosRenyiEdges) else edges
            if key is not source:
                source, pairs = key, None
        if t == end:
            draws.at(t)
            first, end, us, pairs = draws.start, draws.stop, draws.uniforms, None
        if pairs is None:
            pairs = draws.pairs(source)
        r = t - first
        i, j = pairs[r]
        if i < _NO_EDGE:
            i, j = _open_pair(draws, t, edges, i)
        mu = mu_schedule.mu_at(t, us[r])
        fired = i >= 0 and _update(view, i, j, mu, params)
        t += 1
        if record:
            step_ij.extend((i, j))
            step_mu.append(mu)
            step_fired.append(fired)
            if fired:
                fired_new.frombytes(raw[i * width:i * width + width])
                fired_new.frombytes(raw[j * width:j * width + width])
            if t == last or len(fired_new) == full:
                held = None   # the next block lists E(t) from its first step
                stop = end_block(t)
    if record and stop is None and start < t:
        stop = end_block(t)
    if stop is not None:
        t = stop
    if times[-1][-1] != t:
        times.append([t])
        states.append(x[None])
    times, states = np.concatenate(times), np.concatenate(states)
    final_edges = graph_schedule.edges_at(t)
    for obs in observers:
        obs.at_end(t, x, final_edges)

    return Trajectory(times=times, states=states,
                      events=np.concatenate(events) if events else np.empty(0, EVENT_DTYPE),
                      steps_run=t)
