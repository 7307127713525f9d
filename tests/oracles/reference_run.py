"""Whole runs interpreted step by step, with no incremental state.

The reference for what ``run_trial`` and ``cmd_simulate`` return.  Each step
is read from scratch:

* its words come from their address: step t owns words 8t .. 8t + 7 of
  Philox(key = the run's key), then the stream Philox(key + (t + 1) 2^64);
* an Erdos-Renyi E(t) is rebuilt by SplitMix64 over all pairs, and any other
  E(t) is read from its schedule;
* the pair is Lemire's index, for Erdos-Renyi after up to six candidates
  among all pairs, and the update rule is applied here, on Python floats
  one coordinate at a time (``apply_update``);
* tau(delta) rescans every row of E(t) before the update, T(delta) every
  recorded state, and the classifier's verdict is taken at its times.

Only ``pair_lengths``, the schedules' edge sets and the classifier's
verdict on a state are the package's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from deffuant import ErdosRenyiGraph, OpinionState, Verdict
from deffuant.geometry import diameter
from deffuant.graphs import pair_lengths, profile
from deffuant.model import seed_streams
from deffuant.montecarlo import OutcomeClassifier

from .loop_length import loop_length
from .union_find import union_find_components

WORDS = 8
CANDIDATES = 6
MASK = 2**64 - 1


def _words(key: int, t: int):
    """Step t's uniform and an iterator over its pick words, then its spill."""
    row = np.random.Philox(key=key, counter=WORDS * t // 4).random_raw(WORDS).tolist()

    def pick():
        yield from row[1:]
        spill = np.random.Philox(key=key + ((t + 1) << 64))
        while True:
            yield spill.random_raw()

    return (row[0] >> 11) / 2**53, pick()


def _lemire(m: int, r: int) -> Optional[int]:
    """floor(r m / 2^64), or None where Lemire's method redraws."""
    prod = r * m
    return None if (prod & MASK) < 2**64 % m else prod >> 64


def _index(m: int, words) -> int:
    while (k := _lemire(m, next(words))) is None:
        pass
    return k


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _er_member(graph: ErdosRenyiGraph, t: int, e: int) -> bool:
    m = len(_all_pairs(graph.n))
    z = (graph.seed + (t * m + e + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) >> 11 < graph.p * 2**53


def _edges(schedule, t: int) -> list[tuple[int, int]]:
    if isinstance(schedule, ErdosRenyiGraph):
        return [pair for e, pair in enumerate(_all_pairs(schedule.n))
                if _er_member(schedule, t, e)]
    return [tuple(pair) for pair in schedule.edges_at(t).array.tolist()]


def _pick(schedule, t: int, edges: list, words) -> Optional[tuple[int, int]]:
    if isinstance(schedule, ErdosRenyiGraph):
        pairs = _all_pairs(schedule.n)
        for _ in range(CANDIDATES if pairs else 0):
            e = _lemire(len(pairs), next(words))
            if e is not None and _er_member(schedule, t, e):
                return pairs[e]
    return edges[_index(len(edges), words)] if edges else None


def apply_update(x: np.ndarray, pair: tuple[int, int], mu: float, params):
    """The opinions after the update of ``pair`` at rate mu, and whether it
    fired: it fires when the pair is within epsilon (``loop_length``), and
    then moves each coordinate of i by mu times the gap and j back by as much."""
    i, j = pair
    xi, xj = x[i].tolist(), x[j].tolist()
    gap = [b - a for a, b in zip(xi, xj)]
    if not loop_length(gap, params.norm) <= params.epsilon:
        return x, False
    after = x.copy()
    after[i] = [a + mu * g for a, g in zip(xi, gap)]
    after[j] = [b - mu * g for b, g in zip(xj, gap)]
    return after, True


def _short(x: np.ndarray, edges: list, delta: float, params) -> bool:
    """No edge of E(t) in range (<= epsilon) and longer than delta."""
    if not edges:
        return True
    dist = pair_lengths(x, np.array(edges, dtype=np.intp), params.norm)
    return not bool(((dist <= params.epsilon) & (dist > delta)).any())


@dataclass
class _Step:
    t: int
    edges: list          # E(t)
    before: np.ndarray   # the opinions at the top of step t
    pair: Optional[tuple[int, int]]
    fired: bool
    mu: float
    after: np.ndarray


def _run(x: np.ndarray, schedule, mu_schedule, params, key: int, horizon: int):
    """Each step of a run, read from its address alone."""
    for t in range(horizon):
        edges = _edges(schedule, t)
        u, words = _words(key, t)
        pair = _pick(schedule, t, edges, words)
        mu = mu_schedule.mu_at(t, u)
        after, fired = x, False
        if pair is not None:
            after, fired = apply_update(x, pair, mu, params)
        yield _Step(t, edges, x, pair, fired, mu, after)
        x = after


@dataclass
class ReferenceTrial:
    verdict: Verdict
    decided_at: Optional[int]
    final_diameter: float
    tau_delta: Optional[int]
    steps_run: int


def reference_trial(config, early_stop: bool) -> ReferenceTrial:
    """``run_trial(config, early_stop=early_stop)``, step by step."""
    init_rng, dyn_rng, graph_seed = seed_streams(config.master_seed, config.trial_index)
    schedule = config.graph_schedule.reseeded(graph_seed)
    x = OpinionState(0, config.space.sample(init_rng, config.n)).opinions
    key = int(dyn_rng.integers(2**64, dtype=np.uint64))
    params, delta = config.params, config.track_delta
    verdict_of = OutcomeClassifier(config)._verdict
    verdict, decided_at = verdict_of(x), 0
    checked_at, final_diameter = 0, diameter(x, params.norm)
    tau, fired_at = None, []
    t = 0
    for s in _run(x, schedule, config.mu_schedule, params, key, config.horizon):
        # the stop rule is tested at the top of a step, before tau is
        if early_stop and verdict is not None and (delta is None or tau is not None):
            break
        if delta is not None and tau is None and _short(s.before, s.edges, delta, params):
            tau = s.t
        x, t = s.after, s.t + 1
        if s.fired:
            fired_at.append(s.t)
        fired_since = bool(fired_at) and fired_at[-1] >= checked_at
        if verdict is None and fired_since and t % config.check_every == 0:
            verdict, decided_at = verdict_of(x), t
            checked_at, final_diameter = t, diameter(x, params.norm)
    if delta is not None and tau is None and _short(x, _edges(schedule, t), delta, params):
        tau = t
    if verdict is None or (fired_at and fired_at[-1] >= checked_at):
        late = verdict_of(x)
        if verdict is None:
            verdict, decided_at = late, t
        final_diameter = diameter(x, params.norm)
    if verdict is None:
        verdict, decided_at = Verdict.UNDECIDED, None
    return ReferenceTrial(verdict, decided_at, final_diameter, tau, t)


@dataclass
class ReferenceSimulation:
    times: list[int]
    states: list[np.ndarray]
    events: list[tuple[Optional[int], Optional[int], bool, float]]
    tau: list[Optional[int]]
    T: list[Optional[int]]


def reference_simulate(config, seed: int) -> ReferenceSimulation:
    """The states, events and stopping times ``cmd_simulate`` writes."""
    init_rng, dyn_rng, graph_seed = seed_streams(seed)
    schedule = config.graph.reseeded(graph_seed)
    x = (config.initial if config.initial is not None
         else config.space.sample(init_rng, config.n))
    x = OpinionState(0, x).opinions
    key = int(dyn_rng.integers(2**64, dtype=np.uint64))
    params, stride = config.params, config.record_stride
    times, states, events = [0], [x], []
    tau: list[Optional[int]] = [None] * len(config.deltas)
    for s in _run(x, schedule, config.mu, params, key, config.horizon):
        for k, delta in enumerate(config.deltas):
            if tau[k] is None and _short(s.before, s.edges, delta, params):
                tau[k] = s.t
        i, j = s.pair if s.pair is not None else (None, None)
        events.append((i, j, s.fired, s.mu))
        if (s.t + 1) % stride == 0:
            times.append(s.t + 1)
            states.append(s.after)
        x = s.after
    if times[-1] != config.horizon:
        times.append(config.horizon)
        states.append(x)
    end = _edges(schedule, config.horizon)
    for k, delta in enumerate(config.deltas):
        if tau[k] is None and _short(x, end, delta, params):
            tau[k] = config.horizon
    T = []
    for delta in config.deltas:
        edges = [_edges(schedule, time) for time in times]
        short = [_short(x, e, delta, params) for x, e in zip(states, edges)]
        connected = [
            len(union_find_components(
                profile(x, np.array(e, dtype=np.intp).reshape(-1, 2), params)[0].tolist(),
                len(x))) <= 1
            for x, e in zip(states, edges)]
        T.append(next((times[k] for k in range(len(times))
                       if connected[k] and all(short[k:])), None))
    return ReferenceSimulation(times, states, events, tau, T)
