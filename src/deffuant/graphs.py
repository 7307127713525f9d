"""Social graphs, profiles and time-varying graph schedules.

A schedule is a pure function of (t, seed): evaluating the same schedule at
the same step always yields the same edge set, so whole runs replay
bit-identically. Dynamic graphs are never mutated in place.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .errors import ConfigurationError
from .norms import lengths
from .values import Frozen

if TYPE_CHECKING:
    from .model import ModelParams


class EdgeSet:
    """Canonical undirected edge set: an (m, 2) intp array of unique rows
    (i, j) with i < j, in lexicographic order.

    Immutable by convention; hashable; no self-loops or duplicates.  A run
    reads the rows it needs (``take``); a subclass may build ``array`` lazily.
    """

    __slots__ = ("array",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        arr = np.array(list(pairs) or np.empty((0, 2)), dtype=np.intp)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigurationError("edges must be (i, j) pairs")
        for bad, what in ((arr[:, 0] == arr[:, 1], "self-loop edge"),
                          ((arr < 0).any(axis=1), "negative vertex in edge")):
            if bad.any():
                i, j = arr[bad.argmax()].tolist()
                raise ConfigurationError(f"{what} ({i}, {j})")
        self.array = np.unique(np.sort(arr, axis=1), axis=0)

    @classmethod
    def _from_sorted_array(cls, arr: np.ndarray) -> "EdgeSet":
        """Trusted fast path: rows already canonical (i < j, lex-sorted, unique)."""
        obj = cls.__new__(cls)
        obj.array = arr
        return obj

    def __len__(self) -> int:
        return self.array.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self.array.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeSet) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"EdgeSet({list(self)!r})"

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The (k, 2) pairs of ``rows``, an integer array of row numbers."""
        return self.array.take(rows, axis=0)


class CompleteEdges(EdgeSet):
    """All m = n(n - 1)/2 pairs over [0, n) in O(n): row r is (i, j), i the last
    vertex whose first row s_i = i(2n - i - 1)/2 is at most r, j = r - s_i + i + 1,
    exact in integers.  ``array``, the table, is built when asked for."""

    def __init__(self, n: int):
        self.n = n

    array = property(lambda self: _all_pairs_array(self.n))

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2

    def __reduce__(self):
        return complete_edges, (self.n,)

    @cached_property
    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:   # s_1 .. s_{n-1}; s_i - i - 1
        i = np.arange(self.n, dtype=np.intp)
        first = i * (2 * self.n - i - 1) // 2
        return first[1:], first - i - 1

    def take(self, rows):
        ends, shift = self._offsets
        rows = rows.astype(np.intp, copy=False)   # a uint64 row would search as a float
        pairs = np.empty((len(rows), 2), dtype=np.intp)
        pairs[:, 0] = i = ends.searchsorted(rows, "right")
        np.subtract(rows, shift.take(i), out=pairs[:, 1])
        return pairs


@lru_cache(maxsize=None)
def _all_pairs_array(n: int) -> np.ndarray:
    """(m, 2) array of all i < j pairs in lexicographic order; shared, read-only.
    Row r is ``complete_edges(n).take`` of r in O(m): i repeated n - i - 1 times."""
    i = np.arange(n, dtype=np.intp)
    arr = np.empty((n * (n - 1) // 2, 2), dtype=np.intp)
    arr[:, 0] = first = np.repeat(i, n - 1 - i)
    np.subtract(np.arange(len(arr)), complete_edges(n)._offsets[1].take(first), out=arr[:, 1])
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def complete_edges(n: int) -> CompleteEdges:
    """All pairs over vertices [0, n), one shared object for each n."""
    return CompleteEdges(n)


def path_edges(n: int) -> EdgeSet:
    """Path 0-1-...-(n-1)."""
    first = np.arange(max(n - 1, 0), dtype=np.intp)
    return EdgeSet._from_sorted_array(np.column_stack((first, first + 1)))


# ---------------------------------------------------------------------------
# Profile, connectivity
# ---------------------------------------------------------------------------

def pair_lengths(x: np.ndarray, pairs: np.ndarray, norm: str) -> np.ndarray:
    """Opinion distance across each row of ``pairs`` (m, 2), x of shape (n, d),
    or of each state of a stack (k, n, d), giving (k, m).

    A row's length does not depend on which other rows or states are measured
    with it, so measuring a subset gives the same bits as measuring them all.
    """
    # take() copies rows several times faster than fancy or boolean indexing
    return lengths(x.take(pairs[:, 0], axis=-2) - x.take(pairs[:, 1], axis=-2), norm)


def profile(x: np.ndarray, pairs: np.ndarray,
            params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``pairs`` (m, 2) whose opinions in x (n, d) lie within
    epsilon of each other (exact <= comparison), and their lengths."""
    lengths = pair_lengths(x, pairs, params.norm)
    keep = np.flatnonzero(lengths <= params.epsilon)
    return pairs.take(keep, axis=0), lengths.take(keep)


def connected_components(pairs: np.ndarray, n: int) -> list[list[int]]:
    """Partition of [0, n) by the (m, 2) edge array, each part sorted and the
    parts in order of their least vertex; singletons included.

    Min-label propagation with pointer jumping: every vertex starts labelled
    by itself and takes the least label across its edges, then each label is
    replaced by its own label until they stop changing.  A label is always a
    vertex of the same component no larger than the vertex, so labels only
    fall; once every edge joins equal labels, each component carries its
    least vertex.
    """
    _check_edges_range(pairs, n)
    if n == 0:
        return []
    label = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        la, lb = label.take(a), label.take(b)
        if np.array_equal(la, lb):
            break
        np.minimum.at(label, a, lb)
        np.minimum.at(label, b, la)
        while True:
            jumped = label.take(label)
            if np.array_equal(jumped, label):
                break
            label = jumped
    order = np.argsort(label, kind="stable")
    cuts = (np.flatnonzero(np.diff(label.take(order))) + 1).tolist()
    vertices = order.tolist()
    return [vertices[s:e] for s, e in zip([0] + cuts, cuts + [n])]


def is_connected(pairs: np.ndarray, n: int) -> bool:
    return n <= 1 or len(connected_components(pairs, n)) == 1


# ---------------------------------------------------------------------------
# Graph schedules
# ---------------------------------------------------------------------------

class GraphSchedule:
    """Time-indexed social edge sets E(t)."""

    n: int

    def edges_at(self, t: int) -> EdgeSet:
        raise NotImplementedError

    @property
    def connected_infinitely_often(self) -> bool:
        """True when the schedule guarantees connectivity at infinitely many steps.

        Constant and cyclic schedules compute it once and keep it."""
        raise NotImplementedError

    def reseeded(self, seed: int) -> "GraphSchedule":
        """Copy bound to a fresh seed; identity for deterministic schedules."""
        return self


class ConstantGraph(GraphSchedule, Frozen):
    _fields = ("n", "edges")

    def __init__(self, n: int, edges: EdgeSet):
        if edges is not complete_edges(n):   # which is in range and connected
            _check_edges_range(edges.array, n)
        self._set(n=n, edges=edges)

    def edges_at(self, t):
        return self.edges

    @cached_property
    def connected_infinitely_often(self):
        return self.edges is complete_edges(self.n) or is_connected(self.edges.array, self.n)


class CyclicGraph(GraphSchedule, Frozen):
    """Cycles through a fixed list of edge sets: E(t) = members[t mod period]."""

    _fields = ("n", "members")

    def __init__(self, n: int, members: tuple[EdgeSet, ...]):
        if not members:
            raise ConfigurationError("cyclic schedule needs at least one member")
        for m in members:
            if m is not complete_edges(n):
                _check_edges_range(m.array, n)
        self._set(n=n, members=members)

    @property
    def period(self) -> int:
        return len(self.members)

    def edges_at(self, t):
        return self.members[t % self.period]

    @cached_property
    def connected_infinitely_often(self):
        return any(m is complete_edges(self.n) or is_connected(m.array, self.n)
                   for m in self.members)


# SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): the increment, 2^64 over the golden ratio, and the
# two multipliers of the finaliser.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class ErdosRenyiGraph(GraphSchedule, Frozen):
    """Fresh G(n, p) sample each step, addressable by (seed, t) for replay.

    Pair e, row e of the m = n(n-1)/2 pairs of ``complete_edges(n)``
    (``take`` maps it to (i, j)), is in E(t) when the SplitMix64 finaliser
    of seed + (t m + e + 1) gamma (mod 2^64), shifted right by 11 bits, is
    below p 2^53: each pair is in with probability p, independently of every
    other (pair, step).  ``members`` tests many pairs in one numpy pass;
    ``edges_at`` returns an ``ErdosRenyiEdges``, hashed only when asked for.
    """

    _fields = ("n", "p", "seed")

    def __init__(self, n: int, p: float, seed: int = 0):
        if n < 1:
            raise ConfigurationError(f"need n >= 1, got {n}")
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError(f"p must lie in [0, 1], got {p}")
        if not (0 <= seed <= _MASK64):
            raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
        p = float(p)
        self._set(n=n, p=p, seed=int(seed), m=n * (n - 1) // 2,
                  _p53=np.uint64(np.ceil(p * 2.0**53)))   # an integer z < p 2^53 iff z < this

    def members(self, t, rows: np.ndarray) -> np.ndarray:
        """Flags of the pairs ``rows`` (an integer array of pair rows) in E(t),
        for a step t or an integer array of steps that broadcasts with rows."""
        if np.ndim(t) == 0:
            base = np.uint64((self.seed + (int(t) * self.m + 1) * _GAMMA) & _MASK64)
        else:   # uint64 arrays wrap modulo 2^64, as the mask does
            base = ((t.astype(np.uint64) * np.uint64(self.m) + np.uint64(1)) * np.uint64(_GAMMA)
                    + np.uint64(self.seed))
        z = rows.astype(np.uint64, copy=False) * np.uint64(_GAMMA) + base
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)) < self._p53

    def edges_at(self, t):
        return ErdosRenyiEdges(self, t)

    @property
    def connected_infinitely_often(self):
        # p > 0 gives the complete graph (hence connectivity) infinitely often a.s.
        return self.n <= 1 or self.p > 0

    def reseeded(self, seed):
        return ErdosRenyiGraph(self.n, self.p, int(seed))


class ErdosRenyiEdges(EdgeSet):
    """E(t) of an ``ErdosRenyiGraph``: its ``member_rows`` of ``complete_edges(n)``
    are hashed in one pass, once, when first asked for (by a pick whose six
    candidates all miss, ``model._open_pair``, or by ``settle_time``); ``take``
    maps only the rows it is given.  The block's picks (``model.Draws.pairs``)
    and the stopping-time tracker ask the graph about the pairs they need instead."""

    def __init__(self, graph: ErdosRenyiGraph, t: int):
        self.graph, self.t = graph, t

    @cached_property
    def member_rows(self) -> np.ndarray:
        return np.flatnonzero(self.graph.members(self.t, np.arange(self.graph.m, dtype=np.uint64)))

    def __len__(self) -> int:
        return len(self.member_rows)

    def take(self, rows):
        return complete_edges(self.graph.n).take(self.member_rows.take(rows))

    array = property(lambda self: complete_edges(self.graph.n).take(self.member_rows))


class PiecewiseGraph(GraphSchedule, Frozen):
    """Explicit step -> edge-set map; the last defined entry persists forever.

    The connected-infinitely-often flag is never set, even where that last
    entry is connected: a conservative choice, under which a trial's state
    of diameter within epsilon, but above its consensus tolerance, is never
    classified as bound for consensus.
    """

    _fields = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[int, EdgeSet], ...]):
        steps = tuple(s for s, _ in entries)
        if not steps or steps[0] != 0:
            raise ConfigurationError("piecewise schedule must define step 0")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ConfigurationError("piecewise schedule steps must be strictly increasing")
        for _, e in entries:
            _check_edges_range(e.array, n)
        self._set(n=n, entries=entries, _steps=steps)

    def edges_at(self, t):
        if t < 0:
            raise ConfigurationError(f"step must be >= 0, got {t}")
        k = bisect_right(self._steps, t) - 1
        return self.entries[k][1]

    @property
    def connected_infinitely_often(self):
        return False


def _check_edges_range(pairs: np.ndarray, n: int) -> None:
    if len(pairs) == 0 or (pairs.min() >= 0 and pairs.max() < n):
        return
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)   # some row is, past the test above
    i, j = pairs[bad.argmax()].tolist()
    raise ConfigurationError(f"edge ({i}, {j}) out of range for n={n}")
