"""Social graphs, profiles and time-varying graph schedules.

A schedule is a pure function of (t, seed): evaluating the same schedule at
the same step always yields the same edge set, so whole runs replay
bit-identically. Dynamic graphs are never mutated in place.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ConfigurationError
from .model import ModelParams
from .norms import lengths


class EdgeSet:
    """Canonical undirected edge set: an (m, 2) intp array of unique rows
    (i, j) with i < j, in lexicographic order.

    Immutable by convention; hashable; no self-loops or duplicates.
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

    def __contains__(self, edge: tuple[int, int]) -> bool:
        i, j = sorted(edge)
        return bool(np.any((self.array[:, 0] == i) & (self.array[:, 1] == j)))

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeSet) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"EdgeSet({list(self)!r})"


@lru_cache(maxsize=None)
def _all_pairs_array(n: int) -> np.ndarray:
    """(m, 2) array of all i < j pairs in lexicographic order; shared, read-only."""
    iu = np.triu_indices(n, k=1)
    arr = np.column_stack(iu).astype(np.intp)
    arr.flags.writeable = False
    return arr


def complete_edges(n: int) -> EdgeSet:
    """All pairs over vertices [0, n)."""
    return EdgeSet._from_sorted_array(_all_pairs_array(n))


def path_edges(n: int) -> EdgeSet:
    """Path 0-1-...-(n-1)."""
    return EdgeSet((i, i + 1) for i in range(n - 1))


# ---------------------------------------------------------------------------
# Profile, connectivity
# ---------------------------------------------------------------------------

def pair_lengths(x: np.ndarray, pairs: np.ndarray, norm: str) -> np.ndarray:
    """Opinion distance across each row of ``pairs`` (m, 2), x of shape (n, d).

    A row's length does not depend on which other rows are measured with it,
    so measuring a subset of rows gives the same bits as measuring them all.
    """
    # take() copies rows several times faster than fancy or boolean indexing
    return lengths(x.take(pairs[:, 0], axis=0) - x.take(pairs[:, 1], axis=0), norm)


def profile(x: np.ndarray, pairs: np.ndarray,
            params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``pairs`` (m, 2) whose opinions in x (n, d) lie within
    epsilon of each other (exact <= comparison), and their lengths."""
    lengths = pair_lengths(x, pairs, params.norm)
    keep = np.flatnonzero(lengths <= params.epsilon)
    return pairs.take(keep, axis=0), lengths.take(keep)


def connected_components(pairs: np.ndarray, n: int) -> list[list[int]]:
    """Partition of [0, n) by the (m, 2) edge array (union-find); singletons included."""
    _check_edges_range(pairs, n)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs.tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


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
        """True when the schedule guarantees connectivity at infinitely many steps."""
        raise NotImplementedError

    def reseeded(self, seed: int) -> "GraphSchedule":
        """Copy bound to a fresh seed; identity for deterministic schedules."""
        return self


@dataclass(frozen=True)
class ConstantGraph(GraphSchedule):
    n: int
    edges: EdgeSet

    def __post_init__(self):
        _check_edges_range(self.edges.array, self.n)

    def edges_at(self, t):
        return self.edges

    @property
    def connected_infinitely_often(self):
        return is_connected(self.edges.array, self.n)


@dataclass(frozen=True)
class CyclicGraph(GraphSchedule):
    """Cycles through a fixed list of edge sets: E(t) = members[t mod period]."""

    n: int
    members: tuple[EdgeSet, ...]

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("cyclic schedule needs at least one member")
        for m in self.members:
            _check_edges_range(m.array, self.n)

    @property
    def period(self) -> int:
        return len(self.members)

    def edges_at(self, t):
        return self.members[t % self.period]

    @property
    def connected_infinitely_often(self):
        return any(is_connected(m.array, self.n) for m in self.members)


class ErdosRenyiGraph(GraphSchedule):
    """Fresh G(n, p) sample each step, addressable by (seed, t) for replay.

    Step t belongs to block t // 256; each block's masks come from one
    counter-mode generator keyed by (seed, block), so edges_at is a pure
    function of (seed, t) with random access, while sequential sweeps pay
    one generator construction per block.
    """

    _BLOCK = 256

    def __init__(self, n: int, p: float, seed: int = 0):
        if n < 1:
            raise ConfigurationError(f"need n >= 1, got {n}")
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError(f"p must lie in [0, 1], got {p}")
        self.n = n
        self.p = float(p)
        self.seed = int(seed)
        self._block_index: Optional[int] = None
        self._block_masks: Optional[np.ndarray] = None

    def edges_at(self, t):
        block, offset = divmod(t, self._BLOCK)
        pairs = _all_pairs_array(self.n)
        if block != self._block_index:
            rng = np.random.Generator(
                np.random.Philox(key=self.seed, counter=[0, 0, 0, block]))
            self._block_masks = rng.random((self._BLOCK, len(pairs))) < self.p
            self._block_index = block
        return EdgeSet._from_sorted_array(
            pairs.take(np.flatnonzero(self._block_masks[offset]), axis=0))

    @property
    def connected_infinitely_often(self):
        # p > 0 gives the complete graph (hence connectivity) infinitely often a.s.
        return self.n <= 1 or self.p > 0

    def reseeded(self, seed):
        return ErdosRenyiGraph(self.n, self.p, int(seed))

    def __eq__(self, other):
        return (isinstance(other, ErdosRenyiGraph)
                and (self.n, self.p, self.seed) == (other.n, other.p, other.seed))

    def __hash__(self):
        return hash((self.n, self.p, self.seed))

    def __repr__(self):
        return f"ErdosRenyiGraph(n={self.n}, p={self.p}, seed={self.seed})"

    def __getstate__(self):
        return {"n": self.n, "p": self.p, "seed": self.seed}

    def __setstate__(self, state):
        self.__init__(state["n"], state["p"], state["seed"])


@dataclass(frozen=True)
class PiecewiseGraph(GraphSchedule):
    """Explicit step -> edge-set map; the last defined entry persists.

    Built from files; connectivity beyond the horizon is unknowable, so the
    connected-infinitely-often flag is never set.
    """

    n: int
    entries: tuple[tuple[int, EdgeSet], ...]

    def __post_init__(self):
        steps = tuple(s for s, _ in self.entries)
        if not steps or steps[0] != 0:
            raise ConfigurationError("piecewise schedule must define step 0")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ConfigurationError("piecewise schedule steps must be strictly increasing")
        for _, e in self.entries:
            _check_edges_range(e.array, self.n)
        object.__setattr__(self, "_steps", steps)

    def edges_at(self, t):
        if t < 0:
            raise ConfigurationError(f"step must be >= 0, got {t}")
        k = bisect_right(self._steps, t) - 1
        return self.entries[k][1]

    @property
    def connected_infinitely_often(self):
        return False


def _check_edges_range(pairs: np.ndarray, n: int) -> None:
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        i, j = pairs[bad.argmax()].tolist()
        raise ConfigurationError(f"edge ({i}, {j}) out of range for n={n}")
