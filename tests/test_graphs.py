import math
import pickle
from collections import Counter
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deffuant import (
    NORMS,
    ConfigurationError,
    ConstantGraph,
    ConstantMu,
    CyclicGraph,
    EdgeSet,
    ErdosRenyiGraph,
    ModelParams,
    OpinionState,
    PiecewiseGraph,
    StoppingTimeTracker,
    complete_edges,
    connected_components,
    diameter,
    is_connected,
    path_edges,
    profile,
    run_trajectory,
)
from deffuant import graphs, model
from deffuant.graphs import CompleteEdges
from deffuant.model import Draws, _open_pair
from oracles import loop_length, union_find_components
from oracles.reference_run import _er_member, _lemire

# 99.9% chi-square quantiles by degrees of freedom (scipy.stats.chi2.ppf,
# computed once offline; scipy is not a dependency).
CHI2_999 = {4: 18.46682695290317, 18: 42.31239633167996, 23: 49.7282324664315}


def _opinion_graph(x, params):
    """The opinion graph of x: the profile over all pairs."""
    return EdgeSet._from_sorted_array(profile(x, complete_edges(len(x)).array, params)[0])


# ---------------------------------------------------------------------------
# EdgeSet
# ---------------------------------------------------------------------------

def test_edgeset_canonicalizes_order_and_duplicates():
    e = EdgeSet([(2, 1), (1, 2), (0, 3)])
    assert list(e) == [(0, 3), (1, 2)]
    assert len(e) == 2


def test_edgeset_rejects_bad_edges():
    with pytest.raises(ConfigurationError):
        EdgeSet([(1, 1)])
    with pytest.raises(ConfigurationError):
        EdgeSet([(-1, 2)])


def test_edgeset_equality_and_hash():
    a = EdgeSet([(0, 1), (2, 3)])
    b = EdgeSet([(3, 2), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != EdgeSet([(0, 1)])


def test_edgeset_array_roundtrip():
    e = EdgeSet([(4, 0), (1, 3)])
    arr = e.array
    assert arr.shape == (2, 2)
    assert arr.tolist() == [[0, 4], [1, 3]]
    # array-backed construction used by the fast paths agrees with the
    # validating constructor
    assert EdgeSet._from_sorted_array(arr) == e


_pairs = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))
                  .filter(lambda p: p[0] != p[1]), max_size=40)


@given(_pairs, _pairs)
def test_edgeset_agrees_with_python_set_model(a, b):
    model_a = {(min(p), max(p)) for p in a}
    model_b = {(min(p), max(p)) for p in b}
    ea, eb = EdgeSet(a), EdgeSet(b)
    assert list(ea) == sorted(model_a)
    assert ea.array.dtype == np.intp and ea.array.shape == (len(model_a), 2)
    assert len(ea) == len(model_a)
    assert (ea == eb) == (model_a == model_b)
    same = EdgeSet((j, i) for i, j in reversed(a))
    assert same == ea and hash(same) == hash(ea)
    # an edge set survives pickling, with its hash
    copy = pickle.loads(pickle.dumps(ea))
    assert copy == ea and hash(copy) == hash(ea)


def test_complete_and_path_edges():
    assert len(complete_edges(4)) == 6
    assert complete_edges(5) == EdgeSet(combinations(range(5), 2))
    assert list(path_edges(4)) == [(0, 1), (1, 2), (2, 3)]
    assert len(complete_edges(1)) == 0
    # an implicit complete graph hashes and pickles as its table does
    five = complete_edges(5)
    assert hash(five) == hash(EdgeSet(combinations(range(5), 2)))
    assert pickle.loads(pickle.dumps(five)) == five


def _triu_pairs(n):
    """All i < j pairs of [0, n) in lexicographic order, built from
    ``np.triu_indices`` as the table was before rows were mapped."""
    first, second = np.triu_indices(n, k=1)
    arr = np.empty((len(first), 2), dtype=np.intp)
    arr[:, 0], arr[:, 1] = first, second
    return arr


def test_the_complete_row_map_gives_the_triangular_table_on_every_row():
    for n in [*range(201), 999, 1000, 1001, 1024, 2000]:
        want = _triu_pairs(n)
        assert np.array_equal(CompleteEdges(n).take(np.arange(len(want))), want), n
        table = graphs._all_pairs_array(n) if n <= 200 else graphs._all_pairs_array.__wrapped__(n)
        assert np.array_equal(table, want) and not table.flags.writeable, n
        assert table.flags.c_contiguous, n


def _row_pair(n, r):
    """(i, j) of row r of the pairs of [0, n), by the Python-int inverse of
    r = i(2n - i - 1)/2 + j - i - 1: i(b - i)/2 <= r with b = 2n - 1 holds
    for i up to (b - sqrt(b^2 - 8r))/2."""
    b = 2 * n - 1
    i = (b - math.isqrt(b * b - 8 * r)) // 2
    while i * (b - i) // 2 > r:
        i -= 1
    while (i + 1) * (b - i - 1) // 2 <= r:
        i += 1
    return i, r - i * (b - i) // 2 + i + 1


@pytest.mark.parametrize("n", [2, 3, 7, 1000, 65537, 10**6])
def test_the_complete_row_map_inverts_the_triangular_index(n):
    m = n * (n - 1) // 2
    rng = np.random.default_rng(n)
    firsts = [i * (2 * n - i - 1) // 2 for i in rng.integers(0, n - 1, 50).tolist()]
    rows = sorted({0, m - 1, *rng.integers(0, m, 2000).tolist(),
                   *(r + k for r in firsts for k in (-1, 0, 1) if 0 <= r + k < m)})
    got = CompleteEdges(n).take(np.array(rows)).tolist()
    for r, (i, j) in zip(rows, got):
        assert (i, j) == _row_pair(n, r), (n, r)
        assert 0 <= i < j < n and i * (2 * n - i - 1) // 2 + j - i - 1 == r


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10**6])
def test_the_complete_row_map_reads_uint64_rows_as_lemire_gives_them(n):
    m = n * (n - 1) // 2
    words = np.random.default_rng(n).integers(0, 2**64, 512, dtype=np.uint64)
    rows = model._lemire_block(words, m)[0] if m else np.empty(0, dtype=np.uint64)
    assert rows.dtype == np.uint64
    got = complete_edges(n).take(rows)
    assert got.shape == (len(rows), 2)
    assert got.tolist() == [list(_row_pair(n, r)) for r in rows.tolist()]


# ---------------------------------------------------------------------------
# Opinion graph and profile
# ---------------------------------------------------------------------------

def test_opinion_graph_threshold_inclusive():
    params = ModelParams(epsilon=0.8)
    x = np.array([[0.0], [0.5], [1.0]])
    assert list(_opinion_graph(x, params)) == [(0, 1), (1, 2)]
    # exact boundary counts as connected
    assert list(_opinion_graph(x, ModelParams(epsilon=1.0))) == [(0, 1), (0, 2), (1, 2)]


def test_opinion_graph_matches_explicit_construction():
    rng = np.random.default_rng(5)
    params = ModelParams(epsilon=0.4, dimension=2, norm="l1")
    x = rng.random((8, 2))
    got = _opinion_graph(x, params)
    expected = EdgeSet(
        (i, j)
        for i in range(8)
        for j in range(i + 1, 8)
        if np.abs(x[i] - x[j]).sum() <= 0.4
    )
    assert got == expected


def test_opinion_graph_edges_can_appear():
    """An update can create an opinion edge between agents that were too far
    apart before: interacting the outer pair pulls both within range of the
    middle agent, and here within range of each other as well."""
    params = ModelParams(epsilon=0.8)
    state = OpinionState(0, np.array([0.0, 0.5, 1.0]))
    assert (0, 2) not in _opinion_graph(state.opinions, params)
    # one step on the graph whose only edge is (1, 2)
    traj = run_trajectory(state, ConstantGraph(3, EdgeSet([(1, 2)])), ConstantMu(0.5),
                          params, 1, np.random.default_rng(0))
    assert traj.events["fired"][0]
    assert np.allclose(traj.states[-1].ravel(), [0.0, 0.75, 0.75])
    assert (0, 2) in _opinion_graph(traj.states[-1], params)


def test_profile_is_intersection():
    # the profile over social edges is their intersection with the opinion graph
    x = np.array([[0.0], [0.5], [0.9]])
    params = ModelParams(epsilon=0.6)
    assert list(_opinion_graph(x, params)) == [(0, 1), (1, 2)]
    pairs, lengths = profile(x, EdgeSet([(0, 1), (0, 2)]).array, params)
    assert pairs.tolist() == [[0, 1]] and lengths.tolist() == [0.5]
    pairs, lengths = profile(x, EdgeSet().array, params)
    assert pairs.shape == (0, 2) and lengths.shape == (0,)


# Finite coordinates of mixed magnitude; epsilon sits exactly on one length,
# so the inclusive test is exercised, and every length must have the bits of
# the coordinate-order sum on Python floats.
@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
                 min_size=2, max_size=7),
        st.sampled_from(NORMS),
        st.floats(0.01, 6),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25),
        st.integers(0, 24),
    )))
def test_profile_matches_python_loop(case):
    rows, norm, epsilon, raw_pairs, boundary = case
    x = np.array(rows)
    n = len(x)
    pairs = np.array([(i % n, j % n) for i, j in raw_pairs] or np.empty((0, 2)), dtype=np.intp)
    loop = [loop_length([a - b for a, b in zip(rows[i], rows[j])], norm)
            for i, j in pairs.tolist()]
    if loop:
        # the smallest positive float stands in for a zero length
        epsilon = loop[boundary % len(loop)] or 5e-324
    params = ModelParams(epsilon=epsilon, dimension=x.shape[1], norm=norm)
    got, lengths = profile(x, pairs, params)
    keep = [k for k, length in enumerate(loop) if length <= epsilon]
    assert got.tolist() == pairs[keep].tolist()
    assert lengths.tolist() == [loop[k] for k in keep]


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def test_connected_components():
    edges = EdgeSet([(0, 1), (1, 2), (4, 5)]).array
    assert connected_components(edges, 6) == [[0, 1, 2], [3], [4, 5]]
    assert connected_components(EdgeSet().array, 3) == [[0], [1], [2]]
    with pytest.raises(ConfigurationError):
        connected_components(EdgeSet([(0, 5)]).array, 3)
    with pytest.raises(ConfigurationError):
        connected_components(np.array([[2, 1], [-1, 0]]), 3)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=30))))
def test_connected_components_matches_networkx(case):
    n, edges = case
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    expected = sorted(sorted(c) for c in nx.connected_components(g))
    pairs = np.array(edges or np.empty((0, 2)), dtype=np.intp)
    assert connected_components(pairs, n) == expected
    assert is_connected(pairs, n) == nx.is_connected(g)


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=0 if n == 0 else 80))))
def test_connected_components_match_union_find(case):
    # the empty graph, n = 0 and n = 1, singletons, self-loops, repeated edges
    n, edges = case
    pairs = np.array(edges or np.empty((0, 2)), dtype=np.intp)
    assert connected_components(pairs, n) == union_find_components(edges, n)


def test_connected_components_of_long_paths_and_stars():
    # labels travel the length of a path, and a star joins through its hub
    rng = np.random.default_rng(0)
    for n in (1, 2, 100, 1000):
        order = rng.permutation(n)
        path = np.column_stack((order[:-1], order[1:]))
        assert connected_components(path, n) == [list(range(n))]
        star = np.column_stack((np.full(n - 1, order[0]), order[1:]))
        assert connected_components(star[rng.permutation(n - 1)], n) == [list(range(n))]
    assert connected_components(np.empty((0, 2), dtype=np.intp), 0) == []


def test_is_connected():
    assert is_connected(path_edges(5).array, 5)
    assert not is_connected(EdgeSet([(0, 1), (2, 3)]).array, 4)
    assert is_connected(EdgeSet().array, 1)


def test_is_delta_trivial():
    x = np.array([[0.0], [0.005], [0.01]])
    # all pairs are within delta exactly when the diameter is
    assert diameter(x) <= 0.01
    assert not diameter(x) <= 0.009
    # restricted to listed pairs only: the lengths of the profile over them
    params = ModelParams(epsilon=1.0)
    _, lengths = profile(x, EdgeSet([(0, 1)]).array, params)
    assert np.all(lengths <= 0.006)
    _, lengths = profile(x, EdgeSet().array, params)
    assert np.all(lengths <= 1e-9)
    with pytest.raises(ConfigurationError):
        StoppingTimeTracker(0.0, params)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_constant_graph():
    g = ConstantGraph(4, path_edges(4))
    assert g.edges_at(0) == g.edges_at(10**9)
    assert g.connected_infinitely_often
    assert not ConstantGraph(4, EdgeSet([(0, 1)])).connected_infinitely_often
    with pytest.raises(ConfigurationError):
        ConstantGraph(3, path_edges(4))
    # a complete graph's range and connectivity come from n alone
    for n, k in ((1, 1), (2, 2), (4, 3), (4, 0), (2, 1)):
        assert (ConstantGraph(n, complete_edges(k)).connected_infinitely_often
                == ConstantGraph(n, EdgeSet(combinations(range(k), 2))).connected_infinitely_often
                == (n <= 1 or k == n)), (n, k)
    for n, k in ((2, 3), (0, 2), (1, 5)):
        with pytest.raises(ConfigurationError, match=fr"edge \(0, {max(n, 1)}\) out of range"):
            ConstantGraph(n, complete_edges(k))


def test_cyclic_graph():
    a, b = EdgeSet([(0, 1)]), EdgeSet([(1, 2)])
    g = CyclicGraph(3, (a, b))
    assert g.period == 2
    assert g.edges_at(0) == a and g.edges_at(1) == b and g.edges_at(4) == a
    # neither member alone connects all three vertices
    assert not g.connected_infinitely_often
    assert CyclicGraph(3, (a, complete_edges(3))).connected_infinitely_often
    with pytest.raises(ConfigurationError):
        CyclicGraph(3, ())


def test_piecewise_graph():
    a, b = path_edges(3), complete_edges(3)
    g = PiecewiseGraph(3, ((0, a), (5, b)))
    assert g.edges_at(0) == a and g.edges_at(4) == a
    assert g.edges_at(5) == b and g.edges_at(10**6) == b
    assert not g.connected_infinitely_often
    with pytest.raises(ConfigurationError):
        PiecewiseGraph(3, ((1, a),))
    with pytest.raises(ConfigurationError):
        PiecewiseGraph(3, ((0, a), (5, b), (5, a)))
    with pytest.raises(ConfigurationError):
        g.edges_at(-1)


# ---------------------------------------------------------------------------
# Erdos-Renyi schedule
# ---------------------------------------------------------------------------

def test_er_replay_and_random_access():
    g = ErdosRenyiGraph(10, 0.5, seed=99)
    sequential = [g.edges_at(t) for t in range(600)]
    # random access across block boundaries matches the sequential sweep
    h = ErdosRenyiGraph(10, 0.5, seed=99)
    for t in (599, 0, 256, 255, 300, 17):
        assert h.edges_at(t) == sequential[t]
    # replay on the same instance
    assert g.edges_at(123) == sequential[123]


def _splitmix64(state: int) -> tuple[int, int]:
    """SplitMix64 as published (Steele, Lea and Flood, OOPSLA 2014): add
    gamma to the state, then mix it; returns the new state and the output."""
    state = (state + 0x9E3779B97F4A7C15) % 2**64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return state, z ^ (z >> 31)


def test_er_pair_e_at_step_t_is_splitmix64_output_t_m_plus_e_plus_1():
    # pair e is in E(t) when output t m + e + 1 of SplitMix64 seeded with the
    # graph's seed, shifted to 53 bits, falls below p 2^53
    n, p, seed = 12, 0.4, 5
    g = ErdosRenyiGraph(n, p, seed=seed)
    pairs, m = complete_edges(n).array, g.m
    state, outputs = seed, []
    for _ in range(3 * m):
        state, z = _splitmix64(state)
        outputs.append(z)
    for t in range(3):
        keep = [z >> 11 < p * 2**53 for z in outputs[t * m:(t + 1) * m]]
        assert [_er_member(g, t, e) for e in range(m)] == keep
        assert g.members(t, np.arange(m)).tolist() == keep
        edges = g.edges_at(t)
        assert np.array_equal(edges.array, pairs[keep])
    # Python ints and numpy wrap around 2^64 alike
    for t in (10**9, 2**70):
        assert [_er_member(g, t, e) for e in range(m)] == g.members(t, np.arange(m)).tolist()


def _hash53(graph: ErdosRenyiGraph, t: int, e: int) -> int:
    """The SplitMix64 output of pair e at step t, shifted to 53 bits."""
    return _splitmix64(graph.seed + (t * graph.m + e) * 0x9E3779B97F4A7C15)[1] >> 11


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.05, 0.5, 1 - 2.0**-53, 1.0,
                               "at a hash", "half above it", "one above it"])
def test_er_membership_compares_hashes_as_the_reference_does(p):
    # members compares integer hashes with the integer ceil(p 2^53); the
    # reference compares them with the float p 2^53, exactly, in Python ints
    n, seed, ts = 40, 17, (0, 1, 3, 2**40)
    k = _hash53(ErdosRenyiGraph(n, 0.5, seed=seed), 3, 5)   # pair 5 at step 3
    while k >= 2**52:   # below 2^52, k + 1/2 is a float
        seed += 1
        k = _hash53(ErdosRenyiGraph(n, 0.5, seed=seed), 3, 5)
    above = {"at a hash": 0.0, "half above it": 0.5, "one above it": 1.0}.get(p)
    graph = ErdosRenyiGraph(n, p if above is None else (k + above) / 2.0**53, seed=seed)
    pairs, m = complete_edges(n).array, graph.m
    expected = np.array([[_er_member(graph, t, e) for e in range(m)] for t in ts])
    if above is not None:   # pair 5 is in E(3) exactly when its hash is below p 2^53
        assert expected[2, 5] == (above > 0)
    for row, t in zip(expected, ts):
        assert graph.members(t, np.arange(m)).tolist() == row.tolist()
        edges = graph.edges_at(t)
        assert np.array_equal(edges.array, pairs[row])
        assert np.array_equal(edges.array, pairs[row])   # the cached rows
    assert np.array_equal(graph.members(np.array(ts)[:, None], np.arange(m)), expected)


def test_er_edge_count_is_binomial():
    # |E(t)| over 20 000 steps of G(10, 1/2) against Binomial(45, 1/2), the
    # tails pooled below 12 and above 33 edges
    m, p, steps = 45, 0.5, 20_000
    g = ErdosRenyiGraph(10, p, seed=3)
    seen = np.bincount([int(g.members(t, np.arange(m)).sum()) for t in range(steps)],
                       minlength=m + 1)
    pmf = np.array([math.comb(m, k) * p**k * (1 - p)**(m - k) for k in range(m + 1)])
    observed = [seen[:12].sum(), *seen[12:34], seen[34:].sum()]
    expected = steps * np.array([pmf[:12].sum(), *pmf[12:34], pmf[34:].sum()])
    assert float((((observed - expected) ** 2) / expected).sum()) < CHI2_999[23]


@pytest.mark.parametrize("p, seed", [(0.3, 11), (0.1, 12)])
def test_the_edge_drawn_from_an_er_step_is_uniform_over_it(p, seed):
    # step t's pair under 1000 |E(t)| run keys, as the engine takes it: at
    # p = 0.3 about one pick in nine, at p = 0.1 one in two, misses all its
    # candidates and indexes the hashed rows instead (``_open_pair``)
    t = 5 if p == 0.3 else 3
    graph = ErdosRenyiGraph(10, p, seed=seed)
    edges = graph.edges_at(t)
    draws = 1000 * len(edges)
    counts = Counter()
    for key in np.random.Philox(key=seed).random_raw(draws).tolist():
        run = Draws(key)
        run.at(t)
        i, j = run.pairs(graph)[t]
        if i < model._NO_EDGE:
            i, j = _open_pair(run, t, edges, i)
        counts[i, j] += 1
    assert set(counts) == set(edges)
    expected = draws / len(edges)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_999[len(edges) - 1]


class _Words:
    """A stand-in for ``Draws`` whose step words 1, 2, ... are ``words``."""

    def __init__(self, *words):
        self._words = words

    def words(self, t, k):
        return iter(self._words[k - 1:])


def test_a_pick_redraws_exactly_the_words_lemire_rejects():
    # m = 3: 2^64 mod 3 = 1, so the word 0 alone is redrawn; a step left
    # open by its first pick word goes on from its next word
    raw = np.zeros((3, model.WORDS_PER_STEP), dtype=np.uint64)
    raw[0, 1], raw[1, 1] = 1, 2**63
    triangle = complete_edges(3)
    assert model._block_pairs(raw, 0, triangle).tolist() == [[0, 1], [0, 2], [-2, -2]]
    assert _open_pair(_Words(0, 2**63, 7), 2, triangle, model._REDRAWN) == [0, 2]
    assert _open_pair(_Words(0, 0, 1), 2, triangle, model._REDRAWN) == [0, 1]
    # m = 2^63 + 1: 2^64 mod m = 2^63 - 1; the word 2 leaves low bits 2 and
    # is redrawn, the word 3 leaves 2^63 + 3 and is kept
    assert _lemire(2**63 + 1, 2) is None and _lemire(2**63 + 1, 3) == 1
    rows, kept = model._lemire_block(np.array([2, 3], dtype=np.uint64), 2**63 + 1)
    assert rows.tolist() == [1, 1] and kept.tolist() == [False, True]
    # an Erdos-Renyi candidate that Lemire would redraw is a miss: with every
    # pair in E(t), the word 0 would otherwise name pair 0 (2^64 mod 45 = 16)
    graph = ErdosRenyiGraph(10, 1.0, seed=1)
    raw = np.zeros((3, model.WORDS_PER_STEP), dtype=np.uint64)
    raw[0, 1], raw[1, 2] = 1, 2**63
    assert model._block_pairs(raw, 0, graph).tolist() == [
        [0, 1], complete_edges(10).array[22].tolist(), [-3, -3]]
    # after six misses the pick indexes E(t) from the step's last word on
    words = [0] * model._CANDIDATES + [0, 2**63]
    assert _open_pair(_Words(*words), 2, graph.edges_at(2), model._MISSED) == \
        complete_edges(10).array[22].tolist()


def test_an_er_take_maps_only_the_rows_it_is_given(monkeypatch):
    graph = ErdosRenyiGraph(10, 1.0, seed=1)   # every pair is in E(t)
    edges, table = graph.edges_at(2), complete_edges(10)
    full, take, mapped = edges.array, table.take, []
    monkeypatch.setattr(table, "take", lambda rows: mapped.append(len(rows)) or take(rows))
    assert len(edges) == 45 and mapped == []
    assert edges.take(np.array([22, 0])).tolist() == full[[22, 0]].tolist()
    assert mapped == [2]
    # a pick after six misses maps its one row, not all of E(t)
    words = [0] * model._CANDIDATES + [0, 2**63]
    assert _open_pair(_Words(*words), 2, graph.edges_at(2), model._MISSED) == full[22].tolist()
    assert mapped == [2, 1]
    # on a sparse E(t) the rows are its members' rows of the complete graph
    sparse = ErdosRenyiGraph(30, 0.2, seed=3).edges_at(7)
    members = np.flatnonzero(sparse.graph.members(7, np.arange(435)))
    assert np.array_equal(sparse.take(np.arange(len(sparse))), complete_edges(30).array[members])
    assert np.array_equal(sparse.take(np.array([3])), sparse.array[[3]])


def test_er_validation_and_degenerate_p():
    with pytest.raises(ConfigurationError):
        ErdosRenyiGraph(0, 0.5)
    with pytest.raises(ConfigurationError):
        ErdosRenyiGraph(5, 1.5)
    empty = ErdosRenyiGraph(5, 0.0, seed=1)
    assert len(empty.edges_at(7)) == 0
    assert not empty.connected_infinitely_often
    full = ErdosRenyiGraph(5, 1.0, seed=1)
    assert full.edges_at(7) == complete_edges(5)
    assert full.connected_infinitely_often


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_an_er_seed_outside_64_bits_is_rejected_when_the_graph_is_built(seed):
    # both constructed, and a run then raised numpy's OverflowError from the
    # array branch of ``members``, which the scalar branch masked
    with pytest.raises(ConfigurationError, match=r"seed must lie in \[0, 2\^64\)"):
        ErdosRenyiGraph(6, 0.5, seed=seed)
    with pytest.raises(ConfigurationError):
        ErdosRenyiGraph(6, 0.5).reseeded(seed)


def test_er_mean_edge_count():
    # K_10 has 45 candidate edges; at p = 0.5 the per-step count averages
    # 22.5 with standard error ~0.034 over 10^4 steps
    g = ErdosRenyiGraph(10, 0.5, seed=7)
    mean = np.mean([len(g.edges_at(t)) for t in range(10_000)])
    assert abs(mean - 22.5) < 0.15


def test_er_reseeded_differs_and_pickles():
    g = ErdosRenyiGraph(8, 0.4, seed=3)
    h = g.reseeded(4)
    assert h.seed == 4
    assert any(g.edges_at(t) != h.edges_at(t) for t in range(20))
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert all(copy.edges_at(t) == g.edges_at(t) for t in range(300))
