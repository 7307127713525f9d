import pickle
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
    step,
)
from oracles import loop_length


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
    assert (1, 2) in e and (2, 1) in e
    assert (0, 1) not in e


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
    for i, j in a + b:
        assert ((i, j) in ea) == ((j, i) in ea) == ((min(i, j), max(i, j)) in model_a)
    assert (ea == eb) == (model_a == model_b)
    same = EdgeSet((j, i) for i, j in reversed(a))
    assert same == ea and hash(same) == hash(ea)
    # pool workers receive edge sets pickled inside TrialConfig
    copy = pickle.loads(pickle.dumps(ea))
    assert copy == ea and hash(copy) == hash(ea)


def test_complete_and_path_edges():
    assert len(complete_edges(4)) == 6
    assert complete_edges(5) == EdgeSet(combinations(range(5), 2))
    assert list(path_edges(4)) == [(0, 1), (1, 2), (2, 3)]
    assert len(complete_edges(1)) == 0


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
    new, fired = step(state, (1, 2), mu=0.5, params=params)
    assert fired
    assert np.allclose(new.opinions.ravel(), [0.0, 0.75, 0.75])
    assert (0, 2) in _opinion_graph(new.opinions, params)


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


def test_er_edges_are_the_pairs_its_masks_select():
    # step t keeps the pairs whose uniform draw in row t % 256 of block
    # t // 256 falls below p
    n, p, seed = 12, 0.4, 5
    g = ErdosRenyiGraph(n, p, seed=seed)
    pairs = complete_edges(n).array
    for block in (0, 1):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))
        masks = rng.random((256, len(pairs))) < p
        for offset in (0, 1, 255):
            assert np.array_equal(g.edges_at(256 * block + offset).array, pairs[masks[offset]])


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
