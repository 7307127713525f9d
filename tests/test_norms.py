import numpy as np
import pytest

from deffuant import ConfigurationError
from deffuant.norms import NORMS, cross_distances, lengths
from oracles import loop_length

ORD = {"euclidean": 2, "l1": 1, "linf": np.inf}


def test_lengths_of_single_vectors_match_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 6))
        for norm in NORMS:
            assert lengths(v, norm) == pytest.approx(
                np.linalg.norm(v, ord=ORD[norm]), abs=1e-14)


def test_lengths_of_rows_match_numpy():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(17, 3))
    for norm in NORMS:
        expected = np.linalg.norm(a, ord=ORD[norm], axis=1)
        assert np.allclose(lengths(a, norm), expected, atol=1e-14)


def test_cross_distances_matches_pairwise_loop():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=(4, 2))
    for norm in NORMS:
        got = cross_distances(a, b, norm)
        assert got.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert got[i, j] == pytest.approx(
                    np.linalg.norm(a[i] - b[j], ord=ORD[norm]), abs=1e-14)


def test_unknown_norm_rejected():
    with pytest.raises(ConfigurationError):
        lengths(np.ones(2), "l2")


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_norms_and_distances_round_as_the_single_ones(norm, d):
    # a length has the bits of the coordinate-order sum on Python floats,
    # whatever the shape of the array it is measured in
    rng = np.random.default_rng(d)
    v = rng.normal(size=(40, 2, d)) * 10.0 ** rng.integers(-3, 4, size=(40, 1, 1))
    assert lengths(v, norm).tolist() == [[loop_length(r, norm) for r in pair] for pair in v]
    assert [lengths(r, norm) for r in v.reshape(-1, d)] == lengths(v, norm).ravel().tolist()
    points = rng.normal(size=(40, 7, d))
    assert lengths(points, norm).tolist() == [[loop_length(p, norm) for p in row]
                                              for row in points]
    stacked = cross_distances(v, points, norm)
    assert stacked.shape == (40, 2, 7)
    assert stacked.tolist() == [[[loop_length(a - b, norm) for b in points[k]] for a in v[k]]
                                for k in range(40)]
    flat = v.reshape(-1, d)
    assert np.array_equal(cross_distances(flat, points[0], norm),
                          np.concatenate([cross_distances(flat[k:k + 3], points[0], norm)
                                          for k in range(0, 80, 3)]))
