import numpy as np
import pytest

from deffuant import ConfigurationError
from deffuant.norms import (NORMS, cross_distances, distances_to_point, rowwise_norm,
                            vector_norm, vector_norms)

ORD = {"euclidean": 2, "l1": 1, "linf": np.inf}


def test_vector_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 6))
        for norm in NORMS:
            assert vector_norm(v, norm) == pytest.approx(
                np.linalg.norm(v, ord=ORD[norm]), abs=1e-14)


def test_rowwise_norm_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(17, 3))
    for norm in NORMS:
        expected = np.linalg.norm(a, ord=ORD[norm], axis=1)
        assert np.allclose(rowwise_norm(a, norm), expected, atol=1e-14)


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


def test_distances_to_point_is_cross_distances_column():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 3))
    c = rng.normal(size=3)
    for norm in NORMS:
        assert np.allclose(distances_to_point(a, c, norm),
                           cross_distances(a, c[None, :], norm)[:, 0])


def test_unknown_norm_rejected():
    with pytest.raises(ConfigurationError):
        vector_norm(np.ones(2), "l2")


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_norms_and_distances_round_as_the_single_ones(norm, d):
    # einsum and np.dot round euclidean lengths differently for d >= 2; the
    # audit's block checks must give the bits of the one-vector forms
    rng = np.random.default_rng(d)
    v = rng.normal(size=(40, 2, d)) * 10.0 ** rng.integers(-3, 4, size=(40, 1, 1))
    assert vector_norms(v, norm).tolist() == [[vector_norm(r, norm) for r in pair] for pair in v]
    points = rng.normal(size=(40, 7, d))
    stacked = cross_distances(v, points, norm)
    assert stacked.shape == (40, 2, 7)
    assert all(np.array_equal(stacked[k], cross_distances(v[k], points[k], norm))
               for k in range(40))
    flat = v.reshape(-1, d)
    assert np.array_equal(cross_distances(flat, points[0], norm),
                          np.concatenate([cross_distances(flat[k:k + 3], points[0], norm)
                                          for k in range(0, 80, 3)]))
