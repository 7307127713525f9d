"""Vector norms shared by the model, geometry and invariant checks.

All public entry points accept ``norm`` as one of ``"euclidean"``, ``"l1"``
or ``"linf"``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

NORMS = ("euclidean", "l1", "linf")


def validate_norm(norm: str) -> str:
    if norm not in NORMS:
        raise ConfigurationError(f"unknown norm {norm!r}, expected one of {NORMS}")
    return norm


def vector_norm(v: np.ndarray, norm: str = "euclidean") -> float:
    """Norm of a single vector."""
    if norm == "euclidean":
        return float(np.sqrt(np.dot(v, v)))
    if norm == "l1":
        return float(np.abs(v).sum())
    if norm == "linf":
        return float(np.abs(v).max())
    raise ConfigurationError(f"unknown norm {norm!r}")


def vector_norms(v: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """``vector_norm`` of each vector along the last axis, bit for bit.

    The euclidean case must round as ``np.dot`` does, which ``einsum`` does
    not: a stack of row-by-column products is computed by the same dot kernel.
    """
    if norm == "euclidean":
        return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
    if norm == "l1":
        return np.abs(v).sum(axis=-1)
    if norm == "linf":
        return np.abs(v).max(axis=-1)
    raise ConfigurationError(f"unknown norm {norm!r}")


def rowwise_norm(m: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """Norms of the rows of a 2-D array, shape (k, d) -> (k,)."""
    if norm == "euclidean":
        return np.sqrt(np.einsum("ij,ij->i", m, m))
    if norm == "l1":
        return np.abs(m).sum(axis=1)
    if norm == "linf":
        return np.abs(m).max(axis=1)
    raise ConfigurationError(f"unknown norm {norm!r}")


def cross_distances(a: np.ndarray, b: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """All distances between rows of ``a`` (..., m, d) and rows of ``b`` (..., k, d)
    -> (..., m, k); leading axes pair up stack by stack."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    if norm == "euclidean":
        return np.sqrt(np.einsum("...mkd,...mkd->...mk", diff, diff))
    if norm == "l1":
        return np.abs(diff).sum(axis=-1)
    if norm == "linf":
        return np.abs(diff).max(axis=-1)
    raise ConfigurationError(f"unknown norm {norm!r}")


def distances_to_point(points: np.ndarray, c: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """Distances from each row of ``points`` (n, d) to a single point ``c`` (d,)."""
    return rowwise_norm(points - c[None, :], norm)
