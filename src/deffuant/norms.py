"""The one length of an opinion difference: ``lengths``, summed in coordinate
order, column by column: euclidean sqrt(((v0*v0) + v1*v1) + ...), l1
(|v0| + |v1|) + ..., linf max |vk|.

A numpy ufunc rounds each multiply and add once, as Python floats do (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2.2), so a length
has the same bits in any array and in a scalar loop of the same order.  The
engine's firing test, the profile, the audit and the geometry all use it, so
the engine fires on exactly the pairs the profile holds.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

NORMS = ("euclidean", "l1", "linf")


def validate_norm(norm: str) -> str:
    if norm not in NORMS:
        raise ConfigurationError(f"unknown norm {norm!r}, expected one of {NORMS}")
    return norm


def lengths(v: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """Length of each vector along the last axis: (..., d) -> (...)."""
    if norm == "linf":
        return np.abs(v).max(axis=-1)
    if norm == "euclidean":
        total = v[..., 0] * v[..., 0]
        for k in range(1, v.shape[-1]):
            total += v[..., k] * v[..., k]
        return np.sqrt(total)
    if norm == "l1":
        total = np.abs(v[..., 0])
        for k in range(1, v.shape[-1]):
            total += np.abs(v[..., k])
        return total
    raise ConfigurationError(f"unknown norm {norm!r}")


def cross_distances(a: np.ndarray, b: np.ndarray, norm: str = "euclidean") -> np.ndarray:
    """All distances between rows of ``a`` (..., m, d) and rows of ``b`` (..., k, d)
    -> (..., m, k); leading axes pair up stack by stack."""
    return lengths(a[..., :, None, :] - b[..., None, :, :], norm)
