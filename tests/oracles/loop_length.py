"""A vector's length on Python floats, one coordinate after another.

The sum is written out as ``s = s + term`` in coordinate order: the built-in
``sum`` compensates its additions from Python 3.12 on, and would not give the
bits of an uncompensated sum.  ``math.sqrt`` rounds correctly, as numpy's
square root does.
"""

from __future__ import annotations

import math


def loop_length(vector, norm: str = "euclidean") -> float:
    coords = [float(c) for c in vector]
    if norm == "linf":
        return max(abs(c) for c in coords)
    if norm == "l1":
        s = abs(coords[0])
        for c in coords[1:]:
            s = s + abs(c)
        return s
    s = coords[0] * coords[0]
    for c in coords[1:]:
        s = s + c * c
    return math.sqrt(s)
