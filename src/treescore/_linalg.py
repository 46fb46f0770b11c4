"""Dense Laplacian assembly, Bareiss determinants, float unit flows, and log2 helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix via fraction-free elimination.

    Mutates its argument. All intermediate values stay integral, so there is
    no floating point anywhere and the result is exact for any size.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            lead = ri[k]
            if lead == 0:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pivot) // prev
            else:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pivot - lead * rk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def reduced_laplacian(kept: list[int], endpoints, m):
    """Add the multigraph Laplacian, restricted to ``kept``, into ``m`` and return it.

    ``m`` is a caller-supplied zero matrix indexed ``m[i][j]``, row and
    column i standing for ``kept[i]``: a list of int rows or a numpy array.
    ``endpoints`` iterates over (u, v) pairs, one per edge: parallel edges
    add up, self-loops are skipped, and an endpoint outside ``kept`` (a
    grounded vertex) contributes only to the other's diagonal.
    """
    idx = {v: i for i, v in enumerate(kept)}
    for u, v in endpoints:
        if u == v:
            continue
        iu = idx.get(u)
        iv = idx.get(v)
        if iu is not None:
            m[iu][iu] += 1
        if iv is not None:
            m[iv][iv] += 1
        if iu is not None and iv is not None:
            m[iu][iv] -= 1
            m[iv][iu] -= 1
    return m


def unit_voltages(kept: list[int], endpoints, i: int) -> np.ndarray:
    """Float voltages, grounded vertices at 0, for one unit of current into ``kept[i]``.

    One dense solve of the Laplacian restricted to ``kept``.
    """
    n = len(kept)
    b = np.zeros(n)
    b[i] = 1.0
    return np.linalg.solve(reduced_laplacian(kept, endpoints, np.zeros((n, n))), b)


def laplacian_minor_det(
    vertices: list[int],
    endpoints,
    excluded: frozenset[int] | set[int],
) -> int:
    """Determinant of the multigraph Laplacian with the excluded rows/columns removed.

    ``endpoints`` iterates over (u, v) pairs, one per edge (parallel edges
    repeat, self-loops are ignored). With one vertex excluded this counts
    spanning trees; with the two endpoints of an edge excluded it counts
    spanning trees containing that edge.
    """
    kept = [v for v in vertices if v not in excluded]
    n = len(kept)
    return det_bareiss(reduced_laplacian(kept, endpoints, [[0] * n for _ in range(n)]))


def log2_int(n: int) -> float:
    """log2 of a positive integer, safe for values far beyond float range."""
    if n <= 0:
        raise ValueError("log2 of non-positive integer")
    bits = n.bit_length()
    if bits <= 900:
        return math.log2(n)
    shift = bits - 53
    return math.log2(n >> shift) + shift


def log2_fraction(q: Fraction) -> float:
    if q <= 0:
        raise ValueError("log2 of non-positive value")
    return log2_int(q.numerator) - log2_int(q.denominator)
