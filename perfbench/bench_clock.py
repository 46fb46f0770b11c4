"""Machine-speed calibration for the benchmark's times.

The shared 2-vCPU virtual machine this benchmark was tuned on changes speed
by up to 1.6x over periods of seconds to minutes (a fixed pure-Python loop,
timed with the process otherwise idle), so raw times of two runs of the same code can differ
by more than any useful regression bound. Every op is therefore followed by
one run of a fixed calibration kernel, and each op's latency is scaled by
``KERNEL_REF_NS / k``, where ``k`` is the median kernel time over the five
ops centred on it. The kernel is a frozen copy of fraction-free Gaussian
elimination on a 7x7 grid Laplacian minor: pure-Python big-integer work like
the program's own, but code that no change to treescore can touch. On a
machine where the kernel takes ``KERNEL_REF_NS``, calibrated and raw times
are equal.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

# Median kernel time on that machine in its fast periods (Python 3.11.7).
# Changing it rescales every calibrated time.
KERNEL_REF_NS = 2_300_000
WINDOW = 5
_GRID = 7


def _laplacian_minor() -> list[list[int]]:
    n = _GRID * _GRID
    m = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in (v + 1, v + _GRID):
            if w < n and (w == v + _GRID or w % _GRID):
                m[v][v] += 1
                m[w][w] += 1
                m[v][w] -= 1
                m[w][v] -= 1
    return [row[:-1] for row in m[:-1]]


def _det(m: list[list[int]]) -> int:
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri, lead = m[i], m[i][k]
            if lead == 0:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pivot) // prev
            else:
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pivot - lead * rk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


# The 7x7 grid has this many spanning trees; a wrong kernel result means the
# kernel no longer does the work it is calibrated for.
_TREES = 19_872_369_301_840_986_112


def kernel_ns() -> int:
    """Time of one kernel run in ns."""
    m = _laplacian_minor()
    start = perf_counter_ns()
    value = _det(m)
    elapsed = perf_counter_ns() - start
    if value != _TREES:
        raise RuntimeError(f"calibration kernel returned {value}")
    return elapsed


def calibrate(latency_ns: list[int], kernel: list[int]) -> list[float]:
    """Scale each latency by KERNEL_REF_NS over the median kernel time around it."""
    half = WINDOW // 2
    out = []
    for i, lat in enumerate(latency_ns):
        k = statistics.median(kernel[max(0, i - half): i + half + 1])
        out.append(lat * KERNEL_REF_NS / k)
    return out
