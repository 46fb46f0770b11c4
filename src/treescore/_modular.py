"""Exact integers from residues modulo word-size primes.

One home for the arithmetic that exact tree counts share: the table of primes
below 2**31, Hadamard's bound on a grounded Laplacian determinant, the choice
of primes whose product covers twice that bound plus one spare, and Chinese
remaindering checked against the spare. ``_adjugate.TreeCountEngine`` and
:func:`minor_det` both use them.

:func:`minor_det` is the determinant of a grounded Laplacian minor, as
``_linalg.laplacian_minor_det`` computes it. The kept vertices are put in
reverse Cuthill-McKee order (Cuthill and McKee 1969; George 1973), which
keeps every nonzero within a band of width b of the diagonal, and the minor
is eliminated without pivoting on a rolling (b+1) x (b+1) window, for all
primes at once in one ``int64`` array. A grounded Laplacian whose every
component touches the ground is positive definite, so a pivot that is 0
modulo p means p divides a leading minor: that prime is replaced and the
elimination redone. A recovered value that disagrees with the spare prime, or
lies above half the modulus, raises :class:`ArithmeticError`; a wrong count
is never returned.
"""

from __future__ import annotations

import numpy as np

_WORD_PRIME_LIMIT = 1 << 31
# Largest n (b+1)^2 k eliminated: a 45x45 grid is 5.6e8 (8 s), a 400-spoke wheel 1.4e9 (15 s).
MAX_MINOR_WORK = 10**9
_word_primes: list[int] = []  # largest primes below 2**31, descending; grown on demand


class MinorTooLargeError(ValueError):
    """A minor whose banded elimination would exceed ``MAX_MINOR_WORK``."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def word_primes(k: int) -> list[int]:
    """The k largest primes below 2**31, in descending order."""
    candidate = _word_primes[-1] - 2 if _word_primes else _WORD_PRIME_LIMIT - 1
    while len(_word_primes) < k:
        if _is_prime(candidate):
            _word_primes.append(candidate)
        candidate -= 2
    return _word_primes[:k]


def hadamard_bound(vertices, endpoints, excluded=None) -> int:
    """Product of the non-loop degrees of the vertices outside ``excluded``.

    ``excluded`` defaults to the least vertex. The product is the diagonal of
    the Laplacian grounded at ``excluded``, so it bounds that minor's
    determinant (Hadamard's inequality for positive semidefinite matrices).
    """
    if excluded is None:
        excluded = (min(vertices),)
    deg = dict.fromkeys(vertices, 0)
    for u, v in endpoints:
        if u != v:
            if u in deg:
                deg[u] += 1
            if v in deg:
                deg[v] += 1
    for v in excluded:
        deg.pop(v, None)
    bound = 1
    for d in deg.values():
        bound *= d
    return bound


def _candidates(pool):
    if pool is not None:
        yield from pool
        return
    k = 0
    while True:
        k += 8
        yield from word_primes(k)[k - 8:]


def choose_primes(bound: int, pool=None, excluded=frozenset()) -> list[int]:
    """Primes whose product exceeds ``2 * bound``, then one spare, none in ``excluded``.

    Primes are drawn from ``pool`` in order, by default the largest primes
    below 2**31; an exhausted pool raises :class:`ArithmeticError`.
    """
    target = 2 * bound
    chosen: list[int] = []
    product = 1
    for p in _candidates(pool):
        if p in excluded:
            continue
        chosen.append(p)
        if product > target:
            return chosen
        product *= p
    raise ArithmeticError("prime pool exhausted")


class CRT:
    """Chinese remaindering over ``primes[:-1]``, checked against the spare ``primes[-1]``."""

    __slots__ = ("modulus", "_spare", "_coeffs")

    def __init__(self, primes: list[int]):
        modulus = 1
        for p in primes[:-1]:
            modulus *= p
        self.modulus = modulus
        self._spare = primes[-1]
        self._coeffs = [(modulus // p) * pow(modulus // p, -1, p) for p in primes[:-1]]

    def recover(self, residues: list[int]) -> int:
        """The integer in [0, modulus/2] with these residues, one per prime.

        Raises :class:`ArithmeticError` when the value disagrees with the
        spare prime's residue or lies above modulus/2.
        """
        value = sum(r * c for r, c in zip(residues, self._coeffs)) % self.modulus
        if value % self._spare != residues[-1] or value > self.modulus // 2:
            raise ArithmeticError("residues disagree with the spare prime or exceed modulus/2")
        return value


# --- banded elimination ------------------------------------------------------


def rcm_order(kept: list[int], adj: dict[int, set[int]]) -> list[list[int]]:
    """Reverse Cuthill-McKee order of ``kept``, as one list per connected component.

    ``adj`` maps each kept vertex to its kept neighbours. Each component
    starts from a pseudo-peripheral vertex (George and Liu 1979) and takes
    unplaced neighbours by increasing degree; ties go to the smaller id.
    """
    key = {v: (len(adj[v]), v) for v in kept}.__getitem__
    placed: set[int] = set()
    components = []
    for seed in sorted(kept, key=key):
        if seed in placed:
            continue
        levels = _levels(seed, adj)
        while True:  # walk to a vertex of larger eccentricity while there is one
            start = min(levels[-1], key=key)
            further = _levels(start, adj)
            if len(further) <= len(levels):
                break
            levels = further
        order = [start]
        placed.add(start)
        for x in order:
            nbrs = sorted((y for y in adj[x] if y not in placed), key=key)
            placed.update(nbrs)
            order.extend(nbrs)
        order.reverse()
        components.append(order)
    return components


def _levels(root: int, adj: dict[int, set[int]]) -> list[list[int]]:
    """Breadth-first level sets from ``root``."""
    seen = {root}
    levels = [[root]]
    while True:
        nxt = []
        for x in levels[-1]:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            return levels
        levels.append(nxt)


def _banded_minor(kept: list[int], edges: list[tuple[int, int]], k: int):
    """Rows of the grounded Laplacian in RCM order, as ``(low, n, b)``; None if it is singular.

    ``low[r, t]`` is entry ``(r, r - b + t)``, so column ``b`` is the diagonal.
    Rows ``n .. n + b - 1`` pad the matrix with an identity block. The minor
    is singular exactly when some component of the kept vertices has no edge
    to a grounded vertex. Raises :class:`MinorTooLargeError` before any row
    is built when ``n (b+1)^2 k`` exceeds ``MAX_MINOR_WORK``.
    """
    keep = set(kept)
    adj: dict[int, set[int]] = {v: set() for v in kept}
    grounded: set[int] = set()
    for u, v in edges:
        if u == v:
            continue
        if u in keep and v in keep:
            adj[u].add(v)
            adj[v].add(u)
        elif u in keep:
            grounded.add(u)
        elif v in keep:
            grounded.add(v)
    order: list[int] = []
    for component in rcm_order(kept, adj):
        if grounded.isdisjoint(component):
            return None
        order += component
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    b = max((abs(pos[u] - pos[v]) for u in kept for v in adj[u]), default=0)
    if n * (b + 1) ** 2 * k > MAX_MINOR_WORK:
        raise MinorTooLargeError(
            f"exact minor of {n} rows with bandwidth {b} over {k} primes needs about "
            f"{n * (b + 1) ** 2 * k:.2e} word operations, above the limit {MAX_MINOR_WORK:.0e}"
        )
    rows = [[0] * (b + 1) for _ in range(n)] + [[0] * b + [1] for _ in range(b)]
    for u, v in edges:
        if u == v:
            continue
        iu = pos.get(u)
        iv = pos.get(v)
        if iu is not None:
            rows[iu][b] += 1
        if iv is not None:
            rows[iv][b] += 1
        if iu is not None and iv is not None:
            hi, lo = (iu, iv) if iu > iv else (iv, iu)
            rows[hi][b - hi + lo] -= 1
    return np.array(rows, dtype=np.int64), n, b


def _eliminate(low: np.ndarray, n: int, b: int, primes: list[int]) -> tuple[list[int], set[int]]:
    """Determinant residues of the banded matrix ``low`` modulo each prime.

    The window holds ``sigma_k`` times the Schur complement S of the rows
    eliminated so far, with one scale per prime. Step k reads the pivot
    ``d_k = sigma_k S_kk`` at the corner and replaces the window by
    ``d_k W - c c^T``, which is ``sigma_{k+1} = sigma_k d_k`` times the next
    Schur complement; the row and column that enter are the matrix's own
    (no earlier pivot row reaches them), scaled by ``sigma_{k+1}``. No step
    needs an inverse: ``sigma_k = d_0 ... d_{k-1}``, and the determinant
    ``prod S_kk = prod d_k / prod sigma_k`` takes one inverse per prime at
    the end. Residues stay below 2**31, so every product fits ``int64``.
    Returns the residues and the primes that met a zero pivot before the
    last row; those primes' residues are meaningless.
    """
    k = len(primes)
    p = np.array(primes, dtype=np.int64)
    p2 = p[:, None]
    p3 = p[:, None, None]
    window = np.zeros((k, b + 1, b + 1), dtype=np.int64)
    for i in range(b + 1):
        window[:, i, : i + 1] = low[i, b - i :]
        window[:, :i, i] = low[i, b - i : b]
    window %= p3
    spare = np.zeros_like(window)
    scaled = np.empty((k, b, b), dtype=np.int64)
    outer = np.empty_like(scaled)
    entering = np.empty((k, b + 1), dtype=np.int64)
    pivots = np.empty((n, k), dtype=np.int64)
    sigma = np.ones(k, dtype=np.int64)
    for step in range(n - 1):
        piv = window[:, 0, 0]
        pivots[step] = piv
        sigma *= piv
        sigma %= p
        col = window[:, 1:, 0]
        np.multiply(window[:, 1:, 1:], piv[:, None, None], out=scaled)
        np.multiply(col[:, :, None], col[:, None, :], out=outer)
        scaled -= outer
        np.remainder(scaled, p3, out=spare[:, :b, :b])
        np.multiply(low[step + b + 1], sigma[:, None], out=entering)
        np.remainder(entering, p2, out=spare[:, b, :])
        spare[:, :b, b] = spare[:, b, :b]
        window, spare = spare, window
    pivots[n - 1] = window[:, 0, 0]
    zero = {primes[j] for j in np.flatnonzero((pivots[: n - 1] == 0).any(axis=0)).tolist()}
    residues = []
    for q, column in zip(primes, pivots.T.tolist()):
        num = den = 1
        for d in column:
            den = den * num % q  # num is sigma_k here
            num = num * d % q
        residues.append(0 if q in zero else num * pow(den, -1, q) % q)
    return residues, zero


def minor_det(vertices, endpoints, excluded, primes=None) -> int:
    """Determinant of the multigraph Laplacian with the excluded rows/columns removed.

    The same value as ``_linalg.laplacian_minor_det`` (parallel edges repeat,
    self-loops are ignored), by banded elimination modulo word primes and
    CRT. ``primes`` is the pool moduli are drawn from, in order; it defaults
    to the largest primes below 2**31. Raises :class:`MinorTooLargeError`
    when the elimination would exceed ``MAX_MINOR_WORK``.
    """
    kept = [v for v in vertices if v not in excluded]
    if not kept:
        return 1
    edges = list(endpoints)
    bound = hadamard_bound(kept, edges, ())
    banded = _banded_minor(kept, edges, len(choose_primes(bound, primes)))
    if banded is None:
        return 0
    low, n, b = banded
    skip: set[int] = set()
    while True:
        chosen = choose_primes(bound, primes, skip)
        residues, zero = _eliminate(low, n, b, chosen)
        if not zero:
            return CRT(chosen).recover(residues)
        skip |= zero
