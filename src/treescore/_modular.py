"""Exact integers from residues modulo word-size primes.

One home for the arithmetic that exact tree counts share: the table of primes
below 2**31, Hadamard's bound on a grounded Laplacian determinant, the choice
of primes whose product covers twice that bound plus one spare, and Chinese
remaindering checked against the spare. ``_adjugate.TreeCountEngine`` and
:func:`minor_solve` both use them.

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

:func:`minor_solve` carries ``e_s`` through the same elimination, keeps each
pivot row, back-substitutes and multiplies by the determinant: column s of
the adjugate. Its entry w counts two-tree spanning forests (the grounded
vertices in one tree, w and s in the other), so it lies in [0, H] and the
same checked CRT recovers it. A prime that meets a zero pivot, the last
included, is replaced.
"""

from __future__ import annotations

import numpy as np

_WORD_PRIME_LIMIT = 1 << 31
# Largest n (b+1)^2 k eliminated: a 45x45 grid is 5.6e8 (8 s), a 400-spoke wheel 1.4e9 (15 s).
# A solve adds n k^2 for recovering its n entries.
MAX_MINOR_WORK = 10**9
# Largest n (b+2) k int64 words a solve keeps for back-substitution: 1 GiB.
MAX_SOLVE_WORDS = 2**27
_word_primes: list[int] = []  # largest primes below 2**31, descending; grown on demand


class MinorTooLargeError(ValueError):
    """A minor whose elimination or solve would exceed ``MAX_MINOR_WORK`` or ``MAX_SOLVE_WORDS``."""


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
    """Rows of the grounded Laplacian in RCM order, as ``(low, order, b)``; None if it is singular.

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
    return np.array(rows, dtype=np.int64), order, b


def _eliminate(low: np.ndarray, n: int, b: int, primes: list[int], stored=None):
    """Determinant residues of the banded matrix ``low`` modulo each prime.

    The window holds ``sigma_k`` times the Schur complement S of the rows
    eliminated so far, with one scale per prime. Step k reads the pivot
    ``d_k = sigma_k S_kk`` at the corner and replaces the window by
    ``d_k W - c r^T`` (c and r the pivot column and row), which is
    ``sigma_{k+1} = sigma_k d_k`` times the next Schur complement; the row
    and column that enter are the matrix's own (no earlier pivot row reaches
    them), scaled by ``sigma_{k+1}``. A right-hand side in ``low``'s column
    ``b + 1`` is the window's last column; given ``stored``, step k's pivot
    row goes to ``stored[k]``. No step needs an inverse: ``sigma_k = d_0 ...
    d_{k-1}``, and the determinant ``prod S_kk = prod d_k / prod sigma_k``
    takes one inverse per prime at the end. Residues stay below 2**31, so
    every product fits ``int64``. Returns the residues and the primes that
    met a zero pivot before the last row; those primes' residues are
    meaningless.
    """
    k = len(primes)
    width = low.shape[1]
    p = np.array(primes, dtype=np.int64)
    p2 = p[:, None]
    p3 = p[:, None, None]
    window = np.zeros((k, b + 1, width), dtype=np.int64)
    for i in range(b + 1):
        window[:, i, : i + 1] = low[i, b - i : b + 1]
        window[:, :i, i] = low[i, b - i : b]
    window[:, :, b + 1 :] = low[: b + 1, b + 1 :]
    window %= p3
    spare = np.zeros_like(window)
    scaled = np.empty((k, b, width - 1), dtype=np.int64)
    outer = np.empty_like(scaled)
    entering = np.empty((k, width), dtype=np.int64)
    sigma = np.ones(k, dtype=np.int64)
    den = np.ones(k, dtype=np.int64)  # prod sigma_k
    for step in range(n):
        piv = window[:, 0, 0]
        if stored is not None:
            stored[step] = window[:, 0, :]
        den *= sigma
        den %= p
        sigma *= piv
        sigma %= p
        if step == n - 1:
            break
        np.multiply(window[:, 1:, 1:], piv[:, None, None], out=scaled)
        np.multiply(window[:, 1:, :1], window[:, :1, 1:], out=outer)
        scaled -= outer
        np.remainder(scaled, p3, out=spare[:, :b, : width - 1])
        np.multiply(low[step + b + 1], sigma[:, None], out=entering)
        np.remainder(entering, p2, out=spare[:, b, :])
        spare[:, :b, b + 1 :] = spare[:, :b, b : width - 1]  # a right-hand side moves right
        spare[:, :b, b] = spare[:, b, :b]
        window, spare = spare, window
    # A zero pivot before the last row zeroes every later sigma_k, so den too.
    zero = {q for q, d in zip(primes, den.tolist()) if d == 0}
    residues = [
        0 if d == 0 else s * pow(d, -1, q) % q
        for q, s, d in zip(primes, sigma.tolist(), den.tolist())
    ]
    return residues, zero


def minor_solve(vertices, endpoints, excluded, source=None, primes=None):
    """``(det, column)``: :func:`minor_det`, and column ``source`` of the adjugate.

    ``column`` maps each kept vertex w to entry ``(w, source)``; it is None
    without a ``source`` (which must be kept) or for a singular minor. A
    solve whose kept rows exceed ``MAX_SOLVE_WORDS``, or whose elimination
    and n checked recoveries of k primes each exceed ``MAX_MINOR_WORK``
    word operations, is refused before it starts.
    """
    kept = [v for v in vertices if v not in excluded]
    if not kept:
        return 1, None
    edges = list(endpoints)
    bound = hadamard_bound(kept, edges, ())
    k = len(choose_primes(bound, primes))
    banded = _banded_minor(kept, edges, k)
    if banded is None:
        return 0, None
    low, order, b = banded
    n = len(order)
    if source is not None:
        words, work = n * (b + 2) * k, n * k * ((b + 1) ** 2 + k)  # k^2 a recovery
        if words > MAX_SOLVE_WORDS or work > MAX_MINOR_WORK:
            raise MinorTooLargeError(
                f"exact solve of {n} rows with bandwidth {b} over {k} primes keeps {words:.2e} "
                f"words (limit {MAX_SOLVE_WORDS:.2e}) and needs about {work:.2e} word "
                f"operations with its {n} recoveries (limit {MAX_MINOR_WORK:.0e})"
            )
        low = np.column_stack((low, np.arange(n + b) == order.index(source)))
    skip: set[int] = set()
    while True:
        chosen = choose_primes(bound, primes, skip)
        stored = None if source is None else np.empty((n, len(chosen), b + 2), dtype=np.int64)
        residues, zero = _eliminate(low, n, b, chosen, stored)
        if stored is not None:  # back-substitution divides by the last pivot too
            zero |= {q for q, r in zip(chosen, residues) if r == 0}
        if not zero:
            break
        skip |= zero
    crt = CRT(chosen)
    if stored is None:
        return crt.recover(residues), None
    # Back-substitution, each 1/d_k = sigma_k / sigma_{k+1} from one inverse per prime.
    p = np.array(chosen, dtype=np.int64)
    sigma = np.ones((n + 1, len(chosen)), dtype=np.int64)
    for step in range(n):
        sigma[step + 1] = sigma[step] * stored[step, :, 0] % p
    inv = np.array([pow(s, -1, q) for s, q in zip(sigma[n].tolist(), chosen)], dtype=np.int64)
    x = np.zeros((n + b, len(chosen)), dtype=np.int64)
    for step in range(n - 1, -1, -1):
        inv_d = inv * sigma[step] % p
        inv = inv * stored[step, :, 0] % p  # now 1 / sigma_step
        known = stored[step, :, 1 : b + 1] * x[step + 1 : step + b + 1].T % p[:, None]
        x[step] = (stored[step, :, b + 1] - known.sum(axis=1)) % p * inv_d % p
    det = np.array(residues, dtype=np.int64)  # x times det is the adjugate column
    return crt.recover(residues), {v: crt.recover((r * det % p).tolist()) for v, r in zip(order, x)}


def minor_det(vertices, endpoints, excluded, primes=None) -> int:
    """Determinant of the multigraph Laplacian with the excluded rows/columns removed.

    The same value as ``_linalg.laplacian_minor_det`` (parallel edges repeat,
    self-loops are ignored). ``primes`` is the pool moduli are drawn from, in
    order, by default the largest primes below 2**31. Raises
    :class:`MinorTooLargeError` past ``MAX_MINOR_WORK``.
    """
    return minor_solve(vertices, endpoints, excluded, primes=primes)[0]
