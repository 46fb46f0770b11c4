"""Exact spanning-tree counts kept under edge deletion and contraction.

:class:`TreeCountEngine` holds ``tau``, the number of spanning trees of a
multigraph, as an exact Python int, and the inverse ``M = inv(L0)`` of its
Laplacian grounded at the least vertex, as residues modulo word-size primes
(``tau * M`` is the adjugate). For an edge ``(u, v)`` let ``b = e_u - e_v``
(ground coordinate dropped) and ``w = M b``. Then ``s = tau * b^T M b``
counts the spanning trees that contain the edge, and each edit is the
Sherman-Morrison update ``M' = M + g w w^T`` with one scalar ``g`` per prime:

- add:      ``tau' = tau + s``, ``g = -tau / (tau + s)``;
- delete:   ``tau' = tau - s``, ``g = +tau / (tau - s)``;
- contract: ``tau' = s``,       ``g = -tau / s``, then drop the row and column
  of ``max(u, v)`` (the ground vertex is never dropped).

An engine is built from a BFS spanning tree, whose grounded inverse is the
depth of the least common ancestor (``tau = 1``), by adding every other
non-loop edge. Each update costs O(n^2) word operations per prime.

Lazy reduction: ``M`` is kept in ``uint64``. ``w`` is read from rows reduced
modulo p on the way out, so each outer product ``w (g w)^T`` adds at most
``(p - 1)^2`` to an entry. Below 2**31, ``(p - 1) + 4 (p - 1)^2 < 2**64``:
four updates fit between two ``%`` passes over the whole matrix (the window
is worked out from the largest prime in use).

Exactness: ``s <= tau <= H = prod_{v != ground} deg(v)`` (Hadamard's bound on
the grounded Laplacian), so ``s`` is recovered by CRT over primes whose
product exceeds ``2 H``. One spare prime is carried along and every recovered
``s`` is checked against it; the primes, the bound and the checked CRT are
``_modular``'s, shared with ``spectral``'s exact counts. An update divides by
the new ``tau``, so a prime that divides it has no inverse: the engine is
rebuilt from the current graph with that prime replaced, and the update is
retried until no prime in use divides the new ``tau``. A wrong answer is
never returned silently: a failed check raises :class:`ArithmeticError`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ._modular import CRT, choose_primes, hadamard_bound


class TreeCountEngine:
    """``tau`` and the grounded Laplacian inverse of a connected multigraph.

    ``vertices`` (a set) and ``edges`` (a dict of edge id to endpoint pair) are
    the caller's live containers. The engine reads them only to (re)build, so
    the caller must update the engine before it applies the same edit to
    them. ``primes`` is the pool moduli are drawn from, in order; it defaults
    to the largest primes below 2**31.
    """

    __slots__ = (
        "tau", "primes", "_vertices", "_edges", "_pool", "_excluded", "_mods",
        "_p", "_crt", "_index", "_order", "_m", "_outer", "_window", "_pending",
        "_tau_res", "_cached",
    )

    def __init__(self, vertices: set[int], edges: dict[int, tuple[int, int]], primes=None):
        self._vertices = vertices
        self._edges = edges
        self._pool = None if primes is None else list(primes)
        self._excluded: set[int] = set()
        self._build()

    def copy(self, vertices: set[int], edges: dict[int, tuple[int, int]]) -> TreeCountEngine:
        """An independent engine for ``vertices`` and ``edges``, which must hold this graph."""
        other = object.__new__(TreeCountEngine)
        for name in self.__slots__:
            setattr(other, name, getattr(self, name))
        other._vertices = vertices
        other._edges = edges
        other._excluded = set(self._excluded)
        other._index = dict(self._index)
        other._order = list(self._order)
        other._m = self._m.copy()
        other._outer = np.empty_like(self._outer)
        return other

    # --- construction ---------------------------------------------------------

    def _build(self) -> None:
        while True:
            bound = hadamard_bound(self._vertices, self._edges.values())
            primes = choose_primes(bound, self._pool, self._excluded)
            try:
                self._build_with(primes)
                return
            except _PrimeDividesTau as err:
                self._excluded.add(err.prime)

    def _build_with(self, primes: list[int]) -> None:
        self.primes = tuple(primes[:-1])
        self._mods = primes
        self._p = np.array(primes, dtype=np.uint64)
        self._crt = CRT(primes)
        top = max(primes) - 1
        self._window = (2**64 - 1 - top) // (top * top)
        self._pending = 0
        order = sorted(self._vertices)
        ground = order[0]
        self._order = order[1:]
        self._index = {v: i for i, v in enumerate(self._order)}
        self._cached = None

        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in order}
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            if u != v:
                adj[u].append((v, eid))
                adj[v].append((u, eid))
        # BFS tree from the ground; row i of `anc` marks the tree ancestors of
        # vertex i (itself included), so anc @ anc.T is the depth of the lca.
        n = len(self._order)
        anc = np.zeros((n, n), dtype=np.int64)
        tree_edges: set[int] = set()
        seen = {ground}
        queue = deque([ground])
        while queue:
            x = queue.popleft()
            for y, eid in adj[x]:
                if y in seen:
                    continue
                seen.add(y)
                tree_edges.add(eid)
                iy = self._index[y]
                if x != ground:
                    anc[iy] = anc[self._index[x]]
                anc[iy, iy] = 1
                queue.append(y)
        if len(seen) != len(order):
            raise ValueError("graph is not connected")
        self._m = (anc @ anc.T).astype(np.uint64)[None, :, :] % self._p[:, None, None]
        # Scratch for w w^T: a fresh array of this size per update costs more
        # (page faults) than the arithmetic itself.
        self._outer = np.empty_like(self._m)
        self.tau = 1
        self._tau_res = [1] * len(primes)
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            if u != v and eid not in tree_edges:
                w, s = self._column(u, v)
                self._update(w, self.tau + s, -1)

    # --- queries and edits ----------------------------------------------------

    def _column(self, u: int, v: int) -> tuple[np.ndarray, int]:
        """w = M b modulo each prime, and s = tau b^T M b recovered exactly."""
        iu = self._index.get(u)
        iv = self._index.get(v)
        m = self._m
        p = self._p
        pc = p[:, None]
        if iu is None or iv is None:  # one end is the ground: w = -M e_x, the sign cancels
            x = iv if iu is None else iu
            w = m[:, x, :] % pc
            q = w[:, x]
        else:
            w = (m[:, iu, :] % pc + pc - m[:, iv, :] % pc) % pc
            q = (w[:, iu] + p - w[:, iv]) % p
        res = [r * t % mod for r, t, mod in zip(q.tolist(), self._tau_res, self._mods)]
        # A true s is at most tau <= H < modulus / 2, and agrees with the spare.
        return w, self._crt.recover(res)

    def _edge(self, u: int, v: int) -> tuple[np.ndarray, int]:
        key = (u, v) if u < v else (v, u)
        if self._cached is None or self._cached[0] != key:
            self._cached = (key, *self._column(u, v))
        return self._cached[1], self._cached[2]

    def trees_containing(self, u: int, v: int) -> int:
        """Number of spanning trees that contain a (non-loop) edge u-v."""
        return self._edge(u, v)[1]

    def _update(self, w: np.ndarray, new_tau: int, sign: int) -> None:
        """M <- M + g w w^T with g = sign tau / new_tau modulo each prime; tau <- new_tau.

        Raises :class:`_PrimeDividesTau`, leaving the engine as it was, when
        a prime in use divides ``new_tau``.
        """
        res = [new_tau % p for p in self._mods]
        for p, r in zip(self._mods, res):
            if r == 0:
                raise _PrimeDividesTau(p)
        g = [sign * t * pow(r, -1, p) % p for t, r, p in zip(self._tau_res, res, self._mods)]
        pc = self._p[:, None]
        gw = w * np.array(g, dtype=np.uint64)[:, None] % pc
        m = self._m
        n = m.shape[1]
        m += np.multiply(w[:, :, None], gw[:, None, :], out=self._outer[:, :n, :n])
        self._pending += 1
        if self._pending == self._window:
            m %= pc[:, :, None]
            self._pending = 0
        self.tau = new_tau
        self._tau_res = res
        self._cached = None

    def _edit(self, u: int, v: int, contract: bool) -> None:
        while True:
            w, s = self._edge(u, v)
            new_tau, sign = (s, -1) if contract else (self.tau - s, 1)
            if new_tau == 0:
                raise ValueError("cannot delete a bridge")
            try:
                self._update(w, new_tau, sign)
                return
            except _PrimeDividesTau as err:
                # The graph still matches tau here: rebuild with that prime
                # replaced; a replacement may divide new_tau too, so retry.
                self._excluded.add(err.prime)
                self._build()

    def delete(self, u: int, v: int) -> None:
        """Delete one copy of the non-loop edge u-v; a bridge raises :class:`ValueError`."""
        self._edit(u, v, contract=False)

    def contract(self, u: int, v: int) -> None:
        """Contract the non-loop edge u-v into min(u, v)."""
        self._edit(u, v, contract=True)
        gone = self._index.pop(max(u, v))
        last = len(self._order) - 1
        m = self._m
        if gone != last:
            moved = self._order[last]
            self._order[gone] = moved
            self._index[moved] = gone
            m[:, gone, :] = m[:, last, :]
            m[:, :, gone] = m[:, :, last]
        self._order.pop()
        self._m = m[:, :last, :last]


class _PrimeDividesTau(ArithmeticError):
    def __init__(self, prime: int):
        super().__init__(prime)
        self.prime = prime
