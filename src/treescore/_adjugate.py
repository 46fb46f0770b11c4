"""Exact spanning-tree counts kept under edge deletion and contraction.

:class:`TreeCountEngine` holds ``tau``, the number of spanning trees of a
multigraph, exactly, and the adjugate ``A = adj(L0) = tau * inv(L0)`` of its
Laplacian grounded at the least vertex, as residues modulo word-size primes.
For an edge ``(u, v)`` let ``b = e_u - e_v`` (ground coordinate dropped) and
``w = A b``. Then ``s = b^T A b`` counts the spanning trees that contain the
edge, and each edit is a rank-one update with an exact division by ``tau``:

- delete:   ``tau' = tau - s``, ``A' = (tau' A + w w^T) / tau``;
- contract: ``tau' = s``,       ``A' = (s A - w w^T) / tau``, then drop the
  row and column of ``max(u, v)`` (the ground vertex is never dropped);
- add:      ``tau' = tau + s``, ``A' = ((tau + s) A - w w^T) / tau``.

An engine is built from a BFS spanning tree, whose grounded adjugate is the
depth of the least common ancestor (``tau = 1``), by adding every other
non-loop edge. Each update costs O(n^2) word operations per prime.

Exactness: ``s <= tau <= H = prod_{v != ground} deg(v)`` (Hadamard's bound on
the grounded Laplacian), so ``s`` is recovered by CRT over primes whose
product exceeds ``2 H``. One spare prime is carried along and every recovered
``s`` is checked against it; the primes, the bound and the checked CRT are
``_modular``'s, shared with ``spectral``'s exact counts. ``tau`` itself is a
Python int; when a prime divides it the division has no inverse modulo that
prime, and the engine is rebuilt from the current graph with the prime
replaced. A wrong answer is never returned silently: a failed check raises
:class:`ArithmeticError`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ._modular import CRT, choose_primes, hadamard_bound


class TreeCountEngine:
    """``tau`` and the grounded Laplacian adjugate of a connected multigraph.

    ``vertices`` (a set) and ``edges`` (a dict of edge id to endpoint pair) are
    the caller's live containers. The engine reads them only to (re)build, so
    the caller must update the engine before it applies the same edit to
    them. ``primes`` is the pool moduli are drawn from, in order; it defaults
    to the largest primes below 2**31.
    """

    __slots__ = (
        "tau", "primes", "_vertices", "_edges", "_pool", "_excluded",
        "_mods", "_p", "_crt", "_index", "_order", "_a", "_outer", "_cached",
    )

    def __init__(self, vertices: set[int], edges: dict[int, tuple[int, int]], primes=None):
        self._vertices = vertices
        self._edges = edges
        self._pool = None if primes is None else list(primes)
        self._excluded: set[int] = set()
        self._build()

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
        self._p = np.array(primes, dtype=np.int64)
        self._crt = CRT(primes)
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
        self._a = (anc @ anc.T)[None, :, :] % self._p[:, None, None]
        # Scratch for w w^T: a fresh array of this size per update costs more
        # (page faults) than the arithmetic itself.
        self._outer = np.empty_like(self._a)
        self.tau = 1
        for eid in sorted(self._edges):
            u, v = self._edges[eid]
            if u != v and eid not in tree_edges:
                w, s = self._column(u, v)
                self._update(w, self.tau + s, -1)
        for p in primes:
            if self.tau % p == 0:
                raise _PrimeDividesTau(p)

    # --- queries and edits ----------------------------------------------------

    def _column(self, u: int, v: int) -> tuple[np.ndarray, int]:
        """w = A b modulo each prime, and s = b^T A b recovered exactly."""
        iu = self._index.get(u)
        iv = self._index.get(v)
        a = self._a
        if iu is None:
            w = a[:, iv, :].copy()
        elif iv is None:
            w = a[:, iu, :].copy()
        else:
            w = (a[:, iu, :] - a[:, iv, :]) % self._p[:, None]
        if iu is None:
            res = w[:, iv]
        elif iv is None:
            res = w[:, iu]
        else:
            res = (w[:, iu] - w[:, iv]) % self._p
        # A true s is at most tau <= H < modulus / 2, and agrees with the spare.
        return w, self._crt.recover(res.tolist())

    def _edge(self, u: int, v: int) -> tuple[np.ndarray, int]:
        key = (u, v) if u < v else (v, u)
        if self._cached is None or self._cached[0] != key:
            self._cached = (key, *self._column(u, v))
        return self._cached[1], self._cached[2]

    def trees_containing(self, u: int, v: int) -> int:
        """Number of spanning trees that contain a (non-loop) edge u-v."""
        return self._edge(u, v)[1]

    def _update(self, w: np.ndarray, new_tau: int, sign: int) -> None:
        """A <- (new_tau A + sign w w^T) / tau, one reduction per prime; tau <- new_tau."""
        tau = self.tau
        for p in self._mods:
            if tau % p == 0:
                raise _PrimeDividesTau(p)
        inv = [pow(tau, -1, p) for p in self._mods]
        c = np.array([new_tau * i % p for i, p in zip(inv, self._mods)], dtype=np.int64)
        f = np.array([sign * i % p for i, p in zip(inv, self._mods)], dtype=np.int64)
        wt = w * f[:, None] % self._p[:, None]
        a = self._a
        n = a.shape[1]
        outer = np.multiply(w[:, :, None], wt[:, None, :], out=self._outer[:, :n, :n])
        a *= c[:, None, None]
        a += outer
        a %= self._p[:, None, None]
        self.tau = new_tau
        self._cached = None

    def _edit(self, u: int, v: int, contract: bool) -> None:
        w, s = self._edge(u, v)
        new_tau, sign = (s, -1) if contract else (self.tau - s, 1)
        try:
            self._update(w, new_tau, sign)
        except _PrimeDividesTau as err:
            # The graph still matches tau here: rebuild with that prime replaced.
            self._excluded.add(err.prime)
            self._build()
            self._update(self._edge(u, v)[0], new_tau, sign)

    def delete(self, u: int, v: int) -> None:
        """Delete one copy of the non-loop edge u-v; it must not be a bridge."""
        self._edit(u, v, contract=False)

    def contract(self, u: int, v: int) -> None:
        """Contract the non-loop edge u-v into min(u, v)."""
        self._edit(u, v, contract=True)
        gone = self._index.pop(max(u, v))
        last = len(self._order) - 1
        a = self._a
        if gone != last:
            moved = self._order[last]
            self._order[gone] = moved
            self._index[moved] = gone
            a[:, gone, :] = a[:, last, :]
            a[:, :, gone] = a[:, :, last]
        self._order.pop()
        self._a = a[:, :last, :last]


class _PrimeDividesTau(ArithmeticError):
    def __init__(self, prime: int):
        super().__init__(prime)
        self.prime = prime
