"""Spanning-tree counts, electrical flows, and effective resistances.

A tree count is the determinant of the Laplacian with one vertex's row and
column removed, computed exactly up to ``EXACT_COUNT_THRESHOLD`` vertices
(above it, a float ``slogdet`` gives only log2). The effective resistance of
an edge is the probability that a uniform spanning tree contains it: the
ratio of the minor without both endpoints to the minor without one.

Every exact minor goes through one size choice. Below ``MODULAR_MINOR_ROWS``
rows it is ``_linalg.laplacian_minor_det`` (fraction-free Bareiss on Python
ints), whose fixed cost is lowest. From there on it is
``_modular.minor_det``: reverse Cuthill-McKee order, elimination on the band
modulo word-size primes, CRT, and a spare-prime check, which turns an O(n^3)
big-integer determinant into O(n b^2) word operations per prime for
bandwidth b. Both give the same integer.

Dense matrices here are built by ``_linalg.reduced_laplacian``, which fixes
the rules once: the grounded vertex is left out of the kept list, self-loops
are skipped and parallel edges add up.

A unit flow from s to t is exact up to ``EXACT_FLOW_THRESHOLD`` vertices:
its voltages are columns s and t of the grounded adjugate, read from one
``_adjugate.TreeCountEngine``, over the tree count. Above it they come from
one float solve (``_linalg.unit_voltages``), the same one the sampler's float
step makes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._adjugate import TreeCountEngine
from ._linalg import laplacian_minor_det, log2_int, reduced_laplacian, unit_voltages
from ._modular import minor_det
from .graphs import EmbeddedMultiGraph

EXACT_COUNT_THRESHOLD = 2048
EXACT_FLOW_THRESHOLD = 64
# Minors of at least this many rows go to banded modular elimination; below
# it Bareiss is faster, because the modular path's fixed cost dominates.
MODULAR_MINOR_ROWS = 32


@dataclass(frozen=True)
class TreeCount:
    """Spanning-tree count; exact unless the graph exceeded the size threshold."""

    value: int | None
    exact: bool = True
    log2: float | None = None

    def __int__(self) -> int:
        if self.value is None:
            raise ValueError("count is approximate; use .log2")
        return self.value


@dataclass(frozen=True)
class FlowSolution:
    """Unit electrical flow: voltages per vertex (sink at 0) and per-edge currents.

    The current on edge e = (u, v) is v(u) - v(v), oriented from u to v.
    """

    source: int
    sink: int
    voltages: dict[int, Fraction] | dict[int, float]
    currents: dict[int, Fraction] | dict[int, float]
    exact: bool


@dataclass(frozen=True)
class ResistanceResult:
    edge: int
    exact: Fraction | None
    approx: float
    method: str


class DisconnectedGraphError(ValueError):
    pass


def _endpoint_iter(g: EmbeddedMultiGraph):
    return g.edges_dict().values()


def _minor(vertices: list[int], endpoints, excluded: set[int]) -> int:
    """``laplacian_minor_det``'s value, by the method that is faster at this size."""
    if len(vertices) - len(excluded) >= MODULAR_MINOR_ROWS:
        return minor_det(vertices, endpoints, excluded)
    return laplacian_minor_det(vertices, endpoints, excluded)


def count_spanning_trees(g: EmbeddedMultiGraph) -> TreeCount:
    """Number of spanning trees (1 for a single vertex, 0 when disconnected)."""
    n = g.num_vertices
    if n == 0:
        raise ValueError("empty graph")
    if n > 1 and not g.is_connected():
        return TreeCount(0, True, None)
    return _count(g)


def _count(g: EmbeddedMultiGraph) -> TreeCount:
    """The body of :func:`count_spanning_trees`, for a nonempty graph known to be connected."""
    n = g.num_vertices
    if n == 1:
        return TreeCount(1, True, 0.0)
    verts = g.vertices
    if n <= EXACT_COUNT_THRESHOLD:
        value = _minor(verts, _endpoint_iter(g), {verts[-1]})
        return TreeCount(value, True, log2_int(value))
    m = reduced_laplacian(verts[:-1], _endpoint_iter(g), np.zeros((n - 1, n - 1)))
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        return TreeCount(0, True, None)
    return TreeCount(None, False, float(logdet / np.log(2.0)))


def enumerate_spanning_trees(g: EmbeddedMultiGraph) -> list[frozenset[int]]:
    """All spanning trees by brute force (independent of any determinant).

    Feasible only for small graphs; intended as an oracle.
    """
    verts = g.vertices
    n = len(verts)
    non_loops = [e for e in g.edge_ids if not g.is_loop(e)]
    trees = []
    for combo in itertools.combinations(non_loops, n - 1):
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in combo:
            u, v = g.endpoints(e)
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            trees.append(frozenset(combo))
    return trees


def resistance_fraction(g: EmbeddedMultiGraph, e: int) -> Fraction:
    """Exact effective resistance of edge e via two tree counts.

    For a self-loop the resistance is 0. For any other edge it equals
    (trees containing e) / (all trees), both computed as Laplacian minors.
    """
    u, v = g.endpoints(e)
    if u == v:
        return Fraction(0)
    verts = g.vertices
    total = _minor(verts, _endpoint_iter(g), {u})
    if total == 0:
        raise DisconnectedGraphError("graph is not connected")
    containing = _minor(verts, _endpoint_iter(g), {u, v})
    return Fraction(containing, total)


def solve_flow(
    g: EmbeddedMultiGraph,
    source: int,
    sink: int,
    exact: bool | None = None,
) -> FlowSolution:
    """Voltages and currents for one unit of current from source to sink.

    Exact below the size threshold: two columns of the grounded adjugate,
    from one ``TreeCountEngine``, over the tree count. Otherwise one dense
    float solve with the sink grounded.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    verts = g.vertices
    if source not in g._rotation or sink not in g._rotation:
        raise ValueError("source/sink not in graph")
    if not g.is_connected():
        raise DisconnectedGraphError("graph is not connected")
    if exact is None:
        exact = g.num_vertices <= EXACT_FLOW_THRESHOLD

    kept = [v for v in verts if v != sink]
    if exact:
        engine = TreeCountEngine(set(verts), g.edges_dict())
        a_s = engine.adjugate_column(source)
        a_t = engine.adjugate_column(sink)
        shift = a_t.get(sink, 0) - a_s.get(sink, 0)
        voltages: dict = {
            v: Fraction(a_s.get(v, 0) - a_t.get(v, 0) + shift, engine.tau) for v in kept
        }
        voltages[sink] = Fraction(0)
    else:
        x = unit_voltages(kept, _endpoint_iter(g), kept.index(source))
        voltages = {v: float(xv) for v, xv in zip(kept, x)}
        voltages[sink] = 0.0

    currents: dict = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        currents[e] = voltages[u] - voltages[v] if u != v else voltages[u] * 0
    return FlowSolution(source=source, sink=sink, voltages=voltages, currents=currents, exact=exact)


def effective_resistance(
    g: EmbeddedMultiGraph, e: int, method: str = "auto"
) -> ResistanceResult:
    """Effective resistance across edge e.

    method: "tree-ratio" (exact), "laplacian-solve" (flow-based), or "auto"
    (tree-ratio up to the exact-flow threshold, laplacian-solve beyond).
    """
    if method == "auto":
        method = "tree-ratio" if g.num_vertices <= EXACT_FLOW_THRESHOLD else "laplacian-solve"
    if method == "tree-ratio":
        r = resistance_fraction(g, e)
        return ResistanceResult(edge=e, exact=r, approx=float(r), method=method)
    if method == "laplacian-solve":
        u, v = g.endpoints(e)
        if u == v:
            return ResistanceResult(edge=e, exact=Fraction(0), approx=0.0, method=method)
        fl = solve_flow(g, u, v)
        r = fl.voltages[u] - fl.voltages[v]
        if fl.exact:
            return ResistanceResult(edge=e, exact=r, approx=float(r), method=method)
        return ResistanceResult(edge=e, exact=None, approx=float(r), method=method)
    raise ValueError(f"unknown method {method!r}")


class InvalidCycleError(ValueError):
    pass


def check_cycle_bound(g: EmbeddedMultiGraph, e: int, cycle_edges) -> bool:
    """True when R(e) <= 1 - 1/k for the given simple cycle of length k through e.

    The cycle is a list of edge ids; two parallel edges form a valid cycle of
    length 2. Always true for valid inputs; exposed as a checkable predicate.
    """
    cyc = list(cycle_edges)
    if len(set(cyc)) != len(cyc):
        raise InvalidCycleError("repeated edge in cycle")
    if e not in cyc:
        raise InvalidCycleError("cycle does not contain the edge")
    touch: dict[int, int] = {}
    for f in cyc:
        u, v = g.endpoints(f)
        if u == v:
            raise InvalidCycleError("self-loop in cycle")
        touch[u] = touch.get(u, 0) + 1
        touch[v] = touch.get(v, 0) + 1
    if any(c != 2 for c in touch.values()) or len(touch) != len(cyc):
        raise InvalidCycleError("edges do not form a simple cycle")
    seen = {cyc[0]}
    frontier = set(g.endpoints(cyc[0]))
    grew = True
    while grew:
        grew = False
        for f in cyc:
            if f in seen:
                continue
            u, v = g.endpoints(f)
            if u in frontier or v in frontier:
                seen.add(f)
                frontier.update((u, v))
                grew = True
    if len(seen) != len(cyc):
        raise InvalidCycleError("cycle is not connected")
    k = len(cyc)
    r = resistance_fraction(g, e)
    return r <= 1 - Fraction(1, k)


def check_degree_bound(g: EmbeddedMultiGraph, e: int) -> bool:
    """True when R(e) >= 1/deg(a) for the lower-degree endpoint a."""
    u, v = g.endpoints(e)
    if u == v:
        raise ValueError("degree bound does not apply to self-loops")
    d = min(g.degree(u), g.degree(v))
    r = resistance_fraction(g, e)
    return r >= Fraction(1, d)
