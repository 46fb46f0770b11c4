"""Spanning-tree counts, electrical flows, and effective resistances.

A tree count is the determinant of the Laplacian with one vertex's row and
column removed, always exact: a minor too large to eliminate raises
``_modular.MinorTooLargeError`` instead of being approximated. It is 0
exactly when the graph is disconnected, so no count needs a connectivity
check. The effective resistance of an edge is the probability that a
uniform spanning tree contains it: the ratio of the minor without both
endpoints to the minor without one.

Every exact minor goes through one size choice. Below ``MODULAR_MINOR_ROWS``
rows it is ``_linalg.laplacian_minor_det`` (fraction-free Bareiss on Python
ints), whose fixed cost is lowest. From there on it is
``_modular.minor_det``: reverse Cuthill-McKee order, elimination on the band
modulo word-size primes, CRT, and a spare-prime check, which turns an O(n^3)
big-integer determinant into O(n b^2) word operations per prime for
bandwidth b. Both give the same integer.

A unit flow from s to t is one solve (``_modular.minor_solve``): the
Laplacian grounded at t is eliminated on its band modulo word primes with
e_s carried along, and back-substitution gives column s of its adjugate,
exact by the same checked CRT. The voltages are that column over the tree
count, and the voltage across an edge is its tree-ratio resistance. So
every flow and resistance is an exact ``Fraction`` or is refused with
``MinorTooLargeError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import laplacian_minor_det, log2_int
from ._modular import minor_det, minor_solve
from .graphs import EmbeddedMultiGraph, _UnionFind

# Minors of at least this many rows go to banded modular elimination; below
# it Bareiss is faster, because the modular path's fixed cost dominates.
MODULAR_MINOR_ROWS = 32


@dataclass(frozen=True)
class TreeCount:
    """Exact spanning-tree count, with its log2 (None for a count of 0)."""

    value: int
    exact: bool = True
    log2: float | None = None

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class FlowSolution:
    """Unit electrical flow: voltages per vertex (sink at 0) and per-edge currents.

    The current on edge e = (u, v) is v(u) - v(v), oriented from u to v.
    """

    source: int
    sink: int
    voltages: dict[int, Fraction]
    currents: dict[int, Fraction]


@dataclass(frozen=True)
class ResistanceResult:
    edge: int
    exact: Fraction
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
    """Exact number of spanning trees (1 for a single vertex, 0 when disconnected).

    Raises ``MinorTooLargeError`` (a ``ValueError``) when the minor is too
    large to eliminate within ``_modular.MAX_MINOR_WORK``.
    """
    if g.num_vertices == 0:
        raise ValueError("empty graph")
    verts = g.vertices
    value = _minor(verts, _endpoint_iter(g), {verts[-1]})
    return TreeCount(value, True, log2_int(value) if value else None)


def enumerate_spanning_trees(g: EmbeddedMultiGraph) -> list[frozenset[int]]:
    """All spanning trees by brute force (independent of any determinant).

    Feasible only for small graphs; intended as an oracle.
    """
    verts = g.vertices
    n = len(verts)
    ends = g.edges_dict()
    non_loops = [e for e in g.edge_ids if not g.is_loop(e)]
    trees = []
    for combo in itertools.combinations(non_loops, n - 1):
        sets = _UnionFind(verts)
        for e in combo:
            if sets.union(*ends[e]) is None:
                break
        else:
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


def solve_flow(g: EmbeddedMultiGraph, source: int, sink: int) -> FlowSolution:
    """Exact voltages and currents for one unit of current from source to sink.

    One solve grounded at the sink gives column ``source`` of the adjugate;
    over the tree count it is the voltages. Raises
    ``DisconnectedGraphError`` for a disconnected graph and
    ``MinorTooLargeError`` for a minor too large to solve.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    if source not in g._rotation or sink not in g._rotation:
        raise ValueError("source/sink not in graph")
    tau, column = minor_solve(g.vertices, _endpoint_iter(g), {sink}, source)
    if tau == 0:
        raise DisconnectedGraphError("graph is not connected")
    voltages = {v: Fraction(column[v], tau) for v in g.vertices if v != sink}
    voltages[sink] = Fraction(0)
    currents = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        currents[e] = voltages[u] - voltages[v]
    return FlowSolution(source=source, sink=sink, voltages=voltages, currents=currents)


def effective_resistance(
    g: EmbeddedMultiGraph, e: int, method: str = "auto"
) -> ResistanceResult:
    """Exact effective resistance across edge e: :func:`resistance_fraction`.

    method: "tree-ratio", "laplacian-solve" or "auto" (recorded as
    "tree-ratio"). Every method returns the same tree ratio, which equals
    the voltage across e of :func:`solve_flow` grounded at an endpoint.
    """
    if method == "auto":
        method = "tree-ratio"
    if method not in ("tree-ratio", "laplacian-solve"):
        raise ValueError(f"unknown method {method!r}")
    r = resistance_fraction(g, e)
    return ResistanceResult(edge=e, exact=r, approx=float(r), method=method)


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
