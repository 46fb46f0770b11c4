"""Uniform spanning tree sampling driven by effective resistances.

The sampler walks the edge list of a connected multigraph. At each step it
computes the chosen edge's effective resistance r (the probability a uniform
spanning tree contains it), contracts the edge with probability r or deletes
it otherwise, and records p = r or 1 - r. The contracted edges form a
uniformly random spanning tree, and the product of the recorded p values
along any computation path equals the probability of that path: the fraction
of spanning trees consistent with its decisions.

Exact mode (graphs up to ``EXACT_SAMPLER_THRESHOLD`` vertices) reports r as
the ``Fraction`` s / tau, where tau counts the spanning trees of the current
multigraph and s those containing the edge. Both come from a
``TreeCountEngine`` (``_adjugate``): it keeps the inverse M of the grounded
Laplacian as residues modulo word-size primes and updates it by a rank-one
step ``M + g w w^T`` per deletion or contraction, with g = tau/(tau-s) or
-tau/s per prime: O(n^2) word operations instead of a big-integer
determinant per edge, and a ``%`` pass over M only once every four updates.
s = tau b^T M b is recovered by CRT over enough primes to exceed twice
Hadamard's bound on tau and checked against a spare prime; tau is tracked as
an exact integer, and a prime that divides the new tau is replaced by a
rebuild. Each graph has one engine, built on first use and kept with the
graph (:func:`graph_engine`), and every exact run on it edits a copy: the
runs of a lemma32 report and the plans of an eq4 report share G's engine.
Above the threshold r is a float from a dense solve of the Laplacian
grounded at one endpoint (``_linalg.grounded_resistance``). Both modes go
through one step, ``_RunState.resistance``, which also decides the forced
moves: self-loops, r = 1, and float values within ``FLOAT_FORCED_TOL`` of 0
or 1.

Every run is one loop, ``_run``, told by two callables which edge comes next
and what to do with it. A sampled tree selects by ``EdgePolicy`` and flips
the coin; a replay reads recorded decisions and may stop once they are all
used; a deletion run selects a random non-bridge and always deletes.
``CachedTreeSampler`` caches the resistance at each coin-outcome prefix and
makes one run per new prefix, which replays the cached coins and draws the
rest; in exact mode its bridges are the forced r = 1 contractions.

A Wilson loop-erased-walk sampler is included as an independent oracle.

Randomness: one ``random.Random`` stream per run. A regular run consumes
exactly one ``random()`` per non-forced iteration (forced moves, where r is
0 or 1, consume nothing); a deletion run consumes one ``randrange()`` per
iteration to pick the edge.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random

from ._adjugate import TreeCountEngine
from ._linalg import grounded_resistance
from .graphs import EmbeddedMultiGraph, _memoised
from .spectral import DisconnectedGraphError

EXACT_SAMPLER_THRESHOLD = 64
FLOAT_FORCED_TOL = 1e-12


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class EdgePolicy:
    """Rule for choosing the next edge to process.

    kinds: "lowest-id" (default), "given-order" (first surviving edge of a
    fixed sequence), "boundary-first" (edges of a given cut set first, lowest
    id within each class).
    """

    kind: str = "lowest-id"
    order: tuple[int, ...] | None = None
    cut: frozenset[int] | None = None

    @classmethod
    def lowest_id(cls) -> "EdgePolicy":
        return cls(kind="lowest-id")

    @classmethod
    def given_order(cls, order) -> "EdgePolicy":
        return cls(kind="given-order", order=tuple(order))

    @classmethod
    def boundary_first(cls, cut_set) -> "EdgePolicy":
        return cls(kind="boundary-first", cut=frozenset(cut_set))

    def select(self, surviving) -> int:
        if self.kind == "lowest-id":
            return min(surviving)
        if self.kind == "given-order":
            for e in self.order:
                if e in surviving:
                    return e
            raise SamplerError("policy order exhausted before the run finished")
        if self.kind == "boundary-first":
            on_cut = [e for e in surviving if e in self.cut]
            return min(on_cut) if on_cut else min(surviving)
        raise SamplerError(f"unknown policy kind {self.kind!r}")


@dataclass(frozen=True)
class TraceStep:
    index: int
    edge: int
    resistance: Fraction | float
    probability: Fraction | float
    action: str  # "contracted" | "deleted"
    forced: bool


@dataclass(frozen=True)
class SampleTrace:
    steps: tuple[TraceStep, ...]
    tree: frozenset[int]
    complete: bool
    initial_trees: int | None
    # True when every r is an exact Fraction, False on the float path.
    exact: bool
    # Potential values from a pile tracker, one per prefix: pebbles[0] is the
    # initial potential and pebbles[i] the value after step i. Optional; filled
    # in by the pebbles module.
    pebbles: tuple[int, ...] | None = None

    def p_product(self) -> Fraction | float:
        prod = Fraction(1)
        for s in self.steps:
            prod *= s.probability
        return prod

    def contracted(self) -> list[int]:
        return [s.edge for s in self.steps if s.action == "contracted"]

    def deleted(self) -> list[int]:
        return [s.edge for s in self.steps if s.action == "deleted"]


def _num(x) -> object:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def trace_to_jsonl(trace: SampleTrace) -> str:
    lines = []
    for k, s in enumerate(trace.steps):
        record = {
            "i": s.index,
            "edge": s.edge,
            "r": _num(s.resistance),
            "p": _num(s.probability),
            "action": s.action,
            "forced": s.forced,
        }
        if trace.pebbles is not None:
            record["P"] = str(trace.pebbles[k + 1])
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def save_trace(trace: SampleTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_jsonl(trace))


def find_bridges(edges: dict[int, tuple[int, int]], vertices) -> set[int]:
    """Bridge edges of a multigraph; parallel copies and self-loops are never bridges."""
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for eid, (u, v) in edges.items():
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[int] = set()
    timer = 0
    for root in vertices:
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        frames = [[root, -1, 0]]
        while frames:
            v, pe, i = frames[-1]
            nbrs = adj.get(v, ())
            if i < len(nbrs):
                frames[-1][2] += 1
                w, eid = nbrs[i]
                if eid == pe:
                    continue
                if w not in disc:
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append([w, eid, 0])
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] > disc[u]:
                        bridges.add(pe)
    return bridges


class _RunState:
    """Mutable multigraph view used inside a run (original edge ids kept).

    In exact mode the tree counts come from a copy of ``g``'s engine
    (:func:`graph_engine`), updated by every contraction and deletion.
    """

    __slots__ = ("edges", "vertices", "exact", "_incident", "_engine")

    def __init__(self, g: EmbeddedMultiGraph, exact: bool):
        engine = graph_engine(g)  # raises unless g is connected
        self.edges: dict[int, tuple[int, int]] = g.edges_dict()
        self.vertices: set[int] = set(g.vertices)
        self.exact = exact
        self._incident: dict[int, set[int]] | None = None
        self._engine = engine.copy(self.vertices, self.edges) if exact else None

    def _incidence(self) -> dict[int, set[int]]:
        """Edge ids at each vertex, so a contraction renames O(degree) edges.

        Built on the first contraction (deletion-only runs never need it)
        and kept up to date by every later edit.
        """
        if self._incident is None:
            self._incident = {v: set() for v in self.vertices}
            for e, (u, v) in self.edges.items():
                self._incident[u].add(e)
                self._incident[v].add(e)
        return self._incident

    @property
    def trees(self) -> int | None:
        return self._engine.tau if self.exact else None

    def trees_containing(self, u: int, v: int) -> int:
        return self._engine.trees_containing(u, v)

    def resistance(self, u: int, v: int) -> tuple[Fraction | float, str | None]:
        """Effective resistance of an edge u-v, and the action it forces, if any.

        A self-loop forces deletion (r = 0). In exact mode r is s / tau and
        r = 1 forces contraction. Otherwise r comes from a dense solve of the
        Laplacian grounded at v, snapped to a forced 0 or 1 within
        ``FLOAT_FORCED_TOL`` and clamped to [0, 1].
        """
        if u == v:
            return (Fraction(0) if self.exact else 0.0), "deleted"
        if self.exact:
            r = Fraction(self.trees_containing(u, v), self.trees)
            return r, ("contracted" if r == 1 else None)
        r = grounded_resistance(self.vertices, self.edges.values(), u, v)
        if r >= 1.0 - FLOAT_FORCED_TOL:
            return 1.0, "contracted"
        if r <= FLOAT_FORCED_TOL:
            return 0.0, "deleted"
        return min(max(r, 0.0), 1.0), None

    def contract(self, e: int) -> None:
        u, v = self.edges[e]
        keep, gone = (u, v) if u < v else (v, u)
        if keep == gone:
            raise SamplerError("cannot contract a self-loop")
        if self._engine is not None:
            self._engine.contract(u, v)
        incident = self._incidence()
        del self.edges[e]
        incident[keep].discard(e)
        for f in incident.pop(gone):
            if f != e:
                x, y = self.edges[f]
                self.edges[f] = (keep if x == gone else x, keep if y == gone else y)
                incident[keep].add(f)
        self.vertices.discard(gone)

    def delete(self, e: int) -> None:
        u, v = self.edges[e]
        if self._engine is not None and u != v:
            self._engine.delete(u, v)
        del self.edges[e]
        if self._incident is not None:
            self._incident[u].discard(e)
            self._incident[v].discard(e)


def _run(
    g: EmbeddedMultiGraph,
    select: Callable[[_RunState], int | None],
    decide: Callable[[int, Fraction | float, str | None], str],
) -> SampleTrace:
    """Algorithm 1 on ``g``: the one loop that processes edges by resistance.

    ``select(state)`` names the next surviving edge, or None to stop.
    ``decide(e, r, forced)`` returns the action for edge e, "contracted" or
    "deleted", from its resistance r and the action r forces (None if none).
    The run is exact up to ``EXACT_SAMPLER_THRESHOLD`` vertices.
    """
    state = _RunState(g, g.num_vertices <= EXACT_SAMPLER_THRESHOLD)
    initial = state.trees
    steps: list[TraceStep] = []
    tree: list[int] = []
    while (e := select(state)) is not None:
        r, forced = state.resistance(*state.edges[e])
        action = decide(e, r, forced)
        if action == "contracted":
            p = r
            state.contract(e)
            tree.append(e)
        else:
            p = 1 - r
            state.delete(e)
        steps.append(
            TraceStep(
                index=len(steps) + 1,
                edge=e,
                resistance=r,
                probability=p,
                action=action,
                forced=forced is not None,
            )
        )
    return SampleTrace(
        steps=tuple(steps),
        tree=frozenset(tree),
        complete=len(state.vertices) < 2,
        initial_trees=initial,
        exact=state.exact,
    )


def _policy_select(policy: EdgePolicy) -> Callable[[_RunState], int | None]:
    """``policy``'s next edge, until one vertex or no edge is left."""

    def select(state: _RunState) -> int | None:
        if len(state.vertices) < 2 or not state.edges:
            return None
        return policy.select(state.edges)

    return select


def _coin(rng: Random, r: Fraction | float) -> bool:
    """Algorithm 1's coin: True (contract) with probability r, from one ``random()``.

    Exact for a rational r: the draw's integer ratio is compared with r's by
    cross-multiplying, as ``Fraction(x) < r`` would, without building the
    ``Fraction``.
    """
    x = rng.random()
    if isinstance(r, float):
        return x < r
    a, b = x.as_integer_ratio()
    return a * r.denominator < r.numerator * b


def sample_tree_resistance(
    g: EmbeddedMultiGraph,
    seed: int | None = None,
    policy: EdgePolicy | None = None,
    rng: Random | None = None,
) -> SampleTrace:
    """Run the resistance-driven sampler to completion.

    Exact rational resistances below the vertex threshold, floating above
    (resistances within 1e-12 of 0 or 1 are then treated as forced and the
    step is flagged). The contracted edge set is the sampled tree.
    """
    if rng is None:
        rng = Random(seed)

    def decide(e, r, forced):
        return forced or ("contracted" if _coin(rng, r) else "deleted")

    return _run(g, _policy_select(policy or EdgePolicy.lowest_id()), decide)


def replay_decisions(
    g: EmbeddedMultiGraph,
    decisions: dict[int, str],
    policy: EdgePolicy | None = None,
    stop_when_decided: bool = False,
) -> SampleTrace:
    """Deterministically replay a run whose non-forced decisions are given.

    Forced moves (self-loops, bridges) resolve themselves; a decision that
    contradicts a forced move describes a probability-zero path and raises.
    """
    for a in decisions.values():
        if a not in ("contracted", "deleted"):
            raise SamplerError(f"unknown action {a!r}")
    pending = set(decisions)
    by_policy = _policy_select(policy or EdgePolicy.lowest_id())

    def select(state):
        return None if stop_when_decided and not pending else by_policy(state)

    def decide(e, r, forced):
        action = decisions.get(e, forced)
        if action is None:
            raise SamplerError(f"no decision recorded for edge {e}")
        if forced is not None and action != forced:
            raise SamplerError(
                f"decision {action!r} for edge {e} has probability zero (forced {forced})"
            )
        pending.discard(e)
        return action

    return _run(g, select, decide)


def run_constrained_deletions(
    g: EmbeddedMultiGraph, delete_edges
) -> tuple[Fraction, EmbeddedMultiGraph]:
    """Delete the given edges in order, multiplying out (1 - r) at each step.

    The product is the probability that a uniform spanning tree avoids the
    whole set. Raises if a deletion would disconnect the graph. Returns the
    probability and the remaining embedded graph.
    """
    order = list(delete_edges)
    if len(set(order)) != len(order):
        raise SamplerError("duplicate edges in deletion set")
    edges = g.edges_dict()
    for e in order:
        if e not in edges:
            raise SamplerError(f"no edge {e}")
    decisions = {e: "deleted" for e in order}
    trace = replay_decisions(
        g, decisions, policy=EdgePolicy.given_order(order), stop_when_decided=True
    )
    return trace.p_product(), g.delete_edge(order)


@_memoised
def graph_engine(g: EmbeddedMultiGraph) -> TreeCountEngine | None:
    """``g``'s tree-count engine, or None where runs on ``g`` are not exact.

    Built on the first call for ``g`` and kept with it: every later call
    returns the same engine, which no caller edits (each exact run edits a
    copy). Raises :class:`DisconnectedGraphError` unless ``g`` is connected,
    so runs do not check again.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("graph is not connected")
    if g.num_vertices > EXACT_SAMPLER_THRESHOLD:
        return None
    return TreeCountEngine(set(g.vertices), g.edges_dict())


def sample_deletion_run(
    g: EmbeddedMultiGraph, seed: int | None = None, rng: Random | None = None
) -> SampleTrace:
    """Random all-deletions computation path, run until a spanning tree remains.

    Each step deletes a uniformly random surviving non-bridge edge (a
    positive-probability choice, since such an edge always has r < 1) and
    records p = 1 - r. The returned trace is a partial run: the remaining
    bridges are reported as the tree but were never processed.
    """
    if rng is None:
        rng = Random(seed)

    def select(state):
        bridges = find_bridges(state.edges, state.vertices)
        candidates = sorted(e for e in state.edges if e not in bridges)
        return candidates[rng.randrange(len(candidates))] if candidates else None

    trace = _run(g, select, lambda e, r, forced: "deleted")
    surviving = g.edges_dict()
    for e in trace.deleted():
        del surviving[e]
    return replace(trace, tree=frozenset(surviving), complete=False)


def sample_tree_wilson(
    g: EmbeddedMultiGraph, seed: int | None = None, rng: Random | None = None
) -> frozenset[int]:
    """Uniform spanning tree via loop-erased random walks.

    Self-loops are skipped (they are in no tree and only delay the walk);
    parallel edges are distinct walk choices, so trees that use different
    copies are distinct outcomes. The walk incidence is built on the first
    call for ``g`` and kept with it. Returns the rooted tree's edge set.
    """
    if rng is None:
        rng = Random(seed)
    return frozenset(e for _, e, _ in _wilson_walk(_connected_walk_incidence(g), rng)[1:])


@_memoised
def _connected_walk_incidence(g: EmbeddedMultiGraph):
    """:func:`_walk_incidence` of a connected ``g``, built once per graph."""
    if not g.is_connected():
        raise DisconnectedGraphError("graph is not connected")
    return _walk_incidence(g, g.vertices)


@_memoised
def _ends(g: EmbeddedMultiGraph) -> dict[int, list[tuple[int, int]]]:
    """Per vertex, its ``(edge, other end)`` pairs in ``edges_dict()`` order, loops skipped."""
    ends: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for e, (u, v) in g.edges_dict().items():
        if u != v:
            ends[u].append((e, v))
            ends[v].append((e, u))
    return ends


def _walk_incidence(g: EmbeddedMultiGraph, vertices: list[int]) -> list[tuple[list, int]]:
    """Per vertex of the sorted list ``vertices``, its walk choices for :func:`_wilson_walk`.

    The walk stays on the subgraph ``vertices`` induce, unchecked for
    connectivity. A vertex's entry is ``(choices, k)``: its ``d`` walk steps
    ``(edge, position of the other end)`` in :func:`_ends` order, padded with
    ``None`` to ``2**k`` entries, ``k = d.bit_length()`` (``[]`` for none).
    """
    ends = _ends(g)
    at = {v: i for i, v in enumerate(vertices)}
    out = []
    for v in vertices:
        c = [(e, at[w]) for e, w in ends[v] if w in at]
        k = len(c).bit_length()
        out.append((c + [None] * ((1 << k) - len(c)) if c else c, k))
    return out


def _wilson_walk(
    incident: list[tuple[list[tuple[int, int] | None], int]], rng: Random
) -> list[tuple[int, int | None, int | None]]:
    """The loop-erased walks of :func:`sample_tree_wilson` over a built incidence.

    Returns the spanning tree rooted at the first vertex as ``(vertex, edge,
    parent)`` positions, the root's ``(0, None, None)`` first and every other
    vertex after its parent. Each walk step draws its choice as
    ``rng.randrange(d)`` does: ``k = d.bit_length()`` bits from
    ``getrandbits``, drawn again while they are not below ``d`` (they land on
    the ``None`` padding). The trees and the state ``rng`` is left in are
    those of ``randrange``. A ``Random`` subclass that overrides ``random()``
    but not ``getrandbits()`` draws ``randrange`` from ``random()`` instead,
    so it gets another stream here. A non-root vertex with no choice raises
    ``ValueError``, as ``randrange(0)`` does.
    """
    getrandbits = rng.getrandbits
    n = len(incident)
    in_tree = [False] * n
    in_tree[0] = True
    step: list[tuple[int, int] | None] = [None] * n
    tree: list[tuple[int, int | None, int | None]] = [(0, None, None)]
    for start in range(1, n):
        if in_tree[start]:
            continue
        u = start
        try:
            while not in_tree[u]:
                choices, k = incident[u]
                choice = choices[getrandbits(k)]
                while choice is None:
                    choice = choices[getrandbits(k)]
                step[u] = choice
                u = choice[1]
        except IndexError:
            raise ValueError(f"vertex at position {u} has no walk choice") from None
        path, u = [], start
        while not in_tree[u]:
            in_tree[u] = True
            e, w = step[u]
            path.append((u, e, w))
            u = w
        tree += reversed(path)  # from the tree back to start: each parent comes first
    return tree


class CachedTreeSampler:
    """Repeated runs of the resistance sampler with a shared outcome cache.

    With a deterministic edge policy the state after any sequence of coin
    outcomes is fixed, so the resistance at each distinct outcome prefix, and
    the tree at the end of each complete one, is worked out once. Complete
    runs correspond one-to-one with spanning trees, which makes repeated
    sampling on small graphs cheap. :meth:`sample` walks the cached prefixes;
    at the first unseen one it makes one run from the root, which replays the
    prefix and caches every coin it draws past it. Only the sampled tree is
    returned (no trace).
    """

    def __init__(self, g: EmbeddedMultiGraph, policy: EdgePolicy | None = None):
        if g.num_vertices > EXACT_SAMPLER_THRESHOLD:
            raise SamplerError("cached sampling is for small graphs")
        self._g = g
        self._select = _policy_select(policy or EdgePolicy.lowest_id())
        # outcome prefix -> ("coin", r) or ("end", tree)
        self._nodes: dict[tuple[bool, ...], tuple] = {}

    def sample(self, rng: Random) -> frozenset[int]:
        bits: tuple[bool, ...] = ()
        while (node := self._nodes.get(bits)) is not None:
            if node[0] == "end":
                return node[1]
            bits += (_coin(rng, node[1]),)
        return self._run_past(bits, rng)

    def _run_past(self, bits: tuple[bool, ...], rng: Random) -> frozenset[int]:
        """One run from the root that replays ``bits``, then draws and caches the coins after it."""
        path = list(bits)
        coins = 0

        def decide(e, r, forced):
            nonlocal coins
            if forced is not None:
                return forced
            if coins == len(path):
                self._nodes[tuple(path)] = ("coin", r)
                path.append(_coin(rng, r))
            coins += 1
            return "contracted" if path[coins - 1] else "deleted"

        tree = _run(self._g, self._select, decide).tree
        self._nodes[tuple(path)] = ("end", tree)
        return tree


def sample_trees_counter(
    g: EmbeddedMultiGraph,
    n_samples: int,
    seed: int | None = None,
    policy: EdgePolicy | None = None,
) -> Counter:
    """Draw many trees from the resistance sampler; returns tree -> frequency."""
    rng = Random(seed)
    sampler = CachedTreeSampler(g, policy)
    counts: Counter = Counter()
    for _ in range(n_samples):
        counts[sampler.sample(rng)] += 1
    return counts
