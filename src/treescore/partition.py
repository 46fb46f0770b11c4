"""Balanced connected partitions and their spanning-tree weights.

A partition splits the vertex set into m districts of exactly |V|/m vertices,
each inducing a connected subgraph. Its score is the product of the
districts' spanning-tree counts; normalizing scores over all such partitions
gives the distribution this package studies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .graphs import EmbeddedMultiGraph, InvalidGraphError, _memoised, _strict_int, induced_subgraph
from .spectral import count_spanning_trees

ENUMERATION_VERTEX_CAP = 20


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Assignment of every vertex to a district index 0..m-1."""

    m: int
    assignment: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, m: int, assignment: dict[int, int]) -> "Partition":
        return cls(m=m, assignment=tuple(sorted((int(v), int(d)) for v, d in assignment.items())))

    @classmethod
    def from_districts(cls, districts) -> "Partition":
        blocks = [frozenset(b) for b in districts]
        blocks.sort(key=min)
        assignment = {}
        for i, b in enumerate(blocks):
            for v in b:
                assignment[v] = i
        return cls.from_dict(len(blocks), assignment)

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)

    def districts(self) -> list[frozenset[int]]:
        out: list[set[int]] = [set() for _ in range(self.m)]
        for v, d in self.assignment:
            if d < 0 or d >= self.m:
                raise PartitionError(f"district index {d} out of range")
            out[d].add(v)
        return [frozenset(s) for s in out]

    def canonical_key(self) -> tuple[tuple[int, ...], ...]:
        """District blocks as sorted tuples, ordered by smallest member."""
        blocks = [tuple(sorted(b)) for b in self.districts()]
        blocks.sort(key=lambda b: b[0])
        return tuple(blocks)

    def digest(self) -> str:
        raw = repr(self.canonical_key()).encode()
        return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True)
class CutSet:
    edges: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PartitionCheck:
    valid: bool
    problems: tuple[str, ...]


def _size_within(size: int, n: int, m: int, tolerance: int) -> bool:
    return abs(size * m - n) <= tolerance * m


def _sizes_within(n: int, m: int, tolerance: int) -> range:
    """The sizes :func:`_size_within` accepts, for ``m >= 1``."""
    return range(-((tolerance * m - n) // m), (n + tolerance * m) // m + 1)


def check_tolerant_partition(
    g: EmbeddedMultiGraph, p: Partition, tolerance: int
) -> list[str]:
    """Problems with a partition under a balance tolerance (empty = ok).

    ``m`` must lie in ``1..|V|``; this is checked first, so a huge ``m``
    builds no districts. Every vertex must be assigned to exactly one
    district, every district must be connected, and every district size must
    lie within ``tolerance`` of ``|V|/m`` (compared exactly: ``|size*m - |V||
    <= tolerance*m``). With tolerance 0 this is exact balance.
    """
    adj = _adjacency(g)
    n = len(adj)
    if not 1 <= p.m <= n:
        return [f"m = {p.m} is not between 1 and the {n} vertices"]
    problems: list[str] = []
    assigned = {v for v, _ in p.assignment}
    if assigned != adj.keys():
        missing = sorted(adj.keys() - assigned)
        extra = sorted(assigned - adj.keys())
        if missing:
            problems.append(f"unassigned vertices {missing}")
        if extra:
            problems.append(f"unknown vertices {extra}")
        return problems
    for i, block in enumerate(p.districts()):
        if not _size_within(len(block), n, p.m, tolerance):
            problems.append(
                f"district {i} has {len(block)} vertices, expected "
                f"{Fraction(n, p.m)} within tolerance {tolerance}"
            )
        elif len(_component_sizes(adj, block)) != 1:
            # an empty district has no components and counts as disconnected
            problems.append(f"district {i} is not connected")
    return problems


def validate_partition(g: EmbeddedMultiGraph, p: Partition) -> PartitionCheck:
    """Exact balance and district connectivity; m must divide |V|."""
    if p.m < 1:
        raise PartitionError("m must be at least 1")
    if g.num_vertices % p.m != 0:
        raise PartitionError(f"{p.m} does not divide {g.num_vertices} vertices")
    problems = check_tolerant_partition(g, p, 0)
    return PartitionCheck(not problems, tuple(problems))


def cut_edges(g: EmbeddedMultiGraph, p: Partition) -> CutSet:
    a = p.as_dict()
    cut = frozenset(
        e for e, (u, v) in g.edges_dict().items() if u != v and a[u] != a[v]
    )
    return CutSet(cut)


def spanning_tree_score(g: EmbeddedMultiGraph, p: Partition) -> int:
    """Product over districts of their spanning-tree counts."""
    check = validate_partition(g, p)
    if not check.valid:
        raise PartitionError("; ".join(check.problems))
    return _score(g, p)


def _score(g: EmbeddedMultiGraph, p: Partition) -> int:
    """The body of :func:`spanning_tree_score`, for a partition known to be valid."""
    score = 1
    for block in p.districts():
        score *= int(count_spanning_trees(induced_subgraph(g, block)))
    return score


def quotient_graph(g: EmbeddedMultiGraph, p: Partition) -> EmbeddedMultiGraph:
    """Contract every district to a point; the surviving edges are the cut set.

    Intra-district edges that become self-loops are dropped; parallel cut
    edges are kept. The embedding is the one induced by the contractions.
    """
    check = validate_partition(g, p)
    if not check.valid:
        raise PartitionError("; ".join(check.problems))
    a = p.as_dict()
    q = g
    while True:
        intra = next(
            (e for e, (u, v) in sorted(q.edges_dict().items())
             if u != v and a[u] == a[v]),
            None,
        )
        if intra is None:
            break
        u, v = q.endpoints(intra)
        q = q.contract_edge(intra)
        # the merged vertex keeps min(u, v), which lies in the same district
    q = q.delete_edge([e for e in q.edge_ids if q.is_loop(e)])
    if q.num_vertices != p.m:
        raise PartitionError("quotient does not have one vertex per district")
    return q


@_memoised
def _adjacency(g: EmbeddedMultiGraph) -> dict[int, set[int]]:
    """Each vertex's neighbour set, built once per graph."""
    return {v: g.neighbors(v) for v in g.vertices}


def _connected_k_subsets(adj, allowed: frozenset[int], anchor: int, k: int):
    """All connected k-subsets of `allowed` containing anchor, each once.

    Candidates are considered in a fixed order; once a branch without a
    candidate has been explored, that candidate is banned below it.
    """
    results: list[frozenset[int]] = []
    first_ext = sorted(w for w in adj[anchor] if w in allowed and w != anchor)

    def grow(cur: set[int], ext: list[int], banned: set[int]):
        if len(cur) == k:
            results.append(frozenset(cur))
            return
        ext = list(ext)
        local_ban: set[int] = set()
        while ext:
            v = ext.pop(0)
            new_ext = ext + sorted(
                w
                for w in adj[v]
                if w in allowed
                and w not in cur
                and w != v
                and w not in banned
                and w not in local_ban
                and w not in ext
            )
            cur.add(v)
            grow(cur, new_ext, banned | local_ban)
            cur.remove(v)
            local_ban.add(v)

    if k == 1:
        return [frozenset({anchor})]
    grow({anchor}, first_ext, set())
    return results


def _component_sizes(adj, vertices: frozenset[int]) -> list[int]:
    left = set(vertices)
    sizes = []
    while left:
        start = left.pop()
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in left:
                    left.remove(w)
                    comp.add(w)
                    stack.append(w)
        sizes.append(len(comp))
    return sizes


def enumerate_partitions(
    g: EmbeddedMultiGraph, m: int, max_vertices: int | None = None
):
    """Yield every balanced connected m-partition exactly once.

    Exhaustive search: the district containing the smallest unplaced vertex
    is grown as a connected set, and the remainder is pruned unless each of
    its components can still be tiled by whole districts. Graphs above
    max_vertices (default ``ENUMERATION_VERTEX_CAP``) are refused; sample
    instead of enumerating.
    """
    if max_vertices is None:
        max_vertices = ENUMERATION_VERTEX_CAP
    n = g.num_vertices
    if m < 1:
        raise PartitionError("m must be at least 1")
    if n % m != 0:
        raise PartitionError(f"{m} does not divide {n} vertices")
    if n > max_vertices:
        raise PartitionError(
            f"{n} vertices exceeds the enumeration cap {max_vertices}; "
            "raise the cap explicitly or sample instead"
        )
    size = n // m
    adj = _adjacency(g)

    def rec(remaining: frozenset[int], blocks: list[frozenset[int]]):
        if not remaining:
            yield Partition.from_districts(blocks)
            return
        anchor = min(remaining)
        for s in _connected_k_subsets(adj, remaining, anchor, size):
            rest = remaining - s
            if rest and any(c % size for c in _component_sizes(adj, rest)):
                continue
            yield from rec(rest, blocks + [s])

    yield from rec(frozenset(g.vertices), [])


@dataclass(frozen=True)
class DistEntry:
    partition: Partition
    score: int
    cut_size: int
    probability: Fraction

    @property
    def digest(self) -> str:
        return self.partition.digest()


@dataclass(frozen=True)
class DistributionTable:
    """Exact score-proportional distribution over all balanced partitions."""

    m: int
    entries: tuple[DistEntry, ...]
    total_score: int
    graph_trees: int
    beta: Fraction

    def probability(self, p: Partition) -> Fraction:
        key = p.canonical_key()
        for ent in self.entries:
            if ent.partition.canonical_key() == key:
                return ent.probability
        raise KeyError("partition not in table")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["partition-hash", "cut-edges", "score", "probability-numerator", "probability-denominator"]
        )
        for ent in sorted(self.entries, key=lambda x: x.digest):
            w.writerow(
                [ent.digest, ent.cut_size, ent.score, ent.probability.numerator, ent.probability.denominator]
            )
        return buf.getvalue()


def spanning_tree_distribution(
    g: EmbeddedMultiGraph, m: int, max_vertices: int | None = None
) -> DistributionTable:
    """Enumerate partitions and weight each by its share of the total score.

    beta satisfies Pr[P] = beta * score(P) / trees(G) exactly. The claims in
    :mod:`treescore.bounds` read their plans, scores, cuts and trees(G) from
    here; enumerated plans are valid by construction and not re-validated.
    """
    entries = []
    total = 0
    scored = []
    for p in enumerate_partitions(g, m, max_vertices=max_vertices):
        score = _score(g, p)
        cut = cut_edges(g, p).size
        scored.append((p, score, cut))
        total += score
    if total == 0:
        raise PartitionError("no balanced connected partitions exist")
    for p, score, cut in scored:
        entries.append(
            DistEntry(partition=p, score=score, cut_size=cut, probability=Fraction(score, total))
        )
    trees = int(count_spanning_trees(g))
    beta = Fraction(trees, total)
    return DistributionTable(
        m=m, entries=tuple(entries), total_score=total, graph_trees=trees, beta=beta
    )


# --- serialization ---------------------------------------------------------


def partition_to_json(p: Partition) -> dict:
    return {"m": p.m, "assignment": {str(v): d for v, d in p.assignment}}


def partition_from_json(obj: dict) -> Partition:
    try:
        m = _strict_int(obj["m"], "m")
        assignment = {
            _strict_int(v, "vertex", key=True): _strict_int(d, "district")
            for v, d in obj["assignment"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidGraphError(f"malformed partition object: {exc}") from exc
    return Partition.from_dict(m, assignment)


def save_partition(p: Partition, path) -> None:
    with open(path, "w") as fh:
        json.dump(partition_to_json(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_partition(path) -> Partition:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidGraphError(f"not valid JSON: {exc}") from exc
    return partition_from_json(obj)
