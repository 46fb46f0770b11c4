"""Balanced partitions: validation, cuts, scores, enumeration, distribution.

The enumeration is cross-checked by a from-scratch subset enumerator in
this file (no shared code paths), and the distribution's probabilities are
checked against their defining identity Pr[P] * trees(G) = beta * score(P).
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescore import (
    Partition,
    PartitionError,
    check_tolerant_partition,
    count_spanning_trees,
    cut_edges,
    enumerate_partitions,
    induced_subgraph,
    load_partition,
    make_grid,
    partition_from_json,
    partition_to_json,
    quotient_graph,
    save_partition,
    spanning_tree_distribution,
    spanning_tree_score,
    validate_partition,
    verify_score_ratios,
)
from treescore.fixtures import (
    make_twelve_county,
    random_planar_multigraph,
    twelve_county_compact_partition,
    twelve_county_stringy_partition,
)


def brute_force_partitions(g, m):
    """Independent balanced-connected-partition enumerator (sets only)."""
    verts = sorted(g.vertices)
    size = len(verts) // m

    def connected(block):
        block = set(block)
        seen = {min(block)}
        stack = [min(block)]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w in block and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(block)

    def rec(remaining):
        if not remaining:
            yield []
            return
        anchor = min(remaining)
        rest = sorted(remaining - {anchor})
        for combo in itertools.combinations(rest, size - 1):
            block = frozenset((anchor, *combo))
            if connected(block):
                for tail in rec(remaining - block):
                    yield [block, *tail]

    return [frozenset(blocks) for blocks in rec(set(verts))]


def test_partition_constructors_agree():
    p1 = Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1})
    p2 = Partition.from_districts([{2, 3}, {0, 1}])
    assert p1.canonical_key() == p2.canonical_key()
    assert p1.digest() == p2.digest()


def test_relabeling_is_invisible():
    base = twelve_county_compact_partition()
    relabeled = {v: (d + 1) % 3 for v, d in base.items()}
    p1 = Partition.from_dict(3, base)
    p2 = Partition.from_dict(3, relabeled)
    assert p1.canonical_key() == p2.canonical_key()
    assert p1.digest() == p2.digest()


def test_digest_distinguishes_partitions():
    p1 = Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1})
    p2 = Partition.from_dict(2, {0: 0, 2: 0, 1: 1, 3: 1})
    assert p1.digest() != p2.digest()


def test_validate_partition(grid22):
    ok = validate_partition(grid22, Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1}))
    assert ok.valid
    with pytest.raises(PartitionError):
        validate_partition(grid22, Partition.from_dict(3, {0: 0, 1: 1, 2: 2, 3: 2}))
    missing = validate_partition(grid22, Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 5: 1}))
    assert not missing.valid
    unbalanced = validate_partition(
        make_grid(4, 1), Partition.from_dict(2, {0: 0, 1: 0, 2: 0, 3: 1})
    )
    assert not unbalanced.valid
    assert "expected 2" in unbalanced.problems[0]


def test_validate_connectivity(grid22):
    diagonal = Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1})
    check = validate_partition(grid22, diagonal)
    assert not check.valid
    assert all("not connected" in p for p in check.problems)


def test_cut_edges_known_counts(twelve_county):
    compact = Partition.from_dict(3, twelve_county_compact_partition())
    stringy = Partition.from_dict(3, twelve_county_stringy_partition())
    assert cut_edges(twelve_county, compact).size == 8
    assert cut_edges(twelve_county, stringy).size == 13


def test_scores_known_values(twelve_county):
    compact = Partition.from_dict(3, twelve_county_compact_partition())
    stringy = Partition.from_dict(3, twelve_county_stringy_partition())
    assert spanning_tree_score(twelve_county, compact) == 192
    assert spanning_tree_score(twelve_county, stringy) == 1


def test_score_is_product_of_district_counts(grid44):
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    per_district = [
        int(count_spanning_trees(induced_subgraph(grid44, b))) for b in p.districts()
    ]
    assert spanning_tree_score(grid44, p) == per_district[0] * per_district[1]


def test_score_rejects_invalid(grid22):
    with pytest.raises(PartitionError):
        spanning_tree_score(grid22, Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1}))


def test_quotient_graph(twelve_county):
    p = Partition.from_dict(3, twelve_county_compact_partition())
    q = quotient_graph(twelve_county, p)
    assert q.num_vertices == 3
    assert set(q.edge_ids) == cut_edges(twelve_county, p).edges


@pytest.mark.parametrize(
    "w,h,m",
    [(2, 2, 2), (4, 1, 2), (3, 2, 2), (3, 2, 3), (3, 3, 3), (4, 2, 2), (4, 4, 2)],
)
def test_enumeration_matches_brute_force(w, h, m):
    g = make_grid(w, h)
    listed = {
        frozenset(p.districts()) for p in enumerate_partitions(g, m, max_vertices=16)
    }
    brute = set(brute_force_partitions(g, m))
    assert listed == brute


def test_enumeration_counts():
    assert len(list(enumerate_partitions(make_grid(2, 2), 2))) == 2
    assert len(list(enumerate_partitions(make_grid(4, 1), 2))) == 1
    assert len(list(enumerate_partitions(make_grid(4, 4), 2))) == 70


def test_enumeration_size_guard():
    with pytest.raises(PartitionError):
        list(enumerate_partitions(make_grid(5, 5), 5, max_vertices=10))


def test_distribution_2x2(grid22):
    table = spanning_tree_distribution(grid22, 2)
    assert len(table.entries) == 2
    assert table.graph_trees == 4
    assert table.total_score == 2
    for ent in table.entries:
        assert ent.score == 1
        assert ent.cut_size == 2
        assert ent.probability == Fraction(1, 2)
    assert table.beta == 2


def test_distribution_probabilities(grid44):
    table = spanning_tree_distribution(grid44, 2)
    assert len(table.entries) == 70
    assert sum(ent.probability for ent in table.entries) == 1
    for ent in table.entries:
        assert ent.probability == table.beta * Fraction(ent.score, table.graph_trees)
    # balanced splits with smaller cuts carry more mass per the score weighting
    by_cut = sorted(table.entries, key=lambda x: x.cut_size)
    assert by_cut[0].probability > by_cut[-1].probability


def test_distribution_lookup(grid22):
    table = spanning_tree_distribution(grid22, 2)
    p = Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1})
    assert table.probability(p) == Fraction(1, 2)
    with pytest.raises(KeyError):
        # the diagonal split is not balanced-connected, so it is not listed
        table.probability(Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1}))


def test_distribution_csv(grid22):
    text = spanning_tree_distribution(grid22, 2).to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("partition-hash,cut-edges,score,")
    assert len(lines) == 3


def test_partition_json_round_trip(tmp_path, twelve_county):
    p = Partition.from_dict(3, twelve_county_compact_partition())
    blob = partition_to_json(p)
    assert partition_from_json(blob).canonical_key() == p.canonical_key()
    path = tmp_path / "p.json"
    save_partition(p, path)
    q = load_partition(path)
    assert q.digest() == p.digest()
    data = json.loads(path.read_text())
    assert data["m"] == 3


def test_partition_json_malformed():
    with pytest.raises(ValueError):
        partition_from_json({"assignment": {"0": 0}})
    with pytest.raises(ValueError):
        partition_from_json({"m": 2, "assignment": "nope"})


def subgraph_oracle_problems(g, p, tolerance):
    """The tolerant check with connectivity decided on the induced subgraph."""
    n = g.num_vertices
    if not 1 <= p.m <= n:  # refused before any district is built
        return [f"m = {p.m} is not between 1 and the {n} vertices"]
    assigned = {v for v, _ in p.assignment}
    verts = set(g.vertices)
    if assigned != verts:
        problems = []
        if verts - assigned:
            problems.append(f"unassigned vertices {sorted(verts - assigned)}")
        if assigned - verts:
            problems.append(f"unknown vertices {sorted(assigned - verts)}")
        return problems
    problems = []
    for i, block in enumerate(p.districts()):
        if abs(len(block) * p.m - n) > tolerance * p.m:
            problems.append(
                f"district {i} has {len(block)} vertices, expected "
                f"{Fraction(n, p.m)} within tolerance {tolerance}"
            )
        elif not induced_subgraph(g, block).is_connected():
            problems.append(f"district {i} is not connected")
    return problems


@given(
    seed=st.integers(0, 10**6),
    size=st.integers(2, 12),
    m=st.integers(1, 4),
    tolerance=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=300)
def test_tolerant_check_matches_subgraph_oracle(seed, size, m, tolerance, data):
    g = random_planar_multigraph(seed, max_vertices=size)
    verts = g.vertices
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=len(verts), max_size=len(verts)))
    assignment = dict(zip(verts, labels))
    # Districts that no label names stay empty; now and then a vertex is left
    # out or an unknown one is added.
    for v in data.draw(st.lists(st.sampled_from(verts), max_size=2)):
        assignment.pop(v, None)
    for k in data.draw(st.lists(st.integers(1, 3), max_size=1)):
        assignment[max(verts) + k] = k % m
    p = Partition.from_dict(m, assignment)
    assert check_tolerant_partition(g, p, tolerance) == subgraph_oracle_problems(g, p, tolerance)


@given(seed=st.integers(0, 10**6), size=st.integers(2, 10), data=st.data())
@settings(max_examples=150)
def test_enumerated_plans_are_valid(seed, size, data):
    """The guarantee the table relies on to score plans without re-validating."""
    g = random_planar_multigraph(seed, max_vertices=size)
    n = g.num_vertices
    m = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    for p in enumerate_partitions(g, m):
        check = validate_partition(g, p)
        assert check.valid, check.problems


def test_table_scoring_does_not_revalidate(monkeypatch):
    import treescore.partition as partition

    calls = []
    real = partition.check_tolerant_partition

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partition, "check_tolerant_partition", counting)
    g = make_grid(4, 4)
    table = spanning_tree_distribution(g, 4)
    assert verify_score_ratios(g, 4, 4, 4).instances_checked == len(table.entries)
    assert calls == []
    # the public entry points still check the plans callers hand them
    spanning_tree_score(g, table.entries[0].partition)
    assert len(calls) == 1


def test_table_scoring_skips_the_connectivity_check(monkeypatch):
    from treescore.graphs import EmbeddedMultiGraph

    checked = []
    real = EmbeddedMultiGraph.is_connected

    def counting(self):
        checked.append(self.num_vertices)
        return real(self)

    monkeypatch.setattr(EmbeddedMultiGraph, "is_connected", counting)
    g = make_grid(4, 5)
    table = spanning_tree_distribution(g, 4)
    assert len(table.entries) > 1
    # no count makes a BFS: a disconnected graph's minor is 0 by itself
    block = table.entries[0].partition.districts()[0]
    count_spanning_trees(induced_subgraph(g, block))
    assert checked == []
