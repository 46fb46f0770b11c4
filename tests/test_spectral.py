"""Tree counting, effective resistance, and the classical identities.

The brute-force enumerator is the oracle: every resistance computed from
Laplacian minors must equal (trees containing e) / (all trees) counted by
listing. The counting identities (deletion-contraction, sum rule, bounds
from cycles and stars) are checked as properties over the fixture suite.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from conftest import exact_up_to
from hypothesis import given, settings
from hypothesis import strategies as st

from treescore import (
    DisconnectedGraphError,
    EmbeddedMultiGraph,
    TreeCount,
    count_spanning_trees,
    effective_resistance,
    enumerate_spanning_trees,
    induced_subgraph,
    make_grid,
    resistance_fraction,
    sample_tree_resistance,
    solve_flow,
    spectral,
)
from treescore.fixtures import (
    make_complete4,
    make_cycle,
    make_diamond,
    make_theta,
    make_twelve_county,
    planar_fixture_suite,
    random_planar_multigraph,
)
from treescore.spectral import InvalidCycleError, check_cycle_bound, check_degree_bound

SUITE = planar_fixture_suite(count=30)


def test_known_tree_counts():
    assert int(count_spanning_trees(make_grid(3, 3))) == 192
    assert int(count_spanning_trees(make_grid(2, 2))) == 4
    assert int(count_spanning_trees(make_complete4())) == 16
    assert int(count_spanning_trees(make_diamond())) == 8
    for k in (3, 5, 8):
        assert int(count_spanning_trees(make_cycle(k))) == k
        assert int(count_spanning_trees(make_theta(k))) == k
    # trees have exactly one spanning tree
    assert int(count_spanning_trees(make_grid(6, 1))) == 1


def test_ladder_tree_counts():
    # 2 x n grids: 1, 4, 15, 56, 209 (each term 4a - b of the previous two)
    values = [1, 4, 15, 56, 209]
    for n, want in enumerate(values, start=1):
        assert int(count_spanning_trees(make_grid(n, 2))) == want


def test_tree_count_fields():
    tc = count_spanning_trees(make_grid(3, 3))
    assert tc.exact and tc.value == 192
    assert tc.log2 == pytest.approx(7.5849625, abs=1e-6)


def test_count_disconnected_is_zero():
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (2, 3)},
        {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]},
    )
    assert int(count_spanning_trees(g)) == 0


@pytest.mark.parametrize("name,g", SUITE)
def test_enumeration_matches_determinant(name, g):
    trees = enumerate_spanning_trees(g)
    assert len(trees) == int(count_spanning_trees(g))
    n = g.num_vertices
    for t in trees:
        assert len(t) == n - 1
        sub = {e: g.endpoints(e) for e in t}
        # connected and acyclic on all vertices
        seen = {g.vertices[0]}
        grew = True
        while grew:
            grew = False
            for u, v in sub.values():
                if (u in seen) != (v in seen):
                    seen.update((u, v))
                    grew = True
        assert len(seen) == n


@pytest.mark.parametrize("name,g", SUITE)
def test_resistance_equals_tree_ratio_oracle(name, g):
    trees = enumerate_spanning_trees(g)
    total = len(trees)
    for e in g.edge_ids:
        containing = sum(1 for t in trees if e in t)
        assert resistance_fraction(g, e) == Fraction(containing, total)


@pytest.mark.parametrize("name,g", SUITE)
def test_resistance_sum_rule(name, g):
    """Sum of edge resistances counts the vertices minus one."""
    assert sum(resistance_fraction(g, e) for e in g.edge_ids) == g.num_vertices - 1


@pytest.mark.parametrize("name,g", SUITE)
def test_deletion_contraction(name, g):
    total = int(count_spanning_trees(g))
    for e in g.edge_ids[:4]:
        if g.is_loop(e):
            assert int(count_spanning_trees(g.delete_edge(e))) == total
        else:
            with_e = int(count_spanning_trees(g.contract_edge(e)))
            without = int(count_spanning_trees(g.delete_edge(e)))
            assert with_e + without == total


def test_resistance_methods_agree():
    for name, g in SUITE[:12]:
        for e in g.edge_ids[:3]:
            exact = effective_resistance(g, e, method="tree-ratio")
            approx = effective_resistance(g, e, method="laplacian-solve")
            assert exact.exact == resistance_fraction(g, e)
            assert approx.exact == exact.exact
            assert approx.approx == float(exact.exact)


def test_resistance_known_values(diamond):
    assert resistance_fraction(diamond, 0) == Fraction(5, 8)
    assert resistance_fraction(make_cycle(4), 0) == Fraction(3, 4)
    assert resistance_fraction(make_theta(3), 0) == Fraction(1, 3)
    assert resistance_fraction(make_grid(3, 3), 0) == Fraction(17, 24)


def test_resistance_of_self_loop_is_zero():
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (0, 0)},
        {0: [(0, 0), (1, 0), (1, 1)], 1: [(0, 1)]},
    )
    assert resistance_fraction(g, 1) == 0


def test_resistance_of_bridge_is_one():
    assert resistance_fraction(make_grid(5, 1), 2) == 1


def test_resistance_disconnected_raises():
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (2, 3)},
        {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]},
    )
    with pytest.raises(DisconnectedGraphError):
        resistance_fraction(g, 0)


def test_rayleigh_monotonicity():
    """Removing any other edge can only raise an edge's resistance."""
    for name, g in [("grid3x3", make_grid(3, 3)), ("k4", make_complete4())]:
        for e in g.edge_ids[:3]:
            r = resistance_fraction(g, e)
            for f in g.edge_ids:
                if f == e:
                    continue
                h = g.delete_edge(f)
                if h.is_connected():
                    assert resistance_fraction(h, e) >= r


def test_solve_flow_consistent_with_resistance(grid33):
    for e in (0, 5, 11):
        u, v = grid33.endpoints(e)
        flow = solve_flow(grid33, u, v)
        assert resistance_fraction(grid33, e) == flow.voltages[u] - flow.voltages[v]


def test_cycle_bound_on_faces():
    """R(e) <= 1 - 1/k for any length-k cycle through e; face walks qualify."""
    g = make_grid(3, 3)
    dual = g.trace_faces()
    inner = [f for f, d in dual.face_degree.items() if d == 4]
    for f in inner:
        walk = dual.faces[f]
        for e in set(walk):
            assert check_cycle_bound(g, e, set(walk))


def test_cycle_bound_rejects_non_cycles():
    g = make_grid(3, 3)
    with pytest.raises(InvalidCycleError):
        check_cycle_bound(g, 0, [0, 1])
    with pytest.raises(InvalidCycleError):
        check_cycle_bound(g, 5, [0, 1, 7, 2])


@pytest.mark.parametrize("name,g", SUITE[:15])
def test_degree_bound_all_edges(name, g):
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        if u != v:
            assert check_degree_bound(g, e)


def test_district_scores_multiply(twelve_county):
    compact = [{0, 1, 4, 5}, {2, 3, 6, 7}, {8, 9, 10, 11}]
    scores = [
        int(count_spanning_trees(induced_subgraph(twelve_county, b))) for b in compact
    ]
    assert sorted(scores) == [3, 8, 8]


# Multigraphs with parallel edges and self-loops.
MULTIGRAPHS = st.builds(
    random_planar_multigraph, st.integers(0, 10**6), st.sampled_from((8, 12))
)


def disjoint_union(a: EmbeddedMultiGraph, b: EmbeddedMultiGraph) -> EmbeddedMultiGraph:
    """``a`` beside ``b``, whose vertex and edge ids are shifted past ``a``'s."""
    dv, de = max(a.vertices) + 1, max(a.edge_ids, default=-1) + 1
    edges = a.edges_dict()
    edges.update({e + de: (u + dv, v + dv) for e, (u, v) in b.edges_dict().items()})
    rotation = {v: a.rotation(v) for v in a.vertices}
    rotation.update({v + dv: [(e + de, s) for e, s in b.rotation(v)] for v in b.vertices})
    return EmbeddedMultiGraph(edges, rotation)


@given(a=MULTIGRAPHS, b=MULTIGRAPHS)
@settings(max_examples=30)
def test_a_disconnected_graph_counts_zero_without_a_connectivity_check(a, b):
    g = disjoint_union(a, b)
    with patch.object(EmbeddedMultiGraph, "is_connected", side_effect=AssertionError("BFS")):
        for rows in (1, g.num_vertices):  # modular elimination, then Bareiss
            with patch.object(spectral, "MODULAR_MINOR_ROWS", rows):
                assert count_spanning_trees(g) == TreeCount(0, True, None)
        with pytest.raises(DisconnectedGraphError):  # the solve's minor is singular too
            solve_flow(g, g.vertices[0], g.vertices[-1])


@given(g=MULTIGRAPHS, seed=st.integers(0, 10**6))
@settings(max_examples=60)
def test_float_sampler_certificate_matches_tree_count(g, seed):
    with exact_up_to(1):
        trace = sample_tree_resistance(g, seed=seed)
    assert not trace.exact and trace.complete
    assert trace.p_product() == pytest.approx(1 / int(count_spanning_trees(g)), rel=1e-9)
