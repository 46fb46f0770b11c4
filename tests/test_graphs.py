"""Embedded multigraph structure: rotations, faces, edits, JSON, boundedness."""

import pytest

from treescore import (
    EmbeddedMultiGraph,
    InvalidGraphError,
    check_bounded,
    graph_from_json,
    graph_to_json,
    graph_to_json_str,
    induced_subgraph,
    load_graph,
    make_grid,
    same_embedding,
    save_graph,
)
from treescore.fixtures import (
    make_cycle,
    make_diamond,
    make_theta,
    make_twelve_county,
    planar_fixture_suite,
)

SUITE = planar_fixture_suite(count=30)


def test_grid_shape():
    g = make_grid(3, 3)
    assert g.num_vertices == 9
    assert g.num_edges == 12
    h = make_grid(4, 2)
    assert h.num_vertices == 8
    assert h.num_edges == 10
    with pytest.raises(ValueError):
        make_grid(0, 3)


def test_grid_is_connected_and_simple():
    g = make_grid(4, 3)
    assert g.is_connected()
    assert not any(g.is_loop(e) for e in g.edge_ids)
    assert len({tuple(sorted(g.endpoints(e))) for e in g.edge_ids}) == g.num_edges


@pytest.mark.parametrize("name,g", SUITE)
def test_euler_formula(name, g):
    dual = g.trace_faces()
    assert dual.euler == 2
    assert dual.num_faces == g.num_edges - g.num_vertices + 2


@pytest.mark.parametrize("name,g", SUITE)
def test_degree_sums(name, g):
    dual = g.trace_faces()
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.num_edges
    assert sum(dual.face_degree.values()) == 2 * g.num_edges


def test_grid_face_degrees():
    dual = make_grid(3, 3).trace_faces()
    assert sorted(dual.face_degree.values()) == [4, 4, 4, 4, 8]


def test_cycle_faces():
    dual = make_cycle(5).trace_faces()
    assert sorted(dual.face_degree.values()) == [5, 5]
    assert dual.bridges() == set()


def test_theta_faces():
    dual = make_theta(3).trace_faces()
    assert dual.num_faces == 3
    assert sorted(dual.face_degree.values()) == [2, 2, 2]


def test_path_edges_are_dual_loops():
    dual = make_grid(4, 1).trace_faces()
    assert dual.num_faces == 1
    assert dual.bridges() == {0, 1, 2}


def test_loop_degree_counts_twice():
    g = EmbeddedMultiGraph({0: (0, 0), 1: (0, 1)}, {0: [(0, 0), (0, 1), (1, 0)], 1: [(1, 1)]})
    assert g.degree(0) == 3
    assert g.is_loop(0)
    assert g.neighbors(0) == {1}


def test_duplicate_dart_rejected():
    with pytest.raises(InvalidGraphError):
        EmbeddedMultiGraph({0: (0, 1)}, {0: [(0, 0), (0, 0)], 1: [(0, 1)]})


def test_missing_vertex_rejected():
    with pytest.raises(InvalidGraphError):
        EmbeddedMultiGraph({0: (0, 2)}, {0: [(0, 0)], 1: [(0, 1)]})


def test_misplaced_dart_rejected():
    with pytest.raises(InvalidGraphError):
        EmbeddedMultiGraph({0: (0, 1)}, {0: [(0, 1)], 1: [(0, 0)]})


def test_unknown_dart_rejected():
    with pytest.raises(InvalidGraphError):
        EmbeddedMultiGraph({0: (0, 1)}, {0: [(0, 0), (5, 0)], 1: [(0, 1)]})


def test_delete_edge():
    g = make_grid(3, 3)
    h = g.delete_edge(0)
    assert h.num_edges == g.num_edges - 1
    assert h.num_vertices == g.num_vertices
    assert 0 not in h.edges_dict()
    with pytest.raises(InvalidGraphError):
        h.delete_edge(0)


def test_contract_edge_merges_endpoints():
    g = make_grid(3, 3)
    u, v = g.endpoints(0)
    h = g.contract_edge(0)
    assert h.num_vertices == g.num_vertices - 1
    assert h.num_edges == g.num_edges - 1
    assert min(u, v) in h.vertices and max(u, v) not in h.vertices


def test_contract_parallel_edge_makes_loop():
    g = make_theta(2)
    h = g.contract_edge(0)
    assert h.num_vertices == 1
    assert h.is_loop(1)


def test_contract_self_loop_rejected():
    g = EmbeddedMultiGraph({0: (0, 0), 1: (0, 1)}, {0: [(0, 0), (0, 1), (1, 0)], 1: [(1, 1)]})
    with pytest.raises(InvalidGraphError):
        g.contract_edge(0)


@pytest.mark.parametrize("name,g", SUITE)
def test_edits_preserve_embedding_validity(name, g):
    """Deleting or contracting keeps a consistent rotation system (Euler 2)."""
    for e in g.edge_ids[:3]:
        if g.num_edges > 1:
            d = g.delete_edge(e)
            if d.is_connected():
                assert d.trace_faces().euler == 2
        if not g.is_loop(e) and g.num_vertices > 1:
            c = g.contract_edge(e)
            assert c.trace_faces().euler == 2


@pytest.mark.parametrize("name,g", SUITE)
def test_json_round_trip(name, g):
    h = graph_from_json(graph_to_json(g))
    assert same_embedding(g, h)
    # canonical text is a fixed point of serialization
    s = graph_to_json_str(g)
    assert graph_to_json_str(graph_from_json(graph_to_json(h))) == s


def test_save_load_round_trip(tmp_path):
    g = make_twelve_county()
    path = tmp_path / "g.json"
    save_graph(g, path)
    h = load_graph(path)
    assert same_embedding(g, h)
    assert graph_to_json_str(h) == path.read_text()


def test_load_rejects_disconnected(tmp_path):
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (2, 3)},
        {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]},
    )
    path = tmp_path / "g.json"
    save_graph(g, path)
    with pytest.raises(InvalidGraphError):
        load_graph(path)
    assert load_graph(path, require_connected=False).num_vertices == 4


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [0, 1]}')
    with pytest.raises(InvalidGraphError):
        load_graph(path)


def test_check_bounded_grid():
    cert = check_bounded(make_grid(3, 3), 4, 4)
    assert cert.holds
    assert cert.f0 == max(
        make_grid(3, 3).trace_faces().face_degree.items(), key=lambda kv: kv[1]
    )[0]
    # one exemption also covers the single degree-4 vertex
    assert check_bounded(make_grid(3, 3), 3, 4).holds
    # but a 4x4 grid has four interior degree-4 vertices
    cert44 = check_bounded(make_grid(4, 4), 3, 4)
    assert not cert44.holds
    assert any(kind == "vertex-degree" for kind, *_ in cert44.violations)


def test_check_bounded_rejects_dual_loops_and_loops():
    cert = check_bounded(make_grid(4, 1), 4, 4)
    assert not cert.holds
    assert any(kind == "bridge" for kind, *_ in cert.violations)
    g = EmbeddedMultiGraph({0: (0, 0), 1: (0, 1)}, {0: [(0, 0), (0, 1), (1, 0)], 1: [(1, 1)]})
    cert2 = check_bounded(g, 4, 4)
    assert not cert2.holds
    assert any(kind == "self-loop" for kind, *_ in cert2.violations)


def test_induced_subgraph_district():
    g = make_twelve_county()
    sub = induced_subgraph(g, {0, 1, 4, 5})
    assert sorted(sub.vertices) == [0, 1, 4, 5]
    assert sub.num_edges == 5
    assert sub.is_connected()


def test_induced_subgraph_keeps_edge_ids():
    g = make_grid(3, 3)
    sub = induced_subgraph(g, {0, 1, 2})
    assert set(sub.edge_ids) <= set(g.edge_ids)
    for e in sub.edge_ids:
        assert sub.endpoints(e) == g.endpoints(e)


@pytest.mark.parametrize("name,g", SUITE)
def test_delete_edge_set_equals_successive_deletions(name, g):
    """Deleting a set in one pass gives the graph of one-at-a-time deletions."""
    rotation = {v: g.rotation(v) for v in g.vertices}
    g = EmbeddedMultiGraph(g.edges_dict(), rotation, {v: f"unit {v}" for v in g.vertices})
    dual = g.trace_faces()
    bridges = dual.bridges()
    doomed = [e for e in g.edge_ids if e not in bridges][::2]
    one_by_one = g
    for e in doomed:
        one_by_one = one_by_one.delete_edge(e)
    at_once = g.delete_edge(doomed)
    assert same_embedding(at_once, one_by_one)
    assert list(at_once.edges_dict().items()) == list(one_by_one.edges_dict().items())
    assert all(at_once.rotation(v) == one_by_one.rotation(v) for v in g.vertices)
    assert at_once.labels == one_by_one.labels
    assert same_embedding(g.delete_edge([]), g)
    with pytest.raises(InvalidGraphError):
        g.delete_edge(doomed + [max(g.edge_ids) + 1])


ONE_EDGE = ({1: (0, 1)}, {0: [(1, 0)], 1: [(1, 1)]})  # edge 1 from 0 to 1


@pytest.mark.parametrize("bad", [1.0, 1.9, True, "1"])
@pytest.mark.parametrize("where", ["edge id", "edge end", "dart edge", "dart side", "rotation key"])
def test_graph_refuses_a_number_that_is_not_an_integer(where, bad):
    """Each bad value would become 1 under ``int()``, which builds a valid graph."""
    edges, rotation = ONE_EDGE
    if where == "edge id":
        edges = {bad: (0, 1)}
    elif where == "edge end":
        edges = {1: (0, bad)}
    elif where == "dart edge":
        rotation = {0: [(bad, 0)], 1: [(1, 1)]}
    elif where == "dart side":
        rotation = {0: [(1, 0)], 1: [(1, bad)]}
    else:
        rotation = {0: [(1, 0)], bad: [(1, 1)]}
    with pytest.raises(InvalidGraphError, match=f"{where} must be an integer, not {bad!r}"):
        EmbeddedMultiGraph(edges, rotation)
    assert EmbeddedMultiGraph(*ONE_EDGE).edges_dict() == {1: (0, 1)}


def test_derived_graphs_start_with_an_empty_memo():
    from treescore.partition import _adjacency

    g = make_grid(3, 3)
    adj = _adjacency(g)
    assert _adjacency(g) is adj and g._memo
    for h in (g.copy(), g.delete_edge(0), g.contract_edge(0), induced_subgraph(g, range(6))):
        assert h._memo == {}
        assert _adjacency(h) == {v: h.neighbors(v) for v in h.vertices}
