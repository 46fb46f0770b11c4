"""The recom chain's fast paths against the plain code they replace.

The oracles below are the Wilson walk that drew each step with
``rng.randrange``, ``balance_edges`` with one side search per qualifying tree
edge, and the coin that built a ``Fraction`` from every draw. For the same
seeds the fast paths must give the same trees, the same generator state
afterwards, the same balance-edge lists and the same coins; a chain's
updated cut sizes must equal a rescan of the cut.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescore import (
    ChainConfig,
    EmbeddedMultiGraph,
    balance_edges,
    cut_edges,
    enumerate_partitions,
    make_grid,
    run_chain,
)
from treescore import recom
from treescore.fixtures import _add_loop, _add_parallel, make_theta, random_planar_multigraph
from treescore.partition import _size_within, _sizes_within
from treescore.sampler import _coin, _walk_incidence, _wilson_walk


def oracle_incidence(g):
    incident = {v: [] for v in g.vertices}
    for e, (u, v) in g.edges_dict().items():
        if u != v:
            incident[u].append((e, v))
            incident[v].append((e, u))
    return incident


def oracle_walk(incident, rng):
    verts = list(incident)
    in_tree = {verts[0]}
    next_edge, next_vertex, tree = {}, {}, []
    for start in verts:
        if start in in_tree:
            continue
        u = start
        while u not in in_tree:
            e, w = incident[u][rng.randrange(len(incident[u]))]
            next_edge[u] = e
            next_vertex[u] = w
            u = w
        u = start
        while u not in in_tree:
            in_tree.add(u)
            tree.append(next_edge[u])
            u = next_vertex[u]
    return frozenset(tree)


def oracle_balance_edges(sub, tree, n, m, tolerance):
    verts = sub.vertices
    adj = {v: [] for v in verts}
    for e in sorted(tree):
        u, v = sub.endpoints(e)
        adj[u].append((e, v))
        adj[v].append((e, u))
    root = min(verts)
    order = []
    stack = [(root, -1, -1)]
    seen = {root}
    while stack:
        v, pe, pv = stack.pop()
        order.append((v, pe, pv))
        for e, w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append((w, e, v))
    subtree = {v: 1 for v in verts}
    below = {}
    for v, pe, pv in reversed(order):
        if pe >= 0:
            below[pe] = (subtree[v], v)
            subtree[pv] += subtree[v]
    out = []
    for e in sorted(below):
        side, child = below[e]
        if _size_within(side, n, m, tolerance) and _size_within(len(verts) - side, n, m, tolerance):
            out.append((e, frozenset(verts) - oracle_collect_side(adj, e, child)))
    return out


def oracle_collect_side(adj, cut_edge, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e, w in adj[v]:
            if e != cut_edge and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def with_parallels(g, v, copies):
    """``g`` with ``copies`` extra copies of the non-loop edges at ``v``, round robin."""
    at_v = [e for e in g.edge_ids if v in g.endpoints(e) and not g.is_loop(e)]
    for i in range(copies if at_v else 0):
        g = _add_parallel(g, at_v[i % len(at_v)])
    return g


def walk_graphs():
    """Walk degrees 0, 1, 4 and 8, loops and parallel edges.

    At a power of two ``bit_length`` overshoots, so half the draws are redrawn.
    """
    path = make_grid(5, 1)
    grid = make_grid(4, 4)
    eight = with_parallels(grid, 5, 4)
    looped = _add_loop(_add_loop(with_parallels(make_theta(3), 0, 1), 1, 0), 1, 2)
    one = EmbeddedMultiGraph({0: (0, 0)}, {0: [(0, 0), (0, 1)]})
    return {"path5": path, "grid4x4": grid, "grid4x4_degree8": eight, "theta3_loops": looped,
            "one_vertex_loop": one}


def walk_degrees(g):
    return {sum(c is not None for c in choices) for choices, _ in _walk_incidence(g, g.vertices)}


def tree_edges(g, rooted):
    """The edge set of a rooted tree from ``_wilson_walk``, once it is checked parent-first."""
    verts = g.vertices
    assert rooted[0] == (0, None, None)
    assert sorted(v for v, _, _ in rooted) == list(range(len(verts)))
    placed = {0}
    for v, e, parent in rooted[1:]:
        assert parent in placed
        assert sorted(g.endpoints(e)) == sorted((verts[v], verts[parent]))
        placed.add(v)
    return frozenset(e for _, e, _ in rooted[1:])


def test_walk_graphs_cover_the_edge_cases():
    graphs = walk_graphs()
    degrees = set().union(*(walk_degrees(g) for g in graphs.values()))
    assert {0, 1, 4, 8} <= degrees
    assert any(g.is_loop(e) for g in graphs.values() for e in g.edge_ids)


def assert_walks_agree(g, seed, draws=5):
    fast, slow = Random(seed), Random(seed)
    incident, oracle = _walk_incidence(g, g.vertices), oracle_incidence(g)
    for _ in range(draws):
        assert tree_edges(g, _wilson_walk(incident, fast)) == oracle_walk(oracle, slow)
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("name", sorted(walk_graphs()))
def test_walk_matches_randrange_walk(name):
    g = walk_graphs()[name]
    for seed in range(10):
        assert_walks_agree(g, seed)


@given(
    seed=st.integers(0, 10**6),
    size=st.integers(2, 16),
    copies=st.integers(0, 6),
    rng_seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=150)
def test_walk_matches_randrange_walk_on_planar_multigraphs(seed, size, copies, rng_seed, data):
    g = random_planar_multigraph(seed, max_vertices=size)
    g = with_parallels(g, data.draw(st.sampled_from(g.vertices)), copies)
    assert_walks_agree(g, rng_seed)


class DrawBudget(Random):
    """A generator that fails the test instead of spinning past ``budget`` draws."""

    def __init__(self, seed, budget):
        super().__init__(seed)
        self.left = budget

    def getrandbits(self, k):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("the walk keeps drawing")
        return super().getrandbits(k)


def test_walk_raises_on_a_vertex_without_choices():
    # vertex 1 has no walk choice, as a hand-built incidence can have
    incident = [([(0, 1), None], 1), ([], 0)]
    with pytest.raises(ValueError, match="vertex at position 1 has no walk choice"):
        _wilson_walk(incident, DrawBudget(0, 1000))


@given(
    seed=st.integers(0, 10**6),
    size=st.integers(2, 16),
    copies=st.integers(0, 6),
    tree_seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=100)
def test_balance_edges_match_side_search(seed, size, copies, tree_seed, data):
    g = random_planar_multigraph(seed, max_vertices=size)
    g = with_parallels(g, data.draw(st.sampled_from(g.vertices)), copies)
    rooted = _wilson_walk(_walk_incidence(g, g.vertices), Random(tree_seed))
    tree = tree_edges(g, rooted)
    region = g.num_vertices
    n = data.draw(st.integers(region, 3 * region))
    for tolerance in range(3):
        for m in range(1, n + 1):
            assert balance_edges(g.vertices, rooted, n, m, tolerance) == oracle_balance_edges(
                g, tree, n, m, tolerance
            )


@given(n=st.integers(0, 200), m=st.integers(1, 20), tolerance=st.integers(-2, 5))
def test_sizes_within_lists_the_sizes_size_within_accepts(n, m, tolerance):
    sizes = _sizes_within(n, m, tolerance)
    for size in range(-2, n + 3):
        assert (size in sizes) == _size_within(size, n, m, tolerance)


class OneDraw:
    """Stands in for a generator whose next ``random()`` is ``x``; counts the draws."""

    def __init__(self, x):
        self.x = x
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.x


@given(
    x=st.floats(0, 1, exclude_max=True),
    r=st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), 0, 1]),
        st.fractions(0, 1),
        st.floats(0, 1),
    ),
)
@settings(max_examples=500)
def test_coin_matches_fraction_compare(x, r):
    rng = OneDraw(x)
    assert _coin(rng, r) == (Fraction(x) < r)
    assert rng.draws == 1


def test_coin_compares_exactly_next_to_a_draw():
    x = 0.1  # a binary fraction just above one tenth
    assert _coin(OneDraw(x), Fraction(x)) is False
    assert _coin(OneDraw(x), Fraction(x) + Fraction(1, 2**80)) is True
    assert _coin(OneDraw(x), Fraction(1, 10)) is False


def recorded_chain(g, p, cfg):
    """The chain's stats and the partition at each recorded step."""
    visited = [p]
    real_step = recom._step

    def step(*args):
        result = real_step(*args)
        visited.append(result.partition)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recom, "_step", step)
        stats = run_chain(g, p, cfg)
    return stats, visited


def assert_cut_sizes_rescanned(g, p, cfg):
    stats, visited = recorded_chain(g, p, cfg)
    assert len(visited) == len(stats.samples)
    for sample, q in zip(stats.samples, visited):
        assert sample.cut_size == cut_edges(g, q).size
        assert sample.digest == q.digest()


@pytest.mark.parametrize("sampler", ["wilson"])  # the walk every step draws with
@pytest.mark.parametrize("tolerance", [0, 1])
@pytest.mark.parametrize("w,h,m", [(4, 4, 2), (6, 6, 4), (6, 5, 3)])
def test_chain_cut_sizes_on_grids(w, h, m, tolerance, sampler):
    g = make_grid(w, h)
    p = next(enumerate_partitions(g, m, max_vertices=g.num_vertices))
    cfg = ChainConfig(steps=25, seed=w * h + m, balance_tolerance=tolerance)
    assert_cut_sizes_rescanned(g, p, cfg)


@given(
    seed=st.integers(0, 10**6),
    size=st.integers(4, 16),
    copies=st.integers(0, 4),
    chain_seed=st.integers(0, 2**31),
    tolerance=st.integers(0, 1),
    data=st.data(),
)
@settings(max_examples=60)
def test_chain_cut_sizes_on_planar_multigraphs(
    seed, size, copies, chain_seed, tolerance, data
):
    g = random_planar_multigraph(seed, max_vertices=size)
    g = with_parallels(g, data.draw(st.sampled_from(g.vertices)), copies)
    n = g.num_vertices
    m = data.draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0] or [0]))
    start = next(enumerate_partitions(g, m), None) if m else None
    if start is None:
        return  # no balanced plan to start from
    cfg = ChainConfig(steps=15, seed=chain_seed, balance_tolerance=tolerance)
    assert_cut_sizes_rescanned(g, start, cfg)
