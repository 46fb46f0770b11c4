"""Exact sampler traces against the determinant-per-step algorithm.

The oracle below is the sampler as it was before the adjugate engine: every
step recomputes tau and the count of trees containing the edge from two
fraction-free determinants of Laplacian minors. For the same seeds and
policies, ``sample_tree_resistance``, ``sample_deletion_run`` and
``replay_decisions`` must write exactly the oracle's JSONL.
"""

import random
from fractions import Fraction
from random import Random

import pytest

from treescore import (
    EdgePolicy,
    make_grid,
    replay_decisions,
    sample_deletion_run,
    sample_tree_resistance,
    sample_tree_wilson,
    trace_to_jsonl,
)
from treescore._linalg import laplacian_minor_det
from treescore.fixtures import _add_loop, _add_parallel, planar_fixture_suite
from treescore.sampler import SampleTrace, TraceStep, find_bridges


def _resistance(edges, vertices, u, v):
    verts = sorted(vertices)
    total = laplacian_minor_det(verts, edges.values(), {verts[0]})
    return Fraction(laplacian_minor_det(verts, edges.values(), {u, v}), total)


def _contract(edges, vertices, e):
    u, v = edges.pop(e)
    keep, gone = min(u, v), max(u, v)
    for f, (x, y) in list(edges.items()):
        edges[f] = (keep if x == gone else x, keep if y == gone else y)
    vertices.discard(gone)


def _trace(steps, tree, complete, g):
    verts = sorted(g.vertices)
    initial = laplacian_minor_det(verts, g.edges_dict().values(), {verts[0]})
    return SampleTrace(
        steps=tuple(steps), tree=frozenset(tree), complete=complete, initial_trees=initial, exact=True
    )


def oracle_run(g, policy, rng=None, decisions=None):
    edges, vertices = g.edges_dict(), set(g.vertices)
    steps, tree = [], []
    while len(vertices) >= 2 and edges:
        e = policy.select(edges)
        u, v = edges[e]
        r = Fraction(0) if u == v else _resistance(edges, vertices, u, v)
        if r in (0, 1):
            action = "contracted" if r == 1 else "deleted"
        elif decisions is not None:
            action = decisions[e]
        else:
            action = "contracted" if Fraction(rng.random()) < r else "deleted"
        if action == "contracted":
            _contract(edges, vertices, e)
            tree.append(e)
        else:
            del edges[e]
        p = r if action == "contracted" else 1 - r
        steps.append(TraceStep(len(steps) + 1, e, r, p, action, r in (0, 1)))
    return _trace(steps, tree, len(vertices) < 2, g)


def oracle_deletion_run(g, seed):
    rng = Random(seed)
    edges, vertices = g.edges_dict(), set(g.vertices)
    steps = []
    while True:
        bridges = find_bridges(edges, vertices)
        candidates = sorted(e for e in edges if e not in bridges)
        if not candidates:
            break
        e = candidates[rng.randrange(len(candidates))]
        u, v = edges[e]
        r = Fraction(0) if u == v else _resistance(edges, vertices, u, v)
        del edges[e]
        steps.append(TraceStep(len(steps) + 1, e, r, 1 - r, "deleted", u == v))
    return _trace(steps, edges, False, g)


def assert_same(trace, oracle):
    assert trace_to_jsonl(trace) == trace_to_jsonl(oracle)
    assert trace.tree == oracle.tree
    assert trace.complete == oracle.complete
    assert trace.initial_trees == oracle.initial_trees
    assert trace.exact


def check_graph(g, seeds):
    reverse = EdgePolicy.given_order(sorted(g.edge_ids, reverse=True))
    for seed in seeds:
        assert_same(
            sample_tree_resistance(g, seed=seed),
            oracle_run(g, EdgePolicy.lowest_id(), rng=Random(seed)),
        )
        assert_same(sample_deletion_run(g, seed=seed), oracle_deletion_run(g, seed))
        # A spanning tree's decisions are a positive-probability path under any order.
        tree = sample_tree_wilson(g, seed=seed)
        decisions = {e: "contracted" if e in tree else "deleted" for e in g.edge_ids}
        assert_same(
            replay_decisions(g, decisions, policy=reverse),
            oracle_run(g, reverse, decisions=decisions),
        )


def grid_with_extras(seed):
    """8x8 grid (64 vertices, the exact limit) with parallel edges and self-loops."""
    rng = random.Random(seed)
    g = make_grid(8, 8)
    for _ in range(8):
        g = _add_parallel(g, rng.choice([e for e in g.edge_ids if not g.is_loop(e)]))
        g = _add_loop(g, rng.choice(g.vertices), rng.randrange(4))
    return g


@pytest.mark.parametrize("seed", [0, 1])
def test_grid_8x8_with_parallel_edges_and_loops(seed):
    g = grid_with_extras(seed)
    assert g.num_vertices == 64
    check_graph(g, [seed])


SUITE = planar_fixture_suite()


@pytest.mark.parametrize("g", [g for _, g in SUITE], ids=[name for name, _ in SUITE])
def test_fixture_suite(g):
    check_graph(g, range(4))
