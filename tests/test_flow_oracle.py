"""Exact unit flows and adjugate columns against Fraction Gaussian elimination.

The oracle below is the exact flow solver as it was before flows were read
from the tree-count engine: the Laplacian grounded at the sink, in
``Fraction`` entries, solved by Gaussian elimination with partial pivoting.
``solve_flow(..., exact=True)`` must give the same voltages and currents, and
``TreeCountEngine.adjugate_column`` must give ``tau`` times the oracle's
solution of ``L0 x = e_x`` with L0 grounded at the least vertex, also after
edits and rebuilds forced by a small prime pool.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_tree_engine import SMALL_PRIMES, edit_and_check, small_prime_state

from treescore import make_grid, solve_flow
from treescore._adjugate import TreeCountEngine
from treescore.fixtures import random_planar_multigraph


def solve_rational(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a x = b exactly over the rationals (Gaussian elimination, partial pivot)."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("singular system")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            if f:
                f = f / pk
                for j in range(k, n + 1):
                    m[i][j] -= f * m[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / m[k][k]
    return x


def grounded_solve(vertices, edges, ground, x):
    """Voltages with ``ground`` at 0 for a unit current into x (none if x is the ground)."""
    kept = sorted(v for v in vertices if v != ground)
    idx = {v: i for i, v in enumerate(kept)}
    a = [[Fraction(0)] * len(kept) for _ in kept]
    for u, v in edges:
        if u == v:
            continue
        for y, z in ((u, v), (v, u)):
            if y in idx:
                a[idx[y]][idx[y]] += 1
                if z in idx:
                    a[idx[y]][idx[z]] -= 1
    b = [Fraction(0)] * len(kept)
    if x in idx:
        b[idx[x]] = Fraction(1)
    sol = solve_rational(a, b)
    return {v: sol[idx[v]] for v in kept}


def oracle_flow(g, source, sink):
    voltages = grounded_solve(g.vertices, g.edges_dict().values(), sink, source)
    voltages[sink] = Fraction(0)
    currents = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        currents[e] = voltages[u] - voltages[v] if u != v else Fraction(0)
    return voltages, currents


def assert_flow_matches(g, source, sink):
    flow = solve_flow(g, source, sink, exact=True)
    voltages, currents = oracle_flow(g, source, sink)
    assert flow.exact
    assert list(flow.voltages.items()) == list(voltages.items())
    assert flow.currents == currents
    assert all(type(x) is Fraction for x in (*flow.voltages.values(), *flow.currents.values()))


MULTIGRAPHS = st.builds(
    random_planar_multigraph, st.integers(0, 10**6), st.sampled_from((8, 12))
)


@given(g=MULTIGRAPHS, pick=st.integers(0, 10**6), least=st.sampled_from(("source", "sink", None)))
@settings(max_examples=60)
def test_exact_flow_matches_oracle(g, pick, least):
    """Loops and parallel edges included; the least vertex is the engine's ground."""
    verts = g.vertices
    n = len(verts)
    i = pick % n
    source, sink = verts[i], verts[(i + 1 + (pick // n) % (n - 1)) % n]
    if least == "source":
        source, sink = verts[0], verts[1 + pick % (n - 1)]
    elif least == "sink":
        source, sink = verts[1 + pick % (n - 1)], verts[0]
    assert_flow_matches(g, source, sink)


def test_exact_flow_matches_oracle_on_a_grid():
    g = make_grid(4, 3)
    for source, sink in ((0, 11), (11, 0), (5, 6), (6, 1)):
        assert_flow_matches(g, source, sink)


def assert_columns_match(state):
    engine = state._engine
    edges = state.edges.values()
    ground = min(state.vertices)
    for x in sorted(state.vertices):
        voltages = grounded_solve(state.vertices, edges, ground, x)
        assert engine.adjugate_column(x) == {v: engine.tau * r for v, r in voltages.items()}


@given(
    seed=st.integers(0, 10**6),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=4),
)
@settings(max_examples=40)
def test_adjugate_columns_match_oracle_under_edits(seed, ops):
    state = small_prime_state(random_planar_multigraph(seed, 8))
    edit_and_check(state, ops, check=assert_columns_match)


def test_adjugate_columns_match_oracle_after_a_rebuild():
    state = small_prime_state(make_grid(5, 4))
    before = state._engine._mods
    state.contract(2)  # 17 and then 61 divide the new tau: two rebuilds
    assert state._engine._mods != before
    assert_columns_match(state)


def test_adjugate_column_entries_are_bounded_two_forest_counts():
    g = make_grid(3, 3)
    engine = TreeCountEngine(set(g.vertices), g.edges_dict(), primes=SMALL_PRIMES)
    assert engine.adjugate_column(0) == dict.fromkeys(range(1, 9), 0)
    diagonal = {x: engine.adjugate_column(x)[x] for x in range(1, 9)}
    for x in range(1, 9):
        column = engine.adjugate_column(x)
        assert all(0 <= column[w] <= diagonal[w] for w in column)
