"""Exact unit flows and adjugate columns against Fraction Gaussian elimination.

The oracle below is the Laplacian grounded at the sink, in ``Fraction``
entries, solved by Gaussian elimination with partial pivoting.
``solve_flow`` must give the same voltages and currents, and
``_modular.minor_solve`` must give the minor's determinant times the
oracle's solution of ``L0 x = e_source``, also when a small prime pool forces
primes that meet a zero pivot to be replaced.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tree_engine import SMALL_PRIMES

from treescore import _modular, make_grid, resistance_fraction, solve_flow
from treescore._linalg import laplacian_minor_det
from treescore.fixtures import make_cycle, random_planar_multigraph
from treescore.spectral import effective_resistance


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
    flow = solve_flow(g, source, sink)
    voltages, currents = oracle_flow(g, source, sink)
    assert list(flow.voltages.items()) == list(voltages.items())
    assert flow.currents == currents
    assert all(type(x) is Fraction for x in (*flow.voltages.values(), *flow.currents.values()))


def pick_pair(verts, pick):
    """Two distinct vertices chosen by ``pick``."""
    n = len(verts)
    i = pick % n
    return verts[i], verts[(i + 1 + (pick // n) % (n - 1)) % n]


MULTIGRAPHS = st.builds(
    random_planar_multigraph, st.integers(0, 10**6), st.sampled_from((8, 12))
)


@given(g=MULTIGRAPHS, pick=st.integers(0, 10**6), least=st.sampled_from(("source", "sink", None)))
@settings(max_examples=60)
def test_exact_flow_matches_oracle(g, pick, least):
    """Loops and parallel edges included, and the least vertex as source or sink."""
    verts = g.vertices
    n = len(verts)
    source, sink = pick_pair(verts, pick)
    if least == "source":
        source, sink = verts[0], verts[1 + pick % (n - 1)]
    elif least == "sink":
        source, sink = verts[1 + pick % (n - 1)], verts[0]
    assert_flow_matches(g, source, sink)


def test_exact_flow_matches_oracle_on_a_grid():
    g = make_grid(4, 3)
    for source, sink in ((0, 11), (11, 0), (5, 6), (6, 1)):
        assert_flow_matches(g, source, sink)


@pytest.mark.parametrize("pool", [None, SMALL_PRIMES], ids=["word-primes", "small-primes"])
def test_solve_column_is_det_times_oracle(monkeypatch, pool):
    replaced = []
    eliminate = _modular._eliminate

    def spy(*args):
        residues, zero = eliminate(*args)
        replaced.extend(zero)
        return residues, zero

    monkeypatch.setattr(_modular, "_eliminate", spy)

    @given(g=MULTIGRAPHS, pick=st.integers(0, 10**6))
    @settings(max_examples=60)
    def check(g, pick):
        verts = g.vertices
        edges = list(g.edges_dict().values())
        source, ground = pick_pair(verts, pick)
        det, column = _modular.minor_solve(verts, edges, {ground}, source, primes=pool)
        assert det == laplacian_minor_det(verts, edges, {ground})
        oracle = grounded_solve(verts, edges, ground, source)
        assert column == {v: det * x for v, x in oracle.items()}

    check()
    if pool is not None:
        assert replaced  # some prime below 200 met a zero pivot and was replaced


def test_flow_past_64_vertices_is_exact():
    g = make_grid(9, 9)
    ends = g.edges_dict()
    for e in (0, 40, 100):
        s, t = ends[e]
        flow = solve_flow(g, s, t)
        assert all(type(x) is Fraction for x in (*flow.voltages.values(), *flow.currents.values()))
        net = dict.fromkeys(g.vertices, Fraction(0))  # current out of each vertex
        for f, (u, v) in ends.items():
            net[u] += flow.currents[f]
            net[v] -= flow.currents[f]
        assert net == {**dict.fromkeys(g.vertices, 0), s: 1, t: -1}
        r = resistance_fraction(g, e)
        assert flow.voltages[s] - flow.voltages[t] == r
        for method in ("tree-ratio", "laplacian-solve", "auto"):
            assert effective_resistance(g, e, method).exact == r


def test_solve_refuses_rows_past_the_memory_limit(monkeypatch):
    g = make_grid(9, 9)  # 80 rows, bandwidth 9: 11 words a row per prime
    monkeypatch.setattr(_modular, "MAX_SOLVE_WORDS", 80 * 11 * 2)
    with monkeypatch.context() as m:
        m.setattr(_modular, "_eliminate", None)  # refused before any elimination
        with pytest.raises(_modular.MinorTooLargeError, match=r"words \(limit"):
            solve_flow(g, 0, 80)
    assert _modular.minor_det(g.vertices, g.edges_dict().values(), {80}) > 0  # counts keep no rows


def test_solve_refuses_recoveries_past_the_work_limit(monkeypatch):
    g = make_cycle(200)  # grounded: a path of 199 rows, bandwidth 1, over 8 primes
    monkeypatch.setattr(_modular, "MAX_MINOR_WORK", 10_000)  # a count needs 199 * 4 * 8
    with monkeypatch.context() as m:
        m.setattr(_modular, "_eliminate", None)  # refused before any elimination
        with pytest.raises(_modular.MinorTooLargeError, match="with its 199 recoveries"):
            solve_flow(g, 0, 1)  # 199 * 8 * (4 + 8) word operations
    assert _modular.minor_det(g.vertices, g.edges_dict().values(), {1}) == 200
