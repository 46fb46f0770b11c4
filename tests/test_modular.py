"""Banded modular determinants against fraction-free Bareiss.

``_modular.minor_det`` must give the same integer as
``_linalg.laplacian_minor_det`` for every grounded Laplacian minor, including
disconnected ones, and must replace a prime that meets a zero pivot rather
than return a wrong value. ``spectral`` uses it above ``MODULAR_MINOR_ROWS``.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treescore
from treescore import _modular, count_spanning_trees, make_grid, resistance_fraction, spectral
from treescore._linalg import laplacian_minor_det
from treescore._modular import CRT, choose_primes, minor_det, rcm_order, word_primes
from treescore.fixtures import random_planar_multigraph
from treescore.graphs import graph_from_json, graph_to_json

PRIMES_BELOW_50 = [p for p in range(2, 50) if all(p % q for q in range(2, p))]

# One or two picked vertices, or (three picks) the ends of one edge.
EXCLUDED = st.lists(st.integers(0, 10**6), min_size=1, max_size=3)


def _excluded(verts, edges, picks):
    if len(picks) == 3:
        return set(edges[picks[0] % len(edges)])
    return {verts[i % len(verts)] for i in picks}


def _minor_args(seed, picks):
    g = random_planar_multigraph(seed)
    edges = list(g.edges_dict().values())
    return g.vertices, edges, _excluded(g.vertices, edges, picks)


@given(seed=st.integers(0, 10**6), picks=EXCLUDED)
@settings(max_examples=300)
def test_minor_det_equals_bareiss(seed, picks):
    verts, edges, excluded = _minor_args(seed, picks)
    assert minor_det(verts, edges, excluded) == laplacian_minor_det(verts, edges, excluded)


def test_tiny_primes_are_replaced_after_a_zero_pivot(monkeypatch):
    replaced = []
    eliminate = _modular._eliminate

    def spy(*args):
        residues, zero = eliminate(*args)
        replaced.extend(zero)
        return residues, zero

    monkeypatch.setattr(_modular, "_eliminate", spy)

    @given(seed=st.integers(0, 10**6), picks=EXCLUDED)
    @settings(max_examples=300)
    def check(seed, picks):
        verts, edges, excluded = _minor_args(seed, picks)
        expected = laplacian_minor_det(verts, edges, excluded)
        assert minor_det(verts, edges, excluded, primes=PRIMES_BELOW_50) == expected

    check()
    assert replaced  # some prime below 50 divided a leading minor and was replaced


def test_exhausted_prime_pool_raises():
    g = make_grid(3, 3)  # 2 * Hadamard bound far above 2 * 3 * 5 * 7
    with pytest.raises(ArithmeticError, match="exhausted"):
        minor_det(g.vertices, g.edges_dict().values(), {0}, primes=[2, 3, 5, 7])


def test_corrupted_spare_residue_raises(monkeypatch):
    g = make_grid(4, 4)
    eliminate = _modular._eliminate

    def corrupt(low, n, b, primes, *stored):
        residues, zero = eliminate(low, n, b, primes, *stored)
        residues[-1] = (residues[-1] + 1) % primes[-1]
        return residues, zero

    monkeypatch.setattr(_modular, "_eliminate", corrupt)
    with pytest.raises(ArithmeticError):
        minor_det(g.vertices, g.edges_dict().values(), {0})


def test_crt_checks_the_spare_and_the_half_modulus():
    primes = word_primes(3)
    crt = CRT(primes)
    value = 3**30
    assert crt.recover([value % p for p in primes]) == value
    with pytest.raises(ArithmeticError):
        crt.recover([value % p for p in primes[:-1]] + [(value + 1) % primes[-1]])
    big = crt.modulus - 5  # consistent residues, but above modulus / 2
    with pytest.raises(ArithmeticError):
        crt.recover([big % p for p in primes[:-1]] + [big % primes[-1]])


def test_chosen_primes_cover_twice_the_bound_plus_a_spare():
    chosen = choose_primes(10**30, excluded={2**31 - 1})
    assert 2**31 - 1 not in chosen
    product = 1
    for p in chosen[:-1]:
        product *= p
    assert product > 2 * 10**30
    assert product // chosen[-2] <= 2 * 10**30


def test_rcm_keeps_a_grid_within_one_row_of_band():
    g = make_grid(12, 12)
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges_dict().values():
        adj[u].add(v)
        adj[v].add(u)
    (order,) = rcm_order(g.vertices, adj)
    assert sorted(order) == g.vertices
    pos = {v: i for i, v in enumerate(order)}
    assert max(abs(pos[u] - pos[v]) for u in adj for v in adj[u]) <= 13


def _shuffled_grid(w, h, seed, parallel=0):
    rng = random.Random(seed)
    obj = graph_to_json(make_grid(w, h))
    ids = rng.sample(range(4 * w * h), w * h)
    vmap = dict(zip(obj["vertices"], ids))
    obj = {
        "vertices": sorted(ids),
        "edges": [{"id": r["id"], "u": vmap[r["u"]], "v": vmap[r["v"]]} for r in obj["edges"]],
        "rotation": {str(vmap[int(v)]): darts for v, darts in obj["rotation"].items()},
    }
    for rec in rng.sample(obj["edges"], parallel):  # each copy next to its original
        new = max(r["id"] for r in obj["edges"]) + 1
        obj["edges"].append({"id": new, "u": rec["u"], "v": rec["v"]})
        ru, rv = obj["rotation"][str(rec["u"])], obj["rotation"][str(rec["v"])]
        ru.insert(ru.index([rec["id"], 0]) + 1, [new, 0])
        rv.insert(rv.index([rec["id"], 1]), [new, 1])
    return graph_from_json(obj)


@pytest.mark.parametrize(
    "w,h,parallel", [(8, 8, 0), (9, 10, 0), (11, 11, 12), (12, 12, 0), (13, 13, 17)]
)
def test_count_and_resistance_on_shuffled_grids_equal_bareiss(monkeypatch, w, h, parallel):
    g = _shuffled_grid(w, h, seed=w * h, parallel=parallel)
    verts = g.vertices
    edges = g.edges_dict()
    expected = laplacian_minor_det(verts, edges.values(), {verts[-1]})
    u, v = edges[max(edges)]  # a parallel copy when there is one
    containing = laplacian_minor_det(verts, edges.values(), {u, v})
    ratio = Fraction(containing, laplacian_minor_det(verts, edges.values(), {u}))
    monkeypatch.setattr(spectral, "laplacian_minor_det", None)  # must take the modular path
    assert count_spanning_trees(g).value == expected
    assert resistance_fraction(g, max(edges)) == ratio


@st.composite
def multigraphs(draw):
    """Up to 60 shuffled ids: a spanning forest (mostly one tree), extra edges and loops."""
    n = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(3 * n)))[:n]
    parents = [draw(st.integers(-1, i - 1)) if i else -1 for i in range(n)]  # -1 starts a new tree
    if draw(st.integers(0, 9)):
        parents[1:] = [max(p, 0) for p in parents[1:]]  # mostly connected
    edges = [(ids[i], ids[p]) for i, p in enumerate(parents) if p >= 0]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(ids[a], ids[b]) for a, b in draw(st.lists(pairs, max_size=2 * n))]
    return sorted(ids), draw(st.permutations(edges))


@given(graph=multigraphs(), picks=EXCLUDED)
@settings(max_examples=120)
def test_minor_det_equals_bareiss_on_larger_multigraphs(graph, picks):
    verts, edges = graph
    excluded = _excluded(verts, edges, picks) if edges else {verts[0]}
    assert minor_det(verts, edges, excluded) == laplacian_minor_det(verts, edges, excluded)


def test_small_counts_stay_on_bareiss(monkeypatch):
    g = make_grid(4, 8)  # 31 rows, one below the cutoff
    assert g.num_vertices - 1 < spectral.MODULAR_MINOR_ROWS
    monkeypatch.setattr(spectral, "minor_det", None)
    expected = laplacian_minor_det(g.vertices, g.edges_dict().values(), {0})
    assert count_spanning_trees(g).value == expected


def test_import_builds_no_prime_table():
    script = (
        "import treescore, treescore.cli\n"
        "from treescore import _modular\n"
        "assert _modular._word_primes == [], len(_modular._word_primes)\n"
    )
    src = str(Path(treescore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_singular_minors_are_zero():
    # two triangles, not joined: grounding one leaves the other singular
    verts = list(range(6))
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (4, 4)]
    for excluded in (set(), {0}, {0, 1}, {4}):
        assert minor_det(verts, edges, excluded) == 0 == laplacian_minor_det(verts, edges, excluded)
    assert minor_det(verts, edges, {0, 3}) == 9 == laplacian_minor_det(verts, edges, {0, 3})
    assert minor_det(verts, edges, set(verts)) == 1 == laplacian_minor_det(verts, edges, set(verts))
    # a star grounded at its centre has bandwidth 0
    assert minor_det([0, 1, 2], [(0, 1), (0, 2), (0, 2)], {0}) == 2
