"""The sampler's exact tree-count engine against fraction-free determinants.

``TreeCountEngine`` keeps tau(G) exactly and the inverse of the grounded
Laplacian modulo word-size primes under deletions and contractions, each one
an update ``M + g w w^T`` with a scalar g = -tau/(tau+s), +tau/(tau-s) or
-tau/s per prime. ``M`` is reduced only once every few updates, so the lazy
window must never let a ``uint64`` entry overflow. Every count the engine
reports must equal the Bareiss determinant of the same Laplacian minor,
including after rebuilds forced by a prime that divides the new tau, and
after a retry whose replacement prime divides it too.
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import exact_up_to
from hypothesis import given, settings
from hypothesis import strategies as st

from treescore import make_grid, sample_tree_resistance
from treescore._adjugate import TreeCountEngine
from treescore._linalg import laplacian_minor_det
from treescore._modular import hadamard_bound, word_primes
from treescore.fixtures import random_planar_multigraph
from treescore.sampler import _RunState

SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def small_prime_state(g):
    """An exact run state whose engine draws its moduli from ``SMALL_PRIMES``."""
    engine = TreeCountEngine(set(g.vertices), g.edges_dict(), primes=SMALL_PRIMES)
    return _RunState(g, exact=True, engine=engine)


def assert_matches_oracle(state):
    verts = sorted(state.vertices)
    edges = state.edges.values()
    assert state.trees == laplacian_minor_det(verts, edges, {verts[0]})
    for u, v in set(state.edges.values()):
        if u != v:
            assert state.trees_containing(u, v) == laplacian_minor_det(verts, edges, {u, v})


def edit_and_check(state, ops, check=assert_matches_oracle):
    """Apply (contract?, pick) edits, checking the state before and after each one."""
    check(state)
    for contract, pick in ops:
        if len(state.vertices) < 2:
            break
        e = sorted(state.edges)[pick % len(state.edges)]
        u, v = state.edges[e]
        if u != v and (contract or state.trees_containing(u, v) == state.trees):
            state.contract(e)  # a bridge can only be contracted
        else:
            state.delete(e)
        check(state)


EDITS = st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=25)


@given(seed=st.integers(0, 10**6), ops=EDITS)
@settings(max_examples=60)
def test_counts_equal_bareiss_under_random_edits(seed, ops):
    edit_and_check(_RunState(random_planar_multigraph(seed), exact=True), ops)


@given(seed=st.integers(0, 10**6), ops=EDITS)
@settings(max_examples=40)
def test_counts_equal_bareiss_with_tiny_primes(seed, ops):
    # Primes this small divide tau often, so the engine keeps rebuilding.
    state = small_prime_state(random_planar_multigraph(seed))
    edit_and_check(state, ops)


def test_prime_dividing_tau_forces_rebuild():
    g = make_grid(3, 3)  # 192 = 2**6 * 3 spanning trees
    state = small_prime_state(g)
    assert state.trees == 192
    engine = state._tree_counts()
    assert 2 not in engine.primes and 3 not in engine.primes
    before = engine.primes
    edit_and_check(state, [(False, 0), (True, 3), (False, 5), (True, 1), (False, 2)] * 3)
    assert engine.primes != before  # some later tau shared a factor with the set


def test_rebuild_retries_while_a_replacement_prime_divides_the_new_tau(monkeypatch):
    g = make_grid(5, 4)  # tau = 3**2 * 11 * 19 * 31 * 71
    state = small_prime_state(g)
    engine = state._tree_counts()
    u, v = state.edges[2]
    s = state.trees_containing(u, v)
    assert (state.trees, s) == (4140081, 3 * 17 * 61 * 883)  # s is the tau after contracting
    before = engine._mods
    assert 17 in before
    builds = []
    real = TreeCountEngine._build

    def build(self):
        real(self)
        builds.append(self._mods)

    monkeypatch.setattr(TreeCountEngine, "_build", build)
    state.contract(2)
    # 17 divides the new tau; its replacement 61 does too, so a second rebuild draws 67.
    assert len(builds) == 2
    assert 61 in builds[0] and 61 not in before and 67 in builds[1]
    assert state.trees == s and all(s % p for p in engine._mods)
    edit_and_check(state, [(False, 0), (True, 7), (False, 3), (True, 11), (False, 5)])


def test_lazy_window_holds_its_largest_values_without_overflow():
    g = make_grid(3, 3)
    engine = TreeCountEngine(set(g.vertices), g.edges_dict())
    primes = engine._mods
    assert max(primes) == 2**31 - 1
    # (p - 1) + 4 (p - 1)**2 < 2**64 <= (p - 1) + 5 (p - 1)**2 for the largest word prime
    assert engine._window == 4
    top = [p - 1 for p in primes]
    engine._m[...] = np.array(top, dtype=np.uint64)[:, None, None]
    engine._pending = 0
    w = np.array(top, dtype=np.uint64)[:, None].repeat(engine._m.shape[1], axis=1)
    for k in range(1, 2 * engine._window + 2):
        engine._update(w, engine.tau, 1)  # g = tau / tau = 1 adds (p - 1)**2 to every entry
        for i, p in enumerate(primes):
            # exact Python ints: (p - 1) + k (p - 1)**2 modulo p
            assert (engine._m[i] % np.uint64(p) == ((p - 1) + k * (p - 1) ** 2) % p).all()


def test_deleting_a_bridge_raises():
    # Every prime divides the new tau = 0, so no rebuild could succeed.
    engine = TreeCountEngine({0, 1, 2}, {0: (0, 1), 1: (1, 2), 2: (1, 2)})
    with pytest.raises(ValueError):
        engine.delete(0, 1)
    assert engine.tau == 2 and engine.trees_containing(1, 2) == 1


def test_exhausted_prime_pool_raises():
    g = make_grid(3, 3)
    with pytest.raises(ArithmeticError):
        TreeCountEngine(set(g.vertices), g.edges_dict(), primes=[2, 3, 5, 7])


def test_spare_prime_catches_a_corrupted_residue():
    g = make_grid(3, 3)
    engine = TreeCountEngine(set(g.vertices), g.edges_dict())
    assert engine.trees_containing(1, 2) == laplacian_minor_det(g.vertices, g.edges_dict().values(), {1, 2})
    spare = engine._mods[-1]
    engine._m[-1, 0, 0] = (engine._m[-1, 0, 0] + 1) % spare  # vertex 1, spare prime only
    with pytest.raises(ArithmeticError):
        engine.trees_containing(0, 1)


def test_word_primes_are_prime_and_below_two_to_the_31():
    primes = word_primes(40)
    assert primes == sorted(set(primes), reverse=True)
    assert primes[0] == 2**31 - 1
    for p in primes:
        assert p < 2**31
        assert all(p % q for q in range(2, int(p**0.5) + 1))


def test_chosen_primes_exceed_twice_the_hadamard_bound_on_a_dense_multigraph():
    n = 14
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            for _ in range(3):
                edges[len(edges)] = (u, v)
    vertices = set(range(n))
    engine = TreeCountEngine(vertices, edges)
    product = 1
    for p in engine.primes:
        product *= p
    bound = hadamard_bound(vertices, edges.values())
    assert bound == (3 * (n - 1)) ** (n - 1)
    assert product > 2 * bound
    assert engine.tau == 3 ** (n - 1) * n ** (n - 2)  # Cayley, each edge tripled
    assert engine.tau == laplacian_minor_det(sorted(vertices), edges.values(), {0})


def test_trace_records_mode():
    g = make_grid(3, 3)
    exact = sample_tree_resistance(g, seed=1)
    assert exact.exact and all(isinstance(s.resistance, Fraction) for s in exact.steps)
    with exact_up_to(1):
        floating = sample_tree_resistance(g, seed=1)
    assert not floating.exact and floating.initial_trees is None
