"""Resistance-driven tree sampling.

The central oracle is an exhaustive explorer written here from scratch: it
walks every coin-outcome path of the sampling process (resistances from the
spectral module, bridges detected by deletion + connectivity) and sums the
exact probability reaching each spanning tree. Uniformity means every tree
accumulates exactly 1/trees(G), for any edge-selection rule.
"""

import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from conftest import exact_up_to
from hypothesis import given, settings
from hypothesis import strategies as st

from treescore import (
    CachedTreeSampler,
    DisconnectedGraphError,
    EdgePolicy,
    EmbeddedMultiGraph,
    SamplerError,
    count_spanning_trees,
    enumerate_spanning_trees,
    make_grid,
    replay_decisions,
    resistance_fraction,
    run_constrained_deletions,
    sample_deletion_run,
    sample_tree_resistance,
    sample_tree_wilson,
    sample_trees_counter,
    save_trace,
    trace_to_jsonl,
)
from treescore.fixtures import (
    make_cycle,
    make_diamond,
    make_theta,
    planar_fixture_suite,
    random_planar_multigraph,
)
from treescore.sampler import _walk_incidence, _wilson_walk, graph_engine


def edge_set(rooted):
    """The edges of a rooted tree from ``_wilson_walk``; the root's entry has none."""
    return frozenset(e for _, e, _ in rooted[1:])


def explore_all_paths(g, choose_edge):
    """Exact per-tree probability mass over every coin-outcome path."""
    masses: dict[frozenset, Fraction] = {}

    def rec(h, contracted, prob):
        if h.num_vertices == 1:
            key = frozenset(contracted)
            masses[key] = masses.get(key, Fraction(0)) + prob
            return
        e = choose_edge(h)
        if h.is_loop(e):
            rec(h.delete_edge(e), contracted, prob)
            return
        deleted = h.delete_edge(e)
        if not deleted.is_connected():
            rec(h.contract_edge(e), contracted + [e], prob)
            return
        r = resistance_fraction(h, e)
        rec(h.contract_edge(e), contracted + [e], prob * r)
        rec(deleted, contracted, prob * (1 - r))

    rec(g, [], Fraction(1))
    return masses


@pytest.mark.parametrize(
    "make",
    [make_diamond, lambda: make_cycle(4), lambda: make_theta(3), lambda: make_grid(3, 2)],
)
def test_every_tree_equally_likely_by_exhaustion(make):
    g = make()
    masses = explore_all_paths(g, lambda h: min(h.edge_ids))
    trees = {frozenset(t) for t in enumerate_spanning_trees(g)}
    total = int(count_spanning_trees(g))
    assert set(masses) == trees
    for mass in masses.values():
        assert mass == Fraction(1, total)


def test_uniformity_independent_of_edge_order():
    g = make_diamond()
    for choose in (
        lambda h: min(h.edge_ids),
        lambda h: max(h.edge_ids),
        lambda h: sorted(h.edge_ids)[len(h.edge_ids) // 2],
    ):
        masses = explore_all_paths(g, choose)
        assert all(m == Fraction(1, 8) for m in masses.values())
        assert sum(masses.values()) == 1


@pytest.mark.parametrize("seed", range(30))
def test_complete_run_probability_is_one_over_trees(seed, grid33):
    trace = sample_tree_resistance(grid33, seed=seed)
    assert trace.complete
    assert trace.p_product() == Fraction(1, 192)
    assert frozenset(trace.contracted()) == trace.tree
    assert len(trace.tree) == grid33.num_vertices - 1


def test_sampled_tree_is_spanning(grid33):
    trees = {frozenset(t) for t in enumerate_spanning_trees(grid33)}
    for seed in range(20):
        assert sample_tree_resistance(grid33, seed=seed).tree in trees


def test_trace_is_deterministic_in_seed(grid33):
    a = sample_tree_resistance(grid33, seed=11)
    b = sample_tree_resistance(grid33, seed=11)
    assert a == b
    c = sample_tree_resistance(grid33, seed=12)
    assert a != c


def test_trace_step_indices_and_fields(grid33):
    trace = sample_tree_resistance(grid33, seed=5)
    for k, step in enumerate(trace.steps):
        assert step.index == k + 1
        assert step.action in ("contracted", "deleted")
        if step.action == "contracted":
            assert step.probability == step.resistance
        else:
            assert step.probability == 1 - step.resistance
        if not step.forced:
            assert 0 < step.probability < 1


def test_tree_input_all_forced():
    trace = sample_tree_resistance(make_grid(5, 1), seed=0)
    assert trace.p_product() == 1
    assert all(s.forced and s.action == "contracted" for s in trace.steps)
    assert trace.tree == frozenset(make_grid(5, 1).edge_ids)


def test_replay_first_step_probabilities():
    diamond = make_diamond()
    trace = replay_decisions(diamond, {0: "deleted"}, stop_when_decided=True)
    assert trace.p_product() == 1 - Fraction(5, 8)
    c4 = make_cycle(4)
    trace = replay_decisions(c4, {0: "deleted"}, stop_when_decided=True)
    assert trace.p_product() == Fraction(1, 4)
    trace = replay_decisions(c4, {0: "contracted"}, stop_when_decided=True)
    assert trace.p_product() == Fraction(3, 4)


def test_replay_rejects_zero_probability_path():
    with pytest.raises(SamplerError):
        replay_decisions(make_grid(2, 1), {0: "deleted"})
    g = EmbeddedMultiGraph(
        {0: (0, 0), 1: (0, 1)}, {0: [(0, 0), (0, 1), (1, 0)], 1: [(1, 1)]}
    )
    with pytest.raises(SamplerError):
        replay_decisions(g, {0: "contracted"})


def test_replay_rejects_unknown_action(grid33):
    with pytest.raises(SamplerError):
        replay_decisions(grid33, {0: "dropped"})


def test_given_order_policy_exhausted(grid33):
    with pytest.raises(SamplerError):
        sample_tree_resistance(grid33, seed=0, policy=EdgePolicy.given_order([0, 1]))


def test_boundary_first_policy(grid33):
    policy = EdgePolicy.boundary_first({5, 7})
    trace = sample_tree_resistance(grid33, seed=0, policy=policy)
    assert {trace.steps[0].edge, trace.steps[1].edge} <= {5, 7}
    assert trace.p_product() == Fraction(1, 192)


def test_deletion_run_probability(grid33):
    for seed in range(15):
        trace = sample_deletion_run(grid33, seed=seed)
        assert not trace.complete
        assert all(s.action == "deleted" for s in trace.steps)
        assert trace.p_product() == Fraction(1, 192)
        assert len(trace.tree) == grid33.num_vertices - 1


def test_constrained_deletions_probability():
    diamond = make_diamond()
    prob, remaining = run_constrained_deletions(diamond, [1, 3])
    trees_left = int(count_spanning_trees(remaining))
    assert prob == Fraction(trees_left, 8) == Fraction(1, 8)


def test_constrained_deletions_telescopes(grid44):
    deletions = [0, 5, 9]
    prob, remaining = run_constrained_deletions(grid44, deletions)
    assert prob == Fraction(
        int(count_spanning_trees(remaining)), int(count_spanning_trees(grid44))
    )


def test_constrained_deletions_rejects_disconnect():
    with pytest.raises(SamplerError):
        run_constrained_deletions(make_diamond(), [0, 1, 2])
    with pytest.raises(SamplerError):
        run_constrained_deletions(make_diamond(), [1, 1])


def test_float_mode_close_to_exact(grid33):
    with exact_up_to(1):
        trace = sample_tree_resistance(grid33, seed=3)
    assert trace.complete
    assert float(trace.p_product()) == pytest.approx(1 / 192, rel=1e-9)
    assert len(trace.tree) == 8


def test_wilson_trees_are_spanning(grid33):
    trees = {frozenset(t) for t in enumerate_spanning_trees(grid33)}
    for seed in range(25):
        assert sample_tree_wilson(grid33, seed=seed) in trees


def test_wilson_handles_multiedges_and_loops():
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (0, 1), 2: (1, 1)},
        {0: [(0, 0), (1, 0)], 1: [(1, 1), (0, 1), (2, 0), (2, 1)]},
    )
    counts = {0: 0, 1: 0}
    for seed in range(400):
        (edge,) = sample_tree_wilson(g, seed=seed)
        counts[edge] += 1
    assert counts[0] + counts[1] == 400
    assert min(counts.values()) > 120  # both parallel copies are reachable


def test_wilson_rejects_disconnected():
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (2, 3)},
        {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]},
    )
    with pytest.raises(DisconnectedGraphError):
        sample_tree_wilson(g, seed=0)
    with pytest.raises(DisconnectedGraphError):  # a failed build leaves nothing memoised
        sample_tree_wilson(g, seed=0)


@pytest.mark.parametrize("name,g", [("diamond", make_diamond()), ("theta4", make_theta(4)),
                                    ("grid5x4", make_grid(5, 4))])
def test_wilson_walk_reuses_its_incidence(name, g):
    """One incidence drawn from repeatedly gives the trees of repeated public calls."""
    a, b = Random(11), Random(11)
    fresh = [sample_tree_wilson(g, rng=a) for _ in range(30)]
    incident = _walk_incidence(g, g.vertices)
    assert [edge_set(_wilson_walk(incident, b)) for _ in range(30)] == fresh
    assert a.random() == b.random()


def test_cached_sampler_matches_direct_support():
    g = make_diamond()
    counts = sample_trees_counter(g, 4000, seed=9)
    trees = {frozenset(t) for t in enumerate_spanning_trees(g)}
    assert set(counts) == trees
    assert min(counts.values()) > 4000 / 8 * 0.7


def test_cached_sampler_rejects_large_graphs():
    with pytest.raises(SamplerError):
        CachedTreeSampler(make_grid(9, 9))


def test_cached_sampler_reuses_rng():
    g = make_cycle(4)
    sampler = CachedTreeSampler(g)
    rng = Random(4)
    seq1 = [sampler.sample(rng) for _ in range(10)]
    rng = Random(4)
    seq2 = [sampler.sample(rng) for _ in range(10)]
    assert seq1 == seq2


def assert_cached_draws_equal_plain_runs(g, n, seed, policy):
    rng = Random(seed)
    plain = Counter(sample_tree_resistance(g, rng=rng, policy=policy).tree for _ in range(n))
    assert sample_trees_counter(g, n, seed=seed, policy=policy) == plain


@pytest.mark.parametrize("name,g", planar_fixture_suite())
def test_cached_sampler_draws_what_plain_runs_draw(name, g):
    reverse = EdgePolicy.given_order(sorted(g.edges_dict(), reverse=True))
    for seed, policy in [(1, None), (2, EdgePolicy.lowest_id()), (3, reverse)]:
        assert_cached_draws_equal_plain_runs(g, 60, seed, policy)


@given(seed=st.integers(0, 10**6), n=st.integers(0, 80), reverse=st.booleans())
@settings(max_examples=40)
def test_cached_sampler_draws_what_plain_runs_draw_on_random_multigraphs(seed, n, reverse):
    g = random_planar_multigraph(seed)
    order = sorted(g.edges_dict(), reverse=True)
    policy = EdgePolicy.given_order(order) if reverse else EdgePolicy.lowest_id()
    assert_cached_draws_equal_plain_runs(g, n, seed, policy)


def test_cached_sampler_builds_one_engine_and_makes_one_run_per_new_tree(monkeypatch):
    from treescore import sampler
    from treescore._adjugate import TreeCountEngine

    builds, runs = [], []
    real_init, real_run = TreeCountEngine.__init__, sampler._run

    def init(self, *args, **kwargs):
        builds.append(len(args[0]))
        real_init(self, *args, **kwargs)

    def run(*args, **kwargs):
        runs.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(TreeCountEngine, "__init__", init)
    monkeypatch.setattr(sampler, "_run", run)
    g = make_grid(3, 3)
    cached = CachedTreeSampler(g)
    assert builds == [] and runs == []
    rng, seen = Random(5), set()
    for _ in range(300):
        before = len(runs)
        tree = cached.sample(rng)
        # a run ends at a tree no earlier run reached; a cached path makes none
        assert len(runs) - before == (tree not in seen)
        seen.add(tree)
    assert builds == [9]
    assert len(runs) == len(seen) > 100


def test_cached_sampler_refuses_a_disconnected_graph_when_it_samples():
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (2, 3)},
        {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]},
    )
    cached = CachedTreeSampler(g)
    assert sample_trees_counter(g, 0, seed=1) == Counter()
    with pytest.raises(DisconnectedGraphError):
        cached.sample(Random(0))
    with pytest.raises(DisconnectedGraphError):
        graph_engine(g)


def test_trace_jsonl_round_trip(grid33, tmp_path):
    trace = sample_tree_resistance(grid33, seed=2)
    text = trace_to_jsonl(trace)
    records = [json.loads(line) for line in text.strip().splitlines()]
    assert len(records) == len(trace.steps)
    for rec, step in zip(records, trace.steps):
        assert rec["i"] == step.index
        assert rec["edge"] == step.edge
        assert rec["action"] == step.action
        num, den = rec["r"].split("/") if "/" in rec["r"] else (rec["r"], "1")
        assert Fraction(int(num), int(den)) == step.resistance
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert path.read_text() == text


def test_contraction_renames_in_place_like_a_full_scan():
    # The run state renames only the removed vertex's edges; the edge dict's
    # order and values must equal a rename over every edge.
    from treescore.fixtures import planar_fixture_suite
    from treescore.sampler import _RunState

    for name, g in planar_fixture_suite(30):
        rng = Random(name)
        state = _RunState(g, exact=False)
        reference = dict(state.edges)
        while len(state.vertices) >= 2 and state.edges:
            e = rng.choice(sorted(state.edges))
            u, v = state.edges[e]
            if u == v or rng.random() < 0.3:
                state.delete(e)
                del reference[e]
                continue
            keep, gone = min(u, v), max(u, v)
            state.contract(e)
            del reference[e]
            reference = {
                f: (keep if x == gone else x, keep if y == gone else y)
                for f, (x, y) in reference.items()
            }
            assert list(state.edges.items()) == list(reference.items()), name


def test_each_graph_object_builds_its_engine_once(monkeypatch):
    """Every run on one graph object edits a copy of one engine, and gives what fresh builds give."""
    from treescore import verify_run_products, verify_score_ratios
    from treescore._adjugate import TreeCountEngine

    trace = sample_tree_resistance(make_grid(4, 4), seed=3)
    decisions = {s.edge: s.action for s in trace.steps if not s.forced}
    runs = [
        lambda h: [sample_tree_resistance(h, seed=s) for s in range(3)],
        lambda h: [sample_deletion_run(h, rng=Random(s)) for s in range(3)],
        lambda h: replay_decisions(h, decisions),
        lambda h: [run_constrained_deletions(h, [1, 5, 9])[0] for _ in range(2)],
        lambda h: sample_trees_counter(h, 200, seed=1),
        lambda h: [verify_run_products(h, 4, 4, runs=4, mode=m).to_json()
                   for m in ("deletion", "mixed")],
        lambda h: verify_score_ratios(h, 2, 4, 4).to_json(),
    ]
    fresh = [run(make_grid(4, 4)) for run in runs]
    built = []
    real = TreeCountEngine._build_with

    def build(engine, primes):
        built.append(frozenset(engine._vertices))
        return real(engine, primes)

    monkeypatch.setattr(TreeCountEngine, "_build_with", build)
    g = make_grid(4, 4)
    assert [run(g) for run in runs] == fresh
    assert built == [frozenset(g.vertices)]
    assert [run(g.copy()) for run in runs[:2]] == fresh[:2]
    assert len(built) == 3  # a copy is a new graph object with an empty memo


def test_wilson_builds_each_graph_incidence_once(monkeypatch):
    from treescore import sampler

    g = make_grid(3, 3)
    built = []
    monkeypatch.setattr(
        sampler, "_walk_incidence", lambda h, vs: built.append((h, vs)) or _walk_incidence(h, vs)
    )
    a, b = Random(5), Random(5)
    trees = [sample_tree_wilson(g, rng=a) for _ in range(1000)]
    assert built == [(g, g.vertices)]
    incident = _walk_incidence(g, g.vertices)
    assert trees == [edge_set(_wilson_walk(incident, b)) for _ in range(1000)]


@pytest.mark.parametrize("exact_limit", [64, 1])
@pytest.mark.parametrize(
    "run", [sample_tree_resistance, sample_deletion_run, graph_engine]
)
def test_a_disconnected_graph_raises_on_every_call(run, exact_limit):
    g = EmbeddedMultiGraph(
        {0: (0, 1), 1: (2, 3)},
        {0: [(0, 0)], 1: [(0, 1)], 2: [(1, 0)], 3: [(1, 1)]},
    )
    with exact_up_to(exact_limit):
        for _ in range(2):  # a failed build leaves nothing memoised
            with pytest.raises(DisconnectedGraphError):
                run(g)
