"""Score-ratio bounds, pair dominance, and the perimeter-ratio threshold.

The 4x4 grid is exhaustively checked elsewhere (acceptance harness); here
the focus is small exact instances, the non-vacuous ladder configurations,
threshold arithmetic, and report plumbing.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import wheel

from treescore import (
    BoundReport,
    BoundsError,
    DistEntry,
    DistributionTable,
    LambdaParams,
    Partition,
    PartitionError,
    chain_slacks,
    check_bounded,
    count_spanning_trees,
    cut_edges,
    derivation_chain,
    enumerate_partitions,
    make_grid,
    merge_reports,
    partition_deletion_set,
    perimeter_ratio_threshold,
    spanning_tree_distribution,
    spanning_tree_score,
    verify_exponential_gap,
    verify_pair_dominance,
    verify_score_ratio,
    verify_score_ratios,
)
from treescore import bounds
from treescore._modular import MinorTooLargeError
from treescore.bounds import gap_alpha_log2
from treescore.fixtures import (
    make_twelve_county,
    planar_fixture_suite,
    twelve_county_compact_partition,
)


def test_threshold_reference_values():
    assert perimeter_ratio_threshold(4, 4, 1.0, 0.001) == pytest.approx(
        7.229262518959628, abs=1e-12
    )
    assert perimeter_ratio_threshold(6, 4, 1.0, 0.01) == pytest.approx(
        11.415352, abs=1e-6
    )


def test_threshold_closed_form():
    for k1, k2, alpha, eps in [(4, 4, 1.0, 0.5), (3, 5, 2.0, 0.25), (6, 4, 1.5, 1.0)]:
        want = (math.log(1 / (2 * k2)) - math.log(alpha)) / math.log(1 - 1 / k1) + eps
        assert perimeter_ratio_threshold(k1, k2, alpha, eps) == pytest.approx(want)


def test_threshold_monotonicity():
    base = perimeter_ratio_threshold(4, 4, 1.0, 0.5)
    assert perimeter_ratio_threshold(4, 4, 2.0, 0.5) > base  # stronger dominance
    assert perimeter_ratio_threshold(4, 4, 1.0, 1.0) > base  # looser premise
    assert perimeter_ratio_threshold(4, 8, 1.0, 0.5) > base  # bigger faces
    assert perimeter_ratio_threshold(8, 4, 1.0, 0.5) > base  # bigger vertices


def test_threshold_rejects_bad_parameters():
    with pytest.raises(BoundsError):
        perimeter_ratio_threshold(1, 4)
    with pytest.raises(BoundsError):
        perimeter_ratio_threshold(4, 0)
    with pytest.raises(BoundsError):
        perimeter_ratio_threshold(4, 4, alpha=0.5)
    with pytest.raises(BoundsError):
        perimeter_ratio_threshold(4, 4, epsilon=0)


def test_lambda_params():
    params = LambdaParams.compute(4, 4, alpha=1.0, epsilon=0.001)
    assert params.value == perimeter_ratio_threshold(4, 4, 1.0, 0.001)
    blob = params.to_json()
    assert blob["lambda"] == params.value
    assert blob["k1"] == 4


def test_report_validates_claim():
    with pytest.raises(BoundsError):
        BoundReport(claim="nonsense", instances_checked=0, applicable=0)


def test_report_json_shape():
    rep = BoundReport(
        claim="eq4",
        instances_checked=3,
        applicable=2,
        margins={"x": Fraction(1, 2)},
        c1=Fraction(1, 8),
        c2=Fraction(3, 4),
        notes=("note",),
    )
    blob = rep.to_json()
    assert blob["holds"] is True
    assert blob["c1"] == "1/8"
    assert blob["margins"]["x"] == "1/2"


def test_merge_reports():
    a = BoundReport(claim="eq4", instances_checked=1, applicable=1,
                    margins={"s": 2.0}, notes=("x",), c1=Fraction(1, 8))
    b = BoundReport(claim="eq4", instances_checked=2, applicable=1,
                    margins={"s": 1.0, "t": 5.0}, notes=("x", "y"))
    merged = merge_reports(a, b)
    assert merged.instances_checked == 3
    assert merged.applicable == 2
    assert merged.margins == {"s": 1.0, "t": 5.0}
    assert merged.notes == ("x", "y")
    assert merged.c1 == Fraction(1, 8)
    with pytest.raises(BoundsError):
        merge_reports()
    with pytest.raises(BoundsError):
        merge_reports(a, BoundReport(claim="lemma32", instances_checked=0, applicable=0))


def test_partition_deletion_set(twelve_county):
    p = Partition.from_dict(3, twelve_county_compact_partition())
    deletable, retained = partition_deletion_set(twelve_county, p)
    cut = cut_edges(twelve_county, p).edges
    assert set(deletable) | set(retained) == cut
    assert not set(deletable) & set(retained)
    assert len(retained) == p.m - 1
    g = twelve_county
    for e in deletable:
        g = g.delete_edge(e)
    assert g.is_connected()
    # removing all non-retained cut edges leaves exactly score(P) * 1 trees
    # per the quotient-tree structure
    remaining = twelve_county
    for e in deletable:
        remaining = remaining.delete_edge(e)
    assert int(count_spanning_trees(remaining)) == spanning_tree_score(twelve_county, p)


def test_partition_deletion_set_rejects_invalid(grid22):
    with pytest.raises(PartitionError):
        partition_deletion_set(grid22, Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1}))


def test_score_ratio_single_partition(grid44):
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    rep = verify_score_ratio(grid44, p, 4, 4)
    assert rep.claim == "eq4"
    assert rep.holds
    assert rep.applicable == 1
    assert any("exact arithmetic" in n for n in rep.notes)
    assert rep.margins["lower-slack-log2"] >= 0
    assert rep.margins["upper-slack-log2"] >= 0
    b = cut_edges(grid44, p).size
    ratio = Fraction(
        spanning_tree_score(grid44, p), int(count_spanning_trees(grid44))
    )
    assert Fraction(1, 8) ** (b - 1) <= ratio <= Fraction(3, 4) ** (b - 1)


def test_score_ratio_refuses_a_graph_whose_count_is_too_large():
    """No approximation: the tree count of G refuses, whatever the vertex count."""
    g = wheel(2100)
    p = Partition.from_dict(1, dict.fromkeys(g.vertices, 0))
    with pytest.raises(MinorTooLargeError, match="above the limit"):
        verify_score_ratio(g, p, 3, 3)


def test_score_ratios_small_grid_exhaustive():
    g = make_grid(4, 2)
    rep = verify_score_ratios(g, 2, 4, 4)
    assert rep.holds
    assert rep.instances_checked == len(
        list(spanning_tree_distribution(g, 2).entries)
    )
    assert rep.applicable == rep.instances_checked


def test_score_ratios_requires_bounded(grid44):
    with pytest.raises(BoundsError):
        verify_score_ratios(grid44, 2, 3, 4)


def test_pair_dominance_nonvacuous_ladder():
    g = make_grid(12, 2)
    rep = verify_pair_dominance(g, 2, 3, 4, alpha=1.0, epsilon=0.5, max_vertices=24)
    assert rep.holds
    assert rep.applicable > 0
    assert any("applicable ordered pairs" in n for n in rep.notes)
    assert rep.margins["conclusion-slack-log2"] >= 0
    # every inequality of the derivation is reported with non-negative slack
    assert all(
        float(v) >= -1e-9 for k, v in rep.margins.items() if k.startswith("chain-")
    )


def test_pair_dominance_vacuous_is_disclosed(grid44):
    rep = verify_pair_dominance(grid44, 2, 4, 4)
    assert rep.holds
    assert rep.applicable == 0
    assert any("0 applicable" in n for n in rep.notes)


def test_pair_dominance_rejects_bad_parameters(grid44):
    with pytest.raises(BoundsError):
        verify_pair_dominance(grid44, 2, 4, 4, alpha=0.5)
    with pytest.raises(BoundsError):
        verify_pair_dominance(grid44, 2, 4, 4, epsilon=0)


def test_exponential_gap_nonvacuous_ladder():
    g = make_grid(14, 2)
    rep = verify_exponential_gap(g, 2, 3, 4, max_vertices=28)
    assert rep.holds
    assert rep.applicable > 0
    assert any("extreme pair" in n for n in rep.notes)


def test_exponential_gap_vacuous_is_disclosed(grid44):
    rep = verify_exponential_gap(grid44, 2, 4, 4)
    assert rep.holds
    assert rep.applicable == 0
    assert any("extreme pair" in n for n in rep.notes)
    with pytest.raises(BoundsError):
        verify_exponential_gap(grid44, 2, 1, 4)


def test_derivation_chain_descends():
    g = make_grid(12, 2)
    table = spanning_tree_distribution(g, 2, max_vertices=24)
    entries = sorted(table.entries, key=lambda e: e.cut_size)
    small, big = entries[0], entries[-1]
    lam = perimeter_ratio_threshold(3, 4, 1.0, 0.5)
    assert big.cut_size >= lam * small.cut_size  # the premise of the claim
    chain = derivation_chain(
        b1=small.cut_size,
        b2=big.cut_size,
        m=2,
        k1=3,
        k2=4,
        alpha=1.0,
        epsilon=0.5,
        ratio1=Fraction(small.score, table.graph_trees),
        ratio2=Fraction(big.score, table.graph_trees),
    )
    slacks = chain_slacks(chain)
    assert len(chain) == 7
    assert all(s >= -1e-9 for s in slacks)
    assert chain[0][1] >= chain[-1][1]


def test_derivation_chain_rejects_trivial_cut():
    with pytest.raises(BoundsError):
        derivation_chain(0, 5, 2, 4, 4, 1.0, 1.0, Fraction(1), Fraction(1))


def test_score_ratios_certify_and_count_the_graph_once(monkeypatch):
    import treescore.bounds as bounds
    import treescore.partition as partition

    g = make_grid(4, 4)
    certified, counted = [], []
    real_check, real_count = bounds.check_bounded, bounds.count_spanning_trees

    def check(h, k1, k2):
        certified.append(h)
        return real_check(h, k1, k2)

    def count(h, *args, **kwargs):
        counted.append(h)
        return real_count(h, *args, **kwargs)

    monkeypatch.setattr(bounds, "check_bounded", check)
    # trees(G) may be counted by the bounds module or by the table it reads
    monkeypatch.setattr(bounds, "count_spanning_trees", count)
    monkeypatch.setattr(partition, "count_spanning_trees", count)
    report = verify_score_ratios(g, 2, 4, 4)
    assert report.holds and report.instances_checked == 70
    assert certified == [g]
    assert sum(h is g for h in counted) == 1
    certified.clear()
    verify_score_ratios(g, 4, 4, 4)
    assert certified == [g]


def test_score_ratios_build_the_graph_engine_once(monkeypatch):
    from treescore._adjugate import TreeCountEngine

    g = make_grid(4, 4)
    built = []
    real_build = TreeCountEngine._build_with

    def build(engine, primes):
        built.append(frozenset(engine._vertices))
        return real_build(engine, primes)

    monkeypatch.setattr(TreeCountEngine, "_build_with", build)
    for m, plans in [(2, 70), (4, 117)]:
        report = verify_score_ratios(g, m, 4, 4)
        assert report.holds and report.instances_checked == plans
    # one build for the graph object, shared by both reports' deletion runs
    assert built == [frozenset(g.vertices)]


def test_score_ratio_runs_skip_the_connectivity_check(monkeypatch):
    import sys

    from treescore.graphs import EmbeddedMultiGraph
    from treescore.sampler import _RunState, graph_engine

    callers = []
    real = EmbeddedMultiGraph.is_connected

    def counting(self):
        callers.append(sys._getframe(1).f_code)
        return real(self)

    monkeypatch.setattr(EmbeddedMultiGraph, "is_connected", counting)
    report = verify_score_ratios(make_grid(4, 5), 4, 4, 4)
    assert report.holds and report.instances_checked == 501
    # G is checked once, by the engine every plan's deletion run copies
    assert callers.count(graph_engine.__wrapped__.__code__) == 1
    assert _RunState.__init__.__code__ not in callers


@pytest.mark.parametrize(
    "name,g",
    [("grid4x4", make_grid(4, 4))] + planar_fixture_suite(count=30, max_vertices=12),
)
def test_score_ratios_table_path_matches_public_path(name, g):
    """eq4 over the distribution table equals the validated one-plan check, merged."""
    if not check_bounded(g, 4, 4).holds:
        with pytest.raises(BoundsError):
            verify_score_ratios(g, 1, 4, 4)
        return
    n = g.num_vertices
    for m in [d for d in range(1, 5) if n % d == 0]:
        plans = list(enumerate_partitions(g, m))
        if not plans:
            with pytest.raises(PartitionError):
                verify_score_ratios(g, m, 4, 4)
            continue
        public = merge_reports(*(verify_score_ratio(g, p, 4, 4) for p in plans))
        expected = replace(public, notes=(f"enumerated {len(plans)} partitions with m={m}",))
        assert verify_score_ratios(g, m, 4, 4).to_json() == expected.to_json()


def _failing_table(g):
    """Six cut-2 plans scoring 1..6 and six cut-40 plans scoring 7..12.

    Every (cut 2, cut 40) pair meets the premises of theorem31 and of the
    corollary at (k1, k2) = (4, 4) and fails their conclusions.
    """
    plans = list(enumerate_partitions(g, 2))[:12]
    entries = tuple(
        DistEntry(p, score=i + 1, cut_size=2 if i < 6 else 40, probability=Fraction(i + 1, 78))
        for i, p in enumerate(plans)
    )
    trees = int(count_spanning_trees(g))
    return DistributionTable(2, entries, total_score=78, graph_trees=trees, beta=Fraction(trees, 78))


def test_block_sweep_lists_failing_pairs_up_to_the_cap(monkeypatch):
    import treescore.bounds as bounds

    g = make_grid(4, 4)
    table = _failing_table(g)
    monkeypatch.setattr(bounds, "spanning_tree_distribution", lambda *a, **k: table)
    low, high = table.entries[:6], table.entries[6:]
    failing = [(e1.digest, e2.digest) for e1 in low for e2 in high]

    gap = verify_exponential_gap(g, 2, 4, 4)
    assert gap.applicable == 36 and gap.instances_checked == 144
    assert [(v["p1"], v["p2"]) for v in gap.violations] == failing[:20]
    assert {v["kind"] for v in gap.violations} == {"gap"}
    assert gap.margins["conclusion-slack-log2"] == pytest.approx(
        math.log2(1 / 12) - gap_alpha_log2(2, 40, 4, 4)
    )

    dom = verify_pair_dominance(g, 2, 4, 4)
    assert dom.applicable == 36
    listed = [v for v in dom.violations if v["kind"] == "dominance"]
    assert [(v["p1"], v["p2"]) for v in listed] == failing[:20]
    # the block's chain violations follow its pair violations, uncapped
    assert dom.violations[:20] == tuple(listed)
    assert {v["kind"] for v in dom.violations[20:]} == {"chain"}
    assert dom.margins["conclusion-slack-log2"] == pytest.approx(math.log2(1 / 12))
