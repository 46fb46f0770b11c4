"""Pile potentials and prefix-product bounds on sampler runs.

The pile tracker is re-verified here with independent arithmetic: pile
merges recomputed from the step records, the potential recurrence checked
value by value, and prefix products compared against the bound constants
with exact fractions.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from treescore import (
    BoundsError,
    PebbleError,
    attach_pebbles,
    check_bounded,
    check_prefix_products,
    make_grid,
    pointwise_outside,
    sample_deletion_run,
    sample_tree_resistance,
    track_pebbles,
    trace_to_jsonl,
    verify_run_products,
)
from treescore.fixtures import make_diamond, planar_fixture_suite
from treescore.graphs import bound_violations


def tracked(g, seed, k1=4, k2=4, deletion=False):
    cert = check_bounded(g, k1, k2)
    assert cert.holds
    trace = (
        sample_deletion_run(g, seed=seed) if deletion else sample_tree_resistance(g, seed=seed)
    )
    return trace, track_pebbles(trace, g, cert.v0, cert.f0, k1, k2)


def test_initial_potential_is_exempt_degree_product(grid33):
    _, hist = tracked(grid33, seed=0)
    g = grid33
    dual = g.trace_faces()
    assert hist.initial_potential == g.degree(hist.v0) * dual.face_degree[hist.f0]
    assert hist.initial_potential == 32
    assert hist.potential(0) == 32


def test_history_holds_and_floor(grid33):
    for seed in range(12):
        trace, hist = tracked(grid33, seed=seed)
        assert hist.holds
        assert not hist.violations
        pots = hist.potentials()
        assert len(pots) == len(trace.steps) + 1
        assert min(pots) >= hist.initial_potential
        assert pots[-1] >= pots[0]


def test_potential_recurrence_recomputed(grid33):
    _, hist = tracked(grid33, seed=3)
    pots = hist.potentials()
    for step, before, after in zip(hist.steps, pots, pots[1:]):
        x, y = step.pile_x, step.pile_y
        assert x <= y
        # merging piles x and y multiplies the product by (x + y) / (x * y)
        assert after * x * y == before * (x + y)
        assert step.potential_ratio == Fraction(x + y, x * y)


def test_per_step_inequalities(grid33):
    _, hist = tracked(grid33, seed=7)
    for step in hist.steps:
        want = Fraction(1, 8) if step.action == "deleted" else Fraction(1, 8)
        assert step.threshold == want
        check = step.probability * Fraction(step.pile_x * step.pile_y, step.pile_x + step.pile_y)
        assert step.check_value == check
        assert step.ok
        assert check >= step.threshold


def test_deletion_runs_track_too(grid44):
    trace, hist = tracked(grid44, seed=1, deletion=True)
    assert hist.holds
    assert all(s.action == "deleted" for s in hist.steps)
    assert hist.potential(len(trace.steps)) >= hist.initial_potential


def test_unbounded_graph_rejected(grid44):
    trace = sample_tree_resistance(grid44, seed=0)
    with pytest.raises(PebbleError, match="degree"):
        track_pebbles(trace, grid44, v0=0, f0=0, k1=3, k2=4)


def test_bridge_graph_rejected():
    g = make_grid(4, 1)
    trace = sample_tree_resistance(g, seed=0)
    with pytest.raises(PebbleError):
        track_pebbles(trace, g, v0=0, f0=0, k1=4, k2=4)


def test_bad_exemptions_rejected(grid33):
    trace = sample_tree_resistance(grid33, seed=0)
    with pytest.raises(PebbleError):
        track_pebbles(trace, grid33, v0=99, f0=0, k1=4, k2=4)
    with pytest.raises(PebbleError):
        track_pebbles(trace, grid33, v0=4, f0=99, k1=4, k2=4)
    with pytest.raises(PebbleError):
        track_pebbles(trace, grid33, v0=4, f0=0, k1=0, k2=4)


def test_attach_pebbles_fills_trace(grid33):
    cert = check_bounded(grid33, 4, 4)
    trace = sample_tree_resistance(grid33, seed=5)
    assert trace.pebbles is None
    trace2, hist = attach_pebbles(trace, grid33, cert)
    assert trace2.pebbles == hist.potentials()
    records = [json.loads(line) for line in trace_to_jsonl(trace2).strip().splitlines()]
    for k, rec in enumerate(records):
        assert rec["P"] == str(hist.potential(k + 1))


def test_attach_requires_valid_certificate(grid44):
    cert = check_bounded(grid44, 3, 4)
    assert not cert.holds
    trace = sample_tree_resistance(grid44, seed=0)
    with pytest.raises(PebbleError):
        attach_pebbles(trace, grid44, cert)


def test_history_json(grid33):
    _, hist = tracked(grid33, seed=2)
    blob = hist.to_json()
    assert blob["holds"] is True
    assert blob["initial-potential"] == "32"
    assert blob["final-potential"] == str(hist.potential(len(hist.steps)))
    assert len(blob["steps"]) == len(hist.steps)
    assert len(blob["pile-sizes"]) == len(hist.steps) + 1


def test_prefix_products_deletion_constants(grid44):
    trace = sample_deletion_run(grid44, seed=4)
    report = check_prefix_products(trace, 4, 4, run_type="deletion")
    assert report.claim == "lemma32"
    assert not report.violations
    assert report.c1 == Fraction(1, 8)
    assert report.c2 == Fraction(3, 4)
    # independent recomputation of every prefix
    prod = Fraction(1)
    for t, step in enumerate(trace.steps, start=1):
        prod *= step.probability
        assert Fraction(1, 8) ** t <= prod <= Fraction(3, 4) ** t


def test_prefix_products_mixed_constants(grid33):
    trace = sample_tree_resistance(grid33, seed=9)
    report = check_prefix_products(trace, 4, 4, run_type="mixed")
    assert not report.violations
    assert report.c1 == Fraction(1, 8)
    assert report.c2 == pytest.approx((1 - Fraction(1, 4)) ** Fraction(1, 6), abs=1e-12)
    prod = Fraction(1)
    c2 = float(report.c2)
    for t, step in enumerate(trace.steps, start=1):
        prod *= step.probability
        assert float(prod) <= c2**t * (1 + 1e-9)
        assert prod >= Fraction(1, 8) ** t


def test_prefix_auto_detects_run_type(grid44):
    trace = sample_deletion_run(grid44, seed=4)
    auto = check_prefix_products(trace, 4, 4)
    assert auto.c2 == Fraction(3, 4)
    mixed_trace = sample_tree_resistance(grid44, seed=4)
    auto2 = check_prefix_products(mixed_trace, 4, 4)
    assert isinstance(auto2.c2, float)


def test_deletion_constants_rejected_for_mixed_trace(grid33):
    trace = sample_tree_resistance(grid33, seed=1)
    assert any(s.action == "contracted" for s in trace.steps)
    with pytest.raises(BoundsError):
        check_prefix_products(trace, 4, 4, run_type="deletion")


def test_mixed_constants_need_two_piles():
    g = make_diamond()
    trace = sample_tree_resistance(g, seed=0)
    with pytest.raises(BoundsError):
        check_prefix_products(trace, 1, 4, run_type="mixed")


def test_forced_steps_fall_outside_pointwise(grid33):
    found = None
    for seed in range(40):
        trace = sample_tree_resistance(grid33, seed=seed)
        if any(s.forced for s in trace.steps):
            found = trace
            break
    assert found is not None
    report = check_prefix_products(found, 4, 4, run_type="mixed")
    outside = pointwise_outside(found, report.c1, report.c2)
    forced = [s.index for s in found.steps if s.forced]
    assert set(forced) <= set(outside)
    assert outside
    assert not report.violations  # prefix products still hold


def test_verify_run_products_clean(grid33):
    report = verify_run_products(grid33, 4, 4, runs=20, mode="mixed", seed=0)
    assert not report.violations
    assert report.instances_checked > 0
    assert any("pile tracker" in n for n in report.notes)
    assert any("20 seeded mixed runs" in n for n in report.notes)


def test_verify_run_products_deletion_mode(grid33):
    report = verify_run_products(grid33, 4, 4, runs=20, mode="deletion", seed=0)
    assert not report.violations
    assert report.c2 == Fraction(3, 4)


def test_verify_run_products_rejects_unbounded(grid44):
    with pytest.raises(BoundsError):
        verify_run_products(grid44, 3, 4, runs=2, mode="mixed", seed=0)


def test_verify_run_products_rejects_unknown_mode(grid33):
    with pytest.raises(BoundsError):
        verify_run_products(grid33, 4, 4, runs=2, mode="sideways", seed=0)


def test_pebble_precondition_is_the_shared_bound_check():
    """track_pebbles refuses a graph exactly when bound_violations lists something
    for its exemptions: check_bounded's, and a minimum-degree vertex instead of
    the maximum-degree one."""
    refused_only_off_max = 0
    for name, g in planar_fixture_suite():
        dual = g.trace_faces()
        trace = sample_tree_resistance(g, seed=0)
        low = min(g.vertices, key=lambda v: (g.degree(v), v))
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                cert = check_bounded(g, k1, k2)
                assert list(cert.violations) == bound_violations(g, dual, k1, k2, cert.v0, cert.f0)
                refused = []
                for v0 in (cert.v0, low):
                    expected = bound_violations(g, dual, k1, k2, v0, cert.f0)
                    try:
                        track_pebbles(trace, g, v0, cert.f0, k1, k2)
                    except PebbleError as exc:
                        assert expected, (name, k1, k2, v0, exc)
                        assert str(expected[0]) in str(exc)
                        refused.append(True)
                    else:
                        assert not expected, (name, k1, k2, v0)
                        refused.append(False)
                refused_only_off_max += refused == [False, True]
    assert refused_only_off_max > 0


def lowered(trace, k):
    """``trace`` with step k's probability divided by 40, below what the bounds allow."""
    s = trace.steps[k]
    low = dataclasses.replace(s, probability=s.probability / 40)
    return dataclasses.replace(trace, steps=trace.steps[:k] + (low,) + trace.steps[k + 1:])


def test_tracker_reports_a_lowered_deletion(diamond):
    trace = lowered(sample_deletion_run(diamond, seed=0), 0)
    hist = track_pebbles(trace, diamond, 0, 1, 4, 4)
    assert hist.to_json() == {
        "v0": 0,
        "f0": 1,
        "k1": 4,
        "k2": 4,
        "initial-potential": "12",
        "final-potential": "18",
        "holds": False,
        "steps": [
            {"i": 1, "edge": 3, "action": "deleted", "pile-x": 1, "pile-y": 4,
             "check-value": "3/400", "threshold": "1/8", "ok": False},
            {"i": 2, "edge": 2, "action": "deleted", "pile-x": 1, "pile-y": 5,
             "check-value": "5/18", "threshold": "1/8", "ok": True},
        ],
        "pile-sizes": [[3, 4], [3, 5], [3, 6]],
        "violations": [
            {"kind": "degree-route", "step": 1, "edge": 3, "face": 0, "degree": 3,
             "p": Fraction(3, 320)},
            {"kind": "degree-route", "step": 1, "edge": 3, "face": 1, "degree": 4,
             "p": Fraction(3, 320)},
            {"kind": "potential-step", "step": 1, "edge": 3, "action": "deleted",
             "check-value": Fraction(3, 400), "threshold": Fraction(1, 8)},
        ],
        "notes": ["2 steps tracked, potential 12 -> 3*6"],
    }


def test_tracker_reports_a_lowered_contraction(diamond):
    trace = lowered(sample_tree_resistance(diamond, seed=1), 0)
    hist = track_pebbles(trace, diamond, 0, 1, 4, 4)
    assert hist.to_json() == {
        "v0": 0,
        "f0": 1,
        "k1": 4,
        "k2": 4,
        "initial-potential": "12",
        "final-potential": "36",
        "holds": False,
        "steps": [
            {"i": 1, "edge": 0, "action": "contracted", "pile-x": 1, "pile-y": 3,
             "check-value": "3/256", "threshold": "1/8", "ok": False},
            {"i": 2, "edge": 1, "action": "deleted", "pile-x": 1, "pile-y": 1,
             "check-value": "3/10", "threshold": "1/8", "ok": True},
            {"i": 3, "edge": 2, "action": "deleted", "pile-x": 2, "pile-y": 4,
             "check-value": "4/9", "threshold": "1/8", "ok": True},
            {"i": 4, "edge": 3, "action": "contracted", "pile-x": 1, "pile-y": 4,
             "check-value": "4/5", "threshold": "1/8", "ok": True},
            {"i": 5, "edge": 4, "action": "contracted", "pile-x": 1, "pile-y": 5,
             "check-value": "5/6", "threshold": "1/8", "ok": True},
        ],
        "pile-sizes": [[3, 4], [4, 4], [2, 4, 4], [4, 6], [5, 6], [6, 6]],
        "violations": [
            {"kind": "degree-route", "step": 1, "edge": 0, "vertex": 0, "degree": 3,
             "p": Fraction(1, 64)},
            {"kind": "degree-route", "step": 1, "edge": 0, "vertex": 1, "degree": 2,
             "p": Fraction(1, 64)},
            {"kind": "potential-step", "step": 1, "edge": 0, "action": "contracted",
             "check-value": Fraction(3, 256), "threshold": Fraction(1, 8)},
        ],
        "notes": ["5 steps tracked, potential 12 -> 6*6"],
    }


def test_run_products_trace_faces_and_build_the_engine_once(monkeypatch):
    import sys

    from treescore import graphs
    from treescore._adjugate import TreeCountEngine

    traced, built = [], []
    real_dual, real_build = graphs.DualGraph, TreeCountEngine._build_with
    faces_code = graphs.EmbeddedMultiGraph.trace_faces.__wrapped__.__code__

    def dual(**fields):
        builder = sys._getframe(1)
        assert builder.f_code is faces_code
        traced.append(builder.f_locals["self"])
        return real_dual(**fields)

    def build(engine, primes):
        built.append(frozenset(engine._vertices))
        return real_build(engine, primes)

    monkeypatch.setattr(graphs, "DualGraph", dual)
    monkeypatch.setattr(TreeCountEngine, "_build_with", build)
    for mode in ("deletion", "mixed"):
        g = make_grid(4, 4)  # a new graph object, so its faces and engine are built afresh
        traced.clear()
        built.clear()
        report = verify_run_products(g, 4, 4, runs=6, mode=mode, seed=0)
        assert report.holds and report.instances_checked > 0
        # the certificate and every run's pile tracker share one face build
        assert len(traced) == 1 and traced[0] is g
        assert built == [frozenset(g.vertices)]
