"""Tests of the benchmark itself: smoke runs, generator, tracer, failure counting.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import pytest

import bench_gen
import bench_trace
import run

ts = bench_gen.import_treescore()

END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mib"}


@pytest.mark.parametrize("workload", bench_gen.WORKLOADS)
def test_smoke_one_round_has_no_errors(tmp_path, workload):
    res = run.run_workload(workload, seed=5, seconds=0, trace=False, work=tmp_path, setup_reps=1)
    assert res["problems"] == []
    assert res["attempted"] == bench_gen.OPS_PER_ROUND
    assert res["failed"] == 0 and res["error_rate"] == 0
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_generator_is_deterministic_and_inputs_are_distinct(tmp_path):
    for workload in bench_gen.WORKLOADS:
        a, b, c = (tmp_path / workload / k for k in "abc")
        ops_a = bench_gen.make_rounds(ts, workload, 7, 0, 2, a)
        ops_b = bench_gen.make_rounds(ts, workload, 7, 0, 2, b)
        ops_c = bench_gen.make_rounds(ts, workload, 8, 0, 2, c)
        assert ops_a == ops_b
        assert run._same_files(a, b)
        assert not run._same_files(a, c)
        # No two ops share an input: distinct graph files, or distinct seeds.
        keys = []
        for op in ops_a:
            argv, files = run.expand(op, a, tmp_path)
            seed = argv[argv.index("--seed") + 1] if "--seed" in argv else None
            keys.append((files["--graph"].read_bytes(), seed))
        assert len(set(keys)) == len(keys)


def test_tracer_patches_every_binding_and_restores_it():
    import treescore._linalg as linalg
    import treescore.recom as recom
    import treescore.sampler as sampler
    import treescore.spectral as spectral

    originals = (linalg.laplacian_minor_det, recom.sample_tree_wilson, ts.EmbeddedMultiGraph.edges_dict)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for binding in (sampler.laplacian_minor_det, spectral.laplacian_minor_det,
                        linalg.laplacian_minor_det):
            assert binding.__wrapped__ is originals[0]
        assert recom.sample_tree_wilson.__wrapped__ is originals[1]
        assert sampler.sample_tree_wilson.__wrapped__ is originals[1]
        g = ts.make_grid(4, 4)
        assert int(ts.count_spanning_trees(g)) == 100352
        parts = list(ts.enumerate_partitions(g, 2))
    finally:
        tracer.uninstall()
    assert (linalg.laplacian_minor_det, recom.sample_tree_wilson,
            ts.EmbeddedMultiGraph.edges_dict) == originals
    assert parts == list(ts.enumerate_partitions(g, 2))
    assert tracer.calls["linalg.det_bareiss"] == 1
    assert tracer.counts["partition.partitions_enumerated"] == len(parts)
    # One span per next() call of the generator, the exhausting call included.
    names = [s[1] for s in tracer.spans]
    assert names.count("partition.enumerate_partitions") == len(parts) + 1


@pytest.mark.parametrize("workload", ["sample", "verify"])
def test_traced_run_matches_untraced_and_accounts_for_its_time(tmp_path, workload):
    res = run.run_workload(workload, seed=5, seconds=0, trace=True, work=tmp_path / "w",
                           setup_reps=1)
    # The run compares every traced output with its untraced twin byte for byte.
    assert res["problems"] == [] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for name in bench_trace.span_names():
        assert f"{name}.calls" in m and f"{name}.self_s" in m
    assert m["cli.main.calls"] == res["attempted"]
    assert m["linalg.det_bareiss.calls"] > 0 and m["sampler.steps"] > 0
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert m["trace.unattributed_s"] >= 0
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    spans = json.loads((tmp_path / f"spans-{workload}.json").read_text())
    ids = {s[0] for s in spans["spans"]}
    assert all(s[4] is None or s[4] in ids for s in spans["spans"])
    assert {s[5] for s in spans["spans"]} >= {f"r0000c{c}" for c in range(5)}


def test_planted_bad_outputs_are_counted_not_fatal(tmp_path, monkeypatch):
    real = ts.cli.count_spanning_trees
    calls = []

    def planted(g, *args, **kwargs):
        calls.append(g.num_vertices)
        if len(calls) == 2:
            raise RuntimeError("planted crash")
        tc = real(g, *args, **kwargs)
        return type(tc)(tc.value + 1, tc.exact, tc.log2) if len(calls) == 4 else tc

    monkeypatch.setattr(ts.cli, "count_spanning_trees", planted)
    res = run.run_workload("count", seed=5, seconds=0, trace=False, work=tmp_path, setup_reps=1)
    assert res["attempted"] == bench_gen.OPS_PER_ROUND
    assert res["failed"] == 2 and not res["correct"]
    assert res["error_rate"] == pytest.approx(2 / bench_gen.OPS_PER_ROUND)
    assert "planted crash" in res["problems"][0]
    assert "disagrees with the Laplacian-minor determinant" in res["problems"][1]
