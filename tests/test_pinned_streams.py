"""Seeded chain runs, Wilson trees and CLI resistances pinned by digest.

The chain and Wilson digests were written by commit ef3255f. Every draw of
the chain comes from one seeded ``random.Random``, so any change to how a
step consumes that stream (the walk's draws, the order of resamples, the
choice among balance edges) changes these bytes, and this test fails even
where the chain's distribution would be unchanged. The resistance digests pin the CLI's ``resistance``
output, every edge under every ``--method``, on graphs of at most 64
vertices, so a change of route cannot move a byte there.
"""

import contextlib
import hashlib
import io
import json
from random import Random

import pytest

from treescore import ChainConfig, Partition, make_grid, run_chain, sample_tree_wilson, save_graph
from treescore.cli import main
from treescore.fixtures import _add_parallel, make_twelve_county, random_planar_multigraph

CHAIN_DIGESTS = {
    ("wilson", 0): "73d678e5d0a35b54c4ce953cc0838ade9731b40fcc9a70983e51b3aafd51eb44",
    ("wilson", 1): "4a1f9a3a2635228a8a6349daefd97190deb225b47d49ef3f8456e5a74f3b88ce",
    ("alg1", 0): "b2fd2e021c4e97e72ef215fbb3c88cce5538cd75051a019e3d898edc86feb2ea",
    ("alg1", 1): "b779c240955a6451c437b4d793404507201b145752ace6f76effe87a53b5980f",
}

WILSON_DIGESTS = {
    "twelve_county": "140b83e6d75483bf8810191b3cb75dd06e04e9450aaa1e48c29d29fed61be0d6",
    "grid5x4_parallel": "d73d0367c5bd97bb751fe17faaf4f8d489606bff6285bf33177f17be46297f11",
    "random_planar_6": "15310515edd6f524df32fa7c748bd6a23eb904184198fa08ce688060e7411463",
}

RESISTANCE_DIGESTS = {
    "twelve_county": "400ad3992acae28e76816a375ae316a9fc63e0b1a755b83a489d6bc2c4de31f2",
    "grid5x4_parallel": "9ee9de51b15f322bd630603b12b143bdb1798f7c1f4c761428c1091137a06ba0",
    "random_planar_221": "2a6658fc6dc890716814b0a3463e52426c05057358f636863843c2e547593aca",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quadrants_8x8() -> Partition:
    return Partition.from_dict(4, {v: 2 * (v // 32) + v % 8 // 4 for v in range(64)})


@pytest.mark.parametrize("sampler,tolerance", sorted(CHAIN_DIGESTS))
def test_run_chain_bytes(sampler, tolerance):
    cfg = ChainConfig(steps=40, seed=20 + tolerance, balance_tolerance=tolerance,
                      tree_sampler=sampler)
    stats = run_chain(make_grid(8, 8), quadrants_8x8(), cfg)
    assert _sha(json.dumps(stats.to_json(), sort_keys=True)) == CHAIN_DIGESTS[sampler, tolerance]


def wilson_graphs():
    g = make_grid(5, 4)
    for e in [e for e in g.edge_ids if 6 in g.endpoints(e)]:
        g = _add_parallel(g, e)  # vertex 6 now has 8 walk choices
    return {
        "twelve_county": make_twelve_county(),
        "grid5x4_parallel": g,
        "random_planar_6": random_planar_multigraph(6, max_vertices=16),
    }


@pytest.mark.parametrize("name", sorted(WILSON_DIGESTS))
def test_sample_tree_wilson_bytes(name):
    g = wilson_graphs()[name]
    rng = Random(31)
    trees = [sorted(sample_tree_wilson(g, rng=rng)) for _ in range(50)]
    # the state after the draws pins how many draws the walks consumed
    text = json.dumps(trees) + repr(rng.getstate())
    assert _sha(text) == WILSON_DIGESTS[name]


def resistance_graphs():
    graphs = wilson_graphs()
    del graphs["random_planar_6"]
    graphs["random_planar_221"] = random_planar_multigraph(221, max_vertices=12)  # loops, parallels
    return graphs


@pytest.mark.parametrize("name", sorted(RESISTANCE_DIGESTS))
def test_resistance_cli_bytes(tmp_path, name):
    g = resistance_graphs()[name]
    path = tmp_path / "g.json"
    save_graph(g, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for e in g.edge_ids:
            for method in ("auto", "tree-ratio", "laplacian-solve"):
                assert main(["resistance", "--graph", str(path), "--edge", str(e),
                             "--method", method]) == 0
    assert _sha(out.getvalue()) == RESISTANCE_DIGESTS[name]
