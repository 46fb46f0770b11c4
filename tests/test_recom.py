"""Recombination chain: configs, single steps, full runs, determinism."""

from random import Random

import pytest

from treescore import (
    ChainConfig,
    Partition,
    PartitionError,
    RecomError,
    adjacent_district_pairs,
    balance_edges,
    check_tolerant_partition,
    enumerate_partitions,
    make_grid,
    recom_step,
    run_chain,
    validate_partition,
)
from treescore import recom
from treescore.fixtures import make_twelve_county, twelve_county_compact_partition


def horizontal(grid22):
    return Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1})


def test_config_validation():
    with pytest.raises(RecomError):
        ChainConfig(steps=-1, seed=0)
    with pytest.raises(RecomError):
        ChainConfig(steps=1, seed=0, balance_tolerance=-1)
    with pytest.raises(RecomError):
        ChainConfig(steps=1, seed=0, max_resample=0)
    with pytest.raises(RecomError, match="seed must be an integer"):
        ChainConfig(steps=1, seed=False)


def test_config_bounds_the_steps():
    assert ChainConfig(steps=recom.MAX_STEPS, seed=0).steps == 10**6
    for steps in (recom.MAX_STEPS + 1, 10**13, 2**70):
        with pytest.raises(RecomError, match="steps must be at most 1000000"):
            ChainConfig(steps=steps, seed=0)
        with pytest.raises(RecomError, match="steps must be at most 1000000"):
            ChainConfig.from_json({"steps": steps, "seed": 0})


def test_config_json_round_trip():
    cfg = ChainConfig(steps=10, seed=3, balance_tolerance=1, max_resample=7)
    assert ChainConfig.from_json(cfg.to_json()) == cfg
    underscored = {"steps": 10, "seed": 3, "balance_tolerance": 1, "max_resample": 7}
    assert ChainConfig.from_json(underscored) == cfg
    assert ChainConfig.from_json_str('{"steps": 2, "seed": 1}') == ChainConfig(2, 1)


def test_config_json_rejects_bad_input():
    with pytest.raises(RecomError):
        ChainConfig.from_json({"steps": 5})
    with pytest.raises(RecomError):
        ChainConfig.from_json({"steps": 5, "seed": 0, "mystery": 1})
    for value in (1, ["wilson"], "wilson"):  # no field chooses a tree sampler
        with pytest.raises(RecomError, match="^unknown config fields: tree-sampler$"):
            ChainConfig.from_json({"steps": 5, "seed": 0, "tree-sampler": value})
    with pytest.raises(RecomError):
        ChainConfig.from_json_str("[1, 2]")
    with pytest.raises(RecomError):
        ChainConfig.from_json_str("not json")
    for obj in (5, [1, 2], "steps", None):  # the library entry point refuses them too
        with pytest.raises(RecomError, match="must be an object"):
            ChainConfig.from_json(obj)


@pytest.mark.parametrize(
    "fields",
    [{"steps": 2.9}, {"steps": "2"}, {"seed": True}, {"seed": None}, {"max-resample": "7"},
     {"balance_tolerance": 0.0}, {"max_resample": 7.0}, {"balance-tolerance": [0]},
     {"steps": 2.9, "seed": True, "max-resample": "7"}],
)
def test_config_refuses_a_mistyped_field_instead_of_coercing_it(fields):
    with pytest.raises(RecomError, match="integer"):
        ChainConfig.from_json({"steps": 2, "seed": 1, **fields})


def test_tolerant_validation(grid22):
    assert check_tolerant_partition(grid22, horizontal(grid22), 0) == []
    path5 = make_grid(5, 1)
    p = Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1})
    assert check_tolerant_partition(path5, p, 1) == []
    problems = check_tolerant_partition(path5, p, 0)
    assert problems and all("tolerance" in s for s in problems)
    diagonal = Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1})
    assert any("connected" in s for s in check_tolerant_partition(grid22, diagonal, 0))
    # an empty district within the tolerance still counts as disconnected
    all_in_one = Partition.from_dict(2, {0: 0, 1: 0, 2: 0})
    assert check_tolerant_partition(make_grid(3, 1), all_in_one, 2) == [
        "district 1 is not connected"
    ]


def test_adjacent_pairs(twelve_county):
    p = Partition.from_dict(3, twelve_county_compact_partition())
    assert adjacent_district_pairs(twelve_county, p) == [(0, 1), (0, 2), (1, 2)]


def test_adjacent_pairs_distant_districts():
    path = make_grid(6, 1)
    p = Partition.from_dict(3, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
    assert adjacent_district_pairs(path, p) == [(0, 1), (1, 2)]


# the path 0-1-2-3 (edges 0, 1, 2) rooted at 0, as the walk returns it
PATH4_ROOTED = [(0, None, None), (1, 0, 0), (2, 1, 1), (3, 2, 2)]


def test_balance_edges_path_midpoint():
    candidates = balance_edges([0, 1, 2, 3], PATH4_ROOTED, 4, 2, 0)
    assert len(candidates) == 1
    edge, root_side = candidates[0]
    assert edge == 1
    assert root_side == frozenset({0, 1})


def test_balance_edges_tolerance_widens():
    loose = balance_edges([0, 1, 2, 3], PATH4_ROOTED, 4, 2, 1)
    assert {e for e, _ in loose} == {0, 1, 2}


def test_recom_step_preserves_validity(grid44):
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    rng = Random(0)
    cfg = ChainConfig(steps=1, seed=0)
    for _ in range(25):
        result = recom_step(grid44, p, rng, cfg)
        if not result.skipped:
            p = result.partition
        assert validate_partition(grid44, p).valid


def test_recom_step_reaches_both_splits(grid22):
    seen = set()
    cfg = ChainConfig(steps=1, seed=0)
    p = horizontal(grid22)
    rng = Random(1)
    for _ in range(30):
        result = recom_step(grid22, p, rng, cfg)
        if not result.skipped:
            p = result.partition
        seen.add(p.digest())
    want = {q.digest() for q in enumerate_partitions(grid22, 2)}
    assert seen == want


def test_recom_step_rejects_single_district(grid22):
    p = Partition.from_dict(1, {v: 0 for v in grid22.vertices})
    with pytest.raises(RecomError):
        recom_step(grid22, p, Random(0), ChainConfig(steps=1, seed=0))


def test_recom_step_rejects_invalid_partition(grid22):
    bad = Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1})
    with pytest.raises(PartitionError):
        recom_step(grid22, bad, Random(0), ChainConfig(steps=1, seed=0))


def test_run_chain_structure(grid44):
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    cfg = ChainConfig(steps=200, seed=5)
    stats = run_chain(grid44, p, cfg)
    assert stats.steps == 200
    assert stats.m == 2
    assert len(stats.samples) == 201
    assert stats.samples[0].step == 0
    assert sum(stats.histogram.values()) == 201
    assert 0 <= stats.skipped_steps <= 200
    assert stats.acceptance == (200 - stats.skipped_steps) / 200
    digests = {q.digest() for q in enumerate_partitions(grid44, 2)}
    assert {s.digest for s in stats.samples} <= digests


def test_run_chain_deterministic(grid44):
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    cfg = ChainConfig(steps=150, seed=9)
    a = run_chain(grid44, p, cfg).to_csv()
    b = run_chain(grid44, p, cfg).to_csv()
    assert a == b
    c = run_chain(grid44, p, ChainConfig(steps=150, seed=10)).to_csv()
    assert a != c


def test_run_chain_zero_steps(grid22):
    stats = run_chain(grid22, horizontal(grid22), ChainConfig(steps=0, seed=0))
    assert stats.acceptance == 1.0
    assert len(stats.samples) == 1
    assert stats.final_partition.digest() == horizontal(grid22).digest()


def test_run_chain_unique_partition_is_stationary():
    path = make_grid(4, 1)
    p = Partition.from_dict(2, {0: 0, 1: 0, 2: 1, 3: 1})
    stats = run_chain(path, p, ChainConfig(steps=40, seed=2))
    assert len(stats.histogram) == 1
    assert all(s.digest == p.digest() for s in stats.samples)


def test_run_chain_with_tolerance():
    path6 = make_grid(6, 1)
    p = Partition.from_dict(2, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
    cfg = ChainConfig(steps=60, seed=3, balance_tolerance=1)
    stats = run_chain(path6, p, cfg)
    # 2/4 splits are now reachable too (all path splits share cut size 1)
    assert len({s.digest for s in stats.samples}) > 1
    assert stats.acceptance > 0


def test_run_chain_rejects_invalid_start(grid22):
    bad = Partition.from_dict(2, {0: 0, 3: 0, 1: 1, 2: 1})
    with pytest.raises(PartitionError):
        run_chain(grid22, bad, ChainConfig(steps=1, seed=0))


def test_csv_and_json_output(grid22):
    stats = run_chain(grid22, horizontal(grid22), ChainConfig(steps=5, seed=0))
    lines = stats.to_csv().strip().splitlines()
    assert lines[0] == "step,cut_edges,partition_hash"
    assert len(lines) == 7
    blob = stats.to_json()
    assert blob["steps"] == 5
    assert len(blob["samples"]) == 6
    hist = stats.histogram_json()
    assert sum(hist["histogram"].values()) == 6


@pytest.mark.parametrize("sampler", ["wilson"])  # the walk every step draws with
def test_run_chain_checks_each_visited_partition_once(monkeypatch, grid44, sampler):
    checked = []
    real = recom.check_tolerant_partition

    def counting(g, p, tolerance):
        checked.append(p)
        return real(g, p, tolerance)

    monkeypatch.setattr(recom, "check_tolerant_partition", counting)
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    stats = run_chain(grid44, p, ChainConfig(steps=60, seed=3, max_resample=1))
    accepted = stats.steps - stats.skipped_steps
    assert accepted > 0 and stats.skipped_steps > 0
    assert len(checked) == 1 + accepted
    assert checked[0] == p
    assert checked[-1].digest() == stats.final_partition.digest()


def test_run_chain_names_the_step_that_cuts_an_unbalanced_side(monkeypatch, grid44):
    steps = []
    real_pairs, real_balance = recom.adjacent_district_pairs, recom.balance_edges

    def pairs(g, p):
        steps.append(p)
        return real_pairs(g, p)

    def lopsided(sub, tree, n, m, tolerance):
        if len(steps) < 3:
            return real_balance(sub, tree, n, m, tolerance)
        # the tree edges that leave a side of other than n/m vertices, a leaf edge among them
        return [c for c in real_balance(sub, tree, n, m, n) if len(c[1]) * m != n]

    monkeypatch.setattr(recom, "adjacent_district_pairs", pairs)
    monkeypatch.setattr(recom, "balance_edges", lopsided)
    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    with pytest.raises(RecomError, match="step 3 produced an invalid partition"):
        run_chain(grid44, p, ChainConfig(steps=10, seed=1))
    assert len(steps) == 3


def test_chain_steps_construct_no_graph(monkeypatch, grid44):
    from treescore.graphs import EmbeddedMultiGraph

    built = []
    real_init = EmbeddedMultiGraph.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    p = Partition.from_dict(2, {v: (0 if v % 4 < 2 else 1) for v in grid44.vertices})
    monkeypatch.setattr(EmbeddedMultiGraph, "__init__", init)
    stats = run_chain(grid44, p, ChainConfig(steps=40, seed=3))
    assert stats.steps > stats.skipped_steps
    assert built == []


def test_wilson_steps_build_the_merged_region_once_unchecked(monkeypatch):
    from treescore.graphs import EmbeddedMultiGraph

    built, checked = [], []
    real_build, real_check = recom._walk_incidence, EmbeddedMultiGraph.is_connected

    def building(h, vertices):
        built.append(len(vertices))
        return real_build(h, vertices)

    def counting(self):
        checked.append(self.num_vertices)
        return real_check(self)

    g = make_grid(6, 6)
    p = Partition.from_dict(3, {v: v // 12 for v in g.vertices})
    cfg = ChainConfig(steps=30, seed=2, max_resample=16)
    steps = []
    real_step = recom._step

    def step(*args):
        steps.append(real_step(*args))
        return steps[-1]

    monkeypatch.setattr(recom, "_step", step)
    monkeypatch.setattr(recom, "_walk_incidence", building)
    monkeypatch.setattr(EmbeddedMultiGraph, "is_connected", counting)
    run_chain(g, p, cfg)
    # every step drew at least one tree and some drew several, yet the region's
    # incidence was built once per step, not once per draw
    assert sum(s.resamples for s in steps) > len(steps) == cfg.steps
    assert built == [24] * cfg.steps
    # the region joins two validated districts, so its connectivity is not checked
    assert checked == []
