"""Shared fixtures: reference graphs and the seeded run corpus.

The run corpus (2,000 sampler runs with full prefix and pile checking) is
built once per session because two acceptance criteria and several unit
tests all read from it.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import settings

from treescore import EmbeddedMultiGraph, make_grid, sampler, verify_run_products
from treescore.fixtures import (
    make_complete4,
    make_cycle,
    make_diamond,
    make_theta,
    make_twelve_county,
)

# Property tests draw the same examples on every run, keep no example
# database and never fail on a slow example: tier-1 must be deterministic on
# a loaded machine.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


@contextmanager
def exact_up_to(n: int):
    """Inside the block, the samplers are exact only up to n vertices.

    A context manager rather than a fixture, so that ``@given`` tests can use
    it too. ``n = 1`` sends every multi-vertex graph down the float path.
    """
    saved = sampler.EXACT_SAMPLER_THRESHOLD
    sampler.EXACT_SAMPLER_THRESHOLD = n
    try:
        yield
    finally:
        sampler.EXACT_SAMPLER_THRESHOLD = saved


def wheel(spokes):
    """Hub 0 joined to the rim cycle 1..spokes, embedded with the rim counterclockwise."""
    edges = {i - 1: (0, i) for i in range(1, spokes + 1)}
    edges.update({spokes + i - 1: (i, i % spokes + 1) for i in range(1, spokes + 1)})
    rotation = {0: [(i - 1, 0) for i in range(1, spokes + 1)]}
    for i in range(1, spokes + 1):
        prev = i - 1 if i > 1 else spokes
        rotation[i] = [(i - 1, 1), (spokes + prev - 1, 1), (spokes + i - 1, 0)]
    return EmbeddedMultiGraph(edges, rotation)


RUN_CORPUS_SPEC = {
    # (grid name, mode) -> (runs, base seed); 1,000 runs per mode in total.
    ("4x4", "deletion"): (500, 0),
    ("4x4", "mixed"): (500, 1000),
    ("5x5", "deletion"): (500, 2000),
    ("5x5", "mixed"): (500, 3000),
}


@pytest.fixture(scope="session")
def grid22():
    return make_grid(2, 2)


@pytest.fixture(scope="session")
def grid33():
    return make_grid(3, 3)


@pytest.fixture(scope="session")
def grid44():
    return make_grid(4, 4)


@pytest.fixture(scope="session")
def grid55():
    return make_grid(5, 5)


@pytest.fixture(scope="session")
def diamond():
    return make_diamond()


@pytest.fixture(scope="session")
def cycle4():
    return make_cycle(4)


@pytest.fixture(scope="session")
def theta3():
    return make_theta(3)


@pytest.fixture(scope="session")
def complete4():
    return make_complete4()


@pytest.fixture(scope="session")
def twelve_county():
    return make_twelve_county()


@pytest.fixture(scope="session")
def run_reports():
    """Prefix-bound reports over the seeded run corpus, pile tracking on."""
    grids = {"4x4": make_grid(4, 4), "5x5": make_grid(5, 5)}
    out = {}
    for (name, mode), (runs, seed) in RUN_CORPUS_SPEC.items():
        out[(name, mode)] = verify_run_products(
            grids[name], 4, 4, runs=runs, mode=mode, seed=seed
        )
    return out
