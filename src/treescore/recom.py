"""Merge-split Markov chain over balanced partitions.

One step of the chain picks a uniformly random pair of adjacent districts
(districts sharing at least one cut edge), merges them, draws a uniform
spanning tree of the merged region, and cuts a tree edge whose two sides both
land within the balance tolerance of ``|V|/m``. If several edges qualify, one
is chosen uniformly; if none do, a fresh tree is drawn, up to a resample
budget, after which the step is skipped and the partition left unchanged.
Cutting a spanning tree guarantees both new districts are connected.

The chain is driven by a single seeded generator, so runs are deterministic
given ``(graph, start, config)``. Every tree is drawn by Wilson's
loop-erased random walk. The chain's law depends only on each tree being
uniform, not on how it is drawn.

How closely the chain's empirical distribution tracks the spanning-tree-score
distribution is reported by callers as a diagnostic only; nothing here asserts
convergence.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import compress, islice

from .graphs import EmbeddedMultiGraph, _strict_int
from .partition import (
    Partition,
    PartitionError,
    _sizes_within,
    check_tolerant_partition,
    cut_edges,
)
from .sampler import _ends, _walk_incidence, _wilson_walk

__all__ = [
    "RecomError",
    "MAX_STEPS",
    "ChainConfig",
    "StepResult",
    "SampleRecord",
    "EnsembleStats",
    "check_tolerant_partition",
    "adjacent_district_pairs",
    "balance_edges",
    "recom_step",
    "run_chain",
]


class RecomError(ValueError):
    """Invalid chain configuration or step input."""


# A run keeps one SampleRecord per step (about 330 B on 16x16 with m = 4) and
# prints at the end, so this many steps hold about 330 MB before any output.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one chain run.

    ``balance_tolerance`` is the largest allowed deviation of a district's
    vertex count from ``|V|/m`` (compared exactly: a size ``s`` qualifies when
    ``|s*m - |V|| <= tolerance * m``). ``max_resample`` caps the number of
    spanning trees drawn per step before the step is skipped. Every tree is
    drawn by Wilson's walk. ``steps`` is at most :data:`MAX_STEPS`.
    """

    steps: int
    seed: int
    balance_tolerance: int = 0
    max_resample: int = 64

    def __post_init__(self):
        try:
            for name in ("steps", "seed", "balance_tolerance", "max_resample"):
                _strict_int(getattr(self, name), name)
        except TypeError as exc:
            raise RecomError(str(exc)) from None
        if self.steps < 0:
            raise RecomError("steps must be non-negative")
        if self.steps > MAX_STEPS:
            raise RecomError(f"steps must be at most {MAX_STEPS}: each step's sample is kept")
        if self.balance_tolerance < 0:
            raise RecomError("balance tolerance must be non-negative")
        if self.max_resample < 1:
            raise RecomError("resample budget must be at least 1")

    def to_json(self) -> dict:
        return {
            "steps": self.steps,
            "seed": self.seed,
            "balance-tolerance": self.balance_tolerance,
            "max-resample": self.max_resample,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ChainConfig":
        if not isinstance(obj, dict):
            raise RecomError("config JSON must be an object")

        def pick(name: str, default):
            for key in (name, name.replace("-", "_")):
                if key in obj:
                    return obj[key]
            if default is None:
                raise RecomError(f"config is missing required field {name!r}")
            return default

        known = set()
        for name in ("steps", "seed", "balance-tolerance", "max-resample"):
            known.add(name)
            known.add(name.replace("-", "_"))
        unknown = sorted(set(obj) - known)
        if unknown:
            raise RecomError(f"unknown config fields: {', '.join(unknown)}")
        return cls(
            steps=pick("steps", None),
            seed=pick("seed", None),
            balance_tolerance=pick("balance-tolerance", 0),
            max_resample=pick("max-resample", 64),
        )

    @classmethod
    def from_json_str(cls, text: str) -> "ChainConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecomError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json(obj)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one chain step.

    ``merged`` holds the vertices of the two districts the step merged: the
    only vertices a split can move.
    """

    partition: Partition
    skipped: bool
    resamples: int
    merged: frozenset[int] = frozenset()


@dataclass(frozen=True)
class SampleRecord:
    step: int
    cut_size: int
    digest: str


@dataclass(frozen=True)
class EnsembleStats:
    """Recorded trajectory of one chain run.

    ``samples`` includes the starting partition at step 0. ``acceptance`` is
    the fraction of steps that produced a new split (1.0 for a zero-step run);
    the histogram counts recorded samples by cut size, so its values total
    ``len(samples)``.
    """

    m: int
    steps: int
    acceptance: float
    samples: tuple[SampleRecord, ...]
    histogram: dict[int, int] = field(default_factory=dict)
    skipped_steps: int = 0
    final_partition: Partition | None = None

    def to_csv(self) -> str:
        lines = ["step,cut_edges,partition_hash"]
        lines.extend(f"{s.step},{s.cut_size},{s.digest}" for s in self.samples)
        return "\n".join(lines) + "\n"

    def histogram_json(self) -> dict:
        return {
            "steps": self.steps,
            "acceptance": self.acceptance,
            "skipped-steps": self.skipped_steps,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }

    def to_json(self) -> dict:
        out = self.histogram_json()
        out["m"] = self.m
        out["samples"] = [[s.step, s.cut_size, s.digest] for s in self.samples]
        if self.final_partition is not None:
            out["final-partition"] = {
                str(v): d for v, d in sorted(self.final_partition.as_dict().items())
            }
        return out


def adjacent_district_pairs(g: EmbeddedMultiGraph, p: Partition) -> list[tuple[int, int]]:
    """Unordered district pairs joined by at least one cut edge, sorted."""
    a = p.as_dict()
    pairs = set()
    for e, (u, v) in g.edges_dict().items():
        if u != v and a[u] != a[v]:
            pairs.add((min(a[u], a[v]), max(a[u], a[v])))
    return sorted(pairs)


def balance_edges(
    vertices: list[int],
    tree: list[tuple[int, int | None, int | None]],
    n: int,
    m: int,
    tolerance: int,
) -> list[tuple[int, frozenset[int]]]:
    """Tree edges whose removal splits the region into two tolerable halves.

    ``vertices`` is the merged region's sorted vertex list, ``tree`` a
    spanning tree of it as :func:`~treescore.sampler._wilson_walk` returns it
    (``(vertex, edge, parent)`` positions in ``vertices``, rooted at the
    first, each parent first), and ``n``/``m`` the whole graph's vertex and
    district counts. Subtree sizes take one pass up the tree, each qualifying
    edge's subtree one pass down. Returns ``(edge, vertices-on-the-root
    side)`` pairs sorted by edge id.
    """
    region = len(vertices)
    sizes = _sizes_within(n, m, tolerance)
    lo, hi = sizes.start, sizes.stop - 1
    fits = range(max(lo, region - hi), min(hi, region - lo) + 1)  # the side and the rest
    subtree = [1] * region
    for v, _, parent in islice(reversed(tree), region - 1):  # the root comes last
        subtree[parent] += subtree[v]
    out = []
    for i, (v, e, _) in enumerate(tree[1:], 1):
        if subtree[v] in fits:
            root_side = [True] * region
            root_side[v] = False
            for w, _, parent in islice(tree, i + 1, None):
                if not root_side[parent]:
                    root_side[w] = False
            out.append((e, frozenset(compress(vertices, root_side))))
    out.sort()
    return out


def recom_step(
    g: EmbeddedMultiGraph,
    p: Partition,
    rng: random.Random,
    cfg: ChainConfig,
) -> StepResult:
    """One merge-split step; returns the new partition or a skip.

    Raises :class:`~treescore.partition.PartitionError` when the input
    partition is invalid under the chain's balance rule and
    :class:`RecomError` when there is no district pair to merge (``m = 1``).
    After a successful split, the side containing the merged region's smallest
    vertex keeps the smaller of the two district labels.
    """
    _require_valid(g, p, cfg)
    return _step(g, p, rng, cfg)


def _require_valid(g: EmbeddedMultiGraph, p: Partition, cfg: ChainConfig) -> None:
    problems = check_tolerant_partition(g, p, cfg.balance_tolerance)
    if problems:
        raise PartitionError("; ".join(problems))


def _step(
    g: EmbeddedMultiGraph, p: Partition, rng: random.Random, cfg: ChainConfig
) -> StepResult:
    """The body of :func:`recom_step`, for a partition already checked."""
    if p.m < 2:
        raise RecomError("need at least two districts to merge")
    pairs = adjacent_district_pairs(g, p)
    if not pairs:
        raise RecomError("no adjacent district pair exists")
    da, db = pairs[rng.randrange(len(pairs))]
    blocks = p.districts()
    merged = blocks[da] | blocks[db]
    vertices = sorted(merged)
    n, m = g.num_vertices, p.m
    incident = _walk_incidence(g, vertices)  # unchecked: it joins two connected districts
    for attempt in range(1, cfg.max_resample + 1):
        tree = _wilson_walk(incident, rng)
        candidates = balance_edges(vertices, tree, n, m, cfg.balance_tolerance)
        if candidates:
            # the walk roots the tree at min(merged), so the root side is the low side.
            _, low_side = candidates[rng.randrange(len(candidates))]
            high_side = merged - low_side
            assignment = p.as_dict()
            for v in low_side:
                assignment[v] = da
            for v in high_side:
                assignment[v] = db
            return StepResult(
                partition=Partition.from_dict(m, assignment),
                skipped=False,
                resamples=attempt,
                merged=merged,
            )
    return StepResult(partition=p, skipped=True, resamples=cfg.max_resample, merged=merged)


def run_chain(g: EmbeddedMultiGraph, p0: Partition, cfg: ChainConfig) -> EnsembleStats:
    """Run the chain from ``p0`` and record every visited partition.

    Deterministic given ``(g, p0, cfg)``. Every visited partition is checked
    under the balance rule exactly once: the start on entry, and each new split
    when a step produces it (a skipped step keeps the partition already
    checked). An invalid start raises
    :class:`~treescore.partition.PartitionError`; an invalid split raises
    :class:`RecomError`, since it would mean the step construction is broken.
    Each cut size is the previous one updated over the merged region's edges.
    """
    _require_valid(g, p0, cfg)
    ends = _ends(g)
    rng = random.Random(cfg.seed)
    p = p0
    assignment = p.as_dict()
    cut = cut_edges(g, p).size
    samples = [SampleRecord(0, cut, p.digest())]
    skipped = 0
    for step in range(1, cfg.steps + 1):
        result = _step(g, p, rng, cfg)
        p = result.partition
        if result.skipped:
            skipped += 1
        else:
            problems = check_tolerant_partition(g, p, cfg.balance_tolerance)
            if problems:
                raise RecomError(
                    f"step {step} produced an invalid partition: "
                    + "; ".join(problems)
                )
            before, assignment = assignment, p.as_dict()
            cut += _cut_change(ends, result.merged, before, assignment)
        samples.append(SampleRecord(step, cut, p.digest()))
    histogram: dict[int, int] = {}
    for s in samples:
        histogram[s.cut_size] = histogram.get(s.cut_size, 0) + 1
    acceptance = 1.0 if cfg.steps == 0 else (cfg.steps - skipped) / cfg.steps
    return EnsembleStats(
        m=p0.m,
        steps=cfg.steps,
        acceptance=acceptance,
        samples=tuple(samples),
        histogram=histogram,
        skipped_steps=skipped,
        final_partition=p,
    )


def _cut_change(
    ends: dict[int, list[tuple[int, int]]],
    merged: frozenset[int],
    before: dict[int, int],
    after: dict[int, int],
) -> int:
    """Cut size after minus before, when only vertices of ``merged`` changed district.

    An edge leaving ``merged`` joins a merged district to another one, so it
    is cut both before and after and adds 0; an edge inside ``merged`` is
    seen from both ends.
    """
    change = 0
    for v in merged:
        bv, av = before[v], after[v]
        for _, w in ends[v]:
            change += (av != after[w]) - (bv != before[w])
    return change // 2
