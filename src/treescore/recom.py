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

A step costs the merged region R, not the whole graph. The chain keeps its
plan as a private state: the assignment, the district vertex sets, each
district's sorted tuple for the digest, and the count of cut edges between
each district pair that shares any. The pair to merge comes from that table,
and a split updates the state over R's edges alone. The start plan is checked
whole; each split is checked on its two new districts, the only ones that
changed, with the rule and wording of :func:`check_tolerant_partition`.

How closely the chain's empirical distribution tracks the spanning-tree-score
distribution is reported by callers as a diagnostic only; nothing here asserts
convergence.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import NamedTuple

from .graphs import EmbeddedMultiGraph, _strict_int
from .partition import (
    Partition,
    PartitionError,
    _district_problems,
    _key_digest,
    _sizes_within,
    check_tolerant_partition,
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
    """Unordered district pairs joined by at least one cut edge, sorted.

    One scan of every edge; the chain reads the same pairs from its cut table.
    """
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


class _Plan:
    """A checked plan as the chain's state, which each split updates over its merged region.

    Holds the assignment, each district's vertex set and sorted tuple (what
    the digest hashes), and ``pair_cuts``, the number of cut edges between
    each district pair ``(a, b)``, ``a < b``, for the pairs that share any,
    with their total ``cut``. Building it checks the whole plan under the
    balance rule and raises :class:`~treescore.partition.PartitionError` if
    it fails.
    """

    def __init__(self, g: EmbeddedMultiGraph, p: Partition, tolerance: int):
        problems = check_tolerant_partition(g, p, tolerance)
        if problems:
            raise PartitionError("; ".join(problems))
        self.g, self.m, self.tolerance = g, p.m, tolerance
        self.ends = _ends(g)
        self.assignment = p.as_dict()
        self.blocks = p.districts()
        self.keys = [tuple(sorted(b)) for b in self.blocks]
        self.pair_cuts: dict[tuple[int, int], int] = {}
        self.cut = self._count_cuts(self.assignment, 1)

    def _count_cuts(self, region, sign: int) -> int:
        """Add ``sign`` to ``pair_cuts`` for each cut edge at ``region``; return their number.

        An edge inside ``region`` is counted from its lower end only.
        """
        a, pair_cuts = self.assignment, self.pair_cuts
        count = 0
        for v in region:
            dv = a[v]
            for _, w in self.ends[v]:
                dw = a[w]
                if dv != dw and (v < w or w not in region):
                    pair = (dv, dw) if dv < dw else (dw, dv)
                    pair_cuts[pair] = pair_cuts.get(pair, 0) + sign
                    count += 1
        return count

    def pairs(self) -> list[tuple[int, int]]:
        """District pairs joined by at least one cut edge, sorted."""
        return sorted(self.pair_cuts)

    def split(
        self, da: int, db: int, merged: frozenset[int], low_side: frozenset[int]
    ) -> list[str]:
        """Give ``low_side`` to district ``da`` and the rest of ``merged`` to ``db``.

        ``merged`` holds the vertices of districts ``da < db``. Only the edges
        at it are recounted, and only the two new districts are checked, by
        :func:`check_tolerant_partition`'s rule and wording; their problems
        are returned.
        """
        high_side = merged - low_side
        removed = self._count_cuts(merged, -1)
        a = self.assignment
        for v in low_side:
            a[v] = da
        for v in high_side:
            a[v] = db
        self.cut += self._count_cuts(merged, 1) - removed
        for pair in [pair for pair, c in self.pair_cuts.items() if not c]:
            del self.pair_cuts[pair]
        self.blocks[da], self.blocks[db] = low_side, high_side
        self.keys[da], self.keys[db] = tuple(sorted(low_side)), tuple(sorted(high_side))
        return _district_problems(self.g, ((da, low_side), (db, high_side)), self.m, self.tolerance)

    def digest(self) -> str:
        """:meth:`Partition.digest` of the plan."""
        # disjoint sorted tuples sort by their least vertex, as canonical_key orders them
        return _key_digest(tuple(sorted(self.keys)))

    def partition(self) -> Partition:
        return Partition(m=self.m, assignment=tuple(sorted(self.assignment.items())))


class _Move(NamedTuple):
    """What one step did to a :class:`_Plan`; ``problems`` lists what is wrong with its split."""

    skipped: bool
    resamples: int
    merged: frozenset[int]
    problems: list[str]


def recom_step(
    g: EmbeddedMultiGraph,
    p: Partition,
    rng: random.Random,
    cfg: ChainConfig,
) -> StepResult:
    """One merge-split step; returns the new partition or a skip.

    Raises :class:`~treescore.partition.PartitionError` when the input
    partition is invalid under the chain's balance rule and
    :class:`RecomError` when there is no district pair to merge (``m = 1``)
    or the split is invalid. After a successful split, the side containing
    the merged region's smallest vertex keeps the smaller of the two district
    labels. This is :func:`run_chain`'s step: the input is checked as a whole
    plan, the split on its two new districts.
    """
    plan = _Plan(g, p, cfg.balance_tolerance)
    move = _step(plan, rng, cfg)
    _require_valid_split(1, move)
    return StepResult(
        partition=p if move.skipped else plan.partition(),
        skipped=move.skipped,
        resamples=move.resamples,
        merged=move.merged,
    )


def _require_valid_split(step: int, move: _Move) -> None:
    if move.problems:
        raise RecomError(f"step {step} produced an invalid partition: " + "; ".join(move.problems))


def _step(plan: _Plan, rng: random.Random, cfg: ChainConfig) -> _Move:
    """Merge a random adjacent district pair of ``plan`` and split it, in place.

    Costs the merged region R only: the pair comes from the plan's cut table,
    R's walk choices from the graph's edge list, and the split updates the
    plan over R's edges and checks the two new districts.
    """
    if plan.m < 2:
        raise RecomError("need at least two districts to merge")
    pairs = plan.pairs()
    if not pairs:
        raise RecomError("no adjacent district pair exists")
    da, db = pairs[rng.randrange(len(pairs))]
    merged = plan.blocks[da] | plan.blocks[db]
    vertices = sorted(plan.keys[da] + plan.keys[db])
    n, m = plan.g.num_vertices, plan.m
    incident = _walk_incidence(plan.g, vertices)  # unchecked: it joins two connected districts
    for attempt in range(1, cfg.max_resample + 1):
        tree = _wilson_walk(incident, rng)
        candidates = balance_edges(vertices, tree, n, m, cfg.balance_tolerance)
        if candidates:
            # the walk roots the tree at min(merged), so the root side is the low side.
            _, low_side = candidates[rng.randrange(len(candidates))]
            return _Move(False, attempt, merged, plan.split(da, db, merged, low_side))
    return _Move(True, cfg.max_resample, merged, [])


def run_chain(g: EmbeddedMultiGraph, p0: Partition, cfg: ChainConfig) -> EnsembleStats:
    """Run the chain from ``p0`` and record every visited partition.

    Deterministic given ``(g, p0, cfg)``. Every visited partition is checked
    under the balance rule exactly once: the start as a whole plan on entry,
    and each new split on its two new districts when a step produces it (the
    others are unchanged; a skipped step keeps the plan already checked). An
    invalid start raises :class:`~treescore.partition.PartitionError`; an
    invalid split raises :class:`RecomError`, since it would mean the step
    construction is broken. A step costs the merged region only: the plan,
    its cut size and its district-pair cut table are updated over the merged
    region's edges, and the digest re-sorts the two new districts alone. One
    :class:`~treescore.partition.Partition` is built, the final one.
    """
    plan = _Plan(g, p0, cfg.balance_tolerance)
    rng = random.Random(cfg.seed)
    digest = plan.digest()
    samples = [SampleRecord(0, plan.cut, digest)]
    skipped = 0
    for step in range(1, cfg.steps + 1):
        move = _step(plan, rng, cfg)
        if move.skipped:
            skipped += 1
        else:
            _require_valid_split(step, move)
            digest = plan.digest()
        samples.append(SampleRecord(step, plan.cut, digest))
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
        final_partition=plan.partition(),
    )
