"""Quantitative relations between cut size and partition probability.

Everything here verifies, on concrete graphs, inequalities of the form
"fewer cut edges implies higher probability under the score-proportional
distribution". The checks are exact wherever the quantities are rational;
the one irrational constant (the perimeter-ratio threshold) is evaluated in
double precision with a guard band applied in the direction that favors the
claimed inequality, so rounding can hide a tight pass but never manufacture
a violation.

Conventions used throughout: a partition P of a graph G with m districts
has cut size b = number of edges between districts; its score is the
product of the districts' spanning tree counts; c1 = 1/(2 k2) and
c2 = 1 - 1/k1 where (k1, k2) bound vertex and face degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from ._linalg import log2_fraction
from .graphs import EmbeddedMultiGraph, _UnionFind, check_bounded
from .partition import (
    DistEntry,
    DistributionTable,
    Partition,
    PartitionError,
    cut_edges,
    spanning_tree_distribution,
    spanning_tree_score,
    validate_partition,
)
from .sampler import run_constrained_deletions
from .spectral import count_spanning_trees

CLAIMS = ("lemma32", "theorem31", "eq4", "corollary")
GUARD = 1e-9
MAX_LISTED_VIOLATIONS = 20


class BoundsError(ValueError):
    pass


def _fmt(x) -> object:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return x


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one claim over a set of instances.

    violations empty means every applicable instance satisfied the claim;
    a nonempty list indicates a bug somewhere in the pipeline, since the
    claims are mathematically proved. applicable counts instances whose
    premises held; when it is zero the check was vacuous and the notes say
    so explicitly.
    """

    claim: str
    instances_checked: int
    applicable: int
    violations: tuple = ()
    margins: dict = field(default_factory=dict)
    c1: Fraction | None = None
    c2: Fraction | float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.claim not in CLAIMS:
            raise BoundsError(f"unknown claim {self.claim!r}")

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "instances-checked": self.instances_checked,
            "applicable": self.applicable,
            "holds": self.holds,
            "violations": [
                {k: _fmt(v) for k, v in item.items()} for item in self.violations
            ],
            "margins": {k: _fmt(v) for k, v in self.margins.items()},
            "c1": _fmt(self.c1) if self.c1 is not None else None,
            "c2": _fmt(self.c2) if self.c2 is not None else None,
            "notes": list(self.notes),
        }


def merge_reports(*reports: BoundReport) -> BoundReport:
    """Combine reports for the same claim; margins keep the minimum slack."""
    if not reports:
        raise BoundsError("nothing to merge")
    claim = reports[0].claim
    if any(r.claim != claim for r in reports):
        raise BoundsError("cannot merge reports for different claims")
    margins: dict = {}
    notes: list[str] = []
    violations: list = []
    for r in reports:
        violations.extend(r.violations)
        for k, v in r.margins.items():
            if k not in margins or float(v) < float(margins[k]):
                margins[k] = v
        for n in r.notes:
            if n not in notes:
                notes.append(n)
    return BoundReport(
        claim=claim,
        instances_checked=sum(r.instances_checked for r in reports),
        applicable=sum(r.applicable for r in reports),
        violations=tuple(violations),
        margins=margins,
        c1=reports[0].c1,
        c2=reports[0].c2,
        notes=tuple(notes),
    )


# --- threshold -------------------------------------------------------------


def perimeter_ratio_threshold(
    k1: int, k2: int, alpha: float = 1.0, epsilon: float = 1.0
) -> float:
    """Cut-size ratio above which the dominance guarantee kicks in.

    Equals (log(1/(2 k2)) - log(alpha)) / log(1 - 1/k1) + epsilon, evaluated
    in double precision. Grows with alpha and with epsilon.
    """
    if k1 < 2:
        raise BoundsError("k1 must be at least 2 (the threshold divides by log(1 - 1/k1))")
    if k2 < 1:
        raise BoundsError("k2 must be at least 1")
    if alpha < 1:
        raise BoundsError("alpha must be at least 1")
    if epsilon <= 0:
        raise BoundsError("epsilon must be positive")
    return (math.log(1 / (2 * k2)) - math.log(alpha)) / math.log(1 - 1 / k1) + epsilon


@dataclass(frozen=True)
class LambdaParams:
    k1: int
    k2: int
    alpha: float
    epsilon: float
    value: float

    @classmethod
    def compute(cls, k1: int, k2: int, alpha: float = 1.0, epsilon: float = 1.0):
        return cls(
            k1=k1,
            k2=k2,
            alpha=alpha,
            epsilon=epsilon,
            value=perimeter_ratio_threshold(k1, k2, alpha, epsilon),
        )

    def to_json(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "lambda": self.value,
        }


def _constants(k1: int, k2: int) -> tuple[Fraction, Fraction]:
    if k1 < 2 or k2 < 1:
        raise BoundsError("need k1 >= 2 and k2 >= 1")
    c1 = Fraction(1, 2 * k2)
    c2 = Fraction(k1 - 1, k1)
    if c1 > c2:
        raise BoundsError(f"degenerate constants: c1={c1} > c2={c2}")
    return c1, c2


def _require_bounded(g: EmbeddedMultiGraph, k1: int, k2: int):
    cert = check_bounded(g, k1, k2)
    if not cert.holds:
        raise BoundsError(
            f"graph is not ({k1},{k2})-bounded: first violation {cert.violations[0]}"
        )
    return cert


# --- score ratio bounds ----------------------------------------------------


def partition_deletion_set(
    g: EmbeddedMultiGraph, p: Partition
) -> tuple[list[int], list[int]]:
    """Split the cut into (deletable, retained) so deletion keeps G connected.

    Retains one cut edge per adjacent district pair along a spanning tree of
    the district quotient (Kruskal by ascending edge id, so the tree is the
    minimum-edge-id one and each retained edge is the lowest-id edge of its
    pair). Deleting the rest leaves the districts joined in a tree, and the
    spanning trees of that remainder are exactly counted by the partition
    score.
    """
    check = validate_partition(g, p)
    if not check.valid:
        raise PartitionError(f"invalid partition: {check.problems[0]}")
    return _deletion_set(g, p, cut_edges(g, p).edges)


def _deletion_set(
    g: EmbeddedMultiGraph, p: Partition, cut: frozenset[int]
) -> tuple[list[int], list[int]]:
    """The body of :func:`partition_deletion_set` for a valid partition with cut ``cut``."""
    assign = p.as_dict()
    districts = _UnionFind(range(p.m))
    retained: list[int] = []
    deletable: list[int] = []
    for e in sorted(cut):
        u, v = g.endpoints(e)
        if districts.union(assign[u], assign[v]) is None:
            deletable.append(e)
        else:
            retained.append(e)
    if len(retained) != p.m - 1:
        raise BoundsError("district quotient is not connected")
    return deletable, retained


def verify_score_ratio(
    g: EmbeddedMultiGraph, p: Partition, k1: int, k2: int
) -> BoundReport:
    """Check c1^(b-m+1) <= score(P)/trees(G) <= c2^(b-m+1) for one partition.

    Both sides exact. The score is cross-checked by a second route: delete
    the non-retained cut edges step by step and multiply the per-step
    survival probabilities, which must telescope to the same ratio. A graph
    whose tree count is too large to eliminate is refused by the count's
    ``MinorTooLargeError``.
    """
    _require_bounded(g, k1, k2)
    c1, c2 = _constants(k1, k2)
    trees = int(count_spanning_trees(g))
    return _score_ratio_report(g, p, spanning_tree_score(g, p), c1, c2, trees)


def _score_ratio_report(
    g: EmbeddedMultiGraph,
    p: Partition,
    score: int,
    c1: Fraction,
    c2: Fraction,
    trees: int,
) -> BoundReport:
    """The body of :func:`verify_score_ratio` for a valid ``p`` and a certified ``g``."""
    cut = cut_edges(g, p)
    b = cut.size
    expo = b - p.m + 1
    violations: list = []
    deletable, retained = _deletion_set(g, p, cut.edges)
    prob, remaining = run_constrained_deletions(g, deletable)

    ratio = Fraction(score, trees)
    lower = c1**expo
    upper = c2**expo
    rem_trees = int(count_spanning_trees(remaining))
    if rem_trees != score or prob != ratio:
        violations.append(
            {
                "kind": "score-cross-check",
                "partition": p.digest(),
                "score": score,
                "trees-avoiding-cut": rem_trees,
                "deletion-probability": prob,
            }
        )
    if ratio < lower:
        violations.append(
            {
                "kind": "lower",
                "partition": p.digest(),
                "cut-size": b,
                "ratio": ratio,
                "bound": lower,
            }
        )
    if ratio > upper:
        violations.append(
            {
                "kind": "upper",
                "partition": p.digest(),
                "cut-size": b,
                "ratio": ratio,
                "bound": upper,
            }
        )
    margins = {
        "lower-slack-log2": log2_fraction(ratio) - log2_fraction(lower),
        "upper-slack-log2": log2_fraction(upper) - log2_fraction(ratio),
    }
    return BoundReport(
        claim="eq4",
        instances_checked=1,
        applicable=1,
        violations=tuple(violations),
        margins=margins,
        c1=c1,
        c2=c2,
        notes=(
            "exact arithmetic",
            f"cut size {b}, exponent {expo}, retained {len(retained)} cut edges",
        ),
    )


def verify_score_ratios(
    g: EmbeddedMultiGraph, m: int, k1: int, k2: int, max_vertices: int | None = None
) -> BoundReport:
    """verify_score_ratio over every balanced connected m-partition.

    The graph is certified once, and the plans, their scores and trees(G)
    come from :func:`~treescore.partition.spanning_tree_distribution`. Every
    plan's deletion run edits a copy of G's one tree-count engine.
    """
    _require_bounded(g, k1, k2)
    table = spanning_tree_distribution(g, m, max_vertices=max_vertices)
    c1, c2 = _constants(k1, k2)
    reports = [
        _score_ratio_report(g, e.partition, e.score, c1, c2, table.graph_trees)
        for e in table.entries
    ]
    return replace(
        merge_reports(*reports), notes=(f"enumerated {len(reports)} partitions with m={m}",)
    )


# --- cut-size blocks --------------------------------------------------------


def _cut_blocks(table: DistributionTable) -> dict[int, list[DistEntry]]:
    """The table's entries grouped by cut size, in order of first appearance."""
    classes: dict[int, list[DistEntry]] = {}
    for ent in table.entries:
        classes.setdefault(ent.cut_size, []).append(ent)
    return classes


def _keep_least(margins: dict, key: str, value: float) -> None:
    if key not in margins or value < margins[key]:
        margins[key] = value


def _sweep_cut_blocks(table, premise, holds, bound_log2, kind, violations, margins):
    """Decide a pairwise claim on Pr[P1]/Pr[P2] one cut-size block at a time.

    Walks the ordered cut-size pairs (b1, b2), b1 >= 1, that meet
    ``premise``. A block is decided by its extreme scores (least at b1,
    greatest at b2); only if ``holds`` fails there are its failing pairs
    listed in ``violations``, up to ``MAX_LISTED_VIOLATIONS`` entries. The
    least ``log2(s1/s2) - bound_log2(b1, b2)`` is kept in ``margins``.
    Yields ``(b1, b2, worst1, worst2, pairs)`` after each block.
    """
    classes = _cut_blocks(table)
    for b1, ents1 in classes.items():
        if b1 < 1:
            continue  # only the one-district plan has no cut; the claims divide by b1
        for b2, ents2 in classes.items():
            if not premise(b1, b2):
                continue
            worst1 = min(ents1, key=lambda e: e.score)
            worst2 = max(ents2, key=lambda e: e.score)
            if not holds(worst1.score, worst2.score, b1, b2):
                for e1 in ents1:
                    for e2 in ents2:
                        if (
                            not holds(e1.score, e2.score, b1, b2)
                            and len(violations) < MAX_LISTED_VIOLATIONS
                        ):
                            violations.append(
                                {"kind": kind, "p1": e1.partition.digest(),
                                 "p2": e2.partition.digest(), "cut1": b1, "cut2": b2,
                                 "score1": e1.score, "score2": e2.score}
                            )
            slack = (
                log2_fraction(Fraction(worst1.score, worst2.score)) - bound_log2(b1, b2)
            )
            _keep_least(margins, "conclusion-slack-log2", slack)
            yield b1, b2, worst1, worst2, len(ents1) * len(ents2)


# --- pair dominance --------------------------------------------------------


def derivation_chain(
    b1: int,
    b2: int,
    m: int,
    k1: int,
    k2: int,
    alpha: float,
    epsilon: float,
    ratio1: Fraction,
    ratio2: Fraction,
) -> tuple[tuple[str, float], ...]:
    """The dominance proof as a sequence of log2 values, largest first.

    Starts at log2 of P1's score share and descends step by step to
    log2(alpha) plus P2's share. Each adjacent pair is one inequality of
    the proof; when the premises hold the sequence is non-increasing.
    Requires b1 >= 1 (the threshold identity divides by b1).
    """
    if b1 < 1:
        raise BoundsError("chain needs at least one cut edge in the first partition")
    c1, c2 = _constants(k1, k2)
    lc1 = log2_fraction(c1)
    lc2 = log2_fraction(c2)
    la = math.log2(alpha)
    return (
        ("score share of P1", log2_fraction(ratio1)),
        ("bound at cut size b1", (b1 - m + 1) * lc1),
        ("bound without the m-1 credit", b1 * lc1),
        ("threshold identity", la + (b1 * (lc1 - la) / lc2) * lc2),
        ("after the boundary-gap premise", la + (b2 - epsilon * b1) * lc2),
        ("after the epsilon premise", la + (b2 - m + 1) * lc2),
        ("alpha plus score share of P2", la + log2_fraction(ratio2)),
    )


def chain_slacks(chain) -> list[float]:
    return [chain[i][1] - chain[i + 1][1] for i in range(len(chain) - 1)]


def verify_pair_dominance(
    g: EmbeddedMultiGraph,
    m: int,
    k1: int,
    k2: int,
    alpha: float = 1.0,
    epsilon: float = 1.0,
    max_vertices: int | None = None,
) -> BoundReport:
    """Exhaustive dominance check over ordered partition pairs.

    A pair (P1, P2) is applicable when b2 >= lambda*b1 and b1 >= (m-1)/eps;
    every applicable pair must satisfy Pr[P1] >= alpha*Pr[P2], compared
    exactly through the scores. Premises depend only on the cut sizes, so
    pairs are grouped by cut size and each group is decided by its extreme
    scores. Pairs with b1 = 0 (only the trivial single-district partition)
    are excluded: the threshold identity divides by b1.
    """
    if alpha < 1:
        raise BoundsError("alpha must be at least 1")
    if epsilon <= 0:
        raise BoundsError("epsilon must be positive")
    _require_bounded(g, k1, k2)
    c1, c2 = _constants(k1, k2)
    lam = perimeter_ratio_threshold(k1, k2, alpha, epsilon)
    alpha_exact = Fraction(alpha)
    eps_exact = Fraction(epsilon)

    table = spanning_tree_distribution(g, m, max_vertices=max_vertices)
    n = len(table.entries)
    trees = table.graph_trees

    def premise(b1: int, b2: int) -> bool:
        return Fraction(b1) >= Fraction(m - 1) / eps_exact and b2 >= lam * b1 * (1 + GUARD)

    def dominates(s1: int, s2: int, b1: int, b2: int) -> bool:
        return Fraction(s1) >= alpha_exact * s2

    violations: list = []
    margins: dict = {}
    applicable = 0
    applicable_blocks = 0
    for b1, b2, worst1, worst2, pairs in _sweep_cut_blocks(
        table, premise, dominates, lambda b1, b2: math.log2(alpha),
        "dominance", violations, margins,
    ):
        applicable += pairs
        applicable_blocks += 1
        chain = derivation_chain(
            b1, b2, m, k1, k2, alpha, epsilon,
            Fraction(worst1.score, trees), Fraction(worst2.score, trees),
        )
        for idx, s in enumerate(chain_slacks(chain), start=1):
            _keep_least(margins, f"chain-{idx}-slack-log2", s)
            tol = GUARD * max(1.0, abs(chain[idx - 1][1]), abs(chain[idx][1]))
            if s < -tol:
                violations.append(
                    {"kind": "chain", "step": idx, "from": chain[idx - 1][0],
                     "to": chain[idx][0], "cut1": b1, "cut2": b2, "slack-log2": s}
                )

    notes = [
        f"lambda = {lam:.6f}",
        f"{applicable} applicable ordered pairs out of {n * n} "
        f"({applicable_blocks} cut-size blocks)",
    ]
    if applicable == 0:
        notes.append(
            "VACUOUS: no pair satisfies the premises on this graph; "
            "the conclusion was never exercised"
        )
    return BoundReport(
        claim="theorem31",
        instances_checked=n * n,
        applicable=applicable,
        violations=tuple(violations),
        margins=margins,
        c1=c1,
        c2=c2,
        notes=tuple(notes),
    )


# --- exponential gap -------------------------------------------------------


def gap_alpha_log2(b1: int, b2: int, k1: int, k2: int) -> float:
    """log2 of the guaranteed probability ratio (1/(2k2))*(1+1/(k1-1))^(b2/b1-1)."""
    if k1 < 2:
        raise BoundsError("k1 must be at least 2 (the exponent divides by k1 - 1)")
    if b1 < 1:
        raise BoundsError("b1 must be at least 1")
    return -math.log2(2 * k2) + (b2 / b1 - 1) * math.log2(k1 / (k1 - 1))


def verify_exponential_gap(
    g: EmbeddedMultiGraph, m: int, k1: int, k2: int, max_vertices: int | None = None
) -> BoundReport:
    """Check Pr[P1]/Pr[P2] >= (1/(2k2))*(1+1/(k1-1))^(b2/b1-1) pairwise.

    Applicable whenever the right-hand side is at least 1; both the
    applicability test and the conclusion are decided exactly by raising
    to the b1-th power, which clears the fractional exponent. The extreme
    cut-size pair is evaluated unconditionally and recorded in the notes.
    """
    if k1 < 2:
        raise BoundsError("k1 must be at least 2 (the exponent divides by k1 - 1)")
    _require_bounded(g, k1, k2)
    c1, c2 = _constants(k1, k2)
    table = spanning_tree_distribution(g, m, max_vertices=max_vertices)
    n = len(table.entries)
    grow = Fraction(k1, k1 - 1)

    def alpha_at_least_one(b1: int, b2: int) -> bool:
        return grow ** (b2 - b1) >= Fraction(2 * k2) ** b1

    def conclusion_holds(s1: int, s2: int, b1: int, b2: int) -> bool:
        lhs = Fraction(s1, s2) ** b1
        rhs = Fraction(1, 2 * k2) ** b1 * grow ** (b2 - b1)
        return lhs >= rhs

    violations: list = []
    margins: dict = {}
    applicable = sum(
        pairs
        for *_, pairs in _sweep_cut_blocks(
            table, alpha_at_least_one, conclusion_holds,
            lambda b1, b2: gap_alpha_log2(b1, b2, k1, k2), "gap", violations, margins,
        )
    )

    classes = _cut_blocks(table)
    notes = [f"{applicable} applicable ordered pairs out of {n * n}"]
    low, high = min(classes), max(classes)
    if low >= 1 and high > low:
        e1 = min(classes[low], key=lambda e: e.score)
        e2 = max(classes[high], key=lambda e: e.score)
        a_log2 = gap_alpha_log2(low, high, k1, k2)
        held = conclusion_holds(e1.score, e2.score, low, high)
        guaranteed = alpha_at_least_one(low, high)
        notes.append(
            f"extreme pair cuts ({low}, {high}): ratio log2 = "
            f"{log2_fraction(Fraction(e1.score, e2.score)):.6f}, "
            f"bound log2 = {a_log2:.6f}, holds = {held}, "
            f"guaranteed (alpha >= 1) = {guaranteed}"
        )
        if guaranteed is False and held is False:
            notes.append("extreme-pair failure is allowed: its alpha is below 1")
    if applicable == 0:
        notes.append(
            "VACUOUS: every pair's derived alpha is below 1 on this graph; "
            "the conclusion was never exercised"
        )
    return BoundReport(
        claim="corollary",
        instances_checked=n * n,
        applicable=applicable,
        violations=tuple(violations),
        margins=margins,
        c1=c1,
        c2=c2,
        notes=tuple(notes),
    )
