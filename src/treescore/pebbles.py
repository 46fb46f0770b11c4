"""Pile-based potential tracking for contraction/deletion runs.

A run of the resistance-driven sampler removes one edge per step, either
deleting it or contracting it. This module tracks a potential over such a
run: start with one pebble on every vertex and face except the exempt vertex
``v0`` and exempt face ``f0``, which start with piles equal to their degrees.
The potential ``P_i`` is the product of all pile sizes, so
``P_0 = deg(v0) * deg(f0)``.

Deleting an edge of G contracts its dual edge in G*, so both actions follow
one rule with the sides of the duality swapped: merge the two classes at the
edge's ends on one side (adding their piles, and their degrees less the
edge's two ends) and take the edge's ends off the degrees on the other side.
A deletion merges the two faces beside e and lowers the degrees of e's
endpoints; a contraction merges e's endpoints and lowers the degrees of the
faces beside e.

On a degree-bounded graph (every non-exempt vertex degree at most ``k1``,
every non-exempt face degree at most ``k2``, no self-loops in the graph or its
dual) the potential certifies step-probability lower bounds. With ``k`` the
bound of the merged side (``k2`` for a deletion, ``k1`` for a contraction):

* ``p_i * P_{i-1} / P_i >= 1 / (2 k)``;
* the supporting facts are ``p_i >= 1/deg(x)`` for both merged classes x,
  and the invariant ``deg(x) <= k * pile(x)`` on each side;
* the exempt piles never merge with each other and only grow, so
  ``P_i >= P_0`` at every step.

Telescoping the per-step inequalities yields prefix-product bounds on
``p_1 ... p_t``: with ``d`` deletions and ``c`` contractions among the first
``t`` steps, ``p_1...p_t >= (1/(2 k2))^d * (1/(2 k1))^c``. Combined with the
per-step upper bounds this gives the two statements checked by
:func:`check_prefix_products`:

* deletions-only runs: ``(1/(2 k2))^t <= p_1...p_t <= (1 - 1/k1)^t``;
* arbitrary runs: ``(1/(2 K))^t <= p_1...p_t <= ((1 - 1/K)^(1/(2(k-1))))^t``
  where ``K = max(k1, k2)`` and ``k = min(k1, k2)``.

Individual ``p_i`` may fall outside those per-step ranges (forced moves have
``p_i = 1``); only the prefix products are bounded. Reports record where that
happens so test suites can exhibit it.

Pile sizes are kept factored: a multiset per step, trivial piles of size one
omitted.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from ._linalg import log2_fraction
from .bounds import GUARD, BoundReport, BoundsError, _require_bounded, merge_reports
from .graphs import (
    BoundednessCertificate,
    EmbeddedMultiGraph,
    _UnionFind,
    bound_violations,
)
from .sampler import SampleTrace, _num, sample_deletion_run, sample_tree_resistance

__all__ = [
    "PebbleError",
    "PebbleStep",
    "PebbleHistory",
    "track_pebbles",
    "attach_pebbles",
    "pointwise_outside",
    "check_prefix_products",
    "verify_run_products",
]


class PebbleError(ValueError):
    """Trace/graph mismatch or invalid input to the pile tracker."""


@dataclass(frozen=True)
class PebbleStep:
    """One merge step of the pile tracker.

    ``pile_x <= pile_y`` are the merged pile sizes, ``potential_ratio`` is
    ``P_i / P_{i-1} = (x + y) / (x * y)``, ``check_value`` is
    ``p_i * P_{i-1} / P_i`` and ``threshold`` the bound it must meet
    (``1/(2 k2)`` for deletions, ``1/(2 k1)`` for contractions).
    """

    index: int
    edge: int
    action: str
    probability: Fraction | float
    pile_x: int
    pile_y: int
    potential_ratio: Fraction
    check_value: Fraction | float
    threshold: Fraction
    ok: bool


@dataclass(frozen=True)
class PebbleHistory:
    """Full pile history of one run, with every checked inequality.

    ``pile_sizes[i]`` lists the non-trivial (size >= 2) pile sizes after step
    ``i`` (``pile_sizes[0]`` is the initial state), sorted ascending; piles of
    size one are omitted since they do not affect the product. ``violations``
    is empty on every valid run — the inequalities are proved, so a violation
    indicates a bug in the sampler or the tracker.
    """

    v0: int
    f0: int
    k1: int
    k2: int
    initial_potential: int
    steps: tuple[PebbleStep, ...]
    pile_sizes: tuple[tuple[int, ...], ...]
    violations: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.violations

    def potential(self, i: int) -> int:
        """Exact potential ``P_i`` (product of pile sizes after step i)."""
        return math.prod(self.pile_sizes[i])

    def potentials(self) -> tuple[int, ...]:
        return tuple(self.potential(i) for i in range(len(self.pile_sizes)))

    def to_json(self) -> dict:
        return {
            "v0": self.v0,
            "f0": self.f0,
            "k1": self.k1,
            "k2": self.k2,
            "initial-potential": str(self.initial_potential),
            "final-potential": str(self.potential(len(self.pile_sizes) - 1)),
            "holds": self.holds,
            "steps": [
                {
                    "i": s.index,
                    "edge": s.edge,
                    "action": s.action,
                    "pile-x": s.pile_x,
                    "pile-y": s.pile_y,
                    "check-value": _num(s.check_value),
                    "threshold": _num(s.threshold),
                    "ok": s.ok,
                }
                for s in self.steps
            ],
            "pile-sizes": [list(sizes) for sizes in self.pile_sizes],
            "violations": [dict(v) for v in self.violations],
            "notes": list(self.notes),
        }


def _ge(lhs, rhs) -> bool:
    """lhs >= rhs, exact when both sides are rational, guarded otherwise."""
    if isinstance(lhs, Fraction) or isinstance(lhs, int):
        return lhs >= rhs
    return float(lhs) >= float(rhs) * (1.0 - GUARD)


class _Side(_UnionFind):
    """One side of the duality: the vertices of G, or its faces (the vertices of G*).

    Members merge into classes named by their least member. ``ends[e]`` holds
    the members at edge e's two ends (its endpoints, or the faces beside it),
    ``k`` is the side's degree bound and ``label`` ("vertex" or "face") keys
    its entries in violations. The exempt member's pile starts at its degree.
    """

    __slots__ = ("label", "k", "ends", "deg", "pile", "exempt", "floor")

    def __init__(self, label: str, k: int, ends: dict, degrees: dict, exempt: int):
        super().__init__(degrees)
        self.label = label
        self.k = k
        self.ends = ends
        self.deg = dict(degrees)
        self.pile = dict.fromkeys(degrees, 1)
        self.exempt = exempt
        self.floor = self.pile[exempt] = degrees[exempt]

    def classes(self, e: int) -> tuple[int, int]:
        a, b = self.ends[e]
        return self.find(a), self.find(b)

    def exempt_pile(self) -> int:
        return self.pile[self.find(self.exempt)]

    def merge(self, a: int, b: int) -> tuple[int, int]:
        """Merge classes ``a != b``; returns their pile sizes, smaller first."""
        x, y = sorted((self.pile[a], self.pile[b]))
        keep = self.union(a, b)
        gone = b if keep == a else a
        self.pile[keep] = x + y
        self.deg[keep] = self.deg[a] + self.deg[b] - 2
        del self.pile[gone], self.deg[gone]
        return x, y

    def lose(self, e: int) -> None:
        """Take e's two ends off the degrees of the classes they sit on."""
        for x in self.classes(e):
            self.deg[x] -= 1

    def overloaded(self, where: str) -> list[dict]:
        """The classes that break ``deg <= k * pile``."""
        return [
            {"kind": "degree-pile-invariant", "where": where, self.label: x, "degree": d,
             "pile": self.pile[x]}
            for x, d in self.deg.items()
            if d > self.k * self.pile[x]
        ]


def track_pebbles(
    trace: SampleTrace,
    g: EmbeddedMultiGraph,
    v0: int,
    f0: int,
    k1: int,
    k2: int,
) -> PebbleHistory:
    """Replay a run's merges as pile combinations and check every inequality.

    ``g`` must be the graph the trace was sampled from, degree-bounded by
    ``(k1, k2)`` with exemptions ``v0`` (a vertex of ``g``) and ``f0`` (a face
    id of ``g.trace_faces()``); :func:`treescore.graphs.check_bounded` produces
    such a certificate. Face identity is tracked through the run with a
    union-find over the initial faces, as vertex identity is with one over
    the vertices: a step merges two classes on one side and lowers two
    degrees on the other, so no re-embedding is ever needed.

    Checks recorded per step (violations list any failures):

    * the potential inequality ``p_i * P_{i-1}/P_i >= 1/(2 k2)`` or
      ``1/(2 k1)`` (kind ``"potential-step"``),
    * the supporting probability bound ``p_i >= 1/deg`` for both merged faces
      (deletion) or both merged endpoints (contraction), using degrees from
      before the step (kind ``"degree-route"``),
    * the invariant ``deg <= bound * pile`` over all faces and vertices after
      the step (kind ``"degree-pile-invariant"``),
    * ``P_i >= P_0`` and the exempt piles never shrinking (kind
      ``"potential-floor"``).

    Raises :class:`PebbleError` when the trace does not fit the graph (unknown
    or repeated edges, deleting an edge whose sides are the same face,
    contracting an edge whose endpoints already coincide) or when the graph is
    not degree-bounded for the given exemptions.
    """
    if v0 not in g.vertices:
        raise PebbleError(f"exempt vertex {v0} is not a vertex of the graph")
    dual = g.trace_faces()
    if f0 not in dual.faces:
        raise PebbleError(f"exempt face {f0} is not a face of the embedding")
    if k1 < 1 or k2 < 1:
        raise PebbleError("degree bounds must be positive")
    unbounded = bound_violations(g, dual, k1, k2, v0, f0)
    if unbounded:
        raise PebbleError(
            f"graph is not ({k1},{k2})-degree-bounded for exempt vertex {v0} and "
            f"exempt face {f0}: first violation {unbounded[0]}"
        )
    verts = _Side("vertex", k1, g.edges_dict(), {v: g.degree(v) for v in g.vertices}, v0)
    faces = _Side("face", k2, dual.dual_edges, dual.face_degree, f0)
    # One rule, the sides swapped: an action merges the two classes at e's
    # ends on the first side and takes e's ends off the degrees of the second.
    rules = {
        "deleted": (faces, verts, "deletes edge {e}, but both of its sides are the same "
                    "face (deleting it would disconnect)"),
        "contracted": (verts, faces, "contracts edge {e}, but its endpoints already "
                       "coincide (it is a self-loop)"),
    }
    live_edges = set(g.edge_ids)
    violations: list[dict] = []
    steps: list[PebbleStep] = []

    def snapshot() -> tuple[int, ...]:
        return tuple(sorted(s for side in (verts, faces) for s in side.pile.values() if s > 1))

    def check_invariants(after: str) -> None:
        violations.extend(faces.overloaded(after))
        violations.extend(verts.overloaded(after))
        total_v = sum(verts.deg.values())
        total_f = sum(faces.deg.values())
        if total_v != 2 * len(live_edges) or total_f != 2 * len(live_edges):
            raise PebbleError(
                f"degree bookkeeping broke {after}: vertex degrees sum to "
                f"{total_v}, face degrees to {total_f}, expected "
                f"{2 * len(live_edges)}"
            )

    snapshots = [snapshot()]
    check_invariants("initially")

    for s in trace.steps:
        e = s.edge
        if e not in verts.ends:
            raise PebbleError(f"trace step {s.index} uses edge {e} not in the graph")
        if e not in live_edges:
            raise PebbleError(f"trace step {s.index} reuses edge {e}")
        live_edges.discard(e)
        if s.action not in rules:
            raise PebbleError(f"trace step {s.index} has unknown action {s.action!r}")
        side, other, refusal = rules[s.action]
        a, b = side.classes(e)
        if a == b:
            raise PebbleError(f"trace step {s.index} " + refusal.format(e=e))
        # Supporting bound: the run's probability of this action is at least
        # 1/deg for each merged class, measured before the step.
        for w in (a, b):
            if not _ge(s.probability, Fraction(1, side.deg[w])):
                violations.append(
                    {
                        "kind": "degree-route",
                        "step": s.index,
                        "edge": e,
                        side.label: w,
                        "degree": side.deg[w],
                        "p": s.probability,
                    }
                )
        x, y = side.merge(a, b)
        other.lose(e)
        threshold = Fraction(1, 2 * side.k)

        ratio = Fraction(x + y, x * y)  # P_i / P_{i-1}
        check_value = s.probability * Fraction(x * y, x + y)
        ok = _ge(check_value, threshold)
        if not ok:
            violations.append(
                {
                    "kind": "potential-step",
                    "step": s.index,
                    "edge": e,
                    "action": s.action,
                    "check-value": check_value,
                    "threshold": threshold,
                }
            )
        steps.append(
            PebbleStep(
                index=s.index,
                edge=e,
                action=s.action,
                probability=s.probability,
                pile_x=x,
                pile_y=y,
                potential_ratio=ratio,
                check_value=check_value,
                threshold=threshold,
                ok=ok,
            )
        )
        check_invariants(f"after step {s.index}")
        if verts.exempt_pile() < verts.floor or faces.exempt_pile() < faces.floor:
            violations.append(
                {
                    "kind": "potential-floor",
                    "step": s.index,
                    "exempt-vertex-pile": verts.exempt_pile(),
                    "exempt-face-pile": faces.exempt_pile(),
                }
            )
        snapshots.append(snapshot())

    initial_potential = verts.floor * faces.floor
    violations.extend(
        {"kind": "potential-floor", "step": i, "potential": p, "initial": initial_potential}
        for i, p in enumerate(map(math.prod, snapshots))
        if p < initial_potential
    )
    return PebbleHistory(
        v0=v0,
        f0=f0,
        k1=k1,
        k2=k2,
        initial_potential=initial_potential,
        steps=tuple(steps),
        pile_sizes=tuple(snapshots),
        violations=tuple(violations),
        notes=(
            f"{len(steps)} steps tracked, potential {initial_potential} -> "
            f"{'*'.join(map(str, snapshots[-1])) or '1'}",
        ),
    )


def attach_pebbles(
    trace: SampleTrace,
    g: EmbeddedMultiGraph,
    cert: BoundednessCertificate,
) -> tuple[SampleTrace, PebbleHistory]:
    """Run the pile tracker and return the trace with potentials filled in."""
    if not cert.holds:
        raise PebbleError("certificate does not hold; cannot track piles")
    history = track_pebbles(trace, g, cert.v0, cert.f0, cert.k1, cert.k2)
    return dataclasses.replace(trace, pebbles=history.potentials()), history


def _statement_constants(
    k1: int, k2: int, deletions_only: bool
) -> tuple[Fraction, Fraction | float, str, Fraction, int]:
    """(c1, c2, label, base, root) for the prefix-product bounds of the given run type.

    ``base`` is the rational ``c2 ** root``: an exact product is checked
    against the upper bound as ``prod ** root <= base ** t``.
    """
    if deletions_only:
        if k1 < 1 or k2 < 1:
            raise BoundsError("degree bounds must be positive")
        c2 = Fraction(k1 - 1, k1)
        return Fraction(1, 2 * k2), c2, "deletions-only", c2, 1
    hi, lo = max(k1, k2), min(k1, k2)
    if lo < 2:
        raise BoundsError(
            "prefix bounds for runs with contractions need min(k1, k2) >= 2"
        )
    c2 = (1.0 - 1.0 / hi) ** (1.0 / (2 * (lo - 1)))
    return Fraction(1, 2 * hi), c2, "mixed", Fraction(hi - 1, hi), 2 * (lo - 1)


def pointwise_outside(trace: SampleTrace, c1, c2) -> list[int]:
    """Indices of steps whose individual probability falls outside [c1, c2].

    Such steps are expected (forced moves have probability one) and do not
    contradict the prefix-product bounds; this helper exists so callers can
    exhibit them.
    """
    outside = []
    for s in trace.steps:
        p = s.probability
        if p < c1 or p > c2:
            outside.append(s.index)
    return outside


def check_prefix_products(
    trace: SampleTrace,
    k1: int,
    k2: int,
    run_type: str = "auto",
) -> BoundReport:
    """Check every prefix product of a run against its exponential bounds.

    For each prefix length ``t`` the product ``p_1 ... p_t`` must lie in
    ``[c1**t, c2**t]``. The constants depend on the run type:

    * ``"deletion"`` (valid only when the trace contains no contractions):
      ``c1 = 1/(2 k2)``, ``c2 = 1 - 1/k1``, both exact rationals;
    * ``"mixed"`` (valid for every run): ``c1 = 1/(2 max(k1,k2))`` and
      ``c2 = (1 - 1/max(k1,k2))**(1/(2(min(k1,k2)-1)))``;
    * ``"auto"``: ``"deletion"`` when the trace has no contractions, else
      ``"mixed"``.

    Products from exact traces are compared exactly: the mixed upper bound's
    fractional exponent is cleared by raising both sides to ``2(min-1)``.
    Float traces are compared in the log domain with a small relative guard.
    The trace must come from a run on a ``(k1, k2)``-degree-bounded graph;
    this function does not re-check that precondition.

    Returns a :class:`~treescore.bounds.BoundReport` with claim ``lemma32``.
    Violations indicate bugs; notes record how many individual steps fall
    outside ``[c1, c2]`` pointwise, which is allowed.
    """
    return _prefix_report(trace, k1, k2, run_type)[0]


def _prefix_report(
    trace: SampleTrace, k1: int, k2: int, run_type: str
) -> tuple[BoundReport, list[int]]:
    """:func:`check_prefix_products`' report, and the steps :func:`pointwise_outside` finds."""
    if run_type not in ("auto", "deletion", "mixed"):
        raise BoundsError(f"unknown run type {run_type!r}")
    has_contraction = any(s.action == "contracted" for s in trace.steps)
    if run_type == "deletion" and has_contraction:
        raise BoundsError(
            "run type 'deletion' requested but the trace contains contractions"
        )
    deletions_only = run_type == "deletion" or (
        run_type == "auto" and not has_contraction
    )
    c1, c2, label, base, root = _statement_constants(k1, k2, deletions_only)

    exact = all(isinstance(s.probability, Fraction) for s in trace.steps)
    violations: list[dict] = []
    lower_slack = math.inf
    upper_slack = math.inf
    log2_c1 = log2_fraction(c1)
    if isinstance(c2, Fraction):
        log2_c2 = log2_fraction(c2) if c2 > 0 else -math.inf
    else:
        log2_c2 = math.log2(c2)
    lower_t = upper_t = Fraction(1)  # c1**t and base**t

    prod_exact = Fraction(1)
    prod_log2 = 0.0
    t = 0
    for s in trace.steps:
        t += 1
        if exact:
            prod_exact *= s.probability
            prod_log2 = log2_fraction(prod_exact)
            lower_t *= c1
            upper_t *= base
            lower_ok = prod_exact >= lower_t
            upper_ok = prod_exact**root <= upper_t
        else:
            p = float(s.probability)
            if p <= 0.0:
                raise BoundsError(
                    f"step {s.index} has non-positive probability {p}; "
                    "cannot form prefix products"
                )
            prod_log2 += math.log2(p)
            lower_ok = prod_log2 >= t * log2_c1 - GUARD * abs(t * log2_c1)
            upper_ok = prod_log2 <= t * log2_c2 + GUARD * (abs(t * log2_c2) + 1.0)
        if not lower_ok:
            violations.append(
                {
                    "kind": "prefix-lower",
                    "t": t,
                    "product-log2": prod_log2,
                    "bound-log2": t * log2_c1,
                }
            )
        if not upper_ok:
            violations.append(
                {
                    "kind": "prefix-upper",
                    "t": t,
                    "product-log2": prod_log2,
                    "bound-log2": t * log2_c2,
                }
            )
        lower_slack = min(lower_slack, prod_log2 - t * log2_c1)
        upper_slack = min(upper_slack, t * log2_c2 - prod_log2)

    outside = pointwise_outside(trace, c1, c2)
    notes = [
        f"{label} constants over {t} steps"
        + ("" if exact else " (float-mode trace, log-domain comparison)"),
    ]
    if t == 0:
        notes.append("empty run: bounds are vacuous (product 1)")
    if outside:
        notes.append(
            f"{len(outside)} of {t} steps have probability outside [c1, c2] "
            "pointwise (allowed; first at step "
            f"{outside[0]}); all prefix products stay within bounds"
            if not violations
            else f"{len(outside)} of {t} steps outside [c1, c2] pointwise"
        )
    margins = {}
    if t > 0:
        margins["lower-slack-log2"] = lower_slack
        margins["upper-slack-log2"] = upper_slack
    report = BoundReport(
        claim="lemma32",
        instances_checked=t,
        applicable=t,
        violations=tuple(violations),
        margins=margins,
        c1=c1,
        c2=c2,
        notes=tuple(notes),
    )
    return report, outside


def verify_run_products(
    g: EmbeddedMultiGraph,
    k1: int,
    k2: int,
    *,
    runs: int = 200,
    mode: str = "deletion",
    seed: int = 0,
) -> BoundReport:
    """Sample seeded runs on a degree-bounded graph and check all bounds.

    ``mode`` selects the run type: ``"deletion"`` draws deletions-only runs
    (uniform random non-bridge edge deleted each step until only a spanning
    tree remains) and checks the deletions-only constants; ``"mixed"`` draws
    full sampler runs and checks the mixed constants. Run ``i`` uses seed
    ``seed + i``, so reports are reproducible. The pile tracker runs on every
    trace and any of its violations are folded into the report.

    The graph must be ``(k1, k2)``-degree-bounded; its certificate supplies
    the exemptions for the pile tracker. The graph's faces are traced once
    (memoised on ``g``); every run edits a copy of its one engine. Raises
    :class:`~treescore.bounds.BoundsError` if the certificate fails.
    """
    if runs < 1:
        raise BoundsError("need at least one run")
    if mode not in ("deletion", "mixed"):
        raise BoundsError(f"unknown mode {mode!r}")
    cert = _require_bounded(g, k1, k2)
    sample = sample_deletion_run if mode == "deletion" else sample_tree_resistance
    reports = []
    pebble_failures: list[dict] = []
    outside_runs = 0
    forced_steps = 0
    for i in range(runs):
        trace = sample(g, rng=Random(seed + i))
        rep, outside = _prefix_report(trace, k1, k2, mode)  # the modes are run types
        if outside:
            outside_runs += 1
        forced_steps += sum(1 for s in trace.steps if s.forced)
        # Per-run notes vary by seed (step counts, pointwise detail) and would
        # bloat the merged list; the aggregate notes below cover them.
        rep = dataclasses.replace(rep, notes=())
        history = track_pebbles(trace, g, cert.v0, cert.f0, k1, k2)
        pebble_failures.extend({"run": i, **v} for v in history.violations)
        reports.append(rep)
    merged = merge_reports(*reports)
    label = "deletions-only" if mode == "deletion" else "mixed"
    notes = list(merged.notes)
    notes.append(
        f"{runs} seeded {mode} runs (seeds {seed}..{seed + runs - 1}) checked "
        f"with {label} constants; {outside_runs} runs contain steps whose "
        f"probability is outside [c1, c2] pointwise, {forced_steps} forced "
        "steps in total"
    )
    notes.append(
        "pile tracker ran on every trace: "
        + (f"{len(pebble_failures)} violations" if pebble_failures else "no violations")
    )
    return dataclasses.replace(
        merged,
        violations=merged.violations + tuple(pebble_failures),
        notes=tuple(notes),
    )
