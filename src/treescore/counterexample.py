"""Closed-form machinery for two families where low cut size loses.

Both families show that a partition with far fewer cut edges can be far less
likely under the spanning-tree-product distribution once the degree-bound
preconditions fail, so the cut-size/probability link genuinely needs those
preconditions.

**Unbounded face degree** (:func:`unbounded_face_scores`): a family indexed by
even ``n`` built from two-by-``n`` ladders. With ``A(n)`` the number of
spanning trees of the 2-by-``n`` grid (``A(0)=0, A(1)=1,
A(n)=4A(n-1)-A(n-2)``), the two competing bipartitions have scores
``A(n)^2 * A(K)`` and ``((n-1)A(n)^2 + 2) * A(K)`` with shared index
``K = (n-1)A(n)^2/2``. The shared factor cancels, so the probability ratio is
``A(n)^2 / ((n-1)A(n)^2 + 2) <= 1/(n-1)`` even though the first partition cuts
only 3 edges against the second's ``2n``.

**Unbounded vertex degree** (:func:`unbounded_degree_resistances`,
:func:`unbounded_degree_log_bounds`): a family indexed by ``n`` whose analysis
runs a constrained-deletion argument around a ring. The effective resistances
along the deletion order obey ``r_i = 1/(1 + 1/(r_{i-1} + 2/n))`` and satisfy
the inductive bound ``r_i <= 2/(min(i, floor(sqrt(n)/2)) + 2)``. Chaining the
step bounds yields, in log2 form, ``log2(share1) <= -2n``,
``log2(share2) >= -log2(5) - 18 n^(5/6)`` and a ratio bound
``log2(5) + 18 n^(5/6) - 2n`` that tends to minus infinity: the straight
partition cuts ``2n+1`` edges, the ring partition ``2 floor(n^(4/3))``, yet
the straight partition's probability vanishes relative to the ring's.

The graphs themselves are not constructed (their interiors are only fixed up
to arbitrary balanced fill); every formula the analysis states is checked
instead, exactly in rationals wherever feasible. The recurrence is iterated on
raw integer pairs up to ``exact_limit`` and in high-precision decimals beyond;
the cross-multiplication steps of the induction are exposed as standalone
integer/rational predicates so they can be property-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

__all__ = [
    "CounterexampleError",
    "grid_tree_number",
    "FaceFamilyScores",
    "unbounded_face_scores",
    "ResistanceChain",
    "unbounded_degree_resistances",
    "resistance_fixed_point",
    "LogBoundSummary",
    "unbounded_degree_log_bounds",
    "ratio_bound_threshold",
    "bound_step_implication_early",
    "bound_step_implication_late",
    "recurrence_bound_step",
    "floor_pow_4_3",
]


class CounterexampleError(ValueError):
    """Invalid input to the closed-form family machinery."""


_GRID_TREE_CACHE: dict[int, int] = {0: 0, 1: 1}


def grid_tree_number(n: int) -> int:
    """Number of spanning trees of the 2-by-``n`` grid.

    Computed by the memoized linear recurrence ``A(n) = 4A(n-1) - A(n-2)``
    with ``A(0) = 0`` and ``A(1) = 1``; exact for any ``n >= 0``.
    """
    if n < 0:
        raise CounterexampleError("index must be non-negative")
    if n not in _GRID_TREE_CACHE:
        top = max(_GRID_TREE_CACHE)
        a, b = _GRID_TREE_CACHE[top - 1], _GRID_TREE_CACHE[top]
        for k in range(top + 1, n + 1):
            a, b = b, 4 * b - a
            _GRID_TREE_CACHE[k] = b
    return _GRID_TREE_CACHE[n]


@dataclass(frozen=True)
class FaceFamilyScores:
    """Scores of the two competing bipartitions in the unbounded-face family.

    Scores are kept factored — ``score1 = prefactor1 * A(shared_index)`` and
    ``score2 = prefactor2 * A(shared_index)`` — because the shared index
    ``K = (n-1)A(n)^2/2`` is astronomically large for all but tiny ``n``. The
    probability ratio cancels the shared factor exactly.
    """

    n: int
    prefactor1: int
    prefactor2: int
    shared_index: int
    score_ratio: Fraction
    ratio_bound: Fraction
    ratio_bound_ok: bool
    cut_size1: int
    cut_size2: int
    cut_ratio: Fraction

    def score1(self) -> int:
        """Materialized first score; feasible only for tiny ``n``."""
        return self.prefactor1 * grid_tree_number(self.shared_index)

    def score2(self) -> int:
        return self.prefactor2 * grid_tree_number(self.shared_index)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "score1-factored": {
                "prefactor": str(self.prefactor1),
                "shared-index": str(self.shared_index),
            },
            "score2-factored": {
                "prefactor": str(self.prefactor2),
                "shared-index": str(self.shared_index),
            },
            "score-ratio": f"{self.score_ratio.numerator}/{self.score_ratio.denominator}",
            "ratio-bound": f"{self.ratio_bound.numerator}/{self.ratio_bound.denominator}",
            "ratio-bound-ok": self.ratio_bound_ok,
            "cut-sizes": [self.cut_size1, self.cut_size2],
            "cut-ratio": f"{self.cut_ratio.numerator}/{self.cut_ratio.denominator}",
        }


def unbounded_face_scores(n: int) -> FaceFamilyScores:
    """Closed-form scores and verdicts for the unbounded-face family at ``n``.

    Requires even ``n >= 2`` (the family is defined for even ``n``). The
    shared index ``(n-1)A(n)^2/2`` must be an integer — guaranteed because
    ``A(n)`` is even for even ``n`` — and is validated with a diagnostic.
    The returned record carries the cancelled probability ratio
    ``A(n)^2 / ((n-1)A(n)^2 + 2)``, its bound ``1/(n-1)``, and the cut sizes
    ``3`` versus ``2n``.
    """
    if n < 2:
        raise CounterexampleError("family index must be at least 2")
    if n % 2 != 0:
        raise CounterexampleError("family index must be even")
    a = grid_tree_number(n)
    doubled = (n - 1) * a * a
    if doubled % 2 != 0:
        raise CounterexampleError(
            f"shared index (n-1)*A(n)^2/2 is not an integer for n={n}: "
            f"(n-1)*A(n)^2 = {doubled} is odd"
        )
    k = doubled // 2
    prefactor1 = a * a
    prefactor2 = doubled + 2
    ratio = Fraction(prefactor1, prefactor2)
    bound = Fraction(1, n - 1)
    return FaceFamilyScores(
        n=n,
        prefactor1=prefactor1,
        prefactor2=prefactor2,
        shared_index=k,
        score_ratio=ratio,
        ratio_bound=bound,
        ratio_bound_ok=ratio <= bound,
        cut_size1=3,
        cut_size2=2 * n,
        cut_ratio=Fraction(3, 2 * n),
    )


def _claim_bound(n: int, i: int) -> Fraction:
    """Inductive bound ``2/(min(i, floor(sqrt(n)/2)) + 2)``."""
    return Fraction(2, min(i, isqrt(n) // 2) + 2)


@dataclass(frozen=True)
class ResistanceChain:
    """One iteration of the ring-deletion resistance recurrence.

    ``values[i]`` approximates ``r_i`` as a float; the bound verdicts in
    ``bound_ok`` were decided exactly (raw integer cross-multiplication) for
    ``i <= exact_limit`` and at ``precision_bits`` of floating precision with
    a relative guard beyond. ``seed`` is ``r_0``.
    """

    n: int
    seed: Fraction
    values: tuple[float, ...]
    bound_ok: tuple[bool, ...]
    exact_limit: int
    precision_bits: int
    fixed_point: float

    @property
    def holds(self) -> bool:
        return all(self.bound_ok)

    @property
    def first_failure(self) -> int | None:
        for i, ok in enumerate(self.bound_ok):
            if not ok:
                return i
        return None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "seed": f"{self.seed.numerator}/{self.seed.denominator}",
            "iterations": len(self.values) - 1,
            "exact-limit": self.exact_limit,
            "precision-bits": self.precision_bits,
            "holds": self.holds,
            "first-failure": self.first_failure,
            "fixed-point": self.fixed_point,
            "values-head": [float(v) for v in self.values[:8]],
            "values-tail": [float(v) for v in self.values[-4:]],
        }


def _pair_to_float(p: int, q: int) -> float:
    """p/q as a float for 0 <= p <= q, robust against huge integers."""
    return math.ldexp((p << 64) // q, -64)


def resistance_fixed_point(n: int) -> float:
    """Fixed point ``(-1 + sqrt(1 + 2n))/n`` of the resistance recurrence."""
    if n < 1:
        raise CounterexampleError("ring size must be positive")
    return (math.sqrt(1 + 2 * n) - 1) / n


def unbounded_degree_resistances(
    n: int,
    i_max: int,
    r0: Fraction = Fraction(4, 5),
    exact_limit: int = 10_000,
    precision_bits: int = 192,
) -> ResistanceChain:
    """Iterate ``r_i = 1/(1 + 1/(r_{i-1} + 2/n))`` and check the bound.

    The chain starts at ``r_0 = r0`` (default ``4/5``, the worst case allowed
    by the length-5 cycle bound on the first deleted edge) and runs to
    ``i_max``. The inductive claim ``r_i <= 2/(min(i, floor(sqrt(n)/2)) + 2)``
    is checked at every index; at ``i = 0`` it reads ``r_0 <= 1``.

    Iterations up to ``exact_limit`` use raw integer pairs — one recurrence
    step maps ``p/q`` to ``(p n + 2 q) / (p n + 2 q + q n)`` — so the verdicts
    are exact. Beyond that the chain continues in decimal floating point with
    ``ceil(precision_bits * log10(2)) + 1`` significant digits (at least
    ``precision_bits`` of binary precision) and a ``2**-(precision_bits//2)``
    relative guard on the comparison (the values there are far from the
    bound, so the guard is cosmetic). ``r0`` must lie in ``(0, 1)``; every
    iterate is confirmed to stay there.
    """
    if n < 1:
        raise CounterexampleError("ring size must be positive")
    if i_max < 0:
        raise CounterexampleError("iteration count must be non-negative")
    if not (0 < r0 < 1):
        raise CounterexampleError("seed resistance must lie strictly between 0 and 1")
    values = [float(r0)]
    bound_ok = [r0 <= _claim_bound(n, 0)]
    p, q = r0.numerator, r0.denominator
    exact_steps = min(i_max, exact_limit)
    for i in range(1, exact_steps + 1):
        p, q = p * n + 2 * q, p * n + 2 * q + q * n
        if not (0 < p < q):
            raise CounterexampleError(f"iterate {i} left the unit interval")
        b = _claim_bound(n, i)
        bound_ok.append(p * b.denominator <= b.numerator * q)
        values.append(_pair_to_float(p, q))
    if i_max > exact_limit:
        with localcontext() as ctx:
            ctx.prec = math.ceil(precision_bits * math.log10(2)) + 1
            r = Decimal(p) / Decimal(q)
            two_over_n = Decimal(2) / n
            guard = Decimal(2) ** (-(precision_bits // 2))
            for i in range(exact_limit + 1, i_max + 1):
                r = 1 / (1 + 1 / (r + two_over_n))
                if not (0 < r < 1):
                    raise CounterexampleError(f"iterate {i} left the unit interval")
                b = _claim_bound(n, i)
                limit = Decimal(b.numerator) / b.denominator
                bound_ok.append(r <= limit * (1 + guard))
                values.append(float(r))
    return ResistanceChain(
        n=n,
        seed=r0,
        values=tuple(values),
        bound_ok=tuple(bound_ok),
        exact_limit=exact_limit,
        precision_bits=precision_bits,
        fixed_point=resistance_fixed_point(n),
    )


def floor_pow_4_3(n: int) -> int:
    """Exact ``floor(n**(4/3))`` for a non-negative integer ``n``."""
    if n < 0:
        raise CounterexampleError("index must be non-negative")
    target = n**4
    k = round(n ** (4 / 3)) if n < 10**15 else int(n ** (4 / 3))
    while k**3 > target:
        k -= 1
    while (k + 1) ** 3 <= target:
        k += 1
    return k


@dataclass(frozen=True)
class LogBoundSummary:
    """Closed-form log2 bounds for the unbounded-degree family at ``n``.

    ``log2_share1_upper`` bounds the straight partition's probability share,
    ``log2_share2_lower`` the ring partition's, and ``log2_ratio_upper`` their
    quotient: ``log2(5) + 18 n^(5/6) - 2n``, which tends to minus infinity.
    """

    n: int
    log2_share1_upper: float
    log2_share2_lower: float
    log2_ratio_upper: float
    cut_size1: int
    cut_size2: int
    cut_ratio: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "log2-share1-upper": self.log2_share1_upper,
            "log2-share2-lower": self.log2_share2_lower,
            "log2-ratio-upper": self.log2_ratio_upper,
            "cut-sizes": [self.cut_size1, self.cut_size2],
            "cut-ratio": f"{self.cut_ratio.numerator}/{self.cut_ratio.denominator}",
        }


def unbounded_degree_log_bounds(n: int) -> LogBoundSummary:
    """Log-domain probability bounds and cut sizes for the family at ``n``.

    The straight partition cuts ``2n + 1`` edges and has probability share at
    most ``1/4**n``; the ring partition cuts ``2*floor(n**(4/3))`` edges and
    has share at least ``(1/5) / 4**(9 n**(5/6))``. All three quantities are
    returned as exact-formula log2 values.
    """
    if n < 1:
        raise CounterexampleError("family index must be positive")
    root56 = float(n) ** (5.0 / 6.0)
    log2_5 = math.log2(5.0)
    cut2 = 2 * floor_pow_4_3(n)
    return LogBoundSummary(
        n=n,
        log2_share1_upper=-2.0 * n,
        log2_share2_lower=-log2_5 - 18.0 * root56,
        log2_ratio_upper=log2_5 + 18.0 * root56 - 2.0 * n,
        cut_size1=2 * n + 1,
        cut_size2=cut2,
        cut_ratio=Fraction(2 * n + 1, cut2),
    )


def ratio_bound_threshold() -> int:
    """Smallest ``n`` with ``log2(5) + 18 n^(5/6) - 2n < 0``.

    Solved with 40 significant decimal digits (about 133 bits) by bisection
    plus an integer scan; the value is deterministic and serves as a frozen
    regression constant.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        log2_5 = Decimal(5).ln() / Decimal(2).ln()

        def f(x):
            return log2_5 + 18 * Decimal(x) ** (Decimal(5) / 6) - 2 * Decimal(x)

        lo, hi = 1, 1
        while f(hi) >= 0:
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if f(mid) >= 0:
                lo = mid
            else:
                hi = mid
        # hi is the first integer with f(hi) < 0; confirm adjacency exactly.
        if not (f(hi) < 0 <= f(hi - 1)):
            raise CounterexampleError("threshold bisection failed to localize")
        return hi


def bound_step_implication_early(n: int, i: int) -> list[tuple[str, bool]]:
    """Integer cross-multiplication chain for the early induction phase.

    For ``1 <= i <= floor(sqrt(n)/2)`` (equivalently ``4 i^2 <= n``), each
    listed consequence must hold; together they justify
    ``(2n + 2i + 2)/(ni + 3n + 2i + 2) <= 2/(i + 2)``, the step that carries
    the bound from index ``i - 1`` to ``i``. All arithmetic is on integers.
    """
    if i < 1:
        raise CounterexampleError("phase index must be at least 1")
    if 4 * i * i > n:
        raise CounterexampleError(
            f"early phase needs 4*i^2 <= n; got n={n}, i={i}"
        )
    return [
        ("i^2 + i <= n", i * i + i <= n),
        ("2i^2 + 2i <= 2n", 2 * i * i + 2 * i <= 2 * n),
        (
            "2ni + 2i^2 + 2i + 4n + 4i + 4 <= 2ni + 6n + 4i + 4",
            2 * n * i + 2 * i * i + 2 * i + 4 * n + 4 * i + 4
            <= 2 * n * i + 6 * n + 4 * i + 4,
        ),
        (
            "(2n + 2i + 2)(i + 2) <= 2(ni + 3n + 2i + 2)",
            (2 * n + 2 * i + 2) * (i + 2) <= 2 * (n * i + 3 * n + 2 * i + 2),
        ),
    ]


def bound_step_implication_late(s: Fraction) -> list[tuple[str, bool]]:
    """Rational cross-multiplication chain for the late induction phase.

    ``s`` stands for ``sqrt(n)`` and must satisfy ``s >= 1`` (that is,
    ``1/s <= 1``). Each consequence must hold; together they justify the
    absorbing bound ``r_i <= 2/(s/2 + 2)`` once the early phase has been
    exhausted. All arithmetic is exact on rationals.
    """
    s = Fraction(s)
    if s < 1:
        raise CounterexampleError("late phase needs s >= 1")
    inv = 1 / s
    inv2 = inv * inv
    lhs_mid = s + Fraction(1, 2) + 2 * inv + 4 + 2 * inv + 8 * inv2
    rhs_mid = s + 8 + 2 * inv + 8 * inv2
    return [
        ("2/s <= 7/2", 2 * inv <= Fraction(7, 2)),
        (
            "s + 1/2 + 2/s + 4 + 2/s + 8/s^2 <= s + 8 + 2/s + 8/s^2",
            lhs_mid <= rhs_mid,
        ),
        (
            "(2 + 1/s + 4/s^2)(s/2 + 2) <= 2(s/2 + 4 + 1/s + 4/s^2)",
            (2 + inv + 4 * inv2) * (s / 2 + 2)
            <= 2 * (s / 2 + 4 + inv + 4 * inv2),
        ),
    ]


def recurrence_bound_step(n: int, i: int) -> bool:
    """One exact inductive step: feeding the claimed bound at ``i - 1`` into
    the recurrence lands within the claimed bound at ``i``.

    Uses exact rationals throughout, so this directly certifies the induction
    for the given ``(n, i)`` pair (``i >= 1``).
    """
    if n < 1 or i < 1:
        raise CounterexampleError("need n >= 1 and i >= 1")
    prev = _claim_bound(n, i - 1)
    step = 1 / (1 + 1 / (prev + Fraction(2, n)))
    return step <= _claim_bound(n, i)
