"""Families showing the score bounds need bounded vertex and face degrees.

The ladder tree numbers are checked against the determinant counter, the
resistance recurrence against direct rational iteration, and each inductive
implication chain against brute-forced premises.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treescore
from treescore import (
    CounterexampleError,
    bound_step_implication_early,
    bound_step_implication_late,
    count_spanning_trees,
    floor_pow_4_3,
    grid_tree_number,
    make_grid,
    ratio_bound_threshold,
    recurrence_bound_step,
    resistance_fixed_point,
    unbounded_degree_log_bounds,
    unbounded_degree_resistances,
    unbounded_face_scores,
)


def test_ladder_numbers_match_determinant():
    for n in range(1, 11):
        assert grid_tree_number(n) == int(count_spanning_trees(make_grid(n, 2)))


def test_ladder_recurrence():
    assert [grid_tree_number(n) for n in range(7)] == [0, 1, 4, 15, 56, 209, 780]
    for n in range(2, 30):
        assert grid_tree_number(n) == 4 * grid_tree_number(n - 1) - grid_tree_number(n - 2)
    with pytest.raises(ValueError):
        grid_tree_number(-1)


def test_face_family_smallest_case():
    fam = unbounded_face_scores(2)
    assert fam.prefactor1 == 16
    assert fam.prefactor2 == 18
    assert fam.score_ratio == Fraction(8, 9)
    assert fam.shared_index == 8
    assert fam.score1() == 16 * grid_tree_number(8)
    assert fam.score2() == 18 * grid_tree_number(8)
    assert fam.ratio_bound_ok
    assert fam.cut_size1 == 3
    assert fam.cut_size2 == 4


def test_face_family_scores_factor_correctly():
    for n in (2, 4):
        fam = unbounded_face_scores(n)
        assert Fraction(fam.score1(), fam.score2()) == fam.score_ratio
        assert fam.score_ratio == Fraction(fam.prefactor1, fam.prefactor2)


def test_face_family_ratio_bound():
    previous = None
    for n in range(2, 21, 2):
        fam = unbounded_face_scores(n)
        assert fam.ratio_bound == Fraction(1, n - 1)
        assert fam.score_ratio <= fam.ratio_bound
        assert fam.ratio_bound_ok
        if previous is not None:
            assert fam.score_ratio < previous
        previous = fam.score_ratio


def test_face_family_cut_ratio_shrinks():
    for n in range(2, 21, 2):
        fam = unbounded_face_scores(n)
        assert fam.cut_size2 == 2 * n
        assert fam.cut_ratio == Fraction(3, 2 * n)


def test_face_family_rejects_odd_and_small():
    for bad in (-2, 0, 1, 3, 7):
        with pytest.raises(CounterexampleError):
            unbounded_face_scores(bad)


def test_face_family_json():
    blob = unbounded_face_scores(4).to_json()
    assert blob["n"] == 4
    num, den = blob["score-ratio"].split("/")
    assert Fraction(int(num), int(den)) == Fraction(3136, 9410)
    assert blob["ratio-bound-ok"] is True


def test_resistance_chain_holds_and_decreases():
    chain = unbounded_degree_resistances(16, 80)
    assert chain.holds
    assert chain.first_failure is None
    # values[0] is the seed, values[i] the i-th iterate
    assert len(chain.values) == 81
    assert chain.values[0] == float(chain.seed)
    # non-increasing throughout, strictly decreasing before convergence
    assert all(b - a >= 0 for a, b in zip(chain.values[1:], chain.values))
    assert all(b - a > 0 for a, b in zip(chain.values[1:12], chain.values))


def test_resistance_chain_oracle_iteration():
    """Direct rational iteration must match the reported floats."""
    n, steps = 30, 25
    chain = unbounded_degree_resistances(n, steps)
    r = Fraction(4, 5)
    for i in range(1, steps + 1):
        r = 1 / (1 + 1 / (r + Fraction(2, n)))
        assert float(r) == pytest.approx(chain.values[i], abs=1e-15)
        limit = Fraction(2, min(i, 2) + 2)  # isqrt(30) // 2 == 2
        assert (r <= limit) == chain.bound_ok[i]


def test_resistance_chain_converges_to_fixed_point():
    chain = unbounded_degree_resistances(100, 600)
    fp = resistance_fixed_point(100)
    assert fp == pytest.approx(0.131774468788, abs=5e-13)
    assert chain.fixed_point == fp
    assert chain.values[-1] == pytest.approx(fp, abs=1e-12)
    # the fixed point satisfies r = 1/(1 + 1/(r + 2/n)) exactly
    assert fp == pytest.approx(1 / (1 + 1 / (fp + 0.02)), abs=1e-15)


def test_resistance_chain_other_seeds_hold():
    rng = random.Random(7)
    for _ in range(5):
        den = rng.randrange(6, 50)
        num = rng.randrange(1, int(den * 0.8) + 1)
        chain = unbounded_degree_resistances(16, 40, r0=Fraction(num, den))
        assert chain.holds, (num, den)


def test_resistance_chain_rejects_bad_seed():
    for bad in (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(-1, 2)):
        with pytest.raises(CounterexampleError):
            unbounded_degree_resistances(16, 10, r0=bad)


def test_resistance_chain_float_phase_agrees_with_exact():
    full = unbounded_degree_resistances(100, 60, exact_limit=10_000)
    early = unbounded_degree_resistances(100, 60, exact_limit=5)
    for a, b in zip(full.values, early.values):
        assert a == pytest.approx(b, abs=1e-13)
    assert early.holds


def test_resistance_chain_json():
    blob = unbounded_degree_resistances(16, 80).to_json()
    assert blob["n"] == 16
    assert blob["holds"] is True
    assert blob["iterations"] == 80


def test_floor_pow_4_3_exact():
    for n in range(1, 80):
        k = floor_pow_4_3(n)
        assert k**3 <= n**4 < (k + 1) ** 3
    big = floor_pow_4_3(10**6)
    assert big**3 <= (10**6) ** 4 < (big + 1) ** 3


def test_log_bounds_shape():
    lb = unbounded_degree_log_bounds(100)
    assert lb.log2_share1_upper == -200.0
    assert lb.cut_size1 == 201
    assert lb.cut_size2 == 2 * floor_pow_4_3(100)
    assert lb.cut_ratio == Fraction(201, 2 * floor_pow_4_3(100))
    assert lb.log2_ratio_upper == pytest.approx(
        lb.log2_share1_upper - lb.log2_share2_lower
    )


def test_ratio_bound_threshold_regression():
    t = ratio_bound_threshold()
    assert t == 531448
    assert unbounded_degree_log_bounds(t).log2_ratio_upper < 0
    assert unbounded_degree_log_bounds(t - 1).log2_ratio_upper >= 0


def test_early_implication_chain():
    for n in (16, 100, 10_000):
        top = 1
        while 4 * (top + 1) ** 2 <= n:
            top += 1
        for i in range(1, top + 1):
            lines = bound_step_implication_early(n, i)
            assert len(lines) == 4
            assert all(ok for _, ok in lines)
    with pytest.raises(CounterexampleError):
        bound_step_implication_early(16, 0)
    with pytest.raises(CounterexampleError):
        bound_step_implication_early(16, 3)  # 4 * 9 > 16


def test_late_implication_chain():
    for s in (Fraction(1), Fraction(4), Fraction(10), Fraction(100), Fraction(7, 2)):
        lines = bound_step_implication_late(s)
        assert len(lines) == 3
        assert all(ok for _, ok in lines)
    with pytest.raises(CounterexampleError):
        bound_step_implication_late(Fraction(1, 2))


def test_recurrence_bound_step_sweep():
    for n in (16, 100, 1000):
        for i in range(1, 30):
            assert recurrence_bound_step(n, i)


def test_runs_without_mpmath():
    # The high-precision phase and the threshold use the standard library only.
    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "import treescore\n"
        "from treescore.cli import main\n"
        "from treescore.counterexample import ratio_bound_threshold\n"
        "assert ratio_bound_threshold() == 531448\n"
        "sys.exit(main(['counterexample', '--theorem', '3.4', '--n', '10', '--i-max', '10010']))\n"
    )
    src = str(Path(treescore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    chain = json.loads(proc.stdout)["resistances"]
    assert chain["holds"] is True and chain["iterations"] == 10010
