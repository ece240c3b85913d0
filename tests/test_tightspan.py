import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypactions.errors import BudgetExceeded
from hypactions.metrics import (
    FiniteMetricSpace,
    four_point_delta,
    random_rational_metric,
    random_tree_metric,
)
from hypactions.tightspan import (
    hull_sample_delta,
    is_admissible,
    is_extremal,
    kuratowski_embed,
    project_to_hull,
    sup_distance,
)
from oracles import hull_sweep_fractions

THREE_POINT = FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
FOUR_CYCLE = FiniteMetricSpace([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
CAP = 10**6  # quadruples a hull sample scan may take, above every sample's n^4 here


def test_kuratowski_examples():
    one_point = FiniteMetricSpace([[0]])
    assert kuratowski_embed(0, one_point) == (0,)
    two_point = FiniteMetricSpace([[0, 3], [3, 0]])
    assert kuratowski_embed(0, two_point) == (0, 3)
    for i in range(3):
        for j in range(3):
            d = sup_distance(kuratowski_embed(i, THREE_POINT), kuratowski_embed(j, THREE_POINT))
            assert d == THREE_POINT.rows[i][j]


def _isometric_pairs(rows):
    """Pairs j < i with sup_t |d(i, t) - d(j, t)| = d(i, j), the count the
    tightspan experiment takes of each random metric."""
    return sum(sup_distance(r, s) == r[j] for i, r in enumerate(rows) for j, s in enumerate(rows[:i]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32))
def test_random_rational_metric_is_quarter_integers_exact_in_float64(n, seed):
    rows = random_rational_metric(n, random.Random(seed)).rows
    for i, row in enumerate(rows):
        assert row[i] == 0
        for j, v in enumerate(row):
            assert type(v) is float and (4 * v).is_integer() and 0 <= 4 * v <= 80
            assert v == rows[j][i]
    exact = [[Fraction(v) for v in row] for row in rows]
    assert _isometric_pairs(rows) == _isometric_pairs(exact) == n * (n - 1) // 2


def test_kuratowski_is_extremal():
    for i in range(3):
        ok, slack = is_extremal(kuratowski_embed(i, THREE_POINT), THREE_POINT)
        assert ok and slack == 0


def test_is_extremal_shifted():
    # shifting by +1 moves both f and its conjugate, so the slack is 2
    f = kuratowski_embed(0, THREE_POINT)
    shifted = tuple(v + 1 for v in f)
    ok, slack = is_extremal(shifted, THREE_POINT)
    assert not ok and slack == 2


def test_tripod_center():
    # the center of the tripod spanned by a 3-point space has f(x) = (y, z)_x
    d = THREE_POINT.rows
    center = (
        Fraction(d[0][1] + d[0][2] - d[1][2], 2),
        Fraction(d[1][0] + d[1][2] - d[0][2], 2),
        Fraction(d[2][0] + d[2][1] - d[0][1], 2),
    )
    assert center == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
    ok, slack = is_extremal(center, THREE_POINT)
    assert ok and slack == 0
    # all three admissibility constraints are tight at the center
    for i in range(3):
        for j in range(i + 1, 3):
            assert center[i] + center[j] == d[i][j]


def test_project_fixes_extremal_points():
    for i in range(3):
        f = kuratowski_embed(i, THREE_POINT)
        out, steps = project_to_hull(f, THREE_POINT)
        assert out == f and steps == 3
        assert is_extremal(out, THREE_POINT) == (True, 0)


def test_project_two_point_shift():
    X = FiniteMetricSpace([[0, 3], [3, 0]])
    out, steps = project_to_hull((1.0, 4.0), X)
    assert out == (0.0, 3.0) and steps == 2
    assert is_extremal(out, X) == (True, 0)


def test_an_isometry_moves_a_projection_to_a_hull_point():
    # the 3-cycle phi is an isometry of the equilateral space; f o phi^-1
    # moves a function along it.  The sweep visits the points in order, so
    # it does not commute with phi; the moved projection is still a hull
    # point below the moved start
    X = FiniteMetricSpace([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    phi = [1, 2, 0]
    move = lambda f: tuple(f[phi.index(t)] for t in range(3))
    start = (Fraction(9, 10), Fraction(4, 5), Fraction(7, 10))
    proj_then_move = move(project_to_hull(start, X)[0])
    move_then_proj = project_to_hull(move(start), X)[0]
    assert proj_then_move == (Fraction(7, 10), Fraction(3, 10), Fraction(7, 10))
    assert move_then_proj == (Fraction(1, 5), Fraction(4, 5), Fraction(4, 5))
    assert is_extremal(proj_then_move, X) == (True, 0)
    assert is_extremal(move_then_proj, X) == (True, 0)
    assert all(o <= s for o, s in zip(proj_then_move, move(start)))


def test_project_random_admissible_on_four_cycle():
    rng = random.Random(1)
    for _ in range(25):
        base = kuratowski_embed(rng.randrange(4), FOUR_CYCLE)
        start = [v + math.floor(13 * rng.random()) / 4 for v in base]
        out, steps = project_to_hull(start, FOUR_CYCLE)
        assert is_extremal(out, FOUR_CYCLE) == (True, 0) and steps == 4
        assert all(o <= s for o, s in zip(out, start))


def test_project_rejects_inadmissible():
    with pytest.raises(ValueError):
        project_to_hull((0.0, 0.0), FiniteMetricSpace([[0, 3], [3, 0]]))


def test_extremal_functions_are_one_lipschitz():
    rng = random.Random(7)
    for _ in range(10):
        X = random_rational_metric(5, rng)
        start = [v + math.floor(9 * rng.random()) / 4 for v in X.rows[0]]
        f, _ = project_to_hull(start, X)
        for i in range(5):
            for j in range(5):
                assert abs(f[i] - f[j]) <= X.rows[i][j]


def test_project_lands_exactly_below_an_exact_start():
    f = (Fraction(3), Fraction(5), Fraction(4))
    out, _ = project_to_hull(f, THREE_POINT)
    assert out == (0, 2, 3)
    # an integer start stays in integers
    ints, steps = project_to_hull((3, 5, 4), THREE_POINT)
    assert ints == (0, 2, 3) and steps == 3
    assert all(type(v) is int for v in ints)
    ok, slack = is_extremal(out, THREE_POINT)
    assert ok and slack == 0
    assert all(o <= v for o, v in zip(out, f))
    assert is_admissible(out, THREE_POINT)
    with pytest.raises(ValueError):
        project_to_hull((Fraction(0), Fraction(0), Fraction(0)), THREE_POINT)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(n=st.integers(1, 32), seed=st.integers(0, 2**32))
def test_project_on_quarter_integers_equals_the_fraction_sweep(n, seed):
    # the experiment's start: a row of a random rational metric plus
    # quarter-integer noise in [0, 3]
    rng = random.Random(seed)
    X = random_rational_metric(n, rng)
    start = [v + math.floor(rng.random() * 13) / 4 for v in X.rows[rng.randrange(n)]]
    out, steps = project_to_hull(start, X)
    assert steps == n
    assert out == hull_sweep_fractions(start, X.rows)
    assert all(type(v) is float for v in out)
    assert is_extremal(out, X) == (True, 0)
    assert is_admissible(out, X)
    assert all(o <= s for o, s in zip(out, start))


def test_project_refuses_an_inexact_float_start():
    # tenths are not dyadic: the float sweep rounds off the hull, while the
    # same start in Fractions lands on it
    with pytest.raises(ValueError, match="missed extremality by 2.22"):
        project_to_hull((0.2, 1.8, 3.0), THREE_POINT)
    out, _ = project_to_hull((Fraction(1, 5), Fraction(9, 5), Fraction(3)), THREE_POINT)
    assert out == (Fraction(1, 5), Fraction(9, 5), Fraction(14, 5))


def test_hull_sample_delta_tree_points():
    rng = random.Random(3)
    tree = random_tree_metric(7, rng)
    sample = [kuratowski_embed(i, tree) for i in range(tree.size)]
    est = hull_sample_delta(tree, sample, CAP)
    assert est.delta == 0.0
    assert hull_sample_delta(tree, sample, 7**4).quadruples_checked == 7**4
    with pytest.raises(BudgetExceeded, match=f"exceed cap {7**4 - 1}"):
        hull_sample_delta(tree, sample, 7**4 - 1)


def test_hull_sample_delta_single_point():
    est = hull_sample_delta(THREE_POINT, [kuratowski_embed(0, THREE_POINT)], CAP)
    assert est.delta == 0.0


def test_hull_sample_delta_four_cycle_filling():
    sample = [kuratowski_embed(i, FOUR_CYCLE) for i in range(4)]
    center, _ = project_to_hull([1.0, 1.0, 1.0, 1.0], FOUR_CYCLE)
    est = hull_sample_delta(FOUR_CYCLE, sample + [center], CAP)
    base = four_point_delta(FOUR_CYCLE)
    assert est.delta <= base.delta


def test_hull_sample_delta_rejects_non_extremal():
    bad = (10.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        hull_sample_delta(THREE_POINT, [bad], CAP)
