import math
import random
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypactions import metrics
from hypactions.cli import _delta_inputs, parse_config
from hypactions.errors import BudgetExceeded
from hypactions.groups import BSOracle, FreeGroupOracle
from hypactions.metrics import (
    FiniteMetricSpace,
    _bfs_metric,
    _index_dtype,
    _scan_dtype,
    cone_off,
    four_point_delta,
    free_ball_distance_matrix,
    gromov_product,
    graph_metric_matrix,
    induced_metric,
    quadruple_defect,
    random_rational_metric,
    random_tree_metric,
)
from hypactions.words import parse_word, tree_distance
from oracles import (
    adjacency_naive,
    basepoint_scan_naive,
    cone_off_edges_naive,
    coned_metric_naive,
    first_worst_point_nonzero,
    four_point_delta_basepoint,
    four_point_delta_naive,
    four_point_delta_sampled_naive,
    graph_metric_naive,
    quadruple_defect_naive,
    tree_metric_naive,
)

F2 = FreeGroupOracle(2)
BS23 = BSOracle(2, 3)
BS12 = BSOracle(1, 2)


def tree_dist(x, y):
    return float(tree_distance(x, y))


def test_gromov_product_examples():
    e = F2.identity()
    assert gromov_product(tree_dist, e, e, e) == 0.0
    x, y = parse_word("a^2"), parse_word("ab")
    assert gromov_product(tree_dist, x, y, e) == 1.0  # common prefix length
    # collinear: z endpoint, x between z and y
    z, x, y = e, parse_word("a"), parse_word("a^3")
    assert gromov_product(tree_dist, x, y, z) == tree_dist(z, x)


def test_gromov_product_on_ball_lengths():
    ball = F2.enumerate_ball(2)
    dist = lambda g, h: float(ball.lengths[ball.index[g.inverse() * h]])
    assert gromov_product(dist, parse_word("a"), parse_word("b"), F2.identity()) == 0.0
    assert gromov_product(dist, parse_word("a^2"), parse_word("ab"), F2.identity()) == 1.0


def test_gromov_product_identity():
    ball = F2.enumerate_ball(2)
    pts = ball.elements[:9]
    for x in pts:
        for y in pts:
            for z in pts:
                gp1 = gromov_product(tree_dist, x, y, z)
                gp2 = gromov_product(tree_dist, x, z, y)
                assert gp1 >= 0
                assert gp1 + gp2 == pytest.approx(tree_dist(y, z))


@pytest.mark.parametrize("rank, radius", [(2, r) for r in range(5)] + [(3, r) for r in range(4)] + [(130, 1), (1, 130)])
def test_free_ball_distance_matrix_is_the_tree_distance(rank, radius):
    ball = FreeGroupOracle(rank).enumerate_ball(radius)
    D = free_ball_distance_matrix(ball)
    assert D.dtype == np.float64
    assert D.tolist() == [[float(tree_distance(u, v)) for v in ball.elements] for u in ball.elements]


def test_free_ball_distance_matrix_off_the_standard_generators_is_the_in_ball_metric():
    ball = F2.enumerate_ball(2, gens=F2.symmetrize([parse_word("a"), parse_word("b"), parse_word("ab")]))
    D = free_ball_distance_matrix(ball)
    assert np.array_equal(D, graph_metric_matrix(ball))
    tree = np.array([[tree_distance(u, v) for v in ball.elements] for u in ball.elements])
    assert (len(ball), int((D != tree).sum())) == (31, 672)  # of 961 pairs


def test_free_ball_distance_matrix_memory_is_quadratic():
    ball = F2.enumerate_ball(6)
    tracemalloc.start()
    try:
        D = free_ball_distance_matrix(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.shape == (1457, 1457)
    assert peak < 60 * 2**20  # an n^2 x width prefix product would take about 200 MB here


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_quadruple_defect_on_index_arrays_is_its_scalar_value_at_each_position(dtype):
    # the sampled oracle's array defects are what the witness checker gives
    # each quadruple, so a witness it reports replays to its raw_max
    rng = np.random.default_rng(5)
    D = rng.integers(0, 20, size=(9, 9)) if dtype is np.int64 else rng.random((9, 9)) * 20
    quads = rng.integers(0, 9, size=(4, 300))
    defects = quadruple_defect_naive(D, quads)
    assert defects.shape == (300,)
    assert defects.tolist() == [float(quadruple_defect(D, tuple(int(v) for v in q))) for q in quads.T]


def test_four_point_delta_tree_is_zero():
    ball = F2.enumerate_ball(3)
    D = free_ball_distance_matrix(ball)
    est = four_point_delta(D)
    assert est.delta == 0.0
    assert est.quadruples_checked == 53**4
    assert not est.sampled


def test_four_point_delta_four_cycle():
    rows = [
        [0, 1, 2, 1],
        [1, 0, 1, 2],
        [2, 1, 0, 1],
        [1, 2, 1, 0],
    ]
    est = four_point_delta(FiniteMetricSpace(rows))
    assert est.delta == four_point_delta_naive(rows) == 1.0
    assert quadruple_defect(np.array(rows, dtype=float), est.witness) == est.raw_max


def test_four_point_delta_three_points():
    rows = [[0, 2, 3], [2, 0, 4], [3, 4, 0]]
    est = four_point_delta(FiniteMetricSpace(rows))
    assert est.delta == 0.0
    assert est.raw_max == four_point_delta_naive(rows)


def test_four_point_delta_sampled_deterministic():
    ball = F2.enumerate_ball(4)
    D = free_ball_distance_matrix(ball)
    est1 = four_point_delta(D, mode="sampled", count=20_000, seed=11)
    est2 = four_point_delta(D, mode="sampled", count=20_000, seed=11)
    assert est1.delta == est2.delta == 0.0
    assert est1.witness == est2.witness
    assert est1.sampled and est1.seed == 11


def test_four_point_delta_budget():
    D = np.zeros((60, 60))
    with pytest.raises(BudgetExceeded):
        four_point_delta(D, quadruple_cap=10_000)


def test_four_point_delta_sampled_budget():
    # checked before the first draw, which would take seconds at 4 * 10^8
    with pytest.raises(BudgetExceeded, match="^400000000 ordered quadruples exceed cap 1000$") as exc:
        four_point_delta(np.zeros((3, 3)), mode="sampled", count=400_000_000, quadruple_cap=1000)
    assert exc.value.extent == {"points": 3}
    assert four_point_delta(np.zeros((3, 3)), mode="sampled", count=1000, quadruple_cap=1000).quadruples_checked == 1000


@pytest.fixture
def no_full_scan(monkeypatch):
    """`_first_worst_point`, the n^4/24 scan, raises when it is reached."""
    def full_scan(D):
        raise AssertionError("the exhaustive scan ran")

    monkeypatch.setattr(metrics, "_first_worst_point", full_scan)


@pytest.fixture
def full_scans(monkeypatch):
    """The matrices `_first_worst_point` is called on, in order."""
    calls, full_scan = [], metrics._first_worst_point
    monkeypatch.setattr(metrics, "_first_worst_point", lambda D: calls.append(D) or full_scan(D))
    return calls


@pytest.mark.parametrize("group, radius", [
    ({"kind": "free", "rank": 2}, 3),
    ({"kind": "free", "rank": 2}, 4),
    ({"kind": "bs", "m": 1, "n": 2}, 3),
    ({"kind": "bs", "m": 1, "n": 2}, 4),
    ({"kind": "bs", "m": 2, "n": 3}, 3),
])
def test_exhaustive_scan_matches_the_basepoint_scan_on_balls(group, radius, request):
    if group["kind"] == "free":  # a tree: the scan at basepoint 0 settles it
        request.getfixturevalue("no_full_scan")
    cfg = {"format": 1, "group": group, "experiment": "delta", "parameters": {"radius": radius},
           "budgets": {"quadruple_cap": 10**9}}
    _, D, _ = _delta_inputs(parse_config(cfg)[0])
    est = four_point_delta(D, quadruple_cap=10**9)
    assert (est.raw_max, est.witness) == four_point_delta_basepoint(D)
    assert est.quadruples_checked == D.shape[0] ** 4


# the diameter is 4 * scale: each side of where the scan leaves int8, int16
# and int32, and 31, whose sums of two distances overflow int8
@pytest.mark.parametrize("scale", [7, 8, 31, 2047, 2048, 2**27 - 1, 2**27])
def test_exhaustive_scan_is_exact_at_every_scan_width(scale):
    D = scale * graph_metric_matrix(BS23.enumerate_ball(2))
    est = four_point_delta(D)
    assert (est.raw_max, est.witness) == four_point_delta_basepoint(D)


# as for the exhaustive scan: each side of where the sampled scan leaves
# int8, int16 and int32; 300,000 quadruples span two draws and 20 blocks
@pytest.mark.parametrize("scale", [7, 8, 31, 2047, 2048, 2**27 - 1, 2**27])
def test_sampled_scan_is_exact_at_every_scan_width(scale):
    D = scale * graph_metric_matrix(BS23.enumerate_ball(2))
    est = four_point_delta(D, mode="sampled", count=300_000, seed=4)
    assert (est.raw_max, est.witness, est.seed, est.quadruples_checked) == four_point_delta_sampled_naive(D, 300_000, 4)


# tree metrics (edge weights 1..9) on at most 4 and at most 10 points, scaled
# so that 4 max|d| lands in the named scan type
TREE_SCALES = {np.int8: (4, 1), np.int16: (10, 32767 // (4 * 81)), np.int32: (10, 2**31 // (4 * 81))}


@st.composite
def sampled_scan_inputs(draw, kind):
    """(D, count, seed): a tree metric scaled to be scanned in the integer
    type `kind`, a dyadic rational metric for float64, or an all-zero matrix
    for "zero", with a count at or beside the block and draw boundaries."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "zero":
        D = np.zeros((draw(st.integers(1, 10)),) * 2)
    elif kind is np.float64:
        D = random_rational_metric(draw(st.integers(2, 10)), rng).as_array()
        assume((D % 1).any())
    else:
        most, scale = TREE_SCALES[kind]
        D = scale * random_tree_metric(draw(st.integers(2, most)), rng).as_array()
    count = draw(st.sampled_from([1, 16_383, 16_385, 250_000, 250_001, 600_000]))
    return D, count, draw(st.none() | st.integers(0, 2**32))


@pytest.mark.parametrize("kind", [np.int8, np.int16, np.int32, np.float64, "zero"],
                         ids=["int8", "int16", "int32", "float64", "zero"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_sampled_scan_matches_the_float64_oracle(kind, data):
    D, count, seed = data.draw(sampled_scan_inputs(kind))
    assert _scan_dtype(D) is (np.int8 if kind == "zero" else kind)
    est = four_point_delta(D, mode="sampled", count=count, seed=seed, quadruple_cap=count)
    assert (est.raw_max, est.witness, est.seed, est.quadruples_checked) == four_point_delta_sampled_naive(D, count, seed)
    assert est.delta == max(0.0, est.raw_max)
    assert quadruple_defect(D, est.witness) == est.raw_max
    if not D.any():  # every quadruple ties, so the first one drawn is the witness
        first = np.random.default_rng(est.seed).integers(0, D.shape[0], size=(4, min(count, 250_000)))[:, 0]
        assert est.witness == tuple(first.tolist())


@st.composite
def integer_distances(draw):
    """A symmetric integer matrix with zero diagonal; not necessarily a metric."""
    n = draw(st.integers(1, 9))
    D = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        D[i, j] = D[j, i] = draw(st.integers(-2, 8))
    return D


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_distances())
def test_exhaustive_scan_matches_both_oracles(D):
    est = four_point_delta(D)
    assert (est.raw_max, est.witness) == four_point_delta_basepoint(D)
    assert est.raw_max == four_point_delta_naive(D.tolist())
    assert est.delta == max(0.0, est.raw_max)
    assert est.quadruples_checked == D.shape[0] ** 4


@pytest.mark.parametrize("scale", [1, 10, 10**4, 10**9])  # scanned in int8, int16, int32, float64
def test_exhaustive_scan_finds_a_triangle_violation_through_a_repeated_point(scale):
    # b = 0, a = 1, c = 2, x = 3, y = 4: d(b, c) = 9 > d(b, a) + d(a, c) = 2,
    # so {a, a, b, c} is worth (9 - 2)/2; no four distinct points reach it
    D = scale * np.array([
        [0, 1, 9, 5, 5],
        [1, 0, 1, 1, 1],
        [9, 1, 0, 5, 5],
        [5, 1, 5, 0, 1],
        [5, 1, 5, 1, 0],
    ], dtype=float)
    distinct = max(
        (lambda s: (s[2] - s[1]) / 2)(sorted([D[x, y] + D[z, t], D[y, z] + D[x, t], D[x, z] + D[y, t]]))
        for x, y, z, t in combinations(range(5), 4)
    )
    est = four_point_delta(D)
    assert distinct < est.raw_max == 3.5 * scale
    assert (est.raw_max, est.witness) == four_point_delta_basepoint(D)
    assert est.witness[3] == 0
    assert quadruple_defect(D, est.witness) == est.raw_max


def test_exhaustive_scan_on_inexact_floats_agrees_up_to_rounding():
    # sums of thirds round, so the basepoint that first reaches the maximum
    # may differ; the value may differ in the last bits, and the witness
    # re-evaluates to it exactly
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 8)
        D = np.zeros((n, n))
        for i, j in combinations(range(n), 2):
            D[i, j] = D[j, i] = rng.randint(0, 30) / 3
        est = four_point_delta(D)
        assert est.raw_max == pytest.approx(four_point_delta_basepoint(D)[0], abs=1e-12)
        assert quadruple_defect(D, est.witness) == est.raw_max


@pytest.mark.parametrize("kind", [np.int8, np.int16, np.int32], ids=["int8", "int16", "int32"])
def test_a_tree_is_certified_at_basepoint_0_at_every_scan_width(kind, no_full_scan):
    most, scale = TREE_SCALES[kind]
    rng = random.Random(5)
    for _ in range(20):
        D = scale * random_tree_metric(rng.randint(2, most), rng).as_array()
        assert _scan_dtype(D) is kind
        est = four_point_delta(D)
        assert (est.raw_max, est.witness) == four_point_delta_basepoint(D) == (0.0, (0, 0, 0, 0))


def test_exhaustive_f2_r5_needs_only_the_basepoint_0_scan(no_full_scan):
    # 485 points: the n^4/24 scan takes seconds, one basepoint a fraction of one
    D = free_ball_distance_matrix(F2.enumerate_ball(5))
    est = four_point_delta(D, quadruple_cap=10**11)
    assert (est.delta, est.raw_max, est.witness, est.quadruples_checked) == (0.0, 0.0, (0, 0, 0, 0), 485**4)


def test_a_float_tree_takes_the_full_scan(full_scans):
    # half-integer weights are exact in float64, but only an integer scan is
    # trusted to certify: float distances go through the n^4/24 scan
    rng = random.Random(6)
    trees = [random_tree_metric(rng.randint(2, 8), rng).as_array() / 2 for _ in range(20)]
    trees = [D for D in trees if (D % 1).any()]  # some weight is odd
    for D in trees:
        assert _scan_dtype(D) is np.float64
        est = four_point_delta(D)
        assert (est.raw_max, est.witness) == four_point_delta_basepoint(D) == (0.0, (0, 0, 0, 0))
    assert len(full_scans) == len(trees) > 10


def test_a_positive_defect_at_basepoint_0_takes_the_full_scan(full_scans):
    D = graph_metric_matrix(BS12.enumerate_ball(3))
    est = four_point_delta(D)
    assert est.raw_max > 0
    assert (est.raw_max, est.witness) == four_point_delta_basepoint(D)
    assert len(full_scans) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_distances())
def test_every_defect_is_at_most_twice_the_worst_at_basepoint_0(D):
    """delta <= 2 delta_0 with no triangle inequality: with K(a, b) = (a.b)_0,

        (x.y)_t = (x.y)_0 + d(t, 0) - (x.t)_0 - (y.t)_0

    is algebra on a symmetric D with zero diagonal, so the defect of
    (x, y, z, t) is min(K(x,y) + K(z,t), K(y,z) + K(x,t)) - K(x,z) - K(y,t),
    and four triples of the scan at 0 bound it by 2 delta_0.  The inputs
    break the triangle inequality and hold negative distances."""
    at_0 = metrics.basepoint_scan(D, 0)[0]
    assert four_point_delta_naive(D.tolist()) <= 2 * at_0


SCAN_KINDS = [np.int8, np.int16, np.int32]


def at_the_limit(D, kind, past):
    """D scaled so that 4 max|d| is at most the largest value of `kind`, or,
    when `past`, one scale step beyond it."""
    most = float(np.abs(D).max())
    if not most:
        return D
    return D * (np.iinfo(kind).max // int(4 * most) + past)


def assert_basepoint_scans_match_the_oracle(D):
    """Every basepoint's scan and the basepoint-0 certificate equal the
    float64 Gromov-product scan, value and witness bit for bit."""
    for l in range(D.shape[0]):
        assert metrics.basepoint_scan(D, l) == basepoint_scan_naive(D, l)
    assert metrics._zero_at_basepoint_0(D.astype(_scan_dtype(D))) == (basepoint_scan_naive(D, 0)[0] <= 0)


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
@pytest.mark.parametrize("kind", SCAN_KINDS, ids=["int8", "int16", "int32"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(D=integer_distances())
def test_basepoint_scan_matches_the_float64_oracle_at_each_side_of_every_scan_width(D, kind, past):
    # negative entries and triangle violations, scaled to the edge of the type
    D = at_the_limit(D, kind, past)
    if D.any():
        assert (_scan_dtype(D) is kind) != past
    assert_basepoint_scans_match_the_oracle(D)


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
@pytest.mark.parametrize("kind", SCAN_KINDS, ids=["int8", "int16", "int32"])
def test_basepoint_scan_matches_the_float64_oracle_on_trees_at_each_side_of_every_scan_width(kind, past):
    most = TREE_SCALES[kind][0]
    rng = random.Random(8)
    for _ in range(10):
        D = at_the_limit(random_tree_metric(rng.randint(2, most), rng).as_array(), kind, past)
        assert (_scan_dtype(D) is kind) != past
        assert_basepoint_scans_match_the_oracle(D)


@pytest.mark.parametrize("sign", [1, -1], ids=["top", "bottom"])
@pytest.mark.parametrize("most", [31, 32, 8191, 8192, 2**29 - 1, 2**29])
def test_basepoint_scan_reaches_four_times_the_largest_distance(most, sign):
    # with l = 0: d(0, 2) = d(1, 3) = M and every other distance -M make
    # both terms of twice the defect of (1, 2, 3, 0) 4M, and -4M negated;
    # M = 31, 8191 and 2^29 - 1 are the last scanned in int8, int16, int32
    D = sign * most * np.array([
        [0, -1, 1, -1],
        [-1, 0, -1, 1],
        [1, -1, 0, -1],
        [-1, 1, -1, 0],
    ], dtype=float)
    assert quadruple_defect_naive(D, (1, 2, 3, 0)) == sign * 2 * most
    if sign > 0:
        assert basepoint_scan_naive(D, 0) == (2.0 * most, (1, 2, 3, 0))
    assert_basepoint_scans_match_the_oracle(D)


def test_basepoint_scan_on_inexact_floats_is_bit_identical():
    # sums of thirds round, but twice a product rounds as the product does
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(4, 8)
        D = np.zeros((n, n))
        for i, j in combinations(range(n), 2):
            D[i, j] = D[j, i] = rng.randint(0, 30) / 3
        assert _scan_dtype(D) is np.float64
        assert_basepoint_scans_match_the_oracle(D)


@pytest.mark.parametrize("group, radius", [
    ({"kind": "free", "rank": 2}, 3),
    ({"kind": "bs", "m": 1, "n": 2}, 3),
    ({"kind": "bs", "m": 1, "n": 2}, 4),
    ({"kind": "bs", "m": 2, "n": 3}, 3),
])
def test_first_worst_point_matches_the_nonzero_scan_on_balls(group, radius):
    cfg = {"format": 1, "group": group, "experiment": "delta", "parameters": {"radius": radius}}
    _, D, _ = _delta_inputs(parse_config(cfg)[0])
    assert metrics._first_worst_point(D.astype(_scan_dtype(D))) == first_worst_point_nonzero(D)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(integer_distances())
def test_first_worst_point_matches_the_nonzero_scan(D):
    assert metrics._first_worst_point(D.astype(_scan_dtype(D))) == first_worst_point_nonzero(D)


@pytest.mark.parametrize("entries, dtype", [
    (2**31 - 1, np.int32),
    (2**31, np.int32),  # the largest index, 2^31 - 1, still fits
    (2**31 + 1, np.int64),
])
def test_sampled_indices_are_int32_while_every_flat_index_fits(entries, dtype):
    assert _index_dtype(entries) is dtype


@pytest.mark.parametrize("D, message", [
    (np.zeros((2, 3)), "square"),
    (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
    (np.array([[1.0, 1.0], [1.0, 0.0]]), "diagonal"),
    (np.array([[0.0, math.inf], [math.inf, 0.0]]), "finite"),
], ids=["non-square", "asymmetric", "nonzero-diagonal", "infinite"])
def test_four_point_delta_rejects_what_the_identity_does_not_cover(D, message):
    with pytest.raises(ValueError, match=message):
        four_point_delta(D)


def test_finite_metric_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 5], [5, 1]])  # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace([[0, 1, 9], [1, 0, 1], [9, 1, 0]])  # triangle fails


@pytest.mark.parametrize("rows", [[[0, 1], [1.0000000000001, 0]], [[1e-13, 1], [1, 0]]],
                         ids=["asymmetric-by-1e-13", "diagonal-1e-13"])
def test_metric_validation_and_the_four_point_scan_apply_one_rule(rows):
    with pytest.raises(ValueError):
        FiniteMetricSpace(rows)
    with pytest.raises(ValueError):
        four_point_delta(np.array(rows, dtype=float))


def cyclic_orbit(oracle, ball, word):
    """The powers h^k, k in [-radius, radius], of h = word that lie in the ball."""
    h = oracle.parse_element(word)
    orbit = []
    for step in (h, h.inverse()):
        g = oracle.identity()
        for _ in range(ball.radius + 1):
            if g in ball.index and g not in orbit:
                orbit.append(g)
            g = g * step
    return orbit


def table_lists(table):
    """The neighbour lists of a -1 padded neighbour table."""
    return [[j for j in row if j >= 0] for row in np.asarray(table).tolist()]


@pytest.mark.parametrize(
    "table",
    [np.zeros((0, 1), np.int32), [[-1]], [[1], [0], [-1]], [[1, -1], [0, 2], [1, -1], [4, -1], [3, -1]]],
    ids=["empty", "point", "edge-and-point", "path-and-edge"],
)
def test_graph_metric_unreachable_pairs_match_naive(table):
    table = np.array(table, dtype=np.int32)
    D = graph_metric_matrix(SimpleNamespace(adjacency=lambda: table))
    assert D.dtype == np.float64 and D.shape == (len(table), len(table))
    assert D.tolist() == graph_metric_naive(table_lists(table))


@st.composite
def neighbour_tables(draw):
    """A directed graph on n <= 70 vertices as a -1 padded table of width <= 4,
    split into `parts` classes v mod parts that no edge joins, so several
    components and isolated vertices are common."""
    n = draw(st.integers(0, 70))
    k = draw(st.integers(0, 4))
    parts = draw(st.integers(1, 4))
    entries = draw(st.lists(st.one_of(st.just(-1), st.integers(0, max(n - 1, 0))), min_size=n * k, max_size=n * k))
    table = np.full((n, k), -1, dtype=np.int32)
    for pos, e in enumerate(entries):
        v = pos // k
        e -= (e - v) % parts  # the nearest vertex <= e in v's class
        table[v, pos % k] = e if e >= 0 else -1
    return table


@settings(max_examples=100, deadline=None)
@given(neighbour_tables())
def test_bfs_metric_matches_naive_on_random_tables(table):
    assert _bfs_metric(table).tolist() == graph_metric_naive(table_lists(table))


@settings(max_examples=100, deadline=None)
@given(neighbour_tables(), st.data())
def test_induced_metric_matches_naive_on_random_masks(table, data):
    n = len(table)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    A = np.zeros((n, n), dtype=bool)
    for v, row in enumerate(table_lists(table)):
        A[v, row] = True
    induced = [[u for u in row if keep[u]] if keep[v] else [] for v, row in enumerate(table_lists(table))]
    expected = [[d if keep[x] and keep[y] else math.inf for y, d in enumerate(row)]
                for x, row in enumerate(graph_metric_naive(induced))]
    assert induced_metric(A, keep).tolist() == expected


def test_rank_one_free_ball_has_distances_past_uint8():
    # a^-130, ..., a^130 is a path of 261 vertices: distances reach 260
    Z = FreeGroupOracle(1)
    ball = Z.enumerate_ball(130)
    power = [sum(g.signed) for g in ball.elements]
    D = graph_metric_matrix(ball)
    assert D.tolist() == [[abs(i - j) for j in power] for i in power]
    assert D.max() == 260
    orbit = [Z.identity()]
    allowed = [abs(i) > 0 for i in power]
    res = cone_off(ball, orbit, 0)
    assert res.new_edges.tolist() == [list(e) for e in cone_off_edges_naive(adjacency_naive(ball), D.tolist(), allowed)]


@pytest.mark.parametrize("A", [0, 1, 2])
@pytest.mark.parametrize(
    "oracle, radius, word",
    [(F2, 3, "a"), (F2, 4, "a"), (BS23, 4, "a"), (BS23, 4, "t"), (BS12, 4, "at")],
    ids=["F2-R3-a", "F2-R4-a", "BS23-R4-a", "BS23-R4-t", "BS12-R4-at"],
)
def test_graph_metric_and_cone_off_match_naive(oracle, radius, word, A):
    ball = oracle.enumerate_ball(radius)
    orbit = cyclic_orbit(oracle, ball, word)
    adj = adjacency_naive(ball)
    D0 = graph_metric_naive(adj)
    assert graph_metric_matrix(ball).tolist() == D0

    orbit_dist = [min(D0[ball.index[g]][v] for g in orbit) for v in range(len(ball))]
    allowed = [d > A for d in orbit_dist]
    res = cone_off(ball, orbit, A)
    assert res.orbit_distance == orbit_dist
    assert res.forbidden == [v for v, ok in enumerate(allowed) if not ok]
    # an m x 2 int array of the naive pairs, in their order
    assert res.new_edges.dtype.kind == "i" and res.new_edges.shape == (len(res.new_edges), 2)
    assert res.new_edges.tolist() == [list(e) for e in cone_off_edges_naive(adj, D0, allowed)]

    # the package's BFS of the coned graph, the path demo 08 takes, matches
    # the oracle; every distance is a finite int: the coned ball is connected
    coned = coned_metric_naive(adj, res.new_edges.tolist())
    coned_adj = np.array(coned) == 1
    assert induced_metric(coned_adj, np.ones(len(ball), bool)).tolist() == coned
    assert {type(v) for row in coned for v in row} == {int}


def test_cone_off_orbit_everything():
    for oracle in (F2, BS23):
        ball = oracle.enumerate_ball(3)
        res = cone_off(ball, ball.elements, 0)
        assert res.new_edges.shape == (0, 2)
        assert res.forbidden == list(range(len(ball)))
        assert res.orbit_distance == [0.0] * len(ball)
        D0 = graph_metric_matrix(ball)
        assert np.array_equal(coned_metric_naive(adjacency_naive(ball), res.new_edges.tolist()), D0)


def test_cone_off_empty_orbit_allows_every_vertex():
    # nothing is forbidden, so every pair at distance >= 2 gets an edge
    ball = BS23.enumerate_ball(3)
    n = len(ball)
    res = cone_off(ball, [], 1)
    assert res.orbit_distance == [math.inf] * n
    assert res.forbidden == []
    D0 = graph_metric_naive(adjacency_naive(ball))
    assert res.new_edges.tolist() == [[x, y] for x in range(n) for y in range(x + 1, n) if D0[x][y] >= 2]
    assert coned_metric_naive(adjacency_naive(ball), res.new_edges.tolist()) == [[int(x != y) for y in range(n)] for x in range(n)]


def test_cone_off_large_A_adds_nothing():
    ball = F2.enumerate_ball(3)
    orbit = [g for g in ball.elements if g.signed and set(g.signed) <= {1, -1}]
    orbit.append(F2.identity())
    res = cone_off(ball, orbit, ball.radius + 5)
    assert res.new_edges.shape == (0, 2)


def test_cone_off_axis_orbit():
    ball = F2.enumerate_ball(4)
    a = parse_word("a")
    orbit = [a**k for k in range(-4, 5)]
    res = cone_off(ball, orbit, 1)
    assert len(res.new_edges)  # far-from-axis vertices get shortcuts
    D0 = graph_metric_matrix(ball)
    Dnew = np.array(coned_metric_naive(adjacency_naive(ball), res.new_edges.tolist()))
    assert (Dnew <= D0 + 1e-12).all()  # coning never increases distances
    for x, y in res.new_edges:
        assert res.orbit_distance[x] > 1 and res.orbit_distance[y] > 1
        assert Dnew[x, y] == 1.0


def test_cone_off_zero_A_connects_bs():
    # b^2 and b^3 lie on a common geodesic avoiding <a>; with A = 0 the pair
    # is already adjacent, so the coned metric keeps their distance at 1
    ball = F2.enumerate_ball(4)
    a = parse_word("a")
    orbit = [a**k for k in range(-4, 5)]
    res = cone_off(ball, orbit, 0)
    b2, b3 = ball.index[parse_word("b^2")], ball.index[parse_word("b^3")]
    assert coned_metric_naive(adjacency_naive(ball), res.new_edges.tolist())[b2][b3] == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_random_tree_metric_is_the_walked_tree_distance(n):
    for seed in range(60):
        rng, naive = random.Random(seed), random.Random(seed)
        assert random_tree_metric(n, rng).rows == tree_metric_naive(n, naive)
        assert rng.random() == naive.random()  # the same draws, in the same order


def test_random_metric_generators():
    rng = random.Random(5)
    X = random_rational_metric(4, rng)
    X.validate()
    T = random_tree_metric(6, rng)
    T.validate()
    est = four_point_delta(T)
    assert est.delta == 0.0  # trees satisfy the four-point condition exactly
