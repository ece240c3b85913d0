import functools
import operator
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypactions import loxodromic
from hypactions.baumslag import BSElement
from hypactions.errors import NotLoxodromic
from hypactions.groups import BSOracle, FreeGroupOracle
from hypactions.loxodromic import (
    build_quasi_axis,
    compression_function,
    isotropy_probe,
    translation_length_estimate,
    translation_length_exact,
    tree_length,
)
from hypactions.words import FreeWord, parse_word, tree_distance
from oracles import isotropy_pairs_naive, isotropy_probe_naive, match_pair

F2 = FreeGroupOracle(2)
word_len = lambda g: float(len(g))


def test_translation_length_estimate_examples():
    est = translation_length_estimate(F2.identity(), word_len, 5)
    assert est.upper == 0.0
    est = translation_length_estimate(parse_word("ab"), word_len, 5)
    assert est.upper == 2.0 and est.trace == [2.0] * 5
    est = translation_length_estimate(parse_word("aba^-1"), word_len, 5)
    assert est.trace == [3.0, 2.0, 5.0 / 3.0, 1.5, 7.0 / 5.0]
    assert est.is_non_increasing()


def test_translation_length_exact():
    assert translation_length_exact(FreeWord.identity()) == 0
    assert translation_length_exact(parse_word("aba^-1")) == 1
    g = parse_word("ab^2ab")
    assert translation_length_exact(g) == 5
    assert len(g * g) == 10
    # on BS(2, 3) the Bass-Serre tree: t-exponent sum 0 does not make g elliptic
    bs = BSOracle(2, 3)
    expected = {"1": 0, "a": 0, "t": 1, "at": 1, "tat^-1": 0, "t^-1at": 0, "t^-1ata^-1": 2, "tata^-1": 2}
    assert {text: translation_length_exact(bs.parse_element(text)) for text in expected} == expected


def test_estimate_trace_law():
    # |g^n| = n*tau + (|g| - tau) exactly in free groups
    for text in ("aba^-1", "a^2ba^-2", "ab", "b^3"):
        g = parse_word(text)
        tau = translation_length_exact(g)
        est = translation_length_estimate(g, word_len, 6)
        for n, ratio in enumerate(est.trace, start=1):
            assert ratio * n == n * tau + (len(g) - tau)


def test_tau_power_and_conjugation_laws():
    g = parse_word("ab^2")
    tau = translation_length_exact(g)
    for k in range(1, 5):
        assert translation_length_exact(g**k) == k * tau
        assert translation_length_exact(g**-k) == k * tau
    for c in (parse_word("a"), parse_word("ba"), parse_word("ab^-1a")):
        assert translation_length_exact(g.conjugate_by(c)) == tau


def test_classify_isometry():
    # a positive exact translation length is the loxodromic certificate
    assert translation_length_exact(parse_word("ab")) == 2
    assert translation_length_exact(F2.identity()) == 0
    bs = BSOracle(2, 3)
    assert translation_length_exact(bs.parse_element("t")) == 1
    # t-exponent sum 0, yet loxodromic on the Bass-Serre tree
    g = bs.parse_element("t^-1ata^-1")
    assert g.t_exponent_sum() == 0
    assert translation_length_exact(g) == 2


TREE_GROUPS = {
    "F2": FreeGroupOracle(2),
    "F3": FreeGroupOracle(3),
    "BS(1,2)": BSOracle(1, 2),
    "BS(2,3)": BSOracle(2, 3),
    "BS(2,-3)": BSOracle(2, -3),
}
spellings = st.lists(st.integers(min_value=0, max_value=5), max_size=8)


def _spelled(oracle, picks):
    """The product of the symmetrized generators that `picks` index (mod their number)."""
    gens = oracle.symmetrize(oracle.generators())
    return functools.reduce(operator.mul, (gens[i % len(gens)] for i in picks), oracle.identity())


def _exponent_norm(g) -> int:
    """|sigma(g)| for a homomorphism sigma that moves 1 along each tree edge:
    the t-exponent sum on BS, the l1 norm of the exponent sums on F_k."""
    if isinstance(g, BSElement):
        return abs(g.t_exponent_sum())
    return sum(abs(sum(x // abs(x) for x in g.signed if abs(x) == i)) for i in set(map(abs, g.signed)))


@pytest.mark.parametrize("name", sorted(TREE_GROUPS))
@given(g=spellings, c=spellings)
def test_translation_length_is_conjugation_invariant(name, g, c):
    oracle = TREE_GROUPS[name]
    g, c = _spelled(oracle, g), _spelled(oracle, c)
    assert translation_length_exact(c * g * c.inverse()) == translation_length_exact(g)


@pytest.mark.parametrize("name", sorted(TREE_GROUPS))
@given(g=spellings, k=st.integers(min_value=-5, max_value=5))
def test_translation_length_is_homogeneous(name, g, k):
    g = _spelled(TREE_GROUPS[name], g)
    assert translation_length_exact(g**k) == abs(k) * translation_length_exact(g)


@pytest.mark.parametrize("name", sorted(TREE_GROUPS))
@given(g=spellings)
def test_translation_length_brackets_the_power_ratio(name, g):
    # |g^N|/N - l(g) lies in [0, 2|g|/N]: the subadditive ratio converges from above
    g, N = _spelled(TREE_GROUPS[name], g), 64
    assert 0 <= tree_length(g**N) - N * translation_length_exact(g) <= 2 * tree_length(g)


@pytest.mark.parametrize("name", sorted(TREE_GROUPS))
@given(g=spellings)
def test_translation_length_bounds_the_exponent_sum(name, g):
    g = _spelled(TREE_GROUPS[name], g)
    assert _exponent_norm(g) <= translation_length_exact(g)


def test_quasi_axis_examples():
    a = parse_word("a")
    axis = build_quasi_axis(a, 2)
    assert axis.points() == [a**k for k in range(-2, 3)]
    assert [t for t, _ in axis.vertices] == list(range(-2, 3))

    ab = parse_word("ab")
    axis = build_quasi_axis(ab, 1)
    expected = [ab.inverse(), parse_word("b^-1"), F2.identity(), a, ab]
    assert axis.points() == expected

    axis = build_quasi_axis(ab, 0)
    assert axis.points() == [F2.identity(), a, ab]

    with pytest.raises(ValueError):
        build_quasi_axis(ab, -1)


def test_compression_function():
    g = parse_word("ab")
    val = compression_function(g, word_len, word_len, 5)
    assert val.ratio == 1.0
    half = lambda w: 0.5 * len(w)
    val = compression_function(g, half, word_len, 5)
    assert val.ratio == 0.5
    with pytest.raises(NotLoxodromic):
        compression_function(F2.identity(), word_len, word_len, 5)


def test_compression_against_enlarged_genset():
    # adding ab as a generator halves the translation length of (ab)^k
    extra = F2.symmetrize([parse_word("a"), parse_word("b"), parse_word("ab")])
    ball = F2.enumerate_ball(6, gens=extra)
    compressed = lambda g: float(ball.lengths[ball.index[g]])
    val = compression_function(parse_word("ab"), compressed, word_len, 3)
    assert val.ratio == 0.5


def test_compression_invariant_under_powers():
    # with exact lengths the ratio is unchanged when g is replaced by g^k
    extra = F2.symmetrize([parse_word("a"), parse_word("b"), parse_word("ab")])
    ball = F2.enumerate_ball(8, gens=extra)
    compressed = lambda g: float(ball.lengths[ball.index[g]])
    g = parse_word("ab")
    base = compression_function(g, compressed, word_len, 4).ratio
    for k in (2, 3):
        horizon = 8 // (2 * k) or 1
        assert compression_function(g**k, compressed, word_len, horizon).ratio == base


def test_classify_isometry_sl2_certificate():
    from hypactions.sl2 import (
        RealEmbedding,
        classify,
        lemma_emb_matrix,
        mat2,
        orbit_distance_h2,
        parse_qfe,
        translation_length_h2,
    )

    minus = RealEmbedding(-1)
    A = lemma_emb_matrix(parse_qfe("sqrt2-1", 2))
    assert classify(A, minus) == "loxodromic"
    tau = translation_length_h2(A, minus)
    assert tau > 0
    est = translation_length_estimate(A, lambda M: orbit_distance_h2(M, minus), 4)
    assert est.upper >= tau - 1e-9
    assert classify(mat2([[0, -1], [1, 0]]), minus) == "elliptic"


def test_match_pair_trivial_cases():
    ball = F2.enumerate_ball(2)
    x, y = parse_word("a"), parse_word("ab")
    # identical target pair: the identity matches with cost 0
    c, g = match_pair(ball.elements, x, y, x, y, tree_distance)
    assert c == 0 and g == F2.identity()
    # translated target pair: equivariance gives an exact match at D = 0
    z = parse_word("b^-1")
    c, g = match_pair(ball.elements, x, y, z * x, z * y, tree_distance)
    assert c == 0 and g == z


def test_match_pair_incompatible_directions():
    # (1, a^2) and (1, ab) are equidistant pairs, but no g matches them at D=0:
    # gx = 1 and g a^2 = ab has no solution in the tree
    ball = F2.enumerate_ball(2)
    e = F2.identity()
    c, _ = match_pair(ball.elements, e, parse_word("a^2"), e, parse_word("ab"), tree_distance)
    assert c >= 1


def test_isotropy_probe_tree():
    ball = F2.enumerate_ball(2)
    report = isotropy_probe(ball, D=2.0, sample_size=6, seed=3)
    assert report.pairs_checked == 6
    assert 0.0 <= report.success_rate <= 1.0
    # the probe is reproducible
    again = isotropy_probe(ball, D=2.0, sample_size=6, seed=3)
    assert [r.best_constant for r in report.failures] == [r.best_constant for r in again.failures]
    # matched pairs are exactly equidistant
    assert all(tree_distance(r.x, r.y) == tree_distance(r.x2, r.y2) for r in report.failures)


@functools.lru_cache(maxsize=None)
def free_ball(rank, radius, gens=None):
    oracle = FreeGroupOracle(rank)
    return oracle.enumerate_ball(radius, gens=None if gens is None else [parse_word(w) for w in gens])


@functools.lru_cache(maxsize=None)
def naive_pairs(rank, radius):
    return isotropy_pairs_naive(free_ball(rank, radius).elements)


@pytest.mark.parametrize("D", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 3, 7, 42])
@pytest.mark.parametrize("rank, radius", [(2, r) for r in range(1, 6)] + [(3, r) for r in range(1, 5)])
def test_isotropy_probe_matches_the_word_oracle(rank, radius, seed, D):
    ball = free_ball(rank, radius)
    fast = isotropy_probe(ball, D=D, sample_size=12, seed=seed)
    naive = isotropy_probe_naive(ball, D=D, sample_size=12, seed=seed, by_distance=naive_pairs(rank, radius))
    assert repr(fast) == repr(naive)


@pytest.mark.parametrize("gens", [("ab", "b"), ("a^2", "ab^-1", "b^3")])
def test_isotropy_probe_on_a_ball_of_other_generators(gens):
    # BFS layers by these generators mix word lengths and are not prefix-closed
    ball = free_ball(2, 2, gens)
    fast = isotropy_probe(ball, D=1, sample_size=12, seed=5)
    assert repr(fast) == repr(isotropy_probe_naive(ball, D=1, sample_size=12, seed=5))


def test_isotropy_probe_past_distance_255():
    ball = free_ball(1, 130)  # distances up to 260
    elements = ball.elements
    fwd, _, length = loxodromic._letter_arrays([x.signed for x in elements])
    counts = loxodromic._pair_counts(fwd, length)
    expected = np.zeros((len(elements), 261), np.int64)  # [i, d]: the j > i at distance d
    for i, x in enumerate(elements):
        for y in elements[i + 1 :]:
            expected[i, tree_distance(x, y)] += 1
    assert counts.dtype == np.uint16  # n = 261 rows hold up to 260 counts each
    assert counts.tolist() == expected.tolist()
    fast = isotropy_probe(ball, D=1, sample_size=12, seed=9)
    assert repr(fast) == repr(isotropy_probe_naive(ball, D=1, sample_size=12, seed=9))


@pytest.mark.parametrize("step_bytes", [1, 3000, 7728])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("rank, radius", [(2, 4), (3, 3)])
def test_isotropy_probe_in_small_blocks_matches_the_word_oracle(monkeypatch, rank, radius, seed, step_bytes):
    # at 8 bytes a distance, 7728 bytes hold three F2 R4 pairs or six index rows a block,
    # 3000 bytes one pair or two rows, and 1 byte one pair or one row
    calls, lcp = [], loxodromic._lcp

    def counted(A, B):
        calls.append(len(A))
        return lcp(A, B)

    monkeypatch.setattr(loxodromic, "SCAN_STEP_BYTES", step_bytes)
    monkeypatch.setattr(loxodromic, "_lcp", counted)
    ball = free_ball(rank, radius)
    fast = isotropy_probe(ball, D=1, sample_size=20, seed=seed)
    naive = isotropy_probe_naive(ball, D=1, sample_size=20, seed=seed, by_distance=naive_pairs(rank, radius))
    assert repr(fast) == repr(naive)
    assert len(calls) >= 14  # one call per block: at least 4 index, 2 partner and 4 pair blocks


def test_isotropy_probe_holds_no_pair_table():
    ball = free_ball(2, 6)
    n = len(ball)
    isotropy_probe(ball, D=2, sample_size=40, seed=7)  # first calls allocate caches
    tracemalloc.start()
    try:
        isotropy_probe(ball, D=2, sample_size=40, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n // 2  # one byte a pair, as the distance rows the index replaced held


def test_isotropy_probe_without_equidistant_pairs():
    # one point, no pair at all; then d(1, a) = 1, d(1, ab^2) = 3, d(a, ab^2) = 2
    for ball in (free_ball(2, 0), types.SimpleNamespace(elements=[parse_word(w) for w in ("", "a", "ab^2")])):
        with pytest.raises(ValueError, match="held by two pairs"):
            isotropy_probe(ball, D=1, sample_size=1)
        report = isotropy_probe(ball, D=1, sample_size=0)
        assert (report.pairs_checked, report.successes, report.failures, report.hardest) == (0, 0, [], None)
