import functools
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from hypactions.errors import BudgetExceeded, CertificateError
from hypactions.groups import BSOracle, FreeGroupOracle
from hypactions.metrics import PseudoLength
from hypactions.quasimorphism import (
    QuasiMorphism,
    anisotropy_certificate,
    brooks_qm,
    defect_empirical,
    exponent_sum_qm,
    homogenization,
    subordination_fit,
)
from hypactions.words import FreeWord, parse_word
from oracles import defect_naive, homogenize_naive, subordinate

ZERO = QuasiMorphism(lambda g: 0.0, defect_bound=0.0)

F2 = FreeGroupOracle(2)
w = parse_word

letters = st.integers(min_value=1, max_value=2).flatmap(
    lambda k: st.sampled_from([k, -k])
)
raw_words = st.lists(letters, max_size=12)


def test_brooks_counting_examples():
    q = brooks_qm(w("ab"))
    assert q(w("abab")) == 2.0
    assert q(w("abab").inverse()) == -2.0
    assert q(FreeWord.identity()) == 0.0
    assert q(w("a")) == 0.0


def test_brooks_proper_power_warns():
    with pytest.warns(UserWarning):
        brooks_qm(w("a^2"))
    with pytest.raises(ValueError):
        brooks_qm(FreeWord.identity())


@given(raw_words)
def test_brooks_antisymmetry(seq):
    q = brooks_qm(w("ab"))
    g = FreeWord(seq)
    assert q(g.inverse()) == -q(g)


def test_defect_examples():
    bs = BSOracle(2, 3)
    ball = bs.enumerate_ball(3)
    assert defect_naive(exponent_sum_qm(), ball.elements) == (0.0, None)

    q = brooks_qm(w("ab"))
    fball = F2.enumerate_ball(4)
    est = defect_empirical(q, fball.elements)
    assert est.value >= 1.0  # e.g. q(ab) - q(a) - q(b) = 1
    g, h = est.witness
    assert abs(q(g * h) - q(g) - q(h)) == est.value

    # only a counting quasi-morphism is scanned; any other q is refused
    for other in (ZERO, exponent_sum_qm()):
        with pytest.raises(ValueError):
            defect_empirical(other, fball.elements[:10])


def test_homogenization_examples():
    bs = BSOracle(2, 3)
    assert homogenization(exponent_sum_qm(), bs.parse_element("ta")) == 1.0  # a homomorphism is its own

    q = brooks_qm(w("ab"))
    assert homogenization(q, w("ab")) == 1.0
    assert homogenization(q, w("ba^2b^-1")) == 0.0  # cyclically reduced to a^2
    assert homogenization(q, FreeWord.identity()) == 0.0
    assert homogenization(brooks_qm(w("aBa")), w("aB")) == 1.0  # aBa reads off aBaB... once a period
    assert homogenization(brooks_qm(w("aBa")), w("ab")) == 0.0
    # (ab)^8 holds abab 7 times, so q(g^8)/8 = 0.875; each copy of ab adds one
    abab = _counting_qm(w("abab"))
    assert (homogenization(abab, w("ab")), homogenize_naive(abab, w("ab"), 8)) == (1.0, 0.875)
    # |c| < |w|: w is read off the periodic word ccc...
    assert homogenization(_counting_qm(w("a^3")), w("a")) == 1.0
    assert homogenization(brooks_qm(w("aab")), w("a")) == 0.0
    with pytest.raises(ValueError):
        homogenization(QuasiMorphism(lambda g: 1.0), w("ab"))  # no bound, no counting word


def _counting_qm(word):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # proper powers are valid counting words
        return brooks_qm(word)


def _free_words(rank, min_size, max_size):
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    return st.lists(letters, min_size=min_size, max_size=max_size).map(FreeWord)


@pytest.mark.parametrize("rank", [2, 3])
@given(data=st.data())
def test_homogenization_matches_the_naive_power(rank, data):
    # q(g^n) - n q-bar(g) is constant once g^n reaches past |w| on both seams
    word = data.draw(_free_words(rank, 1, 4).filter(len), label="w")
    g = data.draw(_free_words(rank, 0, 9), label="g")
    q = _counting_qm(word)
    bar = homogenization(q, g)
    assert bar == int(bar)
    N = 2 * (len(word) + len(g))
    offsets = [n * homogenize_naive(q, g, n) - n * bar for n in range(N, N + 4)]
    assert max(offsets) - min(offsets) < 1e-9


@pytest.mark.parametrize("rank", [2, 3])
@given(data=st.data())
def test_homogenization_is_odd_conjugation_invariant_and_homogeneous(rank, data):
    q = _counting_qm(data.draw(_free_words(rank, 1, 4).filter(len), label="w"))
    g = data.draw(_free_words(rank, 0, 7), label="g")
    h = data.draw(_free_words(rank, 0, 5), label="h")
    bar = homogenization(q, g)
    assert homogenization(q, g.inverse()) == -bar
    assert homogenization(q, h * g * h.inverse()) == bar
    for k in range(-5, 6):
        assert homogenization(q, g**k) == k * bar


def test_subordination_fit_examples():
    fball = F2.enumerate_ball(4)
    lengths = PseudoLength.from_word_lengths(fball)
    assert subordination_fit(ZERO, lengths).M == 0.0

    q = brooks_qm(w("ab"))
    fit = subordination_fit(q, lengths)
    assert fit.M <= 1.0  # occurrence counts never exceed the word length
    assert subordinate(q, lengths, fit.M)

    bs = BSOracle(2, 3)
    ball = bs.enumerate_ball(4)
    tsyl = PseudoLength({g: float(g.t_syllable_count()) for g in ball.elements})
    fit = subordination_fit(exponent_sum_qm(), tsyl)
    assert fit.M == 1.0 and fit.mode == "slope"
    assert subordinate(exponent_sum_qm(), tsyl, fit.M)

    with pytest.raises(ValueError):
        subordination_fit(q, PseudoLength({}))


def test_subordination_affine_fallback():
    # a map that is nonzero on a zero-length element forces the affine form
    fball = F2.enumerate_ball(2)
    lengths = PseudoLength({g: 0.0 if g == w("a") else float(len(g)) for g in fball.elements})
    q = brooks_qm(w("a"))
    fit = subordination_fit(q, lengths)
    assert fit.mode == "affine"
    assert subordinate(q, lengths, fit.M)


def test_subordination_monotone_in_radius():
    q = brooks_qm(w("ab"))
    fits = []
    for radius in (2, 3, 4, 5):
        ball = F2.enumerate_ball(radius)
        fits.append(subordination_fit(q, PseudoLength.from_word_lengths(ball)).M)
    assert fits == sorted(fits)


def test_brooks_defect_plateau():
    q = brooks_qm(w("ab"))
    values = [defect_empirical(q, F2.enumerate_ball(radius).elements).value for radius in (2, 3, 4, 5)]
    # |w| = 2: from radius 2(|w| - 1) = 2 on, every ball holds a pair at the exact defect 1 (q(ab) - q(a) - q(b))
    assert values == [1.0] * 4


def test_anisotropy_certificate_bs():
    bs = BSOracle(2, 3)
    ball = bs.enumerate_ball(4)
    qt = exponent_sum_qm()
    tsyl = PseudoLength({g: float(g.t_syllable_count()) for g in ball.elements})
    cert = anisotropy_certificate(bs, qt, tsyl, bs.parse_element("t"), ball)
    assert cert.subordination_M == 1.0
    assert cert.homogenized_value == 1.0
    assert cert.defect.value == 0.0
    blob = cert.to_json(fmt=bs.format_element)
    assert blob["rows"] and blob["conclusion"]

    with pytest.raises(CertificateError) as info:
        anisotropy_certificate(bs, ZERO, tsyl, bs.parse_element("t"), ball)
    assert info.value.reason == "zero-value"


def test_anisotropy_certificate_brooks():
    ball = F2.enumerate_ball(4)
    q = brooks_qm(w("ab"))
    lengths = PseudoLength.from_word_lengths(ball)
    cert = anisotropy_certificate(F2, q, lengths, w("ab"), ball)
    assert cert.homogenized_value == 1.0
    assert cert.subordination_M <= 1.0
    # the defect is scanned on B(2), whatever the radius of the certificate's ball
    assert cert.defect.to_json(F2.format_element) == {
        "source": "exact", "value": 1.0, "witness_pair": ["b^-1", "a^-1"], "pairs_checked": 17**2}
    with pytest.raises(BudgetExceeded):
        anisotropy_certificate(F2, q, lengths, w("ab"), ball, ball_cap=16)


def test_anisotropy_certificate_refuses_m_zero_beside_a_nonzero_value():
    # abab occurs in no element of B(3), so the fit is M = 0, while q((ab)^n) grows like n
    ball = F2.enumerate_ball(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # abab is a proper power
        q = brooks_qm(w("abab"))
    assert homogenization(q, w("ab")) == 1.0
    assert subordination_fit(q, PseudoLength.from_word_lengths(ball)).M == 0.0
    with pytest.raises(CertificateError, match="fitted M = 0 on the radius-3 ball") as info:
        anisotropy_certificate(F2, q, PseudoLength.from_word_lengths(ball), w("ab"), ball)
    assert info.value.reason == "not-subordinate"


@pytest.mark.parametrize("m, n", [(2, 3), (1, 2)])
def test_exponent_sum_defect_is_analytic_and_matches_the_scan(m, n):
    bs = BSOracle(m, n)
    ball = bs.enumerate_ball(3)
    qt = exponent_sum_qm()
    tsyl = PseudoLength({g: float(g.t_syllable_count()) for g in ball.elements})
    cert = anisotropy_certificate(bs, qt, tsyl, bs.parse_element("t"), ball)
    assert cert.defect.to_json() == {"source": "analytic", "value": 0.0, "witness_pair": None, "pairs_checked": 0}
    assert defect_naive(qt, ball.elements) == (cert.defect.value, None)


F3 = FreeGroupOracle(3)


def _scan_case(word, radius, oracle=F2, stride=1, tag=""):
    return pytest.param(oracle, word, radius, stride, id=f"{tag}{word}-{radius}")


@pytest.mark.parametrize("oracle, word, radius, stride", [
    *(_scan_case(word, radius) for word in ("ab", "aab", "abAB") for radius in (3, 4)),
    *(_scan_case(word, 4) for word in ("a", "abab", "aba", "bA")),
    _scan_case("abc", 3, oracle=F3, tag="F3-"),
    _scan_case("aCb", 3, oracle=F3, tag="F3-"),
    _scan_case("abAB", 4, stride=3, tag="every-third-"),
    _scan_case("aba", 4, stride=3, tag="every-third-"),
])
def test_brooks_defect_scan_matches_the_naive_scan(oracle, word, radius, stride):
    # a stride above 1 keeps words whose prefixes it drops: the scan may not rely on prefix closure
    ball = oracle.enumerate_ball(radius)
    elements = ball.elements[::stride]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # abab is a proper power
        q = brooks_qm(w(word))
    est = defect_empirical(q, elements)
    assert (est.value, est.witness) == defect_naive(q, elements)
    assert (est.source, est.pairs_checked) == ("scan", len(elements) ** 2)
    if stride > 1:
        return
    lengths = PseudoLength.from_word_lengths(ball)
    if len(word) > radius:  # a certificate needs its witness in the ball
        with pytest.raises(CertificateError) as info:
            anisotropy_certificate(oracle, q, lengths, w(word), ball)
        assert info.value.reason == "witness-outside-ball"
        return
    cert = anisotropy_certificate(oracle, q, lengths, w(word), ball)
    exact = defect_empirical(q, oracle.enumerate_ball(2 * (len(word) - 1)).elements)
    assert cert.defect == replace(exact, source="exact")
    if radius >= 2 * (len(word) - 1):
        assert cert.defect.value == est.value


# (word, rank): defect_naive at the radii where it takes at most about 2 s (up
# to 485 points), the trie scan on the rest of 2(|w| - 1) .. 2(|w| - 1) + 2
EXACT_DEFECT_CASES = [
    *((word, 2) for word in ("a", "ab", "aab", "aBa", "abAB", "abab", "aabb", "abaB")),
    *((word, 3) for word in ("abc", "aBc")),
]
NAIVE_POINTS = 485


@functools.cache
def _ball(rank, radius):
    return FreeGroupOracle(rank).enumerate_ball(radius)


@pytest.mark.parametrize("word, rank", EXACT_DEFECT_CASES, ids=[f"F{r}-{x}" for x, r in EXACT_DEFECT_CASES])
def test_exact_defect_equals_the_scan_of_every_larger_ball(word, rank):
    oracle = FreeGroupOracle(rank)
    q = _counting_qm(w(word))
    ball = oracle.enumerate_ball(len(word))
    cert = anisotropy_certificate(oracle, q, PseudoLength.from_word_lengths(ball), w(word), ball)
    low = 2 * (len(word) - 1)
    assert cert.defect.source == "exact"
    assert cert.defect.pairs_checked == len(_ball(rank, low)) ** 2
    for radius in range(low, low + 3):
        elements = _ball(rank, radius).elements
        if len(elements) <= NAIVE_POINTS:
            assert defect_naive(q, elements)[0] == cert.defect.value, radius
        else:
            assert defect_empirical(q, elements).value == cert.defect.value, radius


def test_brooks_defect_scan_skips_h_that_cancels_further():
    # g = ba^-2 cancels two letters of h = a^3b^-1, and gh = bab^-1.  Read
    # at one letter of cancellation, the pair would count aab^-1 in the
    # unreduced spelling ba^-1.a^2b^-1: a defect of 1 that no pair here has.
    elements = [w("ba^-2"), w("a^3b^-1")]
    q = brooks_qm(w("aaB"))
    assert defect_naive(q, elements) == (0.0, None)
    est = defect_empirical(q, elements)
    assert (est.value, est.witness) == (0.0, None)


BALL_F2_R3 = F2.enumerate_ball(3)


@given(st.lists(letters, min_size=1, max_size=4).map(FreeWord).filter(len))
def test_brooks_defect_scan_matches_the_naive_scan_for_random_words(word):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q = brooks_qm(word)
    est = defect_empirical(q, BALL_F2_R3.elements)
    assert (est.value, est.witness) == defect_naive(q, BALL_F2_R3.elements)
