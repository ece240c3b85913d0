import functools
import warnings

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

    # only a counting quasi-morphism has seam classes; any other q is refused
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
    values = [defect_empirical(q, F2.enumerate_ball(radius).elements).value for radius in (1, 2, 3, 4, 5)]
    # |w| = 2: from radius |w| - 1 = 1 on, every ball holds every seam class, and the max is the exact defect 1
    assert values == [1.0] * 5


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
    # the defect comes from the seam classes of B(1), whatever the radius of the certificate's ball
    assert cert.defect.to_json(F2.format_element) == {
        "source": "exact", "value": 1.0, "witness_pair": ["a^-1", "ab"], "pairs_checked": 73}
    with pytest.raises(BudgetExceeded):
        anisotropy_certificate(F2, q, lengths, w("ab"), ball, ball_cap=4)


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


def _replays(q, est):
    """The witness pair reaches the estimate's value, and is None exactly when it is 0."""
    if est.witness is None:
        return est.value == 0
    g, h = est.witness
    return est.value != 0 and abs(q(g * h) - q(g) - q(h)) == est.value


# every reduced word of F2 up to length 2, and length 3 up to the signed
# letter permutations (first letter a, then b for b^+-1): naive on B(4) takes
# about 0.3 s a word; F3 words of length 2 up to the same symmetries
SEAM_CASES = [
    *((F2, word) for word in F2.enumerate_ball(2).elements if word),
    *((F2, w(word)) for word in ("aaa", "aab", "aba", "abA", "abb")),
    *((F3, w(word)) for word in ("aa", "ab")),
]


@pytest.mark.parametrize("oracle, word", SEAM_CASES, ids=[f"F{o.rank}-{x}" for o, x in SEAM_CASES])
def test_seam_class_defect_equals_the_naive_scan_of_b_2w(oracle, word):
    # the classes of B(|w| - 1) give the max of |q(gh) - q(g) - q(h)| over B(2(|w| - 1)), which is the defect
    q = _counting_qm(word)
    est = defect_empirical(q, oracle.enumerate_ball(len(word) - 1).elements)
    pairs = oracle.enumerate_ball(2 * (len(word) - 1))
    assert est.value == defect_naive(q, pairs.elements)[0]
    assert _replays(q, est)
    assert est.witness is None or set(est.witness) <= set(pairs.elements)


@pytest.mark.parametrize("oracle, word, radius, stride", [
    *(_scan_case(word, radius) for word in ("ab", "aab", "abAB") for radius in (3, 4)),
    *(_scan_case(word, 4) for word in ("a", "abab", "aba", "bA")),
    _scan_case("abc", 3, oracle=F3, tag="F3-"),
    _scan_case("aCb", 3, oracle=F3, tag="F3-"),
    _scan_case("abAB", 4, stride=3, tag="every-third-"),
    _scan_case("aba", 4, stride=3, tag="every-third-"),
])
def test_brooks_defect_scan_matches_the_naive_scan(oracle, word, radius, stride):
    # no pair of any set, here B(radius) or every third point of it, beats the
    # exact defect, and once the set holds B(2(|w| - 1)) one reaches it; the
    # classes of B(radius), in whatever order, give the exact defect too
    ball = oracle.enumerate_ball(radius)
    elements = ball.elements[::stride]
    q = _counting_qm(w(word))
    exact = defect_empirical(q, oracle.enumerate_ball(len(word) - 1).elements)
    assert _replays(q, exact) and exact.source == "exact"
    naive, _ = defect_naive(q, elements)
    assert naive <= exact.value
    if stride > 1:
        return
    if radius >= 2 * (len(word) - 1):
        assert naive == exact.value
    assert defect_empirical(q, ball.elements[::-1]).value == exact.value
    lengths = PseudoLength.from_word_lengths(ball)
    if len(word) > radius:  # a certificate needs its witness in the ball
        with pytest.raises(CertificateError) as info:
            anisotropy_certificate(oracle, q, lengths, w(word), ball)
        assert info.value.reason == "witness-outside-ball"
        return
    assert anisotropy_certificate(oracle, q, lengths, w(word), ball).defect == exact


# (word, rank, class triples of B(|w| - 1)): defect_naive at the radii where
# it takes at most about 2 s (up to 485 points), the seam classes on the rest
# of 2(|w| - 1) .. 2(|w| - 1) + 2
EXACT_DEFECT_CASES = [
    *((word, 2, triples) for word, triples in (
        ("a", 1), ("ab", 73), ("aab", 169), ("aBa", 169), ("abAB", 361), ("abab", 361), ("aabb", 361), ("abaB", 361))),
    *((word, 3, 445) for word in ("abc", "aBc")),
]
NAIVE_POINTS = 485


@functools.cache
def _ball(rank, radius):
    return FreeGroupOracle(rank).enumerate_ball(radius)


@pytest.mark.parametrize("word, rank, triples", EXACT_DEFECT_CASES,
                         ids=[f"F{r}-{x}" for x, r, _ in EXACT_DEFECT_CASES])
def test_exact_defect_equals_the_scan_of_every_larger_ball(word, rank, triples):
    oracle = FreeGroupOracle(rank)
    q = _counting_qm(w(word))
    ball = oracle.enumerate_ball(len(word))
    cert = anisotropy_certificate(oracle, q, PseudoLength.from_word_lengths(ball), w(word), ball)
    low = 2 * (len(word) - 1)
    assert (cert.defect.source, cert.defect.pairs_checked) == ("exact", triples)
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
    # No triple of these two words' classes makes u x, x^-1 v and u v reduced.
    elements = [w("ba^-2"), w("a^3b^-1")]
    q = brooks_qm(w("aaB"))
    assert defect_naive(q, elements) == (0.0, None)
    est = defect_empirical(q, elements)
    assert (est.value, est.witness, est.pairs_checked) == (0.0, None, 0)


BALL_F2_R3 = F2.enumerate_ball(3)


@given(st.lists(letters, min_size=1, max_size=4).map(FreeWord).filter(len), raw_words, raw_words)
def test_brooks_defect_scan_matches_the_naive_scan_for_random_words(word, g, h):
    # B(3) holds every class of a word of length up to 4: its pairs reach the
    # exact defect when |w| <= 2, and no pair at all, in B(3) or not, beats it
    q = _counting_qm(word)
    est = defect_empirical(q, BALL_F2_R3.elements)
    naive, _ = defect_naive(q, BALL_F2_R3.elements)
    assert naive == est.value if len(word) <= 2 else naive <= est.value
    assert _replays(q, est)
    g, h = FreeWord(g), FreeWord(h)
    assert abs(q(g * h) - q(g) - q(h)) <= est.value
