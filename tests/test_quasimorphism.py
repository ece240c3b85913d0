import warnings

import pytest
from hypothesis import given, strategies as st

from hypactions.errors import CertificateError
from hypactions.groups import BSOracle, FreeGroupOracle
from hypactions.metrics import PseudoLength
from hypactions.quasimorphism import (
    QuasiMorphism,
    anisotropy_certificate,
    brooks_qm,
    defect_empirical,
    exponent_sum_qm,
    homogenize,
    subordination_fit,
)
from hypactions.words import FreeWord, parse_word
from oracles import defect_naive, subordinate

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


def test_homogenize():
    bs = BSOracle(2, 3)
    qt = exponent_sum_qm()
    g = bs.parse_element("ta")
    hom = homogenize(qt, g, 6)
    assert hom.value == 1.0 and hom.error_bound == 0.0

    q = brooks_qm(w("ab"))
    hom = homogenize(q, w("ab"), 8, defect=1.0)
    assert hom.value == 1.0
    assert hom.error_bound == 1.0 / 8
    hom = homogenize(q, FreeWord.identity(), 4, defect=1.0)
    assert hom.value == 0.0
    with pytest.raises(ValueError):
        homogenize(q, w("ab"), 4)  # no defect bound anywhere


def test_homogenization_consistency():
    q = brooks_qm(w("ab"))
    D = 2.0
    for text in ("ab", "ab^2", "ba"):
        g = w(text)
        for n in (2, 4):
            v1 = homogenize(q, g, n, defect=D).value
            v2 = homogenize(q, g, 2 * n, defect=D).value
            assert abs(v1 - v2) <= D / n + 1e-12


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
    values = []
    for radius in (2, 3, 4, 5):
        ball = F2.enumerate_ball(radius)
        values.append(defect_empirical(q, ball.elements).value)
    # |w| = 2: the sampled defect stabilizes beyond radius 2|w| + 2
    assert values[-1] == values[-2]


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
    with pytest.raises(CertificateError) as info:
        anisotropy_certificate(bs, qt, tsyl, bs.parse_element("t"), ball, m_cap=0.5)
    assert info.value.reason == "not-subordinate"


def test_anisotropy_certificate_brooks():
    ball = F2.enumerate_ball(4)
    q = brooks_qm(w("ab"))
    lengths = PseudoLength.from_word_lengths(ball)
    cert = anisotropy_certificate(F2, q, lengths, w("ab"), ball)
    assert cert.homogenized_value == 1.0
    assert cert.subordination_M <= 1.0


@pytest.mark.parametrize("m, n", [(2, 3), (1, 2)])
def test_exponent_sum_defect_is_analytic_and_matches_the_scan(m, n):
    bs = BSOracle(m, n)
    ball = bs.enumerate_ball(3)
    qt = exponent_sum_qm()
    tsyl = PseudoLength({g: float(g.t_syllable_count()) for g in ball.elements})
    cert = anisotropy_certificate(bs, qt, tsyl, bs.parse_element("t"), ball)
    assert cert.defect.to_json() == {"source": "analytic", "value": 0.0, "witness_pair": None, "pairs_checked": 0}
    assert defect_naive(qt, ball.elements) == (cert.defect.value, None)
    assert cert.homogenization_error == 0.0


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
    assert cert.defect == est
    assert cert.homogenization_error == est.value / cert.power


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
