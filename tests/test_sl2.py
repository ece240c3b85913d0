import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypactions.errors import NotLoxodromic
from hypactions.groups import GroupOracle, enumerate_ball
from hypactions.sl2 import (
    QuadFieldElement,
    RealEmbedding,
    SL2Oracle,
    _is_square_free,
    classify,
    embedding_spectrum_compare,
    lemma_emb_matrix,
    mat2,
    mat2_identity,
    orbit_distance_h2,
    parse_qfe,
    qfe,
    translation_length_h2,
)
from oracles import FractionMat2, FractionQuadField, acosh_decimal, is_square_free_naive, pseudo_length_violation

PLUS = RealEmbedding(1)
MINUS = RealEmbedding(-1)


def test_field_arithmetic():
    x = qfe(Fraction(1, 2), Fraction(3, 4), 2)
    y = qfe(2, -1, 2)
    assert (x + y) - y == x
    assert (x * y) / y == x
    one = qfe(1, 0, 2)
    assert x / x == one
    with pytest.raises(ValueError):
        qfe(1, 1, 4)  # not square-free
    with pytest.raises(ValueError):
        qfe(1, 1, 2) + qfe(1, 1, 3)


def test_exact_signs():
    assert qfe(0, 0, 2).sign_under(PLUS) == 0
    assert qfe(-3, 0, 2).sign_under(PLUS) == -1
    assert qfe(0, 1, 2).sign_under(PLUS) == 1
    assert qfe(0, 1, 2).sign_under(MINUS) == -1
    # 3 - 2*sqrt2 > 0 but 2 - 2*sqrt2 < 0: squared comparison paths
    assert qfe(3, -2, 2).sign_under(PLUS) == 1
    assert qfe(2, -2, 2).sign_under(PLUS) == -1
    # 2 - sqrt(4)... use d=5: 2 - sqrt5 < 0, 3 - sqrt5 > 0
    assert qfe(2, -1, 5).sign_under(PLUS) == -1
    assert qfe(3, -1, 5).sign_under(PLUS) == 1


def test_interval_brackets_value():
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    x = parse_qfe("sqrt2-1", 2)
    lo, hi = x.interval_under(PLUS, 64)
    reference = Fraction(Decimal(2).sqrt()) - 1  # 50 significant digits
    assert lo <= reference <= hi
    assert float(hi - lo) < 1e-18


def test_parse_qfe():
    assert parse_qfe("sqrt2-1", 2) == qfe(-1, 1, 2)
    assert parse_qfe("-1/2+3/4*sqrt(2)", 2) == qfe(Fraction(-1, 2), Fraction(3, 4), 2)
    assert parse_qfe("5/3", 2) == qfe(Fraction(5, 3), 0, 2)
    assert parse_qfe("-sqrt2", 2) == qfe(0, -1, 2)
    with pytest.raises(ValueError):
        parse_qfe("sqrt3", 2)
    with pytest.raises(ValueError):
        parse_qfe("x+1", 2)


@pytest.mark.parametrize("text", ["1/0", "sqrt2+1/0", "3/0*sqrt2"])
def test_parse_qfe_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_qfe(text, 2)


RATIONALS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)) | st.integers(-5, 5)
FIELD_PAIRS = st.tuples(st.sampled_from([2, 3, 5, 6, 7]), RATIONALS, RATIONALS, RATIONALS, RATIONALS)


def _agrees(x, oracle):
    """The integer element and the Fraction oracle hold the same number."""
    return type(x.a) is Fraction and (x.a, x.b, x.d, str(x)) == (oracle.a, oracle.b, oracle.d, str(oracle))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(FIELD_PAIRS)
def test_field_matches_the_fraction_oracle(case):
    d, a1, b1, a2, b2 = case
    x, y = QuadFieldElement(a1, b1, d), QuadFieldElement(a2, b2, d)
    ox, oy = FractionQuadField(a1, b1, d), FractionQuadField(a2, b2, d)
    assert _agrees(x, ox) and _agrees(y, oy)
    assert x.den > 0 and math.gcd(x.p, x.q, x.den) == 1
    assert _agrees(x + y, ox + oy)
    assert _agrees(x - y, ox - oy)
    assert _agrees(x * y, ox * oy)
    assert _agrees(-x, -ox)
    assert _agrees(x + a2, ox + a2) and _agrees(x * b2, ox * b2)
    if oy.a or oy.b:
        assert _agrees(x / y, ox / oy)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for emb in (PLUS, MINUS):
        assert x.sign_under(emb) == ox.sign_under(emb.sign)
        assert (x - y).sign_under(emb) == (ox - oy).sign_under(emb.sign)
    assert (x == y) == (ox == oy)
    twin = QuadFieldElement(ox.a, ox.b, d)
    assert twin == x and hash(twin) == hash(x)
    # [[x, x^2 - 1], [1, x]] has determinant 1 for every x
    mx, my = lemma_emb_matrix(x), lemma_emb_matrix(y)
    one = FractionQuadField(1, 0, d)
    omx, omy = FractionMat2(ox, ox * ox - one, one, ox), FractionMat2(oy, oy * oy - one, one, oy)
    assert (mx.sort_key() < my.sort_key()) == (omx.sort_key() < omy.sort_key())
    assert (mx.sort_key() == my.sort_key()) == (omx.sort_key() == omy.sort_key())


class FractionSL2(GroupOracle):
    """The group generated by oracle matrices, named as SL2Oracle names them."""

    def __init__(self, gens, names):
        self.gens, self.names = gens, names
        self.one, self.zero = FractionQuadField(1, 0, gens[0].a.d), FractionQuadField(0, 0, gens[0].a.d)

    def identity(self):
        return FractionMat2(self.one, self.zero, self.zero, self.one)

    def generators(self):
        return list(self.gens)

    def format_element(self, x):
        for g, name in zip(self.gens, self.names):
            if x == g:
                return name
            if x == g.inverse():
                return f"{name}^-1"
        return str(x)


@pytest.mark.parametrize("d", [2, 3])
def test_ball_matches_the_fraction_oracle_ball(d):
    x = parse_qfe(f"sqrt{d}-1", d)
    ball = SL2Oracle(d=d, gens=[lemma_emb_matrix(x), mat2([[1, 1], [0, 1]], d)], names=["A", "T"]).enumerate_ball(5)
    ox, one, zero = FractionQuadField(-1, 1, d), FractionQuadField(1, 0, d), FractionQuadField(0, 0, d)
    oracle = FractionSL2([FractionMat2(ox, ox * ox - one, one, ox), FractionMat2(one, one, zero, one)], ["A", "T"])
    expected = enumerate_ball(oracle, 5)
    assert len(ball) == len(expected) > 400
    assert ball.words == expected.words
    assert [[str(e) for e in M.entries()] for M in ball.elements] == [
        [str(e) for e in (M.a, M.b, M.c, M.d)] for M in expected.elements
    ]


def test_mat2_determinant_enforced():
    with pytest.raises(ValueError):
        mat2([[1, 1], [1, 1]])
    A = mat2([[2, 1], [1, 1]])
    assert A * A.inverse() == mat2_identity(2)
    assert (A**3) * (A**-3) == mat2_identity(2)


def test_trace_properties():
    A = mat2([[2, 1], [1, 1]])
    B = mat2([[1, 3], [0, 1]])
    assert (A * B).trace() == (B * A).trace()
    C = mat2([[1, 1], [1, 2]])
    conj = C * A * C.inverse()
    assert conj.trace() == A.trace()
    assert classify(conj, PLUS) == classify(A, PLUS)


def test_classify_examples():
    assert classify(mat2_identity(2), PLUS) == "parabolic"  # tr^2 - 4 = 0
    assert classify(mat2([[2, 1], [1, 1]]), PLUS) == "loxodromic"
    assert classify(mat2([[0, -1], [1, 0]]), PLUS) == "elliptic"


def test_lemma_emb_matrix_split():
    x = parse_qfe("sqrt2-1", 2)
    A = lemma_emb_matrix(x)
    assert A.trace() == qfe(-2, 2, 2)  # 2x
    assert classify(A, PLUS) == "elliptic"
    assert classify(A, MINUS) == "loxodromic"
    assert classify(lemma_emb_matrix(qfe(0, 0, 2)), PLUS) == "elliptic"  # rotation
    assert classify(lemma_emb_matrix(qfe(1, 0, 2)), PLUS) == "parabolic"


def test_translation_length_value():
    A = mat2([[2, 1], [1, 1]])
    tau = translation_length_h2(A, PLUS)
    assert tau == pytest.approx(2 * acosh_decimal(1.5), abs=1e-9)
    assert tau == pytest.approx(1.9248473002, abs=1e-9)
    with pytest.raises(NotLoxodromic):
        translation_length_h2(mat2_identity(2), PLUS)


def test_translation_length_of_powers():
    A = mat2([[2, 1], [1, 1]])
    tau = translation_length_h2(A, PLUS)
    for k in (2, 3, 4):
        assert translation_length_h2(A**k, PLUS) == pytest.approx(k * tau, abs=1e-9)
    x = parse_qfe("sqrt2-1", 2)
    B = lemma_emb_matrix(x)
    tau = translation_length_h2(B, MINUS)
    assert translation_length_h2(B**2, MINUS) == pytest.approx(2 * tau, abs=1e-9)


def test_lemma_emb_minus_value():
    # |tr| under the minus embedding is 2*sqrt2 + 2; tau = 2*arccosh(sqrt2 + 1)
    x = parse_qfe("sqrt2-1", 2)
    A = lemma_emb_matrix(x)
    tau = translation_length_h2(A, MINUS)
    assert tau == pytest.approx(2 * acosh_decimal(math.sqrt(2) + 1), abs=1e-9)


def test_orbit_distance_examples():
    assert orbit_distance_h2(mat2_identity(2), PLUS) == 0.0
    T = mat2([[1, 1], [0, 1]])
    assert orbit_distance_h2(T, PLUS) == pytest.approx(acosh_decimal(1.5), abs=1e-12)
    assert orbit_distance_h2(T, PLUS) == pytest.approx(0.9624236501, abs=1e-9)
    A = mat2([[2, 1], [1, 1]])
    assert orbit_distance_h2(A, PLUS) >= translation_length_h2(A, PLUS) - 1e-12


def test_orbit_distance_is_pseudo_length():
    oracle = SL2Oracle(d=2)
    ball = oracle.enumerate_ball(3)
    values = {g: orbit_distance_h2(g, PLUS) for g in ball.elements}
    assert pseudo_length_violation(oracle.identity(), values) is None
    assert values[oracle.identity()] == 0.0


def test_spectrum_compare_same_embedding():
    x = parse_qfe("sqrt2-1", 2)
    gens = [lemma_emb_matrix(x), mat2([[1, 1], [0, 1]])]
    rows, witnesses = embedding_spectrum_compare(SL2Oracle(gens=gens).enumerate_ball(1), PLUS, PLUS)
    assert witnesses == []


def test_spectrum_compare_rational_matrices_agree():
    gens = [mat2([[1, 1], [0, 1]]), mat2([[0, -1], [1, 0]])]
    rows, witnesses = embedding_spectrum_compare(SL2Oracle(gens=gens).enumerate_ball(2), PLUS, MINUS)
    assert witnesses == []  # both embeddings restrict to the identity on Q


def test_spectrum_compare_finds_split_witness():
    x = parse_qfe("sqrt2-1", 2)
    gens = [lemma_emb_matrix(x), mat2([[1, 1], [0, 1]])]
    rows, witnesses = embedding_spectrum_compare(SL2Oracle(gens=gens).enumerate_ball(1), PLUS, MINUS)
    assert witnesses
    assert any(r["class_e1"] == "elliptic" and r["class_e2"] == "loxodromic" for r in witnesses)


@pytest.mark.parametrize("d, x, radius", [(2, "sqrt2-1", 4), (3, "sqrt3-1", 3)])
def test_spectrum_compare_matches_a_classification_per_element(monkeypatch, d, x, radius):
    # the rows are computed once per trace; the reference classifies every element
    import hypactions.sl2

    gens = [lemma_emb_matrix(parse_qfe(x, d)), mat2([[1, 1], [0, 1]], d)]
    ball = SL2Oracle(d=d, gens=gens).enumerate_ball(radius)
    traces = {A.trace() for A in ball.elements}
    assert len(traces) < len(ball)
    calls = []
    monkeypatch.setattr(hypactions.sl2, "classify", lambda A, e: calls.append(A) or classify(A, e))
    rows, witnesses = embedding_spectrum_compare(ball, PLUS, MINUS)
    monkeypatch.undo()
    per_trace = {r["trace"]: r for r in rows}.values()
    assert len(per_trace) == len(traces)
    # two classes per trace, and `translation_length_h2` classifies a loxodromic one again
    assert len(calls) == sum(2 + (r["class_e1"] == "loxodromic") + (r["class_e2"] == "loxodromic") for r in per_trace)

    def row(word, A):
        c1, c2 = classify(A, PLUS), classify(A, MINUS)
        return {"word": word, "trace": str(A.trace()), "class_e1": c1, "class_e2": c2,
                "tau_e1": translation_length_h2(A, PLUS) if c1 == "loxodromic" else 0.0,
                "tau_e2": translation_length_h2(A, MINUS) if c2 == "loxodromic" else 0.0}

    assert rows == [row(word, A) for word, A in zip(ball.words, ball.elements)]
    assert witnesses == [r for r in rows if r["class_e1"] != r["class_e2"]]
    assert witnesses and len({r["trace"] for r in witnesses}) < len(witnesses)


def test_mat2_json_roundtrip():
    # the exact {"a", "b"} entries that sl2-embed writes read back as the matrix
    A = lemma_emb_matrix(parse_qfe("sqrt2-1", 2))
    blob = [{"a": str(e.a), "b": str(e.b)} for e in A.entries()]
    assert tuple(QuadFieldElement(Fraction(e["a"]), Fraction(e["b"]), 2) for e in blob) == A.entries()


def _next_prime(n):
    while any(n % k == 0 for k in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def test_square_free_matches_trial_division():
    assert [d for d in range(20_000) if _is_square_free(d)] == [d for d in range(20_000) if is_square_free_naive(d)]
    # p^2 q with p above the cube root of d: the square shows only in the cofactor
    for p in (_next_prime(1_000), _next_prime(3_000)):
        for q in (1, 2, 3, p, _next_prime(p + 1), _next_prime(10 * p)):
            for d in (p * p * q, p * q, p * _next_prime(p + 1) * q):
                assert _is_square_free(d) == is_square_free_naive(d), d


def test_square_free_with_prime_factors_near_ten_million():
    p, r = _next_prime(10**7), _next_prime(10**7 + 100)
    assert (p, r) == (10_000_019, 10_000_103)
    for q in (1, 2, 3, 30):
        assert not _is_square_free(p * p * q)
        assert _is_square_free(p * r * q)
    assert not _is_square_free(4 * p * r)
