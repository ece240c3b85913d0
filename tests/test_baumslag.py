import pytest
from hypothesis import given, strategies as st

from hypactions.baumslag import bs_identity, bs_normalize, format_bs, parse_bs
from oracles import bs_tokens


def test_defining_relation_pinches():
    # conjugating a^2 by the stable letter in BS(2, 3)
    assert parse_bs("t^-1a^2t", 2, 3) == parse_bs("a^3", 2, 3)
    assert parse_bs("t^-1at", 2, 3) != parse_bs("a", 2, 3)  # no pinch
    assert format_bs(parse_bs("t^-1at", 2, 3)) == "t^-1at"
    assert parse_bs("t^-1a^4ta^-1", 2, 3) == parse_bs("a^5", 2, 3)
    assert parse_bs("ta^3t^-1", 2, 3) == parse_bs("a^2", 2, 3)


def test_negative_exponents_and_parameters():
    assert parse_bs("t^-1a^-2t", 2, 3) == parse_bs("a^-3", 2, 3)
    # BS(-2, 3): t^-1 a^-2 t = a^3
    assert parse_bs("t^-1a^-2t", -2, 3) == parse_bs("a^3", -2, 3)


def test_identity_and_inverse():
    e = bs_identity(2, 3)
    g = parse_bs("at^2a^-1t^-1a", 2, 3)
    assert g * g.inverse() == e
    assert g.inverse().inverse() == g
    assert e * g == g


def test_equal_iff_same_normal_form():
    g = parse_bs("a^2t", 2, 3)
    h = parse_bs("ta^3", 2, 3)  # a^2 t = t a^3
    assert g == h
    assert hash(g) == hash(h)


tokens = st.lists(
    st.one_of(
        st.integers(min_value=-4, max_value=4).map(lambda k: ("a", k)),
        st.sampled_from([("t", 1), ("t", -1)]),
    ),
    max_size=10,
)


@given(tokens, st.integers(min_value=0, max_value=8), st.booleans())
def test_relator_insertion_preserves_normal_form(toks, pos, flip):
    # inserting t^-1 a^m t a^-n or t a^n t^-1 a^-m anywhere is invisible
    m, n = 2, 3
    if flip:
        relator = [("t", 1), ("a", n), ("t", -1), ("a", -m)]
    else:
        relator = [("t", -1), ("a", m), ("t", 1), ("a", -n)]
    pos = min(pos, len(toks))
    spliced = toks[:pos] + relator + toks[pos:]
    assert bs_normalize(spliced, m, n) == bs_normalize(toks, m, n)


@given(tokens, tokens, tokens)
def test_associativity(t1, t2, t3):
    m, n = 2, 3
    x, y, z = (bs_normalize(t, m, n) for t in (t1, t2, t3))
    assert (x * y) * z == x * (y * z)


@given(tokens)
def test_t_exponent_sum_is_homomorphic(toks):
    m, n = 2, 3
    g = bs_normalize(toks, m, n)
    raw_sum = sum(v for kind, v in toks if kind == "t")
    assert g.t_exponent_sum() == raw_sum


@given(tokens)
def test_inverse_properties(toks):
    g = bs_normalize(toks, 2, 3)
    assert g * g.inverse() == bs_identity(2, 3)
    assert g.inverse().t_exponent_sum() == -g.t_exponent_sum()
    assert g.inverse().t_syllable_count() == g.t_syllable_count()


SEAM_GROUPS = [(1, 2), (2, 3), (2, -3), (-2, 3), (3, 3)]


def pinching_tokens(m, n):
    # a-exponents that are multiples of m or n make t^-1 a^{km} t and t a^{kn} t^-1 collapse
    exps = st.one_of(
        st.integers(-3, 3).map(lambda k: k * m),
        st.integers(-3, 3).map(lambda k: k * n),
        st.integers(-4, 4),
    )
    return st.lists(
        st.one_of(exps.map(lambda k: ("a", k)), st.sampled_from([("t", 1), ("t", -1)])),
        max_size=16,
    )


@given(st.data(), st.booleans())
def test_seam_product_is_the_full_normalization(data, undo):
    m, n = data.draw(st.sampled_from(SEAM_GROUPS))
    x = bs_normalize(data.draw(pinching_tokens(m, n)), m, n)
    # y starting with x^-1 pinches deep into x at the seam
    head = bs_tokens(x.inverse()) if undo else []
    y = bs_normalize(head + data.draw(pinching_tokens(m, n)), m, n)
    assert x * y == bs_normalize(bs_tokens(x) + bs_tokens(y), m, n)


@given(st.data(), st.integers(min_value=0, max_value=30))
def test_power_is_the_full_normalization_of_k_copies(data, k):
    m, n = data.draw(st.sampled_from(SEAM_GROUPS))
    g = bs_normalize(data.draw(pinching_tokens(m, n)), m, n)
    assert g**k == bs_normalize(bs_tokens(g) * k, m, n)


def test_normal_form_residues():
    g = parse_bs("a^7t", 2, 3)  # a^7 t = a t a^9
    assert g.pairs == ((1, 1),)
    assert g.tail == 9
    h = parse_bs("a^7t^-1", 2, 3)  # residue mod 3 before t^-1
    assert h.pairs == ((1, -1),)
    assert h.tail == 4


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bs("b", 2, 3)
    with pytest.raises(ValueError):
        bs_normalize([("a", 1)], 0, 3)
