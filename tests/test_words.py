import pytest
from hypothesis import given, strategies as st

from hypactions.groups import FreeGroupOracle
from hypactions.loxodromic import translation_length_exact
from hypactions.words import (
    FreeWord,
    common_prefix_len,
    count_occurrences,
    format_word,
    parse_word,
    tree_distance,
)
from oracles import cyclic_reduce_naive, reduce_naive

letters = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.sampled_from([k, -k])
)
raw_words = st.lists(letters, max_size=14)


def w(text):
    return parse_word(text)


def test_multiply_cancellation():
    assert w("ab") * w("b^-1a") == w("a^2")
    assert w("a") * w("a^-1") == FreeWord.identity()
    assert w("aba^-1") * w("ab") == w("ab^2")


def test_identity_and_inverse():
    x = w("ab^3a^-1")
    assert x * x.inverse() == FreeWord.identity()
    assert x.inverse().inverse() == x
    assert not FreeWord.identity()


def test_pow():
    assert w("ab") ** 3 == w("ababab")
    assert w("ab") ** 0 == FreeWord.identity()
    assert w("ab") ** -2 == (w("ab") ** 2).inverse()
    assert w("aba^-1") ** 4 == w("a") * w("b") ** 4 * w("a^-1")


def test_cyclic_reduce_examples():
    # the translation length on the Cayley tree is the length of the cyclic core
    for text, core in (("aba^-1", "b"), ("bab", "bab"), ("ab^2a^-2", "b^2a^-1")):
        assert cyclic_reduce_naive(w(text).signed) == w(core).signed
        assert translation_length_exact(w(text)) == len(w(core))


@given(raw_words)
def test_reduction_matches_naive(seq):
    assert FreeWord(seq).signed == reduce_naive(seq)


@given(raw_words)
def test_reduction_idempotent(seq):
    reduced = FreeWord(seq)
    assert FreeWord(reduced.signed) == reduced


@given(raw_words, raw_words, raw_words)
def test_associativity(a, b, c):
    u, v, x = FreeWord(a), FreeWord(b), FreeWord(c)
    assert (u * v) * x == u * (v * x)


@given(raw_words)
def test_cyclic_core_matches_naive(seq):
    assert translation_length_exact(FreeWord(seq)) == len(cyclic_reduce_naive(seq))


@given(raw_words)
def test_format_parse_roundtrip(seq):
    word = FreeWord(seq)
    assert parse_word(format_word(word)) == word


def test_parse_variants():
    assert parse_word("aB") == w("ab^-1")
    assert parse_word("1") == FreeWord.identity()
    assert parse_word("") == FreeWord.identity()
    assert parse_word("a^-3") == w("a") ** -3
    with pytest.raises(ValueError):
        parse_word("a!b")
    with pytest.raises(ValueError):
        parse_word("c", rank=2)


def test_generators_past_z_round_trip():
    F30 = FreeGroupOracle(30)
    ball = F30.enumerate_ball(2)
    assert len(ball) == 1 + 60 + 60 * 59
    for g in ball.elements:
        assert F30.parse_element(F30.format_element(g)) == g
    assert F30.parse_element("x27^-2bx26") == FreeWord([-28, -28, 2, 27])
    assert parse_word("x") == FreeWord.generator(23)  # a lone x is still a letter
    assert parse_word("x^2y") == FreeWord([24, 24, 25])
    with pytest.raises(ValueError, match="exceeds rank 27"):
        parse_word("x27", rank=27)
    for text in ("x5", "x027", "X27"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_word(text, rank=30)


def test_tree_distance():
    assert tree_distance(w("a^2"), w("ab")) == 2  # |a^-1 b|
    assert tree_distance(w("ab"), w("ab")) == 0
    assert tree_distance(w("a^2"), w("b^2")) == 4
    assert common_prefix_len(w("a^2"), w("ab")) == 1


@given(raw_words, raw_words)
def test_tree_distance_is_word_length_of_quotient(a, b):
    u, v = FreeWord(a), FreeWord(b)
    assert tree_distance(u, v) == len(u.inverse() * v)


def test_count_occurrences():
    assert count_occurrences(w("abab"), w("ab")) == 2
    assert count_occurrences(w("a"), w("ab")) == 0
    assert count_occurrences(w("a^3"), w("a")) == 3
    assert count_occurrences(w("a^3"), w("a^2")) == 2  # overlaps allowed
